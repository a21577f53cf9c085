"""Exact abelian value groups with translation-invariant metrics.

Every construction in this package takes values in an abelian group
carrying a translation-invariant metric.  Six concrete groups are
provided:

* ``INTEGERS``            -- (Z, +), metric |a - b|
* ``RATIONALS``           -- (Q, +), metric |a - b|
* ``DYADICS``             -- rationals with power-of-two denominator; the
                             countable dense subgroup used for rounding
* ``integers_mod(m)``     -- (Z/m, +), circular metric min(d, m - d)
* ``rational_vectors(d)`` -- (Q^d, +), metric = sum of coordinate distances
* ``APPROX_REALS``        -- floats; inexact, excluded from exact-mode proofs

The metrics on Z/m and Q^d are conventions of this implementation (any
compatible translation-invariant metric would do); they are fixed so that
every derived quantity is a reproducible exact rational.  Kernels run on
one form, number columns over one denominator (``Group.numerators``);
``Group.rational`` (Z, Q, dyadics) only routes mu-laws.
All but Z/m write their metric as the largest of a few ordered coordinate
differences, read off kernel columns by ``Group.projections``, so diameters
and window extrema run in linear time.  Float values are compared with
``REPORTING_TOLERANCE`` in reports only, never in exact-mode verification.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import inf, isfinite, lcm
from operator import add, eq, sub
from typing import Any

from ._records import record

#: Tolerance for float comparisons in reports.  Exact groups never use it.
REPORTING_TOLERANCE = 1e-9

#: Most signed coordinate terms n * d * 2^(d-1) that Q^d's ``projections``
#: of n values may sum; vec:2 and vec:3 stay under it up to 2^20 values.
MAX_PROJECTION_TERMS = 1 << 24

#: Largest exponent k of a dyadic value record {"t": "dy", "n": n, "k": k}
#: (the value n / 2^k); a larger one is refused before 2^k is built.
MAX_DYADIC_EXPONENT = 1 << 16


class GroupMismatchError(TypeError):
    """Raised when an operation mixes values from different groups."""


class UnsupportedValueError(TypeError):
    """Raised when a value variant does not support the requested operation."""


def _is_int(value) -> bool:
    """The one integer test: an int, not a bool (plain ints pass on the fast first test)."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def _ratio(n, d) -> Fraction:
    """The rational n/d of a value record: integers n and d (not bools), d nonzero."""
    if not (_is_int(n) and _is_int(d)):
        raise UnsupportedValueError(f"a value record needs integers, got {n!r} / {d!r}")
    if d == 0:
        raise ValueError(f"value record {n}/0 has a zero denominator")
    return Fraction(n, d)


def _require_object(obj, what: str):
    """``obj``, refused unless it is a JSON object, naming its JSON type."""
    if not isinstance(obj, dict):
        kind = "null" if obj is None else type(obj).__name__
        raise ValueError(f"{what} must be a JSON object, got {kind}")
    return obj


def _require_list(obj, what: str):
    """``obj``, refused unless it is a JSON list (or a tuple), naming its JSON type."""
    if not isinstance(obj, (list, tuple)):
        kind = "null" if obj is None else type(obj).__name__
        raise ValueError(f"{what} must be a JSON list, got {kind}")
    return obj


def as_fraction(x: Any) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string.

    Floats are rejected: exact mode must never silently absorb rounding.
    A Fraction is returned as it is, so re-validating exact tables is cheap.
    A string with a zero denominator is a ValueError naming the string.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise UnsupportedValueError("bool is not an exact rational")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise UnsupportedValueError(f"cannot interpret {x!r} as an exact rational")


def _integer_numerators(values) -> tuple[list[int], int]:
    """Exact rationals (ints or Fractions) as ints over one denominator.

    Returns (nums, L) with L the lcm of the reduced denominators and
    nums[i] / L == values[i]; L == 1 on ints.  Sums, differences and
    comparisons of the nums then run without a gcd per operation.
    """
    dens = {v.denominator for v in values}
    common = lcm(*dens)
    factor = {d: common // d for d in dens}
    return [v.numerator * factor[v.denominator] for v in values], common


def is_dyadic(q: Fraction) -> bool:
    """True when q's reduced denominator is a power of two."""
    d = q.denominator
    return d & (d - 1) == 0


class Group:
    """An abelian group together with a translation-invariant metric.

    Concrete subclasses fix the payload representation.  Payloads are raw
    Python values (int, Fraction, tuple, float); ``GroupValue`` wraps a
    payload with its group for the public API, while table-scan kernels
    operate on payloads directly through these methods.
    """

    tag: str = "?"
    exact: bool = True
    rational: bool = False  # payloads are ints or Fractions

    def zero(self):
        raise NotImplementedError

    def validate(self, payload):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, a, k: int):
        """k-fold sum of a (k may be negative or zero)."""
        raise NotImplementedError

    def metric(self, a, b):
        raise NotImplementedError

    def norm(self, a):
        return self.metric(a, self.zero())

    def numerators(self, payloads):
        """The kernel form (columns, L): a column per coordinate of numbers over
        one denominator L, kept by +, - and negation (here the payloads, L = 1)."""
        return [list(payloads)], 1

    def payloads_over(self, columns, scale) -> tuple:
        """The payloads of kernel-form columns, sums included: ``numerators`` inverted."""
        return tuple(columns[0])

    def projections(self, columns):
        """Ordered coordinates p_1 .. p_k of kernel-form columns, as columns.

        Each output column holds one coordinate of every entry, over the
        kernel form's one denominator L (ints; floats on ``real``).  They
        satisfy ``metric(a, b) == metric_over(max_k |p_k(a) - p_k(b)|, L)``
        exactly, so a diameter or a window's farthest value reduces to
        per-column max and min.  The scalar groups' one column is its own
        projection; None when the metric has no such form (Z/m).
        """
        return columns

    def metric_over(self, x, scale):
        """The metric value of a projection difference x over ``scale``:
        x / scale as a Fraction (an int on Z, the float x on ``real``)."""
        return Fraction(x, scale)

    #: Whether two payloads, or two kernel-form entries, are one value.
    values_equal = staticmethod(eq)

    def payload_to_json(self, a):
        raise NotImplementedError

    def payload_from_json(self, obj):
        raise NotImplementedError

    def payloads_to_json(self, payloads) -> list:
        """``[payload_to_json(a) for a in payloads]`` for a sequence of
        payloads, one record per distinct payload object: exact on every
        group, ``-0.0`` and NaN included, since only the very same object
        shares a record.  Entries that are one object get one dict; treat
        the records as read-only."""
        distinct = dict(zip(map(id, payloads), payloads))
        records = {key: self.payload_to_json(a) for key, a in distinct.items()}
        return list(map(records.__getitem__, map(id, payloads)))

    def payloads_from_json(self, records) -> list:
        """``[payload_from_json(obj) for obj in records]``: every refusal
        is the one that record raises alone, and one that is not a JSON
        object is refused in words.  A thin map over ``_decoded``."""
        return list(self._decoded([records])[0][0])

    def _decoded(self, tables) -> tuple[list, tuple | None]:
        """The payload tuples of an iterable of record lists, each record parsed
        alone, and the kernel the decoder hands over: none here."""
        parse, what = self.payload_from_json, "a value record"
        return [
            tuple([parse(obj if type(obj) is dict else _require_object(obj, what)) for obj in records])
            for records in tables
        ], None

    def __repr__(self) -> str:
        return self.tag


class _ScalarGroup(Group):
    """Number payloads (int, Fraction, float) under +, metric |a - b|."""

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def scale(self, a, k):
        return a * k

    def metric(self, a, b):
        return abs(a - b)


class IntegerGroup(_ScalarGroup):
    tag = "int"
    rational = True

    def zero(self):
        return 0

    def metric_over(self, x, scale):
        return x

    def validate(self, payload):
        if not _is_int(payload):
            raise UnsupportedValueError(f"integer group needs int, got {payload!r}")
        return payload

    def payload_to_json(self, a):
        return {"t": "int", "n": a}

    def payload_from_json(self, obj):
        return self.validate(obj["n"])


class RationalGroup(_ScalarGroup):
    tag = "rat"
    rational = True

    def zero(self):
        return Fraction(0)

    def validate(self, payload):
        return as_fraction(payload)

    def numerators(self, payloads):
        nums, scale = _integer_numerators(payloads)
        return [nums], scale

    def payloads_over(self, columns, scale):  # one Fraction per distinct numerator
        fractions = {v: Fraction(v, scale) for v in set(columns[0])}
        return tuple(map(fractions.__getitem__, columns[0]))

    _memo_key = "d"  # the record's int besides n that fixes its payload

    def payload_to_json(self, a):
        return {"t": "rat", "n": a.numerator, "d": a.denominator}

    def payload_from_json(self, obj):
        return _ratio(obj["n"], obj["d"])

    def _decoded(self, tables) -> tuple[list, tuple]:
        """``Group._decoded``, each record a slot in the distinct payloads: parsed
        once per (n, d) (``dy``: (n, k)) pair of plain ints in all the tables, or
        alone (a bool, a float, a missing key, not an object: what it raises alone).
        The kernel: ``numerators`` of the distinct payloads mapped over the slots."""
        parse, values, memo, slots = self.payload_from_json, [], {}, []
        for records in tables:
            table = []
            slots.append(table)
            for obj in records:
                key = (obj.get("n"), obj.get(self._memo_key)) if type(obj) is dict else ()
                if not (key and type(key[0]) is int and type(key[1]) is int):  # alone, under its own key
                    key, obj = object(), _require_object(obj, "a value record")
                slot = memo.get(key)
                if slot is None:
                    values.append(parse(obj))
                    slot = memo[key] = len(values) - 1
                table.append(slot)
        (column,), den = self.numerators(values)
        payloads = [tuple(map(values.__getitem__, s)) for s in slots]
        return payloads, (tuple((tuple(map(column.__getitem__, s)),) for s in slots), den)


class DyadicGroup(RationalGroup):
    """Rationals whose reduced denominator is a power of two."""

    tag = "dy"
    _memo_key = "k"

    def validate(self, payload):
        q = as_fraction(payload)
        if not is_dyadic(q):
            raise UnsupportedValueError(f"{q} is not a dyadic rational")
        return q

    def payload_to_json(self, a):
        return {"t": "dy", "n": a.numerator, "k": a.denominator.bit_length() - 1}

    def payload_from_json(self, obj):
        k = obj["k"]
        if not (_is_int(k) and 0 <= k <= MAX_DYADIC_EXPONENT):
            raise ValueError(
                f"dyadic exponent k must be an integer in 0..{MAX_DYADIC_EXPONENT}, got {k!r}"
            )
        return self.validate(_ratio(obj["n"], 1 << k))


@record
class ModularGroup(Group):
    """Z/m with the circular metric min(d, m - d)."""

    modulus: int

    def __post_init__(self):
        if not (_is_int(self.modulus) and self.modulus >= 1):
            raise ValueError(f"modulus must be an integer >= 1, got {self.modulus!r}")

    @property
    def tag(self) -> str:  # type: ignore[override]
        return f"mod:{self.modulus}"

    def zero(self):
        return 0

    def validate(self, payload):
        if not _is_int(payload):
            raise UnsupportedValueError(f"Z/{self.modulus} needs int, got {payload!r}")
        return payload % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def scale(self, a, k):
        return (a * k) % self.modulus

    def metric(self, a, b):
        d = (a - b) % self.modulus
        return min(d, self.modulus - d)

    def payloads_over(self, columns, scale):
        return tuple(v % self.modulus for v in columns[0])

    def projections(self, columns):
        return None

    def values_equal(self, a, b) -> bool:
        """Congruence mod m: ``==`` on residues, and on unreduced kernel entries too."""
        return (a - b) % self.modulus == 0

    def payload_to_json(self, a):
        return {"t": "mod", "m": self.modulus, "r": a}

    def payload_from_json(self, obj):
        if obj["m"] != self.modulus:
            raise GroupMismatchError(f"modulus {obj['m']} != {self.modulus}")
        return self.validate(obj["r"])


@record
class RationalVectorGroup(Group):
    """Q^d with the sum-of-absolute-differences metric (exact on rationals)."""

    dim: int

    def __post_init__(self):
        if not (_is_int(self.dim) and self.dim >= 1):
            raise ValueError(f"dimension must be an integer >= 1, got {self.dim!r}")

    @property
    def tag(self) -> str:  # type: ignore[override]
        return f"vec:{self.dim}"

    def zero(self):
        return (Fraction(0),) * self.dim

    def validate(self, payload):
        if not isinstance(payload, (tuple, list)) or len(payload) != self.dim:
            raise UnsupportedValueError(
                f"Q^{self.dim} needs a length-{self.dim} coordinate list"
            )
        return tuple(as_fraction(c) for c in payload)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def scale(self, a, k):
        return tuple(x * k for x in a)

    def metric(self, a, b):
        return sum((abs(x - y) for x, y in zip(a, b)), Fraction(0))

    def numerators(self, payloads):
        coords, scale = _integer_numerators(list(chain.from_iterable(payloads)))
        return [coords[k :: self.dim] for k in range(self.dim)], scale

    def payloads_over(self, columns, scale):  # one d-tuple per distinct row
        rows = list(zip(*columns))
        vectors = {row: tuple(Fraction(v, scale) for v in row) for row in set(rows)}
        return tuple(map(vectors.__getitem__, rows))

    def projections(self, columns):
        """Signed coordinate sums s . a with s_1 = +1 of the d coordinate
        columns: the L1 metric is the largest |s . (a - b)| over the
        2^(d-1) sign vectors.  More than ``MAX_PROJECTION_TERMS`` terms is
        refused before any is summed."""
        first, *rest = columns
        terms = len(first) * self.dim << (self.dim - 1)
        if terms > MAX_PROJECTION_TERMS:
            raise ValueError(
                f"Q^{self.dim} projections of {len(first)} values need {terms} "
                f"signed terms, more than the limit {MAX_PROJECTION_TERMS}"
            )
        out = []
        for signs in product((add, sub), repeat=self.dim - 1):
            column = first
            for sign, coord in zip(signs, rest):
                column = list(map(sign, column, coord))
            out.append(column)
        return out

    def payload_to_json(self, a):
        return {"t": "vec", "v": [[c.numerator, c.denominator] for c in a]}

    def payload_from_json(self, obj):
        return self.validate([_ratio(n, d) for n, d in obj["v"]])


class ApproxRealGroup(_ScalarGroup):
    """Float-backed reals.  Inexact; for reporting and demos only."""

    tag = "real"
    exact = False

    def zero(self):
        return 0.0

    def validate(self, payload):
        if isinstance(payload, bool) or not isinstance(payload, (int, float)):
            raise UnsupportedValueError(f"real group needs float, got {payload!r}")
        try:
            value = float(payload)
        except OverflowError:  # an int past the float range
            value = inf
        if not isfinite(value):
            raise ValueError(f"real group needs a finite float, got {payload!r}")
        return value

    def values_equal(self, a, b) -> bool:
        return abs(a - b) <= REPORTING_TOLERANCE

    def metric_over(self, x, scale):
        return x

    def payload_to_json(self, a):
        return {"t": "real", "v": a}

    def payload_from_json(self, obj):
        return self.validate(obj["v"])


INTEGERS = IntegerGroup()
RATIONALS = RationalGroup()
DYADICS = DyadicGroup()
APPROX_REALS = ApproxRealGroup()


def integers_mod(m: int) -> ModularGroup:
    return ModularGroup(m)


def rational_vectors(d: int) -> RationalVectorGroup:
    return RationalVectorGroup(d)


def group_from_tag(tag: str) -> Group:
    """Inverse of ``group.tag``; accepts 'int', 'rat', 'dy', 'real', 'mod:m', 'vec:d'."""
    if not isinstance(tag, str):
        raise UnsupportedValueError(f"a group tag must be a string, got {tag!r}")
    plain = {"int": INTEGERS, "rat": RATIONALS, "dy": DYADICS, "real": APPROX_REALS}
    if tag in plain:
        return plain[tag]
    kind, _, arg = tag.partition(":")
    if kind not in ("mod", "vec") or not arg.removeprefix("-").isdecimal():
        raise UnsupportedValueError(f"unknown group tag {tag!r}")
    return (ModularGroup if kind == "mod" else RationalVectorGroup)(int(arg))


@record
class GroupValue:
    """A group element: a payload tagged with its group."""

    group: Group
    payload: Any

    def __post_init__(self):
        object.__setattr__(self, "payload", self.group.validate(self.payload))

    def _require_same(self, other: "GroupValue") -> None:
        if not isinstance(other, GroupValue):
            raise GroupMismatchError(f"expected GroupValue, got {other!r}")
        if other.group != self.group:
            raise GroupMismatchError(
                f"group mismatch: {self.group!r} vs {other.group!r}"
            )

    def __add__(self, other: "GroupValue") -> "GroupValue":
        self._require_same(other)
        return GroupValue(self.group, self.group.add(self.payload, other.payload))

    def __neg__(self) -> "GroupValue":
        return GroupValue(self.group, self.group.neg(self.payload))

    def __sub__(self, other: "GroupValue") -> "GroupValue":
        self._require_same(other)
        return GroupValue(self.group, self.group.sub(self.payload, other.payload))

    def scale(self, k: int) -> "GroupValue":
        return GroupValue(self.group, self.group.scale(self.payload, k))

    def metric_to(self, other: "GroupValue"):
        self._require_same(other)
        return self.group.metric(self.payload, other.payload)

    def norm(self):
        return self.group.norm(self.payload)

    def to_json(self):
        return self.group.payload_to_json(self.payload)

    def __repr__(self) -> str:
        return f"{self.payload!r}@{self.group!r}"


def value_from_json(obj) -> GroupValue:
    """Parse a tagged value record, e.g. {"t":"rat","n":1,"d":3}; a ``mod``
    record's integer ``m`` or a ``vec`` record's length is its tag's argument."""
    kind = obj.get("t") if isinstance(obj, dict) else None
    if kind == "mod" and _is_int(obj.get("m")):
        kind = f"mod:{obj['m']}"
    elif kind == "vec" and isinstance(obj.get("v"), list):
        kind = f"vec:{len(obj['v'])}"
    elif kind not in ("int", "rat", "dy", "real"):
        raise UnsupportedValueError(f"unknown value record {obj!r}")
    group = group_from_tag(kind)
    return GroupValue(group, group.payload_from_json(obj))


def _positive_radius(name: str, radius):
    """``radius``, refused unless positive by a ValueError naming it."""
    if radius <= 0:
        raise ValueError(f"{name} must be positive, got {radius}")
    return radius


@record
class NeighborhoodChain:
    """Halving chain of neighborhood radii eps_n = eps0 * 2^(-n).

    The halving rule forces ball(eps_{n+1}) + ball(eps_{n+1}) into
    ball(eps_n) under any translation-invariant metric, and the balls are
    symmetric because the metric is.
    """

    eps0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps0", _positive_radius("eps0", as_fraction(self.eps0)))

    def epsilon(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be >= 0")
        return self.eps0 / (1 << n)

    def radii(self, n_max: int) -> list[Fraction]:
        """Radii eps_1 .. eps_{n_max}."""
        return [self.epsilon(n) for n in range(1, n_max + 1)]


def _grid_exponent(eps: Fraction) -> int:
    """The least q >= 0 with 2^-q <= eps: the bit length of ceil(1/eps) - 1."""
    top, bottom = eps.as_integer_ratio()
    return (-(-bottom // top) - 1).bit_length()


def _grid_numerator(num: int, den: int, q: int) -> int:
    """The integer nearest to num * 2^q / den (den > 0), ties toward zero."""
    n, r = divmod(num << q, den)
    return n if 2 * r < den or 2 * r == den and n >= 0 else n + 1


def _grid_round(value: Fraction, eps: Fraction) -> Fraction:
    """Nearest point of the coarsest binary grid with spacing <= eps.

    The grid is 2^-q Z with q = ``_grid_exponent(eps)``, and ties round
    toward zero (``_grid_numerator``, which ``h_approximate`` applies to
    numerators directly).
    """
    q = _grid_exponent(eps)
    return Fraction(_grid_numerator(value.numerator, value.denominator, q), 1 << q)


def round_to_dyadic(value: Fraction, eps: Fraction) -> Fraction:
    """Nearest point of the coarsest binary grid with spacing <= eps.

    Ties round toward zero; dyadic inputs are returned unchanged.  The
    result r always satisfies |value - r| <= eps.
    """
    _positive_radius("eps", eps)
    if is_dyadic(value):
        return value
    return _grid_round(value, eps)


def round_to_dense(v: GroupValue, n: int, chain: NeighborhoodChain) -> GroupValue:
    """Round v into the dense dyadic subgroup at chain radius eps_n.

    Rational and dyadic inputs round on the exact grid; float inputs are
    converted exactly and always grid-rounded (a float's own value is
    dyadic, so the identity shortcut would make float rounding a no-op).
    """
    eps = chain.epsilon(n)
    if v.group in (RATIONALS, DYADICS):
        return GroupValue(DYADICS, round_to_dyadic(v.payload, eps))
    if v.group == APPROX_REALS:
        return GroupValue(DYADICS, _grid_round(Fraction(v.payload), eps))
    raise UnsupportedValueError(
        f"round_to_dense supports rational, dyadic, and float values, not {v.group!r}"
    )
