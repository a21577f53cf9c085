"""Finite-depth cylinder model of Cantor space.

Points of the product space prod_i {0,...,p_i - 1} are truncated to their
first k digits ("prefixes").  A prefix is a tuple (x_1, ..., x_k) with x_1
the fastest-varying digit; the induced table index is the mixed-radix
number x_1 + p_1*(x_2 + p_2*(...)), which turns the odometer into a +1
counter on indices.

The module houses cylinder functions (total functions given by value
tables over depth-m prefixes), exact Borel probability measures on the
prefix space, and the convergence-in-measure functionals tau1/tau3/tau4
together with the uniform-topology distance on finite-quotient
automorphisms.

A caveat on scope: the tau functionals quantify over finitely many
user-supplied measures.  Closeness certified against a finite measure
family is exactly that; no claim is made about the full topologies, which
quantify over all Borel probability measures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm, nextafter
from sys import float_info
from typing import Iterable, Iterator, Sequence

from ._records import record
from .values import (
    Group,
    GroupMismatchError,
    GroupValue,
    _integer_numerators,
    _is_int,
    _require_list,
    _require_object,
    as_fraction,
    group_from_tag,
)

#: Largest allowed number of depth-k prefixes (guards machine arithmetic).
MAX_POINTS = 1 << 20

#: Deepest 2-odometer whose prefix space fits in MAX_POINTS.
MAX_BINARY_DEPTH = MAX_POINTS.bit_length() - 1


class DepthError(ValueError):
    """Raised when a prefix or table depth does not fit an operation."""


def check_bases(bases: Sequence[int]) -> tuple[int, ...]:
    bases = tuple(bases)
    if not bases:
        raise ValueError("base vector must be nonempty")
    if not all(_is_int(b) and b >= 2 for b in bases):
        raise ValueError(f"every base must be an integer >= 2, got {bases}")
    n = 1
    for b in bases:
        n *= b
        if n > MAX_POINTS:
            raise ValueError(f"prefix space larger than {MAX_POINTS} points")
    return bases


def binary_bases(depth) -> tuple[int, ...]:
    """The 2-odometer's base vector ``(2,) * depth``; a depth that is not an
    integer in 1..MAX_BINARY_DEPTH is refused before the tuple is built."""
    if not _is_int(depth):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    if not 1 <= depth <= MAX_BINARY_DEPTH:
        raise ValueError(
            f"depth must lie in 1..{MAX_BINARY_DEPTH} (at most {MAX_POINTS} prefixes), got {depth}"
        )
    return (2,) * depth


def space_size(bases: Sequence[int]) -> int:
    n = 1
    for b in bases:
        n *= b
    return n


def validate_prefix(x: Sequence[int], bases: Sequence[int]) -> tuple[int, ...]:
    """Check that x holds integer digits within the leading coordinates of bases."""
    x = tuple(x)
    if len(x) > len(bases):
        raise DepthError(f"prefix of depth {len(x)} exceeds model depth {len(bases)}")
    for i, (d, b) in enumerate(zip(x, bases)):
        if not (_is_int(d) and 0 <= d < b):
            raise DepthError(f"digit {d!r} at coordinate {i + 1} out of range [0,{b})")
    return x


def prefix_to_index(x: Sequence[int], bases: Sequence[int]) -> int:
    """Mixed-radix index with x_1 fastest."""
    i = 0
    for d, b in zip(reversed(x[: len(bases)]), reversed(bases[: len(x)])):
        i = i * b + d
    return i


def full_prefix_index(x: Sequence[int], bases: Sequence[int]) -> int:
    """Index of a validated full-depth prefix; shorter prefixes are DepthErrors."""
    x = validate_prefix(x, bases)
    if len(x) != len(bases):
        raise DepthError(f"need a prefix of full depth {len(bases)}, got depth {len(x)}")
    return prefix_to_index(x, bases)


def index_to_prefix(i: int, bases: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for b in bases:
        i, d = divmod(i, b)
        digits.append(d)
    return tuple(digits)


def iter_prefixes(bases: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All depth-k prefixes in table-index order."""
    for i in range(space_size(bases)):
        yield index_to_prefix(i, bases)


class _Trusted:
    """The trusted constructor of ``CylinderFunction`` and ``GeneratorFamily``."""

    @classmethod
    def _trusted(cls, bases, group: Group, tables, kernel=None):
        """An instance without ``__post_init__``'s per-entry checks.  The caller
        guarantees checked ``bases``, tables of the class's lengths that are
        tuples of ``validate``-form entries (type included), and a ``kernel``
        exactly ``group.numerators`` of a function's table (``_numerators``)."""
        if not group.exact:  # real arithmetic can overflow to inf: validated
            return cls(bases, group, tables)
        built = object.__new__(cls)
        built.__dict__.update(zip(cls._fields, (bases, group, tables)))
        if kernel is not None:
            built.__dict__["_kernel"] = kernel
        return built


@record
class CylinderFunction(_Trusted):
    """A depth-m function given by a table of group payloads.

    ``table[i]`` is the value on the depth-m cylinder whose prefix has
    index ``i``.  Evaluating at deeper prefixes projects onto the first m
    digits, so lifting and then evaluating agrees with evaluating
    directly (refinement consistency).
    """

    bases: tuple[int, ...]
    group: Group
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "bases", check_bases(self.bases))
        tab = tuple(map(self.group.validate, self.table))
        if len(tab) != space_size(self.bases):
            raise ValueError(
                f"table length {len(tab)} != {space_size(self.bases)} prefixes"
            )
        object.__setattr__(self, "table", tab)

    @classmethod
    def constant(cls, bases, group: Group, payload) -> "CylinderFunction":
        bases = check_bases(bases)
        return cls(bases, group, (group.validate(payload),) * space_size(bases))

    @property
    def depth(self) -> int:
        return len(self.bases)

    @property
    def size(self) -> int:
        return len(self.table)

    def eval(self, x: Sequence[int]) -> GroupValue:
        """Evaluate at a prefix of depth >= the table depth."""
        if len(x) < self.depth:
            raise DepthError(
                f"need a prefix of depth >= {self.depth}, got depth {len(x)}"
            )
        validate_prefix(x[: self.depth], self.bases)
        return GroupValue(self.group, self.table[prefix_to_index(x, self.bases)])

    def lift(self, bases: Sequence[int]) -> "CylinderFunction":
        """Reindex over a deeper base vector extending this one.

        The lifted table is this table tiled, which is pointwise equality
        of functions in x_1-fastest order; lifting to its own bases returns
        the function itself.
        """
        bases = check_bases(bases)
        if bases == self.bases:
            return self
        if len(bases) < self.depth or bases[: self.depth] != self.bases:
            raise DepthError(f"{bases} does not extend {self.bases}")
        reps = space_size(bases) // self.size
        return CylinderFunction._trusted(bases, self.group, self.table * reps)

    def _numerators(self) -> tuple:
        """``group.numerators(table)``: a trusted builder's kernel, handed over once."""
        return self.__dict__.pop("_kernel", None) or self.group.numerators(self.table)

    def _aligned(self, other: "CylinderFunction"):
        if self.group != other.group:
            raise GroupMismatchError(f"{self.group!r} vs {other.group!r}")
        if self.depth >= other.depth:
            return self, other.lift(self.bases)
        return self.lift(other.bases), other

    def _pointwise(self, other: "CylinderFunction", op) -> "CylinderFunction":
        f, g = self._aligned(other)
        return CylinderFunction._trusted(f.bases, f.group, tuple(map(op, f.table, g.table)))

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        return self._pointwise(other, self.group.add)

    def __sub__(self, other: "CylinderFunction") -> "CylinderFunction":
        return self._pointwise(other, self.group.sub)

    def __neg__(self) -> "CylinderFunction":
        return CylinderFunction._trusted(self.bases, self.group, tuple(map(self.group.neg, self.table)))

    def to_json(self):
        """The function as JSON; entries that are one payload object share one value
        record (``Group.payloads_to_json``): treat the records as read-only."""
        return {
            "bases": list(self.bases),
            "depth": self.depth,
            "group": self.group.tag,
            "table": self.group.payloads_to_json(self.table),
        }

    @classmethod
    def from_json(cls, obj) -> "CylinderFunction":
        _require_object(obj, "a cylinder function")
        group = group_from_tag(obj["group"])
        bases = tuple(_require_list(obj["bases"], "bases"))
        if obj.get("depth", len(bases)) != len(bases):
            raise ValueError("depth field disagrees with bases length")
        return cls(bases, group, group.payloads_from_json(_require_list(obj["table"], "table")))


# ---------------------------------------------------------------------------
# Measures


def _probabilities(row, length: int, what: str) -> tuple[Fraction, ...]:
    """``row`` as exact rationals, checked to be a probability vector of ``length``."""
    row = tuple(as_fraction(w) for w in _require_list(row, what))
    nums, den = _integer_numerators(row)
    if len(row) != length or any(n < 0 for n in nums) or sum(nums) != den:
        shown = ", ".join(map(str, row))
        raise ValueError(f"{what} [{shown}] must be {length} nonnegative weights summing to 1")
    return row


class Measure:
    """Exact Borel probability measure evaluated on cylinder sets.

    ``mass(x)`` is the measure of the depth-len(x) cylinder [x]; it is
    defined for any depth up to the measure's base vector length.
    ``mass_table(bases)`` holds the same masses for every cylinder of one
    depth at once, built from integer numerators over one denominator;
    the functionals below read those numerators, and ``mass`` is their
    oracle.
    """

    bases: tuple[int, ...]

    def mass(self, x: Sequence[int]) -> Fraction:
        raise NotImplementedError

    @cached_property
    def _numerator_tables(self) -> dict:
        return {}

    @cached_property
    def _mass_tables(self) -> dict:
        return {}

    def _mass_numerators(self, bases: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(nums, D): ``mass_table(bases)`` as ints over one denominator, so
        that entry i is nums[i] / D.  Built once by ``_build_table`` and
        cached on this instance, keyed by ``bases``; ``bases`` must be a
        leading segment of the measure's bases (DepthError otherwise)."""
        bases = tuple(bases)
        entry = self._numerator_tables.get(bases)
        if entry is None:
            own = self.bases[: len(bases)]
            if own != bases:
                raise DepthError(f"measure bases {self.bases} do not extend {bases}")
            nums, den = self._build_table(own)
            entry = self._numerator_tables[own] = (tuple(nums), den)
        return entry

    def mass_table(self, bases: Sequence[int]) -> tuple[Fraction, ...]:
        """Masses of all depth-len(bases) cylinders in table-index order
        (x_1 fastest): entry i is ``mass(index_to_prefix(i, bases))``.

        ``bases`` must be a leading segment of the measure's bases, so that
        the table is indexed in the measure's own radices (DepthError
        otherwise).  The table is read off ``_mass_numerators`` and cached
        on this instance, keyed by ``bases``.
        """
        bases = tuple(bases)
        table = self._mass_tables.get(bases)
        if table is None:
            nums, den = self._mass_numerators(bases)
            table = self._mass_tables[bases] = tuple(Fraction(n, den) for n in nums)
        return table

    def _build_table(self, bases: tuple[int, ...]) -> tuple[list[int], int]:
        """The uncached ``_mass_numerators`` of a checked leading segment ``bases``."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@record
class BernoulliMeasure(Measure):
    """Product measure with per-coordinate rational weight vectors."""

    bases: tuple[int, ...]
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        bases = check_bases(self.bases)
        object.__setattr__(self, "bases", bases)
        if len(self.weights) != len(bases):
            raise ValueError("need one weight vector per coordinate")
        rows = [_probabilities(row, b, "weights") for b, row in zip(bases, self.weights)]
        object.__setattr__(self, "weights", tuple(rows))

    @classmethod
    def uniform(cls, bases) -> "BernoulliMeasure":
        """Fair-coin measure: weight 1/p_i per digit (Bernoulli(1/2) on base 2)."""
        bases = check_bases(bases)
        return cls(bases, tuple((Fraction(1, b),) * b for b in bases))

    def mass(self, x: Sequence[int]) -> Fraction:
        x = validate_prefix(x, self.bases)
        m = Fraction(1)
        for i, d in enumerate(x):
            m *= self.weights[i][d]
        return m

    def _build_table(self, bases):
        # Kronecker product of the weight rows, x_1 fastest, on integer
        # numerators over the product of the rows' lcms
        table, common = [1], 1
        for row in self.weights[: len(bases)]:
            nums, den = _integer_numerators(row)
            table = [m * w for w in nums for m in table]
            common *= den
        return table, common

    def to_json(self):
        return {
            "kind": "bernoulli",
            "bases": list(self.bases),
            "weights": [[str(w) for w in row] for row in self.weights],
        }


@record
class MarkovMeasure(Measure):
    """Chain measure: rational initial distribution and transition rows."""

    bases: tuple[int, ...]
    initial: tuple[Fraction, ...]
    transitions: tuple

    def __post_init__(self):
        bases = check_bases(self.bases)
        object.__setattr__(self, "bases", bases)
        initial = _probabilities(self.initial, bases[0], "initial distribution")
        object.__setattr__(self, "initial", initial)
        if len(self.transitions) != len(bases) - 1:
            raise ValueError(f"need {len(bases) - 1} transition matrices")
        mats = []
        for step, mat in enumerate(self.transitions):
            if len(mat) != bases[step]:
                raise ValueError(f"transition {step} needs {bases[step]} rows")
            what = f"transition {step} row"
            mats.append(tuple(_probabilities(row, bases[step + 1], what) for row in mat))
        object.__setattr__(self, "transitions", tuple(mats))

    @classmethod
    def homogeneous(cls, bases, initial, matrix) -> "MarkovMeasure":
        bases = check_bases(bases)
        return cls(bases, tuple(initial), tuple([matrix] * (len(bases) - 1)))

    def mass(self, x: Sequence[int]) -> Fraction:
        x = validate_prefix(x, self.bases)
        if not x:
            return Fraction(1)
        m = self.initial[x[0]]
        for i in range(len(x) - 1):
            m *= self.transitions[i][x[i]][x[i + 1]]
        return m

    def _build_table(self, bases):
        # forward recursion: a depth-(s+2) mass is the depth-(s+1) mass of
        # its first s+1 digits times the step-s transition into the last
        # one, on integer numerators with each step's matrix over its lcm
        if not bases:
            return [1], 1
        table, common = _integer_numerators(self.initial)
        for step, mat in enumerate(self.transitions[: len(bases) - 1]):
            width = bases[step + 1]
            flat, den = _integer_numerators([w for row in mat for w in row])
            rows = [flat[j * width : (j + 1) * width] for j in range(bases[step])]
            stride = len(table) // bases[step]
            blocks = [table[j * stride : (j + 1) * stride] for j in range(bases[step])]
            table = [
                m * row[d]
                for d in range(width)
                for row, block in zip(rows, blocks)
                for m in block
            ]
            common *= den
        return table, common

    def to_json(self):
        return {
            "kind": "markov",
            "bases": list(self.bases),
            "initial": [str(w) for w in self.initial],
            "transitions": [
                [[str(w) for w in row] for row in mat] for mat in self.transitions
            ],
        }


@record
class DiracMeasure(Measure):
    """Point mass at a prefix extended by the all-zeros tail."""

    bases: tuple[int, ...]
    point: tuple[int, ...]

    def __post_init__(self):
        bases = check_bases(self.bases)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "point", validate_prefix(self.point, bases))

    def mass(self, x: Sequence[int]) -> Fraction:
        x = validate_prefix(x, self.bases)
        for i, d in enumerate(x):
            expected = self.point[i] if i < len(self.point) else 0
            if d != expected:
                return Fraction(0)
        return Fraction(1)

    def _build_table(self, bases):
        # one-hot at the point, read with its zero tail (prefix_to_index
        # ignores digits past len(bases) and treats missing ones as 0)
        table = [0] * space_size(bases)
        table[prefix_to_index(self.point, bases)] = 1
        return table, 1

    def to_json(self):
        return {"kind": "dirac", "bases": list(self.bases), "point": list(self.point)}


@record
class MixtureMeasure(Measure):
    """Rational convex combination of measures on one base vector."""

    components: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        w = _probabilities(self.weights, len(self.components), "mixture weights")
        bases = self.components[0].bases
        if any(c.bases != bases for c in self.components):
            raise ValueError("mixture components must share one base vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def bases(self) -> tuple[int, ...]:  # type: ignore[override]
        return self.components[0].bases

    def mass(self, x: Sequence[int]) -> Fraction:
        return sum(
            (w * c.mass(x) for w, c in zip(self.weights, self.components)),
            Fraction(0),
        )

    def _build_table(self, bases):
        # the components share the mixture's bases, so ``bases`` is checked
        # for them too; their tables are built here and not cached on them.
        # Component c's numerators over D_c, weighted by w_c, sit over
        # w_c's denominator times D_c; the mixture's D is the lcm of those
        parts = [(w, c._build_table(bases)) for w, c in zip(self.weights, self.components)]
        common = lcm(*(w.denominator * den for w, (_, den) in parts))
        table = [0] * space_size(bases)
        for w, (nums, den) in parts:
            k = w.numerator * (common // (w.denominator * den))
            table = [s + k * m for s, m in zip(table, nums)]
        return table, common

    def to_json(self):
        return {
            "kind": "mixture",
            "weights": [str(w) for w in self.weights],
            "components": [c.to_json() for c in self.components],
        }


def measure_from_json(obj) -> Measure:
    """A measure from its ``to_json`` record; the constructors check the
    values, and a record or list field of another JSON type is refused."""
    _require_object(obj, "a measure")
    kind = obj.get("kind")

    def listed(key):
        return _require_list(obj[key], key)

    if kind == "bernoulli":
        return BernoulliMeasure(listed("bases"), listed("weights"))
    if kind == "markov":
        bases, initial = listed("bases"), obj["initial"]
        matrices = [_require_list(m, "a transition matrix") for m in listed("transitions")]
        return MarkovMeasure(bases, initial, matrices)
    if kind == "dirac":
        return DiracMeasure(listed("bases"), listed("point"))
    if kind == "mixture":
        components = [measure_from_json(c) for c in listed("components")]
        return MixtureMeasure(components, obj["weights"])
    raise ValueError(f"unknown measure record {obj!r}")


def measure_of_cylinder_set(
    mu: Measure, prefixes: Iterable[Sequence[int]], bases: Sequence[int] | None = None
) -> Fraction:
    """Exact measure of a finite disjoint union of same-depth cylinders.

    ``bases`` are the radices the prefixes are written in; they must be a
    leading segment of the measure's bases as long as the prefixes
    (DepthError otherwise).  Without them the prefixes are read in the
    measure's own radices.  Each prefix is validated, and a repeated one
    is a ValueError.
    """
    if bases is not None:
        bases = tuple(bases)
        mu._mass_numerators(bases)  # refuses radices the measure is not written in
        bases = mu.bases[: len(bases)]  # equal to them, as the measure's own ints
    prefixes = [tuple(x) for x in prefixes]
    if not prefixes:
        return Fraction(0)
    depth = len(prefixes[0])
    if any(len(x) != depth for x in prefixes):
        raise DepthError("cylinder set must consist of same-depth prefixes")
    if len(set(prefixes)) != len(prefixes):
        raise ValueError("cylinder set contains repeated prefixes")
    if bases is None:
        bases = mu.bases[:depth]
    elif depth != len(bases):
        raise DepthError(f"prefixes of depth {depth} are not written in bases {bases}")
    for x in prefixes:
        validate_prefix(x, bases)
    return _index_mass(mu, bases, [prefix_to_index(x, bases) for x in prefixes])


def _index_mass(mu: Measure, bases: tuple[int, ...], indices: Iterable[int]) -> Fraction:
    """mu's mass on the cylinders at ``indices``, read from ``mu._mass_numerators(bases)``."""
    nums, den = mu._mass_numerators(bases)
    return Fraction(sum(nums[i] for i in indices), den)


# ---------------------------------------------------------------------------
# Convergence-in-measure functionals
#
# ``_tau_sums`` is the one fork on the group: the exact groups read the
# mu-law of |f - g| (``_metric_law``), one term per distinct metric value;
# ``real`` sums over the mass table in table order.


def _exact_eps(f: CylinderFunction, eps):
    """The exceedance radius as every functional reads it: an exact
    rational (``as_fraction``) on the exact groups; on ``real`` a
    ``Fraction`` becomes ``_float_below(eps)``, and any other radius is
    read as given."""
    if f.group.exact:
        return as_fraction(eps)
    return _float_below(eps) if isinstance(eps, Fraction) else eps


def _float_below(eps: Fraction) -> float:
    """The largest float e <= eps (-inf below the float range).  A float d
    exceeds eps exactly when it exceeds e, so each entry's comparison is
    one float comparison, not a Fraction one."""
    try:
        e = float(eps)  # the nearest float, which may lie above eps
    except OverflowError:
        return float_info.max if eps > 0 else -inf
    return nextafter(e, -inf) if e > eps else e


def _difference_metrics(f: CylinderFunction, g: CylinderFunction):
    f, g = f._aligned(g)
    met = f.group.metric
    return f.bases, [met(a, b) for a, b in zip(f.table, g.table)]


def _metric_law(f: CylinderFunction, g: CylinderFunction, mu: Measure) -> tuple[dict, int]:
    """(law, D): the mu-law of |f - g| on an exact group.

    ``law`` maps each distinct metric value p/q, as the reduced pair
    (p, q) of ints, to its mass over D, the denominator of
    ``mu._mass_numerators`` on the aligned bases; cylinders of mass 0 are
    left out.  On int, rat and dy (``group.rational``) the pair is formed
    from the payloads' numerators and denominators with one gcd, so no
    Fraction is built; on the other exact groups it is read off
    ``group.metric``.
    """
    f, g = f._aligned(g)
    nums, den = mu._mass_numerators(f.bases)
    law = {}
    get = law.get
    if f.group.rational:
        for a, b, m in zip(f.table, g.table, nums):
            if m:
                ad, bd = a.denominator, b.denominator
                p, q = a.numerator * bd - b.numerator * ad, ad * bd
                c = gcd(p, q)
                key = (abs(p) // c, q // c)
                law[key] = get(key, 0) + m
        return law, den
    metric = f.group.metric
    for a, b, m in zip(f.table, g.table, nums):
        if m:
            v = metric(a, b)
            law[v] = get(v, 0) + m
    return {(v.numerator, v.denominator): m for v, m in law.items()}, den


def _law_sum(terms, den: int) -> Fraction:
    """The sum of n a / b over the terms (n, a, b), over ``den``.

    The numerators are summed per distinct b as ints, and those sums are
    added pairwise as unreduced (numerator, denominator) int pairs,
    (s d + t b, b d), with one Fraction (one gcd) at the end.  A running
    Fraction sum would carry the product of many coprime b through every
    addition and reduce at each.  One flat sum over the lcm is slower
    still, as each term multiplies its numerator by a cofactor of the
    whole lcm: on 4,000 coprime b it took 137 ms against 8 ms for this
    tree (CPython 3.11).
    """
    by_den = {}
    get = by_den.get
    for n, a, b in terms:
        by_den[b] = get(b, 0) + n * a
    parts = list(by_den.items())
    while len(parts) > 1:
        pairs = iter(parts)
        odd = parts[-1:] if len(parts) & 1 else []
        parts = [(b * d, s * d + t * b) for (b, s), (d, t) in zip(pairs, pairs)] + odd
    b, s = parts[0] if parts else (1, 0)
    return Fraction(s, b * den)


def _law_sums(law: dict, den: int, eps: Fraction) -> tuple:
    """(tau3, tau4, exceedance mass) of one mu-law: the sums of
    n min(p/q, 1), of n p/(p + q) and of n over p/q > eps, over ``den``."""
    top, bottom = eps.numerator, eps.denominator
    return (
        _law_sum(((n, p, q) if p < q else (n, 1, 1) for (p, q), n in law.items()), den),
        _law_sum(((n, p, p + q) for (p, q), n in law.items()), den),
        Fraction(sum(n for (p, q), n in law.items() if p * bottom > top * q), den),
    )


def _tau_sums(f: CylinderFunction, g: CylinderFunction, eps, mu: Measure) -> tuple:
    """(tau3, tau4, exceedance mass) of f and g against mu, which the
    public functionals read; mu's bases must extend the aligned bases.

    On ``real`` tau3 and tau4 are running sums over ``mu.mass_table`` in
    table order, so that their floats repeat, and the exceedance mass is
    one int sum of ``mu._mass_numerators``, exact in any order.
    """
    eps = _exact_eps(f, eps)
    if f.group.exact:
        return _law_sums(*_metric_law(f, g, mu), eps)
    bases, diffs = _difference_metrics(f, g)
    nums, den = mu._mass_numerators(bases)
    tau3 = tau4 = Fraction(0)
    for m, d in zip(mu.mass_table(bases), diffs):
        tau3 += m * (d if d < 1 else 1)
        tau4 += m * d / (1 + d)
    return tau3, tau4, Fraction(sum(n for n, d in zip(nums, diffs) if d > eps), den)


def exceedance_prefixes(f: CylinderFunction, g: CylinderFunction, eps) -> list:
    """Prefixes of the set {x : |f(x) - g(x)| > eps}, strict inequality."""
    eps = _exact_eps(f, eps)
    bases, diffs = _difference_metrics(f, g)
    return [index_to_prefix(i, bases) for i, d in enumerate(diffs) if d > eps]


def exceedance_mass(f: CylinderFunction, g: CylinderFunction, eps, mu: Measure) -> Fraction:
    """mu{x : |f(x) - g(x)| > eps}; mu's bases must extend the aligned bases."""
    return _tau_sums(f, g, eps, mu)[2]


def tau1_membership(
    f: CylinderFunction,
    g: CylinderFunction,
    measures: Sequence[Measure],
    eps,
    delta,
) -> bool:
    """True iff every measure gives the exceedance set mass strictly below delta."""
    eps = _exact_eps(f, eps)
    delta = as_fraction(delta)
    return all(exceedance_mass(f, g, eps, mu) < delta for mu in measures)


def tau3_functional(f: CylinderFunction, g: CylinderFunction, mu: Measure) -> Fraction:
    """Integral of min(|f - g|, 1) as a finite exact sum over cylinders."""
    return _tau_sums(f, g, 0, mu)[0]


def tau4_functional(f: CylinderFunction, g: CylinderFunction, mu: Measure) -> Fraction:
    """Integral of |f - g| / (1 + |f - g|)."""
    return _tau_sums(f, g, 0, mu)[1]


def _resolve_permutation(t):
    if hasattr(t, "permutation"):
        perm = tuple(t.permutation)
        bases = getattr(t, "bases", None)
        if bases is None:
            bases = t.model.bases
        return perm, tuple(bases)
    perm, bases = t
    return tuple(perm), tuple(bases)


def aut_distance(s, t, mu: Measure) -> Fraction:
    """Uniform-topology distance: the measure of {x : Sx != Tx}.

    Arguments may be anything exposing ``permutation`` and ``bases`` (or
    ``model.bases``) -- e.g. odometers and full-group elements -- or raw
    ``(permutation, bases)`` pairs acting on one prefix space.
    """
    perm_s, bases_s = _resolve_permutation(s)
    perm_t, bases_t = _resolve_permutation(t)
    if bases_s != bases_t or not len(perm_s) == len(perm_t) == space_size(bases_s):
        raise DepthError("automorphisms act on different prefix spaces")
    disagree = [i for i, (a, b) in enumerate(zip(perm_s, perm_t)) if a != b]
    return _index_mass(mu, bases_s, disagree)


def convergence_rows(
    functions: Sequence[CylinderFunction],
    target: CylinderFunction,
    mu: Measure,
    eps,
    delta,
) -> list[dict]:
    """Rows (n, tau1, tau3, tau4) for a sequence of functions against a target.

    tau1 is the 0/1 membership indicator at the supplied (eps, delta); a
    row reads all three columns off one mu-law (``_tau_sums``).
    """
    rows = []
    for n, fn in enumerate(functions, start=1):
        tau3, tau4, exceedance = _tau_sums(fn, target, eps, mu)
        tau1 = int(exceedance < as_fraction(delta))
        rows.append({"n": n, "tau1": tau1, "tau3": tau3, "tau4": tau4})
    return rows


def convergence_csv(rows: Sequence[dict]) -> str:
    """Render functional-vs-n rows as CSV with exact fractions."""
    lines = ["n,tau1,tau3,tau4"]
    for row in rows:
        lines.append(f"{row['n']},{row['tau1']},{row['tau3']},{row['tau4']}")
    return "\n".join(lines) + "\n"
