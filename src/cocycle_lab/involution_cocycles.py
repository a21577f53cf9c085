"""Cocycles of the group generated by commuting digit flips on {0,1}^m.

The group generated by the digit flips delta_1, delta_2, ... (each an
involution, all commuting) acts on binary prefixes.  Its cocycles are
parametrized by generator families (f_n): each f_n invariant under the
first n flips.  On the finite quotient every such cocycle is the
coboundary of one potential,

    P(x) = x_1 f_1(x) + ... + x_N f_N(x),    c(delta_n, x) = P(delta_n x) - P(x),

digit coefficients acting as integer multiples.  The terms k < n keep
their digit and give x_k (f_k(delta_n x) - f_k(x)); the term k = n gives
(-1)^{x_n} f_n(x), because f_n ignores digit n; the terms k > n ignore
digit n and cancel.  One walk over the family builds P and the N
generator tables together, O(N 2^m) group operations.  Both directions
are implemented: a family yields a cocycle whose defining identities can
be verified exhaustively, and a cocycle oracle yields back its family by
reading generator values on the leading-zeros cylinder
x_1 = ... = x_n = 0, where c(delta_n, .) = f_n, and extending by
invariance.  The dyadic approximation checks its cohomology
equation only at the N generators: a word's value is the sum of its
letters' generator values along the flip path, so the generator equations
give every word by telescoping.

Families here are finite truncations: f_n = 0 for n > N, and the family
depth m must be at least N.  This is a modeling choice of the finite
artifact (it makes the potential, and with it the transfer function, a
finite exact sum), not a statement about the infinite product space.

Invariance is stored structurally: the table of f_n is indexed only by
digits n+1..m, so the invariance hypothesis cannot be violated after
construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from itertools import repeat
from operator import add, neg, sub
from typing import Iterable, Optional, Sequence

from ._records import record
from .dynamics import delta_apply
from .space import (
    CylinderFunction,
    DepthError,
    _Trusted,
    binary_bases,
    check_bases,
    full_prefix_index,
    index_to_prefix,
    space_size,
    validate_prefix,
)
from .values import (
    DYADICS,
    RATIONALS,
    Group,
    GroupValue,
    NeighborhoodChain,
    UnsupportedValueError,
    _grid_exponent,
    _grid_numerator,
    _is_int,
    _require_list,
    _require_object,
    group_from_tag,
)
from .zcocycles import CoboundaryCertificate, ZCocycle, _spread_bound


class InvarianceError(ValueError):
    """Raised when a generator table depends on a digit it must ignore."""


class OracleInconsistencyError(ValueError):
    """Raised when an evaluation oracle disagrees with its invariance extension."""


class ConjugationError(ValueError):
    """Raised when a permutation does not conjugate the acting system to itself."""


def _check_prefix_index(i: int, depth: int) -> None:
    if not 0 <= i < 1 << depth:
        raise IndexError(f"prefix index {i} out of range 0..{(1 << depth) - 1}")


def _check_binary(bases) -> tuple[int, ...]:
    bases = check_bases(bases)
    if any(b != 2 for b in bases):
        raise ValueError("digit flips need an all-binary base vector")
    return bases


def _shaped(tables, bases: tuple[int, ...], validate=None) -> tuple:
    """The tables of a family at ``bases`` as tuples, each entry through ``validate``
    if given, refused unless there are 1..depth of them and table n has 2^(depth - n)."""
    if not tables:
        raise ValueError("family needs at least one generator")
    if len(tables) > len(bases):
        raise DepthError(f"{len(tables)} generators need depth >= {len(tables)}, got {len(bases)}")
    shaped = []
    for n, table in enumerate(tables, start=1):
        table = tuple(table if validate is None else map(validate, table))
        expected = 1 << (len(bases) - n)
        if len(table) != expected:
            raise ValueError(f"generator {n} table has {len(table)} entries, needs {expected}")
        shaped.append(table)
    return tuple(shaped)


@record
class GeneratorFamily(_Trusted):
    """Finitely many generator functions f_1..f_N at a common depth m >= N.

    ``tables[n-1]`` holds the values of f_n indexed by digits n+1..m (the
    fastest-varying digit first), which encodes invariance under
    delta_1..delta_n structurally.
    """

    bases: tuple[int, ...]
    group: Group
    tables: tuple

    def __post_init__(self):
        object.__setattr__(self, "bases", _check_binary(self.bases))
        object.__setattr__(self, "tables", _shaped(self.tables, self.bases, self.group.validate))

    def _numerators(self) -> tuple[tuple, int]:
        """``_kernel_form(tables, group)``: a decoded family's kernel, handed over once."""
        return self.__dict__.pop("_kernel", None) or _kernel_form(self.tables, self.group)

    @property
    def depth(self) -> int:
        return len(self.bases)

    @property
    def count(self) -> int:
        return len(self.tables)

    def generator_payload(self, n: int, index: int):
        """Value of f_n at the prefix with full-depth index ``index``."""
        if not 1 <= n <= self.count:
            raise IndexError(f"generator index {n} out of range 1..{self.count}")
        _check_prefix_index(index, self.depth)
        return self.tables[n - 1][index >> n]

    def generator_function(self, n: int) -> CylinderFunction:
        """f_n decompressed to a full-depth cylinder function."""
        size = 1 << self.depth
        table = tuple(self.generator_payload(n, i) for i in range(size))
        return CylinderFunction(self.bases, self.group, table)

    @classmethod
    def from_cylinder_functions(
        cls, bases, functions: Sequence[CylinderFunction]
    ) -> "GeneratorFamily":
        """Build a family, checking each f_n ignores its first n digits."""
        bases = _check_binary(bases)
        if not functions:
            raise ValueError("family needs at least one generator")
        group = functions[0].group
        tables = []
        for n, f in enumerate(functions, start=1):
            if f.group != group:
                raise ValueError("generators must share one value group")
            full = f.lift(bases).table
            mask = (1 << n) - 1
            for i, v in enumerate(full):
                if v != full[i & ~mask]:
                    raise InvarianceError(
                        f"generator {n} depends on digit <= {n} at prefix "
                        f"{index_to_prefix(i, bases)}"
                    )
            tables.append(tuple(full[h << n] for h in range(1 << (len(bases) - n))))
        return cls(bases, group, tuple(tables))

    def to_json(self):
        """The family as JSON; entries that are one payload object share one value
        record (``Group.payloads_to_json``): treat the records as read-only."""
        return {
            "N": self.count,
            "depth": self.depth,
            "group": self.group.tag,
            "tables": [self.group.payloads_to_json(table) for table in self.tables],
        }

    @classmethod
    def from_json(cls, obj) -> "GeneratorFamily":
        """The family of a JSON object, refused as the constructor refuses it, its
        records decoded once (``Group._decoded``), carrying the kernel built there."""
        _require_object(obj, "a generator family")
        group = group_from_tag(obj["group"])
        bases = binary_bases(obj["depth"])
        tables, kernel = group._decoded(
            _require_list(table, "an entry of tables")
            for table in _require_list(obj["tables"], "tables")
        )
        count = obj.get("N", len(tables))
        if not _is_int(count):
            raise ValueError(f"N must be an integer, got {count!r}")
        if len(tables) != count:
            raise ValueError("N field disagrees with the number of tables")
        return cls._trusted(bases, group, _shaped(tables, bases), kernel)


def word_reduce(word: Iterable[int]) -> frozenset[int]:
    """Reduce a flip word to its index set (flips commute and square to 1)."""
    out: set[int] = set()
    for n in word:
        out.symmetric_difference_update({n})
    return frozenset(out)


def _kernel_form(tables, group: Group) -> tuple[tuple, int]:
    """Tables in the kernels' form and its denominator L: each table as the
    columns of ``group.numerators`` over the one L of all their values,
    read once per distinct payload object (decoded tables and payload views
    share one object per value)."""
    distinct = {id(v): v for table in tables for v in table}
    columns, den = group.numerators(list(distinct.values()))
    reads = [dict(zip(distinct, column)).__getitem__ for column in columns]
    return tuple(tuple(tuple(map(read, map(id, t))) for read in reads) for t in tables), den


def _potential_walk(f_tables, depth: int, group: Group) -> tuple[tuple, list]:
    """The generator tables c(delta_n, .) for n = 1..N and the potential P
    of the family with kernel-form tables ``f_tables`` at ``depth``, in
    kernel form: the walk is linear, so each column runs under +, - and
    negation from the kernel form of the group's zero (0, or 0.0 on real).

    P_n = x_1 f_1 + ... + x_n f_n is one running table: step n adds f_n
    where x_n = 1.  The terms k > n of P ignore digit n, so
    c(delta_n, x) = P_n(delta_n x) - P_n(x): v = P_n[i ^ e_n] - P_n[i] at
    x_n = 0 and -v at x_n = 1.  On x_1 = ... = x_n = 0, P_{n-1} vanishes
    on both sides, so the entry there is f_n itself, written without
    arithmetic: exact even in floats.

    Each step runs on the slices of ``_flip_halves``, never one index at a
    time: the entries with x_1 = ... = x_n = 0 are the stride-2^n slice
    from 0, whose f is exactly f_n's column, and the others go by offset
    (each slice again against all of f_n's column) or by block (against
    the block's one f_n).  Every entry keeps its operations and their
    order (P + f_n, then up - P, then -v), so floats, -0.0 included, keep
    their bytes.
    """
    size = 1 << depth
    potentials = [column * size for column in group.numerators([group.zero()])[0]]
    tables = []
    for n, f in enumerate(f_tables, start=1):
        flip = 1 << (n - 1)
        step = flip << 1
        halves = _flip_halves(size, n, 1)
        columns = []
        for f_column, potential in zip(f, potentials):
            table = [None] * size
            # x_1 = ... = x_n = 0
            potential[flip::step] = table[::step] = f_column
            table[flip::step] = map(neg, f_column)
            for lo, hi, block in halves:
                f_n = f_column if block is None else repeat(f_column[block])
                potential[hi] = up = list(map(add, potential[hi], f_n))
                table[lo] = v = list(map(sub, up, potential[lo]))
                table[hi] = map(neg, v)
            columns.append(tuple(table))
        tables.append(tuple(columns))
    return tuple(tables), potentials


def _flip_halves(size: int, n: int, skip: int = 0) -> list[tuple[slice, slice, int | None]]:
    """The prefixes i with x_n = 0 and their images i + 2^(n-1) under
    delta_n, as triples (lo, hi, block) of slices of a ``size`` table,
    leaving out the first ``skip`` of each block of 2^n prefixes.  While
    2^(n-1) <= size / 2^n they go by offset j, the stride-2^n slices from
    j and from j + 2^(n-1), and block is None; past that they go by block,
    the two contiguous halves of block number ``block``.  Either way there
    are at most sqrt(size / 2) triples."""
    flip = 1 << (n - 1)
    step = flip << 1
    if flip <= size >> n:
        return [(slice(j, size, step), slice(j + flip, size, step), None) for j in range(skip, flip)]
    return [
        (slice(start + skip, start + flip), slice(start + flip + skip, start + step), block)
        for block, start in enumerate(range(0, size, step))
    ]


def _chain(tables, group: Group, word: Sequence[int], i: int):
    """Cocycle payload at an ordered flip word through the identity chain:
    the generator values of the word's letters, right to left."""
    acc = group.zero()
    for n in reversed(word):
        acc = group.add(acc, tables[n - 1][i])
        i ^= 1 << (n - 1)
    return acc


def word_apply(word: Iterable[int], x: Sequence[int]) -> tuple[int, ...]:
    """Apply a flip word to a binary prefix, one digit flip per letter of its reduction."""
    x = validate_prefix(x, (2,) * len(x))
    for n in word_reduce(word):
        x = delta_apply(n, x)
    return x


@record
class InvolutionCocycle:
    """The cocycle determined by a generator family."""

    family: GeneratorFamily

    @property
    def group(self) -> Group:
        return self.family.group

    @property
    def bases(self) -> tuple[int, ...]:
        return self.family.bases

    @cached_property
    def _kernel_family(self) -> tuple[tuple, int]:
        """The family's tables in kernel form (``_kernel_form``) and their denominator."""
        return self.family._numerators()

    @cached_property
    def _kernel_tables(self) -> tuple[tuple, list, int]:
        """Full-depth tables of c(delta_n, .) for n = 1..N and the potential P of
        the one walk of ``_kernel_family``, and their denominator."""
        f, den = self._kernel_family
        return (*_potential_walk(f, self.family.depth, self.group), den)

    @cached_property
    def _first_mismatch(self):
        """``_coboundary_mismatch`` of ``_kernel_tables``, found once: it is
        the first in n-major order, so one at n > count means none in the
        first count tables."""
        tables, potential, _ = self._kernel_tables
        return _coboundary_mismatch(tables, potential, self.group)

    @cached_property
    def _generator_tables(self) -> tuple:
        """The payload view of ``_kernel_tables``, for the public readers."""
        tables, _, den = self._kernel_tables
        return tuple(self.group.payloads_over(table, den) for table in tables)

    def eval_generator(self, n: int, x: Sequence[int]) -> GroupValue:
        """Generator value c(delta_n, x)."""
        if not 1 <= n <= self.family.count:
            raise IndexError(f"generator index {n} out of range 1..{self.family.count}")
        i = full_prefix_index(x, self.bases)
        return GroupValue(self.group, self._generator_tables[n - 1][i])

    def eval_word_index(self, word: Sequence[int], i: int):
        """Payload of the cocycle at an ordered flip word, via the identity chain."""
        word = list(word)
        for n in reversed(word):
            if not 1 <= n <= self.family.count:
                raise IndexError(f"generator index {n} out of range 1..{self.family.count}")
        _check_prefix_index(i, self.family.depth)
        return _chain(self._generator_tables, self.group, word, i)

    def eval_word(self, word, x: Sequence[int]) -> GroupValue:
        """Cocycle value at a word of flips; the empty word gives 0.

        Accepts ordered sequences (which may repeat indices) or reduced
        index sets; all factor orderings of a word agree.
        """
        if isinstance(word, (set, frozenset)):
            word = sorted(word)
        i = full_prefix_index(x, self.bases)
        return GroupValue(self.group, self.eval_word_index(list(word), i))


@record
class IdentityCheck:
    """Outcome of the defining-identity verification, with a witness on failure."""

    ok: bool
    witness: Optional[dict] = None


def _oracle_tables(oracle, count: int, bases, group: Group | None):
    """The first ``count`` generator tables of a cocycle or raw oracle,
    their group and denominator, in the kernel form of ``_kernel_form``,
    and their first ``_coboundary_mismatch`` against a potential P, or
    None.  A cocycle's are its cached walk and cached ``_first_mismatch``,
    whose P_N certifies its first tables too: delta_n P_N = delta_n P_n.
    A raw oracle's P is one walk of the family read off the leading-zeros
    cylinders, on every group.  A count, bases or group the oracle cannot
    answer is a ValueError naming the value given and the one expected."""
    if isinstance(oracle, InvolutionCocycle):
        limit, what = oracle.family.count, "the cocycle's generator count"
    else:
        limit, what = len(bases), "the depth"
    if not (_is_int(count) and 1 <= count <= limit):
        raise ValueError(f"count must be between 1 and {limit} ({what}), got {count!r}")
    if isinstance(oracle, InvolutionCocycle):
        if bases != oracle.bases:
            raise ValueError(f"bases {bases} do not match the cocycle's bases {oracle.bases}")
        if group is not None and group != oracle.group:
            raise ValueError(
                f"group {group!r} does not match the cocycle's group {oracle.group!r}"
            )
        tables, _, den = oracle._kernel_tables
        mismatch = oracle._first_mismatch
        within = mismatch is not None and mismatch[0] <= count
        return tables[:count], oracle.group, den, mismatch if within else None
    size = space_size(bases)
    tables = []
    for n in range(1, count + 1):
        row = []
        for i in range(size):
            v = oracle(n, index_to_prefix(i, bases))
            if group is None:
                group = v.group
            if v.group != group:
                raise ValueError("oracle values must share one group")
            row.append(v.payload)
        tables.append(tuple(row))
    tables, den = _kernel_form(tables, group)
    f = tuple(tuple(c[:: 1 << n] for c in t) for n, t in enumerate(tables, start=1))
    potential = _potential_walk(f, len(bases), group)[1]
    return tables, group, den, _coboundary_mismatch(tables, potential, group)


def _coboundary_mismatch(tables, potential, group: Group):
    """The first (n, index, value, coboundary value) in n-major order where
    t_n(x) differs from P(delta_n x) - P(x), or None; in kernel form, a
    value as its entry in each column.  Entries are checked column by column
    as t_n(x) + P(x) = P(delta_n x) by ``group.values_equal``, one addition
    each, on the slices of ``_flip_halves`` in both directions, and an entry
    differs where one of its columns does; only a column that fails is
    scanned index by index, for its first witness."""
    equal = group.values_equal
    size = len(potential[0])
    for n, table in enumerate(tables, start=1):
        flip = 1 << (n - 1)
        halves = _flip_halves(size, n)
        first = size
        for column, p in zip(table, potential):
            if not all(
                all(map(equal, map(add, column[lo], p[lo]), p[hi]))
                and all(map(equal, map(add, column[hi], p[hi]), p[lo]))
                for lo, hi, _ in halves
            ):
                i = next(i for i in range(size) if not equal(column[i] + p[i], p[i ^ flip]))
                first = min(first, i)
        if first < size:
            value = [c[first] for c in table]
            return n, first, value, [p[first ^ flip] - p[first] for p in potential]
    return None


def verify_identities(
    cocycle, count: int | None = None, bases=None, group: Group | None = None
) -> IdentityCheck:
    """Exhaustively check c(dn dk, .) = c(dk dn, .) and c(dn^2, .) = 0.

    Accepts an InvolutionCocycle (count and bases default to its family's)
    or a raw oracle (n, prefix) -> GroupValue; every invariant generator
    family passes, and a violation is returned with its first witness.  On
    the generator tables t_n = c(delta_n, .) the identities read
    t_n(x) + t_n(delta_n x) = 0 and
    t_k(x) + t_n(delta_k x) = t_n(x) + t_k(delta_n x).

    Tables that are the coboundary t_n(x) = P(delta_n x) - P(x) of one P
    satisfy both, whatever built them: both sides of the commutation are
    P(delta_n delta_k x) - P(x), symmetric in n and k.  So on an exact
    group the O(N 2^m) check against the potential of ``_oracle_tables``
    decides.  Conversely, if the identities hold, the flips act freely on
    each block of 2^N prefixes as (Z/2)^N, whose relations they are, so
    t_n(x) = Q(delta_n x) - Q(x) for one Q with Q = 0 at the block's base
    x0 (first N digits zero); setting the digits N, ..., 1 of x0 to those
    of x in turn, the step at digit k starts where digits 1..k are zero
    and t_k is f_k(x), so Q = x_1 f_1(x) + ... + x_N f_N(x), the potential
    of the family read off the leading-zeros cylinders.  Only when the
    check fails, or on ``real`` (whose tolerance does not telescope), does
    the O(N^2 2^m) scan run, in (prefix, n, k) order; its first failure is
    the witness.
    """
    if isinstance(cocycle, InvolutionCocycle):
        count = cocycle.family.count if count is None else count
        bases = cocycle.bases if bases is None else bases
    elif count is None or bases is None:
        raise ValueError("a raw oracle needs explicit count and bases")
    bases = _check_binary(bases)
    tables, group, den, mismatch = _oracle_tables(cocycle, count, bases, group)
    if group.exact and mismatch is None:
        return IdentityCheck(True)
    tables = [group.payloads_over(table, den) for table in tables]
    add, equal, zero = group.add, group.values_equal, group.zero()
    for i in range(space_size(bases)):
        for n, t_n in enumerate(tables, start=1):
            i_n = i ^ (1 << (n - 1))
            v = add(t_n[i], t_n[i_n])
            if not equal(v, zero):
                x = index_to_prefix(i, bases)
                witness = dict(identity="square", n=n, x=x, value=GroupValue(group, v))
                return IdentityCheck(False, witness)
            for k, t_k in enumerate(tables[: n - 1], start=1):
                lhs = add(t_k[i], t_n[i ^ (1 << (k - 1))])
                rhs = add(t_n[i], t_k[i_n])
                if not equal(lhs, rhs):
                    x = index_to_prefix(i, bases)
                    lhs, rhs = GroupValue(group, lhs), GroupValue(group, rhs)
                    witness = dict(identity="commutation", n=n, k=k, x=x, lhs=lhs, rhs=rhs)
                    return IdentityCheck(False, witness)
    return IdentityCheck(True)


def _recovered_kernel(oracle, count: int, bases, group: Group | None):
    """The family ``recover_generators`` reads off an oracle, in kernel
    form (``_kernel_form``): its tables, group and denominator.  Raises
    what ``recover_generators`` raises."""
    bases = _check_binary(bases)
    tables, group, den, mismatch = _oracle_tables(oracle, count, bases, group)
    if mismatch is not None:
        n, i, v, w = mismatch
        v, w = group.payloads_over(list(zip(v, w)), den)
        raise OracleInconsistencyError(
            f"oracle disagrees with its invariance extension at "
            f"n={n}, x={index_to_prefix(i, bases)}: {v!r} vs {w!r}"
        )
    return tuple(tuple(c[:: 1 << n] for c in t) for n, t in enumerate(tables, start=1)), group, den


def recover_generators(
    oracle, count: int, bases, group: Group | None = None
) -> GeneratorFamily:
    """Read a generator family back from a cocycle evaluation oracle.

    f_n is the generator value on the cylinder x_1 = ... = x_n = 0,
    extended by invariance.  The whole oracle is then checked against the
    coboundary of the potential of ``_oracle_tables``; any disagreement
    means the oracle was not generated by an invariant family, and is
    reported with its first witness in n-major order.  On an exact group
    the check passes exactly when the oracle satisfies the defining
    identities (see ``verify_identities``), so the two answer alike.
    """
    bases = _check_binary(bases)
    f, group, den = _recovered_kernel(oracle, count, bases, group)
    return GeneratorFamily._trusted(bases, group, tuple(group.payloads_over(t, den) for t in f))


def psi(n: int, family: GeneratorFamily, x: Sequence[int]) -> GroupValue:
    """Signed digit-weighted partial sum -x_n f_n(x) - ... - x_1 f_1(x).

    psi_0 = 0, and psi_n(x) = psi_{n-1}(x) - x_n f_n(x).  At n = N this is
    -P, the negated potential whose coboundary is the family's cocycle.
    """
    if not 0 <= n <= family.count:
        raise IndexError(f"index {n} out of range 0..{family.count}")
    i = full_prefix_index(x, family.bases)
    group = family.group
    acc = group.zero()
    for k in range(1, n + 1):
        if (i >> (k - 1)) & 1:
            acc = group.sub(acc, family.tables[k - 1][i >> k])
    return GroupValue(group, acc)


@record
class TransferReport:
    """Result of approximating a family into the dyadic subgroup.

    ``rounded_family`` generates the cohomologous cocycle beta; the
    transfer g satisfies alpha(w, x) = g(wx) + beta(w, x) - g(x) exactly
    for every flip word and prefix, and |g| is bounded by the sum of the
    per-index rounding radii (at most the chain's base radius).
    ``max_transfer`` is the largest |g|.
    """

    family: GeneratorFamily
    rounded_family: GeneratorFamily
    transfer: CylinderFunction
    radii: tuple[Fraction, ...]
    radius_bound: Fraction
    max_transfer: Fraction

    @cached_property
    def beta(self) -> InvolutionCocycle:
        return InvolutionCocycle(self.rounded_family)

    def to_json(self):
        """The report as JSON; entries that are one payload object share one value
        record (``Group.payloads_to_json``): treat the records as read-only."""
        return {
            "rounded": self.rounded_family.to_json(),
            "transfer": self.transfer.to_json(),
            "radii": [str(r) for r in self.radii],
            "bound": str(self.radius_bound),
        }


def h_approximate(family: GeneratorFamily, chain: NeighborhoodChain) -> TransferReport:
    """Replace a rational family by a dyadic-valued cohomologous one.

    Each f_n is rounded valuewise at chain radius eps_n (rounding cannot
    break invariance).  The walk is linear, so one walk of the rounding
    error e_n = f_n - fbar_n gives the transfer g = P(f) - P(fbar) =
    sum_n x_n e_n, exact on Q, as its potential and alpha - beta as its
    generator tables.  All of it runs on int numerators over
    D = lcm(L, 2^q), L being the lcm of the family's denominators and 2^-q
    the finest grid: a dyadic v / D stays, any other goes to its grid point
    by ``values._grid_numerator``, as ``round_to_dyadic`` rounds.  The
    bounds on the radii and on |g| are checked, and so is the cohomology
    equation at the N generators and every prefix, which gives it on every
    flip word by telescoping: the walk's tables against the coboundary of
    its potential, as ``verify_identities`` and ``recover_generators``
    check theirs.  The check is a theorem for invariant families, so a
    failure raises at its first (n, x) in n-major order.
    """
    if family.group not in (RATIONALS, DYADICS):
        raise UnsupportedValueError(
            f"dyadic approximation needs a rational or dyadic family, "
            f"got group {family.group.tag!r}"
        )
    group = RATIONALS
    radii = tuple(chain.radii(family.count))
    f, base_den = family._numerators()  # dy's numerators are rat's
    exponents = [_grid_exponent(eps) for eps in radii]
    den = lcm(base_den, 1 << max(exponents))
    scale = den // base_den
    errors, rounded_tables = [], []
    for (table,), q in zip(f, exponents):
        error, rounded, step = {}, {}, den >> q
        for v in set(table):
            w = v * scale  # v / L as a numerator over D
            d = den // gcd(w, den)  # the reduced denominator of w / D
            error[v] = e = 0 if d & (d - 1) == 0 else w - _grid_numerator(w, den, q) * step
            rounded[v] = Fraction(w - e, den)
        errors.append((tuple(map(error.__getitem__, table)),))
        rounded_tables.append(tuple(map(rounded.__getitem__, table)))
    base = family if family.group == group else GeneratorFamily(family.bases, group, family.tables)
    rounded = GeneratorFamily._trusted(family.bases, group, tuple(rounded_tables))
    differences, potential = _potential_walk(errors, family.depth, group)
    g_table = potential[0]
    top, bottom = max(g_table), min(g_table)
    transfer = CylinderFunction._trusted(family.bases, group, group.payloads_over(potential, den))
    bound = sum(radii, Fraction(0))
    report = TransferReport(base, rounded, transfer, radii, bound, Fraction(max(top, -bottom), den))

    if bound > chain.eps0:
        raise AssertionError("radius bound exceeds the base radius")
    limit = floor(bound * den)  # |g| / D > bound exactly when the int |g| > limit
    if top > limit or bottom < -limit:
        i = next(i for i, g in enumerate(g_table) if abs(g) > limit)
        raise AssertionError(
            f"transfer value {Fraction(g_table[i], den)} at "
            f"{index_to_prefix(i, family.bases)} exceeds the bound {bound}"
        )
    mismatch = _coboundary_mismatch(differences, potential, group)
    if mismatch is not None:
        n, i, _, _ = mismatch
        raise AssertionError(
            f"cohomology equation failed at word {[n]}, x={index_to_prefix(i, family.bases)}"
        )
    return report


# ---------------------------------------------------------------------------
# Cocycle transport along prefix permutations (finite-quotient form)


def _permutation_of(phi, size: int) -> tuple[int, ...]:
    if hasattr(phi, "permutation"):
        perm = tuple(phi.permutation)
    else:
        perm = tuple(phi)
    if sorted(perm) != list(range(size)):
        raise ConjugationError("phi is not a permutation of the prefix space")
    return perm


def _rotation(phi, size: int, xor: bool = False) -> int:
    """The s with phi(i) = i + s mod N (or i XOR s), else ConjugationError.

    A permutation commuting with the odometer is such a rotation, and one
    commuting with every digit flip is such an XOR; either way s = phi(0).
    """
    perm = _permutation_of(phi, size)
    s = perm[0]
    expected = [s ^ i for i in range(size)] if xor else [*range(s, size), *range(s)]
    if list(perm) != expected:
        system = "the digit flips" if xor else "the odometer"
        raise ConjugationError(
            f"phi does not commute with {system}; conjugation leaves the "
            "model's transformation"
        )
    return s


def _rotate(table: tuple, r: int) -> tuple:
    """The table of x -> table(x - r) on the N-cycle."""
    cut = len(table) - r
    return table[cut:] + table[:cut]


def transport(cocycle, phi):
    """Transport a cocycle along a prefix permutation.

    The transported cocycle is a'(gamma, y) = a(gamma, phi^{-1} y), which
    is again a cocycle of the same acting system precisely when phi
    commutes with it; non-commuting permutations conjugate onto a
    different realization and are rejected.  Commuting with the odometer
    makes phi a rotation by r, so every table rotates by r; commuting with
    the digit flips makes phi the XOR with s, so the table of f_n (indexed
    by digits n+1..m) moves as h -> h XOR (s >> n).  Coboundaries
    transport to coboundaries with transfer c(phi^{-1} y), and the cycle
    sum is preserved.
    """
    if isinstance(cocycle, ZCocycle):
        model = cocycle.model
        r = _rotation(phi, model.size)
        return ZCocycle(
            model,
            CylinderFunction(model.bases, cocycle.group, _rotate(cocycle._table, r)),
        )
    if isinstance(cocycle, InvolutionCocycle):
        family = cocycle.family
        s = _rotation(phi, 1 << family.depth, xor=True)
        tables = tuple(
            tuple(table[h ^ (s >> n)] for h in range(len(table)))
            for n, table in enumerate(family.tables, start=1)
        )
        return InvolutionCocycle(GeneratorFamily(family.bases, family.group, tables))
    raise TypeError(f"cannot transport {cocycle!r}")


def transport_certificate(
    certificate: CoboundaryCertificate, phi
) -> CoboundaryCertificate:
    """Transport a coboundary certificate: c -> c(phi^{-1} .), re-anchored at 0.

    phi must commute with the odometer (a rotation), as for ``transport``.
    """
    model = certificate.model
    r = _rotation(phi, model.size)
    group = certificate.generator.group
    moved = _rotate(certificate.transfer.lift(model.bases).table, r)
    anchor = moved[0]
    moved = tuple(group.sub(v, anchor) for v in moved)
    moved_generator = _rotate(certificate.generator.lift(model.bases).table, r)
    return CoboundaryCertificate(
        model,
        CylinderFunction(model.bases, group, moved_generator),
        CylinderFunction(model.bases, group, moved),
        _spread_bound(*group.numerators(moved), group),
    )
