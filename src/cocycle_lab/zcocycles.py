"""Cocycles of the Z-action generated by the odometer.

A cocycle of the cyclic action is completely determined by its generating
function f(x) = a(1, x); evaluation sums f along forward or backward
orbit segments.  On the single N-cycle quotient this makes everything
exactly computable from one period of partial sums:

* a generator is a coboundary iff its sum over the full cycle vanishes,
  and then the transfer function is the anchored partial-sum table
  (a certificate that can be checked exactly on every prefix);
* every marker set yields a periodic approximation whose cocycles are
  coboundaries with an explicit tower-level transfer;
* over the markers A_n the induced coboundary F_n has a closed form: f
  off the tower tops, and on each top the value that cancels the sum
  over its tower (two partial sums).  It agrees with f off the top sets,
  so its tau3-distance to f is a sum over the N/w tops alone, bounded by
  the top-set measure (2^-n under the fair-coin measure on the
  2-odometer); the density rows take it from there, with masses read
  from each measure's mass table on the level-1 tops.  On int, rat and
  dy all rows come from one pass over integer numerators: the partial
  sums of F_n are C[t] - C[base], so each row's certificate bound is read
  from per-tower extremes of C that merge level by level, O(N) in all;
* boundedness of two-sided orbit sums characterizes coboundaries, with
  the certificate spread bound as the explicit constant.

Sign convention throughout: a coboundary generator is f(x) = c(Tx) - c(x),
and every construction is normalized to it (transfers built from periodic
approximations are negated accordingly).  Transfer functions are anchored
to 0 at the all-zeros prefix; on a single cycle they are unique up to an
additive constant, so the anchor makes them deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, mul, sub
from typing import Optional, Sequence

from .dynamics import (
    FullGroupElement,
    MarkerSequence,
    Odometer,
    TowerDecomposition,
)
from .space import (
    MAX_POINTS,
    CylinderFunction,
    DepthError,
    Measure,
    full_prefix_index,
    index_to_prefix,
    tau3_functional,
)
from .values import GroupValue, IntegerGroup, _integer_numerators, _is_int


#: Longest running-sum list N + 2 scan_to + 1 a gh scan may build; the
#: default horizon 4N needs at most 9 MAX_POINTS + 1.
MAX_SCAN = 16 * MAX_POINTS


class PeriodicityError(ValueError):
    """Raised when a transfer over a periodic element cannot exist."""


@dataclass(frozen=True)
class ZCocycle:
    """The cocycle generated by a cylinder function over the odometer."""

    model: Odometer
    generator: CylinderFunction

    def __post_init__(self):
        if (
            self.generator.depth > self.model.depth
            or self.generator.bases != self.model.bases[: self.generator.depth]
        ):
            raise DepthError("generator does not live on the model's prefixes")

    @property
    def group(self):
        return self.generator.group

    @cached_property
    def _table(self) -> tuple:
        return self.generator.lift(self.model.bases).table

    @cached_property
    def _partial(self) -> tuple:
        """Partial sums C[t] = f(0) + f(1) + ... + f(t-1) for t = 0..N-1."""
        group = self.group
        return tuple(accumulate(self._table[:-1], group.add, initial=group.zero()))

    @cached_property
    def cycle_sum_payload(self):
        group = self.group
        return group.add(self._partial[-1], self._table[-1])

    @property
    def cycle_sum(self) -> GroupValue:
        """Sum of the generator over one full period of the cycle."""
        return GroupValue(self.group, self.cycle_sum_payload)

    def _running(self, t: int):
        """Signed sum of the generator over orbit positions 0 .. t-1."""
        cycles, r = divmod(t, self.model.size)
        base = self._partial[r]
        if cycles:
            return self.group.add(base, self.group.scale(self.cycle_sum_payload, cycles))
        return base

    def evaluate_index(self, j: int, i: int):
        return self.group.sub(self._running(i + j), self._running(i))

    def evaluate(self, j: int, x: Sequence[int]) -> GroupValue:
        """Cocycle value a(j, x) for any integer j; a(0, x) = 0."""
        i = full_prefix_index(x, self.model.bases)
        return GroupValue(self.group, self.evaluate_index(j, i))

    def iterate_function(self, j: int) -> CylinderFunction:
        """The map x -> a(j, x) as a full-depth cylinder function."""
        table = tuple(self.evaluate_index(j, i) for i in range(self.model.size))
        return CylinderFunction(self.model.bases, self.group, table)


def _spread_bound(values, group):
    """Metric diameter of a value set.

    With ordered projections (``Group.projections``) this is the largest
    per-column max - min, O(k N) for k columns (k = 1 on the ordered
    groups, 2^(d-1) on Q^d).  On Z/m the distinct residues are sorted
    round the ring, O(k log k) for k of them: one of the two residues of
    a farthest pair lies at most floor(m/2) steps on from the other, so
    the diameter is the largest distance from a residue a to the last
    residue at or below a + floor(m/2), taken mod m with wrap-around.
    """
    columns = group.projections(values)
    if columns is not None:
        return max(max(col) - min(col) for col in columns)
    m = group.modulus
    ring = sorted(set(values))
    return max(group.metric(a, ring[bisect_right(ring, (a + m // 2) % m) - 1]) for a in ring)


@dataclass(frozen=True)
class CoboundaryCertificate:
    """Transfer function witnessing f(x) = c(Tx) - c(x) on every prefix.

    The spread bound dominates the metric size of every two-sided orbit
    sum of the generator, since such a sum telescopes to a difference of
    two transfer values.
    """

    model: Odometer
    generator: CylinderFunction
    transfer: CylinderFunction
    spread_bound: object

    def verify(self) -> bool:
        group = self.generator.group
        f = self.generator.lift(self.model.bases).table
        c = self.transfer.lift(self.model.bases).table
        n = self.model.size
        return all(
            group.values_equal(group.sub(c[(i + 1) % n], c[i]), f[i]) for i in range(n)
        )

    def to_json(self):
        bound = self.spread_bound
        return {
            "transfer": self.transfer.to_json(),
            "M": str(bound) if isinstance(bound, (int, Fraction)) else bound,
        }


def coboundary_solve(a: ZCocycle) -> Optional[CoboundaryCertificate]:
    """Decide the coboundary equation, returning a certificate when solvable.

    A certificate exists iff the cycle sum vanishes; the transfer is then
    the table of partial sums anchored at the all-zeros prefix.  A None
    result is a completeness statement: the cocycle grows linearly along
    the cycle (a(tN, x) is t times the nonzero cycle sum).
    """
    group = a.group
    if not group.values_equal(a.cycle_sum_payload, group.zero()):
        return None
    transfer = CylinderFunction(a.model.bases, group, a._partial)
    return CoboundaryCertificate(
        a.model, a.generator, transfer, _spread_bound(a._partial, group)
    )


def extend_to_full_group(a: ZCocycle, element: FullGroupElement) -> CylinderFunction:
    """The extension x -> a(j_R(x), x) along a full-group element R."""
    if element.model != a.model:
        raise DepthError("full-group element lives on a different model")
    table = tuple(
        a.evaluate_index(element.jump_at(i), i) for i in range(a.model.size)
    )
    return CylinderFunction(a.model.bases, a.group, table)


def periodic_coboundary(
    element: FullGroupElement,
    a: ZCocycle,
    towers: TowerDecomposition | None = None,
) -> CylinderFunction:
    """Transfer function for the cocycle restricted to a periodic element.

    Returns g with a-hat(P^n, x) = g(P^n x) - g(x) for every n and prefix,
    where a-hat is the full-group extension of a; g vanishes on the orbit
    base points (tower bases when a decomposition is supplied, otherwise
    the minimal index of each orbit).  Each orbit is walked once from its
    base point, summing a-hat(P, .); without towers the indices are
    scanned upward and each one not yet reached is its orbit's least.
    Raises PeriodicityError when an orbit's accumulated jump wraps the
    cycle with a nonzero cycle sum, in which case no transfer exists, and
    DepthError when the element or the towers live on another model.
    """
    steps = extend_to_full_group(a, element).table
    if towers is not None and towers.model != a.model:
        raise DepthError("tower decomposition lives on a different model")
    group = a.group
    perm = element.permutation
    table = [None] * a.model.size
    for base in range(a.model.size) if towers is None else towers.base_indices():
        if table[base] is not None:
            if towers is None:
                continue
            raise PeriodicityError(f"two base points on one orbit (index {base})")
        acc = group.zero()
        table[base] = acc
        j = base
        while True:
            acc = group.add(acc, steps[j])
            j = perm[j]
            if j == base:
                break
            table[j] = acc
        if not group.values_equal(acc, group.zero()):
            raise PeriodicityError(
                f"orbit of index {base} wraps the cycle with holonomy {acc!r}; "
                "no transfer exists"
            )
    if any(v is None for v in table):
        raise PeriodicityError("base points do not meet every orbit")
    return CylinderFunction(a.model.bases, group, tuple(table))


def _approximant(a: ZCocycle, w: int) -> list:
    """Payloads of F_n for tower height w: the generator table with each
    top i = w-1 (mod w) set to C[i-w+1] - C[i], which cancels the sum over
    its tower."""
    group = a.group
    partial = a._partial
    table = list(a._table)
    for top in range(w - 1, a.model.size, w):
        table[top] = group.sub(partial[top - w + 1], partial[top])
    return table


def density_sequence(
    a: ZCocycle, markers: MarkerSequence, n: int
) -> CylinderFunction:
    """The n-th coboundary approximant F_n of the generator.

    With w the tower height over A_n and C the partial sums, F_n is the
    generator off the tower tops i = w-1 (mod w), and C[i-w+1] - C[i] on
    a top, which cancels the sum over its tower.  This is the coboundary
    of the transfer of the n-th periodic approximation
    (``periodic_coboundary`` over ``periodic_approx``), in closed form.
    """
    table = _approximant(a, markers.tower_height(n))
    return CylinderFunction(a.model.bases, a.group, tuple(table))


def density_table(
    a: ZCocycle,
    markers: MarkerSequence,
    n_max: int,
    measures: Sequence[Measure] = (),
) -> list[dict]:
    """Rows (n, tau3 per measure, certificate bound) for n = 1..n_max.

    Each row equals ``coboundary_solve`` of ``density_sequence`` and
    ``tau3_functional`` against the generator, computed from the tower
    tops: F_n equals f off the tops, so tau3 sums over the N/w tops only.
    Masses are read from each measure's cached mass table (its integer
    numerators on int, rat and dy) on the level-1 tops, and the level-n
    tops are every (w/p_1)-th of them.

    On int, rat and dy the rows come from one integer pass
    (``_scalar_density_rows``), O(N) for all rows together.  On real,
    Z/m and Q^d the certificate runs the partial sums of
    ``ZCocycle._partial`` over F_n in the same order, O(k N) per row, so
    the rows are identical, float rounding on ``real`` included.  The
    markers must live on the cocycle's model, and each measure's base
    vector must extend the model's (DepthError naming it otherwise).
    """
    model = a.model
    if markers.model != model:
        raise DepthError("markers live on a different model")
    for k, mu in enumerate(measures):
        if mu.bases[: model.depth] != model.bases:
            raise DepthError(
                f"measure {k} has bases {mu.bases}, which do not extend "
                f"the model's bases {model.bases}"
            )
    if n_max < 1:
        return []
    group = a.group
    p1 = model.bases[0]
    if group.rational:
        weighted = [mu._mass_numerators(model.bases) for mu in measures]
        masses = [(nums[p1 - 1 :: p1], den) for nums, den in weighted]
        return _scalar_density_rows(a, markers, n_max, masses)
    masses = [mu.mass_table(model.bases)[p1 - 1 :: p1] for mu in measures]
    zero = group.zero()
    f = a._table
    one = Fraction(1)
    # the literal sum also adds mass * 0 off the tops: on ``real`` that
    # zero is 0.0, which makes the sum a float even when every top term
    # is an exact mass
    start = Fraction(0) * group.metric(zero, zero)
    rows = []
    for n in range(1, n_max + 1):
        w = markers.tower_height(n)
        table = _approximant(a, w)
        partial = list(accumulate(table[:-1], group.add, initial=zero))
        certified = group.values_equal(group.add(partial[-1], table[-1]), zero)
        row = {"n": n, "certified": certified}
        if certified:
            row["M"] = _spread_bound(partial, group)
        clipped = []
        for top in range(w - 1, model.size, w):
            d = group.metric(table[top], f[top])
            clipped.append(d if d < one else one)
        step = w // p1
        for k, level1 in enumerate(masses):
            total = start
            for m, d in zip(level1[step - 1 :: step], clipped):
                total += m * d
            row[f"tau3_{k}"] = total
        rows.append(row)
    return rows


def _scalar_density_rows(a: ZCocycle, markers: MarkerSequence, n_max: int, masses) -> list[dict]:
    """``density_table`` rows on int, rat and dy, from one integer pass.

    The generator is held as ints over the lcm L of its denominators
    (L = 1 on int), so its partial sums C are ints.  ``masses`` holds one
    (level-1 top numerators, D) per measure: a slice of its mass-table
    numerators, over their denominator D.  The partial sums of F_n are
    C[t] - C[base of t's tower], so M is (max over towers of
    (max C - C[base])) - (min over towers of (min C - C[base])), over L.
    The per-tower max and min of C for row n merge those of row n - 1
    over p_n strided slices, so all rows cost O(N) together.  A top of
    F_n is C[base] - C[top]; the certificate is the cycle sum of F_n
    (f's, less f's tops, plus F_n's) read from the same ints; tau3 is
    the sum of mass * min(|F_n - f|, L) over the tops, over D L.  A
    Fraction is built only for a reported value, and M stays an int on
    int, as ``_spread_bound`` leaves it.
    """
    model = a.model
    table = a.generator.table
    nums, scale = _integer_numerators(table)
    f = nums * (model.size // len(table))
    c = list(accumulate(f[:-1], initial=0))
    cycle = c[-1] + f[-1]
    ints = isinstance(a.group, IntegerGroup)
    p1 = model.bases[0]
    hi = lo = c
    rows = []
    for n in range(1, n_max + 1):
        w = markers.tower_height(n)
        p = model.bases[n - 1]
        hi = list(map(max, *(hi[j::p] for j in range(p))))
        lo = list(map(min, *(lo[j::p] for j in range(p))))
        base = c[::w]
        f_tops = f[w - 1 :: w]
        tops = list(map(sub, base, c[w - 1 :: w]))
        certified = cycle - sum(f_tops) + sum(tops) == 0
        row = {"n": n, "certified": certified}
        if certified:
            bound = max(map(sub, hi, base)) - min(map(sub, lo, base))
            row["M"] = bound if ints else Fraction(bound, scale)
        clipped = [min(abs(t - v), scale) for t, v in zip(tops, f_tops)]
        step = w // p1
        for k, (level1, den) in enumerate(masses):
            total = sum(map(mul, level1[step - 1 :: step], clipped))
            row[f"tau3_{k}"] = Fraction(total, den * scale)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Bounded orbit sums (Gottschalk-Hedlund criterion) and the skew product


@dataclass(frozen=True)
class GHWitness:
    """A two-sided orbit sum located by the bounded-sums scan."""

    prefix: tuple[int, ...]
    radius: int
    value: GroupValue


@dataclass(frozen=True)
class GHReport:
    """Outcome of the bounded-orbit-sums criterion.

    For a coboundary, ``empirical_sup`` over the scanned horizon never
    exceeds the certificate's spread bound.  Otherwise the witness shows a
    sum that grows linearly in the window radius, with ``growth_slope``
    the metric gain per full period divided by the period.
    """

    decision: bool
    cycle_sum: GroupValue
    horizon: int
    empirical_sup: object
    certificate: Optional[CoboundaryCertificate]
    witness: Optional[GHWitness]
    growth_slope: object

    def to_json(self):
        sup = self.empirical_sup
        slope = self.growth_slope
        out = {
            "coboundary": self.decision,
            "cycle_sum": self.cycle_sum.to_json(),
            "horizon": self.horizon,
            "empirical_sup": str(sup) if isinstance(sup, (int, Fraction)) else sup,
            "growth_slope": str(slope) if isinstance(slope, (int, Fraction)) else slope,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.witness is not None:
            out["witness"] = {
                "x": list(self.witness.prefix),
                "j": self.witness.radius,
                "value": self.witness.value.to_json(),
            }
        return out


def _as_cocycle(h, model: Odometer | None) -> ZCocycle:
    if isinstance(h, ZCocycle):
        return h
    if model is None:
        model = Odometer(h.bases)
    return ZCocycle(model, h)


def two_sided_sum(a: ZCocycle, i: int, j: int):
    """Payload of sum_{k=-j..j} h(T^k x_i), via one period of partial sums."""
    return a.group.sub(a._running(i + j + 1), a._running(i - j))


def _extended(base, step, length, plus, times):
    """R(t) for t < length from one period: R(cN + r) = base[r] + c * step."""
    out = list(base[:length])
    c = 1
    while len(out) < length:
        shift = times(step, c)
        out.extend(plus(v, shift) for v in base[: length - len(out)])
        c += 1
    return out


def _window_extrema(seq, width, count):
    """(max, min) of each window seq[s : s + width], s < count.

    Monotone deques: each position is pushed and popped at most once, so
    the cost is O(count + width) whatever the width.
    """
    out = []
    up, down = deque(), deque()
    for t, v in enumerate(seq[: count + width - 1]):
        while up and seq[up[-1]] <= v:
            up.pop()
        up.append(t)
        while down and seq[down[-1]] >= v:
            down.pop()
        down.append(t)
        s = t - width + 1
        if s >= 0:
            if up[0] < s:
                up.popleft()
            if down[0] < s:
                down.popleft()
            out.append((seq[up[0]], seq[down[0]]))
    return out


def _window_values(seq, width, count):
    """Distinct values of each window seq[s : s + width], s < count.

    For groups without ordered projections (Z/m): a window holds at most
    min(m, width) distinct values, kept as counts, and each of the count
    windows copies them, O(count min(m, width)) in all.
    """
    counts = {}
    for v in seq[:width]:
        counts[v] = counts.get(v, 0) + 1
    out = []
    for s in range(count):
        out.append(tuple(counts))
        if s + 1 < count:
            gone, new = seq[s], seq[s + width]
            counts[gone] -= 1
            if not counts[gone]:
                del counts[gone]
            counts[new] = counts.get(new, 0) + 1
    return out


def _by_start(seq, width, size, window_fn):
    """window_fn over the window of every start b < size, indexed by b.

    The window of b holds seq[b + 1], seq[b + 3], ..., seq[b + 2 width - 1]:
    one parity class of seq, so each class slides one step per two b.
    """
    out = [None] * size
    out[0::2] = window_fn(seq[1::2], width, (size + 1) // 2)
    out[1::2] = window_fn(seq[2::2], width, size // 2)
    return out


def _window_reach(a: ZCocycle, scan_to: int):
    """The farthest running sums from each start, per metric channel.

    The two-sided sum of window (i, j) is R(b + 2j + 1) - R(b) with
    b = (i - j) mod N, because R(t + N) = R(t) + S cancels in the
    difference.  So the N (scan_to + 1) windows of the scan become one
    sliding window per start b.  Returns (seq, reach) per channel: seq is
    R (or one ordered projection of it) over [0, N + 2 scan_to], and
    reach[b] lists (value, distance from seq[b]) for every value of b's
    window that can be the farthest -- its max and min on an ordered
    projection, every distinct value otherwise.
    """
    group = a.group
    size = a.model.size
    length = size + 2 * scan_to + 1
    width = scan_to + 1
    columns = group.projections(a._partial)
    if columns is None:
        seq = _extended(a._partial, a.cycle_sum_payload, length, group.add, group.scale)
        windows = _by_start(seq, width, size, _window_values)
        reach = [[(v, group.metric(v, r)) for v in values] for values, r in zip(windows, seq)]
        return [(seq, reach)]
    channels = []
    for base, (step,) in zip(columns, group.projections([a.cycle_sum_payload])):
        seq = _extended(base, step, length, add, mul)
        extrema = _by_start(seq, width, size, _window_extrema)
        reach = [((hi, hi - r), (lo, r - lo)) for (hi, lo), r in zip(extrema, seq)]
        channels.append((seq, reach))
    return channels


def _window_sup(channels):
    """The largest window sum norm in a ``_window_reach`` result."""
    return max(d for _, reach in channels for pairs in reach for _, d in pairs)


def _first_window(channels, sup, size: int, scan_to: int):
    """The scan's witness: the least (i, j) in scan order whose sum attains sup.

    The radii j of start b that attain it are the positions t = b + 2j + 1
    of a farthest value at distance sup inside b's window.  Radius j
    belongs to prefix i = (b + j) mod N, which restarts at 0 on every wrap
    j = cN - b, so the least such j of each wrap segment is a candidate.
    """
    best = None
    for seq, reach in channels:
        targets = [(b, v) for b in range(size) for v, d in reach[b] if d == sup]
        wanted = {v for _, v in targets}
        positions = {}
        for t, v in enumerate(seq):
            if v in wanted:
                positions.setdefault((t & 1, v), []).append(t)
        for b, v in targets:
            at = positions[(b + 1) & 1, v]
            first, wrap = 0, 0
            while first <= scan_to:
                last = min(scan_to, (wrap + 1) * size - b - 1)
                k = bisect_left(at, b + 2 * first + 1)
                if k < len(at) and at[k] <= b + 2 * last + 1:
                    j = (at[k] - b - 1) // 2
                    candidate = ((b + j) % size, j)
                    if best is None or candidate < best:
                        best = candidate
                wrap += 1
                first = wrap * size - b
    return best


def _check_scan(group, size: int, scan_to: int, what: str) -> None:
    """Refuse a scan to radius ``scan_to`` of more than ``MAX_SCAN`` running
    sums, or on Z/m of more than ``MAX_SCAN`` window residues: each of the
    N windows keeps up to min(m, scan_to + 1) distinct residues."""
    if size + 2 * scan_to + 1 > MAX_SCAN:
        raise ValueError(
            f"{what} needs {size + 2 * scan_to + 1} running sums, more than the limit {MAX_SCAN}"
        )
    modulus = getattr(group, "modulus", None)
    residues = size * min(modulus, scan_to + 1) if modulus is not None else 0
    if residues > MAX_SCAN:
        raise ValueError(
            f"{what} needs {residues} window residues on {group.tag}, "
            f"more than the limit {MAX_SCAN}"
        )


def gh_check(
    h,
    horizon: int | None = None,
    model: Odometer | None = None,
    exceed_target=None,
) -> GHReport:
    """Bounded two-sided orbit sums test for the coboundary property.

    The decision itself is the vanishing of the cycle sum.  The scan
    produces the empirical sup over all prefixes and window radii up to
    the horizon (default 4N), in O(k (N + horizon)) time through sliding
    window extrema of the running sums (O(N min(m, horizon)) on Z/m); the
    witness is the first window in (prefix, radius) order that attains
    it.  On the inexact ``real`` group the sup agrees with the literal
    window scan to ``REPORTING_TOLERANCE``; it is bit-identical when no
    window wraps below position 0, since the sums are then formed alike.
    For a non-coboundary with ``exceed_target`` above that sup, the witness
    is the first window of the least radius past the horizon whose sum
    exceeds the target, bisected below a cap of a few periods in
    O(k (N + cap) log cap); that fails (PeriodicityError) only when the
    metric is bounded, as in Z/m.  ``empirical_sup`` stays the horizon's.
    A horizon or cap needing more than ``MAX_SCAN`` running sums, or on
    Z/m more than ``MAX_SCAN`` window residues, is refused with a
    ValueError before its scan allocates anything.
    """
    a = _as_cocycle(h, model)
    group = a.group
    size = a.model.size
    if horizon is None:
        horizon = 4 * size
    if not _is_int(horizon):
        raise ValueError(f"horizon must be >= 0 and an integer, got {horizon!r}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    decision = group.values_equal(a.cycle_sum_payload, group.zero())
    # For a coboundary the window sums are periodic in j with period N,
    # so radii beyond N-1 repeat earlier values.
    scan_to = min(horizon, size - 1) if decision else horizon
    _check_scan(group, size, scan_to, f"horizon {horizon}")
    certificate = coboundary_solve(a) if decision else None
    channels = _window_reach(a, scan_to)
    best = empirical_sup = _window_sup(channels)

    witness = None
    if not decision:
        if exceed_target is not None and best <= exceed_target:
            # widening the window by k full periods adds k times two cycle
            # sums, W(i, j + kN) = W(i, j) + k 2S, so radius j + kN exceeds
            # the target once norm(k 2S) > target + best; on a homogeneous
            # norm that k is read off norm(2S).  On Z/m the least such k
            # is searched while its cap fits MAX_SCAN running sums (k 2S
            # repeats after m periods, and no norm exceeds m // 2); without
            # one, m + 2 periods bound the search, since the values repeat.
            two_s = group.scale(a.cycle_sum_payload, 2)
            modulus = getattr(group, "modulus", None)
            if modulus is not None:
                cap_periods = modulus + 2
                room = (MAX_SCAN - size - 1) // 2 - horizon  # radii a cap may add
                if exceed_target + best < modulus // 2:
                    shift = two_s
                    for k in range(1, min(modulus, room // size - 2) + 1):
                        if group.norm(shift) > exceed_target + best:
                            cap_periods = k + 2
                            break
                        shift = group.add(shift, two_s)
            else:
                cap_periods = int((exceed_target + best) / group.norm(two_s)) + 2
            cap = horizon + size * cap_periods
            _check_scan(group, size, cap, f"exceed_target {exceed_target}")
            # the sup over radii <= r grows with r: bisect the least r in
            # (horizon, cap + 1] above the target (cap + 1: none); every
            # window attaining that sup then has radius r
            lo, scan_to = horizon, cap + 1
            while scan_to - lo > 1:
                mid = (lo + scan_to) // 2
                reach = _window_reach(a, mid)
                sup = _window_sup(reach)
                if sup > exceed_target:
                    scan_to, channels, best = mid, reach, sup
                else:
                    lo = mid
            if scan_to > cap:
                raise PeriodicityError(
                    f"no two-sided sum exceeds {exceed_target} within "
                    f"{cap_periods} periods; the value group's metric is bounded"
                )
        i, j = _first_window(channels, best, size, scan_to)
        witness = GHWitness(
            index_to_prefix(i, a.model.bases),
            j,
            GroupValue(group, two_sided_sum(a, i, j)),
        )
    slope_num = group.norm(a.cycle_sum_payload)
    growth_slope = (
        Fraction(slope_num, size)
        if isinstance(slope_num, int)
        else slope_num / size
    )
    return GHReport(
        decision, a.cycle_sum, horizon, empirical_sup, certificate, witness, growth_slope
    )


@dataclass(frozen=True)
class SkewOrbit:
    """Group projection of a skew-product orbit and its metric radius."""

    start: GroupValue
    values: tuple[GroupValue, ...]
    radius: object


def skew_orbit(
    h,
    start: tuple[Sequence[int], GroupValue],
    steps: int,
    model: Odometer | None = None,
) -> SkewOrbit:
    """Iterate (x, g) -> (Tx, g + h(x)) and project onto the group.

    Returns the values after each of the first ``steps`` iterations and
    the largest metric distance from the starting value.  The radius stays
    within the certificate bound exactly when h is a coboundary.
    """
    if not _is_int(steps):
        raise ValueError(f"steps must be >= 0 and an integer, got {steps!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    a = _as_cocycle(h, model)
    x, g0 = start
    i = full_prefix_index(x, a.model.bases)
    if g0.group != a.group:
        raise DepthError("starting group value lives in the wrong group")
    group = a.group
    values = []
    radius = group.metric(group.zero(), group.zero())
    for s in range(1, steps + 1):
        v = group.add(g0.payload, a.evaluate_index(s, i))
        values.append(GroupValue(group, v))
        d = group.metric(v, g0.payload)
        if d > radius:
            radius = d
    return SkewOrbit(g0, tuple(values), radius)


def cocycle_metric_convergence(
    model: Odometer,
    generators: Sequence[CylinderFunction],
    target: CylinderFunction,
    j: int,
    measures: Sequence[Measure],
) -> list[dict]:
    """tau3 distances between iterated cocycles a(f_i)(j, .) and a(f)(j, .).

    When the generators converge to the target against every measure and
    its first j odometer translates, the table values converge to zero.
    """
    target_iter = ZCocycle(model, target).iterate_function(j)
    rows = []
    for idx, fi in enumerate(generators, start=1):
        fi_iter = ZCocycle(model, fi).iterate_function(j)
        row = {"i": idx}
        for k, mu in enumerate(measures):
            row[f"tau3_{k}"] = tau3_functional(fi_iter, target_iter, mu)
        rows.append(row)
    return rows
