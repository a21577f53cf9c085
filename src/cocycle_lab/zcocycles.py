"""Cocycles of the Z-action generated by the odometer.

A cocycle of the cyclic action is completely determined by its generating
function f(x) = a(1, x); evaluation sums f along forward or backward
orbit segments.  On the single N-cycle quotient this makes everything
exactly computable from one period of partial sums C and the cycle sum S,
accumulated once per cocycle in kernel form (``ZCocycle._sums``):

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
  from each measure's mass table on the level-1 tops.  On int, rat, dy
  and Q^d all rows read the ordered projections of C as ints: the partial
  sums of F_n are C[t] - C[base], so each row's certificate bound is read
  from per-tower extremes of C that merge level by level, O(k N) in all;
* boundedness of two-sided orbit sums characterizes coboundaries, with
  the certificate spread bound as the explicit constant; the scan reads
  each window's extremes off the ordered projections of C, O(N) per channel.

Sign convention throughout: a coboundary generator is f(x) = c(Tx) - c(x),
and every construction is normalized to it (transfers built from periodic
approximations are negated accordingly).  Transfer functions are anchored
to 0 at the all-zeros prefix; on a single cycle they are unique up to an
additive constant, so the anchor makes them deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, ulp
from operator import add, mul, sub
from typing import Optional, Sequence

from ._records import record
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
from .values import GroupValue, _is_int


#: Most running sums N + 2 scan_to + 1 a gh scan may read; the default
#: horizon 4N needs at most 9 MAX_POINTS + 1.  The folded scan past a
#: period builds no such list, but the limit is kept as it was, so the same
#: horizons are refused whichever scan runs; it still bounds the sliding
#: scans (short horizons, Z/m with D != 0) and the exceed_target cap.
MAX_SCAN = 16 * MAX_POINTS


class PeriodicityError(ValueError):
    """Raised when a transfer over a periodic element cannot exist."""


@record
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
    def _sums(self) -> tuple:
        """The running sums in kernel form (C, S, L), read once for every use:
        per column of the generator's ``_numerators`` tiled to the model, over
        its L, C[t] = f(0) + ... + f(t-1) for t < N and the cycle sum S = C[N-1] + f(N-1)."""
        columns, scale = self.generator._numerators()
        reps = self.model.size // self.generator.size
        columns = [col * reps for col in columns] if reps > 1 else columns
        start = 0 if self.group.exact else 0.0
        sums = [list(accumulate(col[:-1], initial=start)) for col in columns]
        return sums, [c[-1] + col[-1] for c, col in zip(sums, columns)], scale

    @cached_property
    def _partial(self) -> tuple:
        """The payloads of the partial sums C[0..N-1] (``_sums``)."""
        sums, _, scale = self._sums
        return self.group.payloads_over(sums, scale)

    @cached_property
    def cycle_sum_payload(self):
        _, cycle, scale = self._sums
        return self.group.payloads_over([[s] for s in cycle], scale)[0]

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

    @cached_property
    def _projected(self):
        """The ordered projections (``Group.projections``) of ``_sums``: the
        columns of C, the cycle sums S and L (on the scalar groups C's very
        columns), or None on Z/m, which has none."""
        sums, cycle, scale = self._sums
        projected = self.group.projections(sums)
        if projected is None:
            return None
        steps = [s for s, in self.group.projections([[s] for s in cycle])]
        return projected, steps, scale

    def _channels(self) -> list:
        """The running sums R in metric channels (``_Channel``): each ordered
        projection of ``_sums`` (``_projected``), or on Z/m the residues of
        ``_partial``; built per scan, so a scan's lists die with it."""
        group = self.group
        if self._projected is None:
            return [_Ring(self._partial, self.cycle_sum_payload, group)]
        projected, steps, scale = self._projected
        return [_Ordered(c, s, group, scale) for c, s in zip(projected, steps)]

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


def _spread_bound(columns, scale, group):
    """Metric diameter of a value set in kernel form (columns over ``scale``).

    With ordered projections (``Group.projections``) this is the largest
    per-column max - min, O(k N) for k columns (k = 1 on the ordered
    groups, 2^(d-1) on Q^d), on ints over the one denominator L, divided
    by L once: an int on int, a Fraction on rat, dy and Q^d, a float on
    real.  On Z/m the distinct residues are sorted round the ring,
    O(k log k) for k of them, and the diameter is the largest distance
    ``_farthest_on_ring`` finds from one of them.
    """
    projected = group.projections(columns)
    if projected is not None:
        return group.metric_over(max(max(col) - min(col) for col in projected), scale)
    ring = sorted(set(group.payloads_over(columns, scale)))
    return max(_farthest_on_ring(ring, ring, group).values())


def _farthest_on_ring(ring, starts, group) -> dict:
    """Each residue a of ``starts`` -> its largest distance on Z/m to the
    sorted, nonempty residues ``ring``: the distance from a rises up to the
    antipode a + floor(m/2) and falls past it, so it peaks at one of the
    antipode's two ring neighbours (wrapping round), found by bisection."""
    m, size, metric = group.modulus, len(ring), group.metric
    far = {}
    for a in starts:
        k = bisect_right(ring, (a + m // 2) % m)
        far[a] = max(metric(ring[k - 1], a), metric(ring[k % size], a))
    return far


@record
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
    transfer = CylinderFunction._trusted(a.model.bases, group, a._partial)
    sums, _, scale = a._sums
    return CoboundaryCertificate(a.model, a.generator, transfer, _spread_bound(sums, scale, group))


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

    On int, rat, dy and Q^d the rows come from one integer pass over the
    ordered projections of the running sums (``_projected_density_rows``),
    O(k N) for all rows together with k projections (k = 1 on the scalar
    groups, 2^(d-1) on Q^d).  On real and Z/m the certificate runs the
    partial sums of ``ZCocycle._partial`` over F_n in the same order,
    O(N) per row, so the rows are identical, float rounding on ``real``
    included.  The
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
    if group.exact and a._projected is not None:
        weighted = [mu._mass_numerators(model.bases) for mu in measures]
        masses = [(nums[p1 - 1 :: p1], den) for nums, den in weighted]
        return _projected_density_rows(a, markers, n_max, masses)
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
            row["M"] = _spread_bound(*group.numerators(partial), group)
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


def _projected_density_rows(a: ZCocycle, markers: MarkerSequence, n_max: int, masses) -> list[dict]:
    """``density_table`` rows on int, rat, dy and Q^d, from the running sums.

    Each ordered projection (``ZCocycle._projected``) is a column C of
    ints over the lcm L of the generator's denominators (L = 1 on int),
    with its cycle sum S; the metric is the largest projected difference,
    over L.  ``masses`` holds one (level-1 top numerators, D) per measure:
    a slice of its mass-table numerators, over their denominator D.  The
    partial sums of F_n are C[t] - C[base of t's tower], so a projection's
    spread is (max over towers of (max C - C[base])) - (min over towers
    of (min C - C[base])), and M is the largest spread, over L.  The
    per-tower max and min of C for row n merge those of row n - 1 over
    p_n strided slices, so all rows cost O(k N) together.  f on a top t
    is C[t + 1] - C[t] (S - C[N - 1] on the last), F_n there is
    C[base] - C[t], and each projected cycle sum of F_n is S, less f's
    tops, plus F_n's: the row is certified when all are 0, since the
    projections determine a value (on Q^d the sign vectors span it).
    |F_n - f| on a top is the largest projected |C[base] - C[t] - f|, and
    tau3 is the sum of mass * min(|F_n - f|, L) over the tops, over D L.
    A Fraction is built only for a reported value, and M stays an int on
    int (``Group.metric_over``).
    """
    model = a.model
    columns, cycles, scale = a._projected
    p1 = model.bases[0]
    his = los = columns
    rows = []
    for n in range(1, n_max + 1):
        w = markers.tower_height(n)
        p = model.bases[n - 1]
        his = [list(map(max, *(hi[j::p] for j in range(p)))) for hi in his]
        los = [list(map(min, *(lo[j::p] for j in range(p)))) for lo in los]
        certified, spread, gaps = True, 0, None
        for c, cycle, hi, lo in zip(columns, cycles, his, los):
            base, ends = c[::w], c[w - 1 :: w]
            f_tops = [*map(sub, base[1:], ends), cycle - c[-1]]
            tops = list(map(sub, base, ends))
            certified = certified and cycle - sum(f_tops) + sum(tops) == 0
            spread = max(spread, max(map(sub, hi, base)) - min(map(sub, lo, base)))
            gap = list(map(abs, map(sub, tops, f_tops)))
            gaps = gap if gaps is None else list(map(max, gaps, gap))
        row = {"n": n, "certified": certified}
        if certified:
            row["M"] = a.group.metric_over(spread, scale)
        clipped = list(map(min, gaps, repeat(scale)))
        step = w // p1
        for k, (level1, den) in enumerate(masses):
            total = sum(map(mul, level1[step - 1 :: step], clipped))
            row[f"tau3_{k}"] = Fraction(total, den * scale)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Bounded orbit sums (Gottschalk-Hedlund criterion) and the skew product


@record
class GHWitness:
    """A two-sided orbit sum located by the bounded-sums scan."""

    prefix: tuple[int, ...]
    radius: int
    value: GroupValue


@record
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


def _window_extremes(seq, width, count, up: bool) -> list:
    """The max (``up``) or min of each window seq[s : s + width], s < count:
    a window is a suffix of one block of ``width`` (blocks from 0) and a
    prefix of the next, so it picks between the block suffix extreme at s
    and the block prefix extreme at s + width - 1 (van Herk / Gil-Werman),
    O(count + width) whatever the width."""
    n = count + width - 1
    xs = seq[:n]
    suffix = _block_extremes(xs[::-1], width, up, -n % width)[::-1]
    return _pick(suffix, _block_extremes(xs, width, up)[width - 1 :], up)


def _block_extremes(xs, width, up: bool, start=0) -> list:
    """The prefix maxima (``up``) or minima of xs, restarted where width divides start + i."""
    m = xs[0]
    if up:
        return [m := x if i % width == 0 or x > m else m for i, x in enumerate(xs, start)]
    return [m := x if i % width == 0 or x < m else m for i, x in enumerate(xs, start)]


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


def _by_start(seq, width, size, window_fn, *args):
    """window_fn over the window of every start b < size, indexed by b.

    The window of b holds seq[b + 1], seq[b + 3], ..., seq[b + 2 width - 1]:
    one parity class of seq, so each class slides one step per two b.
    """
    out = [None] * size
    out[0::2] = window_fn(seq[1::2], width, (size + 1) // 2, *args)
    out[1::2] = window_fn(seq[2::2], width, size // 2, *args)
    return out


class _Channel:
    """One metric channel of the running sums R(kN + r) = C[r] + k S.

    ``period`` is C and ``step`` is S read in the channel: an ordered
    projection (``_Ordered``) or the residues of Z/m (``_Ring``).  The
    window of start b holds R(b + 1), R(b + 3), ..., R(b + 2 scan_to + 1),
    one parity of positions, so in cycle k (positions kN .. kN + N - 1) it
    holds part of one parity class of C, each value read k S further on.
    Along one parity R repeats up to a shift D after p positions: p = N/2
    and D = S on even N, p = N and D = 2 S on odd N.  Once scan_to + 1 >= p
    (``folds``) every window crosses from one cycle into the next, so it
    is a suffix of a class, whole classes, and a prefix of a class.
    """

    lead = 1  # the last wrap segment ``first_window`` reads, unless rising

    def __init__(self, period, step):
        self.period = period
        self.step = step
        self.size = len(period)

    def folds(self, scan_to: int) -> bool:
        size = self.size
        return scan_to + 1 >= (size if size % 2 else size // 2)

    def value(self, k: int, x):
        """The reading of R(kN + r), for x = C[r]."""
        raise NotImplementedError

    def _matches(self, e: int, k: int, v):
        """The values x of parity class e of C with value(k, x) == v."""
        x = self._inverse(k, v)
        return (x,) if x in self._index[e] else ()

    @cached_property
    def _index(self):
        """Per parity e, each value of C[e::2] with the indices h (r = e + 2h) holding it."""
        out = []
        for e in (0, 1):
            index = {}
            for h, x in enumerate(self.period[e::2]):
                index.setdefault(x, []).append(h)
            out.append(index)
        return out

    def _reading(self, b: int, j: int):
        """The reading of R(b + 2j + 1)."""
        k, r = divmod(b + 2 * j + 1, self.size)
        return self.value(k, self.period[r])

    def _first_in(self, b: int, c: int, v, scan_to: int):
        """The least radius j <= scan_to of wrap segment c (cN - b <= j <
        (c + 1)N - b) whose window end R(b + 2j + 1) reads v, or None."""
        size = self.size
        jlo, jhi = max(0, c * size - b), min(scan_to, (c + 1) * size - b - 1)
        tlo, thi = b + 1 + 2 * jlo, b + 1 + 2 * jhi
        for k in range(tlo // size, thi // size + 1):
            base = k * size
            e = (tlo - base) & 1
            first, last = max(tlo - base, e) >> 1, (min(thi - base, size - 1) - e) >> 1
            index, best = self._index[e], None
            for x in self._matches(e, k, v):
                at = index[x]
                pos = bisect_left(at, first)
                if pos < len(at) and at[pos] <= last and (best is None or at[pos] < best):
                    best = at[pos]
            if best is not None:
                return (base + e + 2 * best - b - 1) // 2
        return None

    def first_window(self, b: int, v, rising: bool, scan_to: int):
        """The least (i, j) in scan order with j <= scan_to whose window
        from start b ends on a reading v (one that b's window holds).

        Radius j belongs to prefix i = (b + j) mod N, which restarts at 0 on
        every wrap j = cN - b, so the least j reading v on each wrap segment
        c is a candidate.  A whole segment c + 1 reads, at each prefix, R
        two cycles on from segment c: 2S further.  Where that moves nothing
        (S = 0 in the channel; on Z/m after ``lead`` segments), or moves
        away from the extreme v, no segment past ``lead`` reaches v at a
        prefix an earlier one misses, so segments 0 .. lead decide.  Where
        it moves toward v (``rising``), the prefixes reaching v only grow
        with c: the last two segments give the least prefix i, and a
        bisection over the segments the least radius holding it.
        """
        size = self.size
        last = (b + scan_to) // size
        if not rising:
            found = (self._first_in(b, c, v, scan_to) for c in range(min(last, self.lead) + 1))
            return min(((b + j) % size, j) for j in found if j is not None)
        best = None
        for c in range(max(last - 1, 0), last + 1):
            j = self._first_in(b, c, v, scan_to)
            if j is not None and (best is None or (b + j) % size < best[0]):
                best = (b + j) % size, c
        i, hi = best
        lo = 0 if i >= b else 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._reading(b, mid * size - b + i) == v:
                hi = mid
            else:
                lo = mid + 1
        return i, hi * size - b + i


class _Ordered(_Channel):
    """An ordered projection: ints over the projections' denominator
    ``scale`` (floats on ``real``), so a window's farthest reading from
    R(b) is its max or its min."""

    def __init__(self, period, step, group, scale):
        super().__init__(period, step)
        self.group, self.scale = group, scale
        self.classes = (period[0::2], period[1::2])
        self._extremes = {}

    def measure(self, d):
        return self.group.metric_over(d, self.scale)

    def value(self, k, x):
        return x + self.step * k if k else x

    def _inverse(self, k, v):
        return v - self.step * k

    def _matches(self, e, k, v):
        if self.group.exact:
            return super()._matches(e, k, v)
        # float sums round: every x whose sum with k S rounds to v lies
        # within a few ulps of v - k S, and is tested exactly
        keys = self._keys[e]
        guess = v - self.step * k if k else v
        margin = 4 * (ulp(v) + ulp(guess))
        found = keys[bisect_left(keys, guess - margin) : bisect_right(keys, guess + margin)]
        return [x for x in found if self.value(k, x) == v]

    @cached_property
    def _keys(self):
        return [sorted(index) for index in self._index]

    def _extreme(self, up: bool, suffix, e: int):
        """The prefix (``suffix`` False) or suffix maxima (``up``) or minima
        of class e, or with ``suffix`` None its max or min; built once."""
        key = up, suffix, e
        found = self._extremes.get(key)
        if found is None:
            c = self.classes[e]
            if suffix is None:
                found = max(c) if up else min(c)
            else:
                found = _prefix_extremes(c[::-1], up)[::-1] if suffix else _prefix_extremes(c, up)
            self._extremes[key] = found
        return found

    def reach(self, scan_to: int):
        """(hi, lo, rise, drop): the largest and least reading of each
        start's window and their distances hi - R(b) and R(b) - lo, from
        class extremes past the fold, else from block extremes."""
        c = self.period
        if self.folds(scan_to):
            late = self.step >= 0
            hi, lo = self._fold(scan_to, True, late), self._fold(scan_to, False, not late)
        else:
            seq = _extended(c, self.step, self.size + 2 * scan_to + 1, add, mul)
            width = scan_to + 1
            hi, lo = (_by_start(seq, width, self.size, _window_extremes, up) for up in (True, False))
        return hi, lo, list(map(sub, hi, c)), list(map(sub, c, lo))

    def _fold(self, scan_to: int, up: bool, late: bool):
        """The max (``up``) or min of every start's window, from the
        classes' prefix and suffix extremes; ``late`` when later cycles
        read more extreme (S > 0 for max, S < 0 for min).  The cycles k0 of
        a window's first position and k1 of its last step up at the starts
        N - 1 and -(2 scan_to + 1) mod N, so between those cuts the starts
        of each parity make one run of a few list passes, O(N) in all."""
        size, span = self.size, 2 * scan_to + 1
        out = [None] * size
        cuts = sorted({0, size - 1, size, -span % size})
        for lo, hi in zip(cuts, cuts[1:]):
            for first in (lo, lo + 1):
                out[first:hi:2] = self._run(first, len(range(first, hi, 2)), span, up, late)
        return out

    def _run(self, b: int, n: int, span: int, up: bool, late: bool) -> list:
        """The max (``up``) or min of the windows of starts b, b + 2, ...,
        b + 2(n - 1), which begin in one cycle k0 and end in one cycle k1:
        a suffix of a class in k0, a prefix of one in k1 (both the whole
        class when k1 = k0, at the fold's edge), and whole classes in
        between, of which the most extreme of each parity is the one
        nearest k1 (``late``) or k0.  A whole class read further in the
        extreme's direction than a part of the same class bounds it, so
        the part is left out."""
        if not n:
            return []
        size, pick = self.size, max if up else min
        (k0, r0), (k1, r1) = divmod(b + 1, size), divmod(b + span, size)
        inner = range(k1 - 1, k0, -1) if late else range(k0 + 1, k1)
        whole = {}
        for k in inner[:2]:
            e = (b + 1 - k * size) & 1
            if e not in whole:
                whole[e] = self.value(k, self._extreme(up, None, e))
        flat = self.step == 0
        parts = []
        if not (r0 & 1 in whole and (late or flat)):
            parts.append(self._shifted(self._extreme(up, True, r0 & 1)[r0 >> 1 : (r0 >> 1) + n], k0))
        if not (r1 & 1 in whole and (not late or flat)):
            parts.append(self._shifted(self._extreme(up, False, r1 & 1)[r1 >> 1 : (r1 >> 1) + n], k1))
        if whole:
            parts.append(repeat(pick(whole.values()), n))
        out = parts[0]
        for part in parts[1:]:
            out = _pick(out, part, up)
        return list(out)

    def _shifted(self, xs, k: int):
        return map(add, xs, repeat(self.step * k)) if k else xs

    def sup(self, reach):
        return max(max(reach[2]), max(reach[3]))

    def targets(self, reach, sup):
        """(b, v, rising) for each window extreme v at distance sup from R(b)."""
        hi, lo, rise, drop = reach
        for b in _positions(rise, sup):
            yield b, hi[b], self.step > 0
        for b in _positions(drop, sup):
            yield b, lo[b], self.step < 0


class _Ring(_Channel):
    """The residues of Z/m: a window's farthest reading from R(b) is the
    residue nearest the antipode of R(b) among the window's."""

    def __init__(self, period, step, group):
        super().__init__(period, step)
        self.group = group
        self.modulus = group.modulus
        # lead steps of 2S first sum to 0 mod m, so segments c and c + lead read alike
        self.lead = self.modulus // gcd(2 * step, self.modulus)

    def measure(self, d):
        return d

    def _inverse(self, k, v):
        return (v - self.step * k) % self.modulus

    def reach(self, scan_to: int):
        """(far, windows): each start's farthest distance and its window's residues.

        With D = 0 (mod m) past the fold a window holds one whole period of
        its parity: one residue set per parity, sorted once, and the
        farthest residue from each distinct R(b) is ``_farthest_on_ring``.
        Otherwise every window's distinct residues are kept, as they slide."""
        group, size, m = self.group, self.size, self.modulus
        period, step = self.period, self.step
        if _ring_folds(size, scan_to, step, m):
            sets = [set(period[c::2]) for c in (0, 1)]
            if size % 2:
                sets = [s | {(x + step) % m for x in period[1 - c :: 2]} for c, s in enumerate(sets)]
            rings = [sorted(s) for s in sets]
            far_from = [  # R(b) reads ring (b + 1) & 1: ring 0 the odd b, ring 1 the even b
                _farthest_on_ring(ring, set(period[1 - c :: 2]), group) for c, ring in enumerate(rings)
            ]
            far = [far_from[(b + 1) & 1][a] for b, a in enumerate(period)]
            return far, [sets[(b + 1) & 1] for b in range(size)]
        seq = _extended(period, step, size + 2 * scan_to + 1, group.add, group.scale)
        windows = _by_start(seq, scan_to + 1, size, _window_values)
        far = [max(group.metric(v, r) for v in values) for values, r in zip(windows, seq)]
        return far, windows

    def sup(self, reach):
        return max(reach[0])

    def targets(self, reach, sup):
        """(b, v, False) for each residue v of b's window at distance sup from R(b)."""
        far, windows = reach
        m = self.modulus
        for b in _positions(far, sup):
            a = self.period[b]
            for v in {(a + sup) % m, (a - sup) % m}:
                if v in windows[b]:
                    yield b, v, False


def _prefix_extremes(xs, up: bool) -> list:
    """The prefix maxima (``up``) or minima of xs.  Comparisons in a
    comprehension: ``accumulate(xs, max)`` calls max per item and runs
    several times slower."""
    m = xs[0]
    if up:
        return [m := x if x > m else m for x in xs]
    return [m := x if x < m else m for x in xs]


def _positions(xs: list, x):
    """The indices of x in xs, ascending (``list.index`` scans at C speed)."""
    b = -1
    try:
        while True:
            b = xs.index(x, b + 1)
            yield b
    except ValueError:
        return


def _pick(xs, ys, up: bool) -> list:
    """The elementwise max (``up``) or min of xs and ys."""
    if up:
        return [x if x > y else y for x, y in zip(xs, ys)]
    return [x if x < y else y for x, y in zip(xs, ys)]


def _window_reach(channels, scan_to: int):
    """Each metric channel (``ZCocycle._channels``) with its reach
    at radius scan_to: the two-sided sum of window (i, j) is
    R(b + 2j + 1) - R(b) with b = (i - j) mod N, because R(t + N) = R(t) + S
    cancels in the difference, so the N (scan_to + 1) windows of the scan
    become one window per start b, and its farthest readings from R(b)
    bound them all."""
    return [(channel, channel.reach(scan_to)) for channel in channels]


def _window_sup(channels):
    """The largest window sum norm in a ``_window_reach`` result, as
    (channel distance, metric value)."""
    d = max(channel.sup(reach) for channel, reach in channels)
    return d, channels[0][0].measure(d)


def _first_window(channels, sup, scan_to: int):
    """The scan's witness: the least (i, j) in scan order whose sum attains
    the channel distance sup, over every start's extremes at that distance."""
    return min(
        channel.first_window(b, v, rising, scan_to)
        for channel, reach in channels
        for b, v, rising in channel.targets(reach, sup)
    )


def _ring_folds(size: int, scan_to: int, step: int, modulus: int) -> bool:
    """Whether a Z/m scan folds with shift D = 0 (mod m): one residue set per parity."""
    odd = size % 2
    fold = size if odd else size // 2
    return scan_to + 1 >= fold and (2 * step if odd else step) % modulus == 0


def _check_scan(group, size: int, scan_to: int, what: str, step) -> None:
    """Refuse a scan to radius ``scan_to`` of more than ``MAX_SCAN`` running
    sums, or a sliding Z/m scan (below the fold, or D != 0 mod m, for cycle
    sum ``step``) of more than ``MAX_SCAN`` window residues: each of its N
    windows keeps up to min(m, scan_to + 1) distinct residues.  A folded
    Z/m scan with D = 0 keeps one residue set per parity, O(N), so it is
    not refused for residues."""
    if size + 2 * scan_to + 1 > MAX_SCAN:
        raise ValueError(
            f"{what} needs {size + 2 * scan_to + 1} running sums, more than the limit {MAX_SCAN}"
        )
    modulus = getattr(group, "modulus", None)
    residues = size * min(modulus, scan_to + 1) if modulus is not None else 0
    if residues > MAX_SCAN and not _ring_folds(size, scan_to, step, modulus):
        raise ValueError(
            f"{what} needs {residues} window residues on {group.tag}, "
            f"more than the limit {MAX_SCAN}"
        )


def _horizon(horizon, size: int) -> int:
    """A gh scan's horizon: 4N when None, else refused unless an int >= 0."""
    if horizon is None:
        return 4 * size
    if not _is_int(horizon):
        raise ValueError(f"horizon must be >= 0 and an integer, got {horizon!r}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return horizon


def gh_check(
    h,
    horizon: int | None = None,
    model: Odometer | None = None,
    exceed_target=None,
) -> GHReport:
    """Bounded two-sided orbit sums test for the coboundary property.

    The decision itself is the vanishing of the cycle sum.  The scan
    produces the empirical sup over all prefixes and window radii up to
    the horizon (default 4N); the witness is the first window in
    (prefix, radius) order that attains it.  The channels are the ordered
    projections of ``ZCocycle._sums``.  Once horizon + 1 >= p (p = N/2 on
    even N, N on odd N) each window is read off one period of its parity's
    running sums, so the scan costs O(k N) for k channels, O(N) ints per
    channel, whatever the horizon (``_Channel``); a shorter horizon reads
    each window's max and min off block prefix and suffix extremes of at
    most 3N running sums, and Z/m with D != 0 (D the period's shift) keeps
    each window's residues, O(N min(m, horizon)).  On the inexact ``real``
    group the sup agrees with the literal window scan to
    ``REPORTING_TOLERANCE``; it is bit-identical when no window wraps
    below position 0, since the sums are then formed alike.  For a
    non-coboundary with ``exceed_target`` above that sup, the witness is
    the first window of the least radius past the horizon whose sum
    exceeds the target, bisected below a cap of a few periods in O(k N log
    cap) once the probes fold; that fails (PeriodicityError) only when the
    metric is bounded, as in Z/m.  ``empirical_sup`` stays the horizon's.
    A horizon or cap needing more than ``MAX_SCAN`` running sums, or on a
    sliding Z/m scan more than ``MAX_SCAN`` window residues, is refused with
    a ValueError before its scan allocates anything.
    """
    a = _as_cocycle(h, model)
    group = a.group
    size = a.model.size
    horizon = _horizon(horizon, size)
    decision = group.values_equal(a.cycle_sum_payload, group.zero())
    # For a coboundary the window sums are periodic in j with period N,
    # so radii beyond N-1 repeat earlier values.
    scan_to = min(horizon, size - 1) if decision else horizon
    _check_scan(group, size, scan_to, f"horizon {horizon}", a.cycle_sum_payload)
    certificate = coboundary_solve(a) if decision else None
    metric_channels = a._channels()
    channels = _window_reach(metric_channels, scan_to)
    reach, best = _window_sup(channels)
    empirical_sup = best

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
            _check_scan(group, size, cap, f"exceed_target {exceed_target}", a.cycle_sum_payload)
            # the sup over radii <= r grows with r: bisect the least r in
            # (horizon, cap + 1] above the target (cap + 1: none); every
            # window attaining that sup then has radius r
            lo, scan_to = horizon, cap + 1
            while scan_to - lo > 1:
                mid = (lo + scan_to) // 2
                probe = _window_reach(metric_channels, mid)
                d, sup = _window_sup(probe)
                if sup > exceed_target:
                    scan_to, channels, reach, best = mid, probe, d, sup
                else:
                    lo = mid
            if scan_to > cap:
                raise PeriodicityError(
                    f"no two-sided sum exceeds {exceed_target} within "
                    f"{cap_periods} periods; the value group's metric is bounded"
                )
        i, j = _first_window(channels, reach, scan_to)
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


@record
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
