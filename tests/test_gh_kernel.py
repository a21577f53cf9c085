"""The gh kernel (each window folded onto one period of the running sums,
or sliding below the fold) and the projection spread bound against their
literal definitions: the O(N * H) window scan, its radius-by-radius
extension past the horizon, and the pairwise diameter."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cocycle_lab import zcocycles
from cocycle_lab.cli import main
from cocycle_lab.dynamics import Odometer
from cocycle_lab.sampling import small_integer_function
from cocycle_lab.space import MAX_POINTS, CylinderFunction, binary_bases, index_to_prefix, space_size
from cocycle_lab.suites import ExperimentConfig
from cocycle_lab.values import (
    APPROX_REALS,
    DYADICS,
    INTEGERS,
    RATIONALS,
    REPORTING_TOLERANCE,
    GroupValue,
    integers_mod,
    rational_vectors,
)
from cocycle_lab.zcocycles import (
    MAX_SCAN,
    GHReport,
    GHWitness,
    PeriodicityError,
    ZCocycle,
    _spread_bound,
    coboundary_solve,
    gh_check,
    two_sided_sum,
)


def scan_gh_check(a: ZCocycle, horizon=None, exceed_target=None) -> GHReport:
    """Oracle: every prefix i and radius j up to the horizon, in scan order.

    The witness is the first (i, j) whose sum strictly improves the best
    norm so far.  For a coboundary, radii beyond N - 1 repeat.  With
    ``exceed_target`` above the sup of a non-coboundary, the scan goes on
    radius by radius past the horizon until the best sum exceeds the
    target, and gives up after scanning radius cap + 1.
    """
    group = a.group
    size = a.model.size
    if horizon is None:
        horizon = 4 * size
    decision = group.values_equal(a.cycle_sum_payload, group.zero())
    best = group.metric(group.zero(), group.zero())
    best_at = (0, 0)
    scan_to = min(horizon, size - 1) if decision else horizon
    for i in range(size):
        for j in range(scan_to + 1):
            d = group.norm(two_sided_sum(a, i, j))
            if d > best:
                best, best_at = d, (i, j)
    empirical_sup = best
    witness = None
    if not decision:
        if exceed_target is not None and best <= exceed_target:
            norm_2s = group.norm(group.scale(a.cycle_sum_payload, 2))
            modulus = getattr(group, "modulus", None)
            if modulus is not None:
                cap_periods = modulus + 2
            else:
                cap_periods = int((exceed_target + best) / norm_2s) + 2
            cap = horizon + size * cap_periods
            j = scan_to
            while best <= exceed_target:
                j += 1
                for i in range(size):
                    d = group.norm(two_sided_sum(a, i, j))
                    if d > best:
                        best, best_at = d, (i, j)
                if j > cap:
                    raise PeriodicityError(
                        f"no two-sided sum exceeds {exceed_target} within "
                        f"{cap_periods} periods; the value group's metric is bounded"
                    )
        i, j = best_at
        witness = GHWitness(
            index_to_prefix(i, a.model.bases),
            j,
            GroupValue(group, two_sided_sum(a, i, j)),
        )
    slope = group.norm(a.cycle_sum_payload)
    slope = Fraction(slope, size) if isinstance(slope, int) else slope / size
    certificate = coboundary_solve(a) if decision else None
    return GHReport(decision, a.cycle_sum, horizon, empirical_sup, certificate, witness, slope)


def pairwise_diameter(values, group):
    """Oracle: the largest metric distance between two values."""
    return max(group.metric(x, y) for x in values for y in values)


def assert_matches_scan(a: ZCocycle, horizon, exceed_target=None):
    try:
        scan = scan_gh_check(a, horizon, exceed_target)
    except PeriodicityError as exc:
        with pytest.raises(PeriodicityError) as raised:
            gh_check(a, horizon=horizon, exceed_target=exceed_target)
        assert str(raised.value) == str(exc)
        return
    fast = gh_check(a, horizon=horizon, exceed_target=exceed_target)
    assert fast.to_json() == scan.to_json()
    assert type(fast.empirical_sup) is type(scan.empirical_sup)


@pytest.mark.parametrize("bases", [(2, 2), (3,), (2, 3)])
def test_exhaustive_small_integer_generators(bases):
    model = Odometer(bases)
    n = model.size
    for table in itertools.product((-1, 0, 1), repeat=n):
        a = ZCocycle(model, CylinderFunction(bases, INTEGERS, table))
        for horizon in (0, 1, n - 1, n, None):
            assert_matches_scan(a, horizon)
        certificate = coboundary_solve(a)
        if certificate is not None:
            assert certificate.spread_bound == pairwise_diameter(a._partial, INTEGERS)


def _fractions(max_den):
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, max_den))


GROUP_VALUES = {
    "int": (INTEGERS, st.integers(-2, 2)),
    "rat": (RATIONALS, _fractions(3)),
    "dy": (DYADICS, st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 4]))),
    "mod:1": (integers_mod(1), st.just(0)),
    "mod:2": (integers_mod(2), st.integers(0, 1)),
    "mod:5": (integers_mod(5), st.integers(0, 4)),
    "mod:7": (integers_mod(7), st.integers(0, 6)),
    "mod:1000003": (integers_mod(1000003), st.integers(0, 1000002)),
    "vec:2": (rational_vectors(2), st.tuples(_fractions(2), _fractions(2))),
    "vec:3": (
        rational_vectors(3),
        st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)).map(
            lambda v: tuple(Fraction(c) for c in v)
        ),
    ),
}

BASES = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3), (2, 2, 3)])


@st.composite
def cocycles(draw):
    group, values = GROUP_VALUES[draw(st.sampled_from(sorted(GROUP_VALUES)))]
    bases = draw(BASES)
    model = Odometer(bases)
    size = model.size
    table = [group.validate(v) for v in draw(st.lists(values, min_size=size, max_size=size))]
    if draw(st.booleans()):
        # close the cycle: the last value cancels the sum of the others
        partial = group.zero()
        for v in table[:-1]:
            partial = group.add(partial, v)
        table[-1] = group.neg(partial)
    return ZCocycle(model, CylinderFunction(bases, group, tuple(table)))


def fold_period(n):
    """p, the period of one parity of the running sums: N/2 on even N, N on odd N.
    From scan radius p - 1 on, the kernel folds each window onto one period."""
    return n // 2 if n % 2 == 0 else n


# horizons as functions of N: short, up to the coboundary cut N - 1, long,
# and on both sides of the fold
HORIZONS = [
    lambda n: 0,
    lambda n: 1,
    lambda n: n - 2,
    lambda n: n - 1,
    lambda n: n,
    lambda n: 4 * n,
    lambda n: max(fold_period(n) - 2, 0),
    lambda n: fold_period(n) - 1,
    lambda n: fold_period(n),
    lambda n: 2 * n,
]


@given(cocycles(), st.sampled_from(HORIZONS))
def test_kernel_matches_scan(a, horizon):
    assert_matches_scan(a, horizon(a.model.size))


@given(
    st.one_of(
        st.lists(st.integers(-5, 5), min_size=1, max_size=24),
        st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=24),
    )
)
def test_window_extremes_are_the_literal_window_max_and_min(seq):
    for width in range(1, len(seq) + 1):
        count = len(seq) - width + 1
        windows = [seq[s : s + width] for s in range(count)]
        assert zcocycles._window_extremes(seq, width, count, True) == list(map(max, windows))
        assert zcocycles._window_extremes(seq, width, count, False) == list(map(min, windows))


@pytest.mark.parametrize("bases", [(2,) * 6, (3, 3, 3)])
@pytest.mark.parametrize("ramp", [True, False], ids=["ramp", "constant"])
def test_tied_witness_targets(bases, ramp):
    # many starts reach the sup at once: 43 of the 64 on the ramp table at
    # the default horizon, every start on the constant table, so the
    # witness search compares many tied targets in scan order
    n = space_size(bases)
    table = tuple((i % 3) - 1 for i in range(n - 1)) + (1,) if ramp else (1,) * n
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, INTEGERS, table))
    for horizon in HORIZONS:
        assert_matches_scan(a, horizon(n))


def bound_type(group):
    """The type of a metric value: int on Z and Z/m, float on real, else Fraction."""
    if group.tag == "int" or group.tag.startswith("mod:"):
        return int
    return float if group.tag == "real" else Fraction


@given(cocycles())
def test_spread_bound_is_pairwise_diameter(a):
    bound = _spread_bound(*a.group.numerators(a._partial), a.group)
    assert bound == pairwise_diameter(a._partial, a.group)
    assert type(bound) is bound_type(a.group)


@given(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=12))
def test_real_spread_bound_is_the_float_pairwise_diameter(values):
    bound = _spread_bound(*APPROX_REALS.numerators(values), APPROX_REALS)
    assert bound == pairwise_diameter(values, APPROX_REALS)
    assert type(bound) is float


def test_z_mod_m_spread_bound_on_every_residue_set():
    # the ring diameter against the pairwise one, and the farthest residue
    # of the set from every residue a against brute force, on every set of
    # residues of Z/m for m <= 8 (even and odd halves) and on wide moduli
    for m in range(1, 9):
        group = integers_mod(m)
        for k in range(1, m + 1):
            for values in itertools.combinations(range(m), k):
                assert _spread_bound(*group.numerators(values), group) == pairwise_diameter(values, group)
                farthest = {a: max(group.metric(a, v) for v in values) for a in range(m)}
                assert zcocycles._farthest_on_ring(list(values), range(m), group) == farthest
    for m in (16, 101, 1000003):
        group = integers_mod(m)
        for values in itertools.combinations((0, 1, m // 2 - 1, m // 2, m // 2 + 1, m - 1), 3):
            assert _spread_bound(*group.numerators(values), group) == pairwise_diameter(values, group)


@given(
    st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=8, max_size=8),
    st.sampled_from(HORIZONS),
)
def test_real_sup_agrees_with_scan_to_tolerance(bases, values, horizon):
    model = Odometer(bases)
    table = tuple(values[: model.size])
    a = ZCocycle(model, CylinderFunction(bases, APPROX_REALS, table))
    h = horizon(model.size)
    fast, scan = gh_check(a, horizon=h), scan_gh_check(a, h)
    assert fast.decision == scan.decision
    assert abs(fast.empirical_sup - scan.empirical_sup) <= REPORTING_TOLERANCE
    if fast.witness is not None:
        assert abs(fast.witness.value.norm() - fast.empirical_sup) <= REPORTING_TOLERANCE


def test_wrapped_radius_wins_the_tie_break():
    # Z/5 sums reach the metric cap 2 at many windows; the scan keeps the
    # first prefix, which for some starts lies past a wrap of the cycle.
    a = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), integers_mod(5), (0, 0, 0, 2)))
    for horizon in range(0, 20):
        assert_matches_scan(a, horizon)


def test_negative_horizon_is_rejected():
    a = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), INTEGERS, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match="horizon"):
        gh_check(a, horizon=-3)


def test_scan_past_the_running_sum_limit_is_rejected(monkeypatch):
    # N = 4, so horizon h builds 4 + 2h + 1 running sums; the refusal comes
    # before any allocation, so the real limit is tested at no cost too
    a = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), INTEGERS, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match=f"more than the limit {MAX_SCAN}"):
        gh_check(a, horizon=MAX_SCAN // 2)
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 4 + 2 * 10 + 1)
    assert_matches_scan(a, 10)
    with pytest.raises(ValueError, match="horizon 11 needs 27 running sums"):
        gh_check(a, horizon=11)
    # a coboundary scans the radii below N only, whatever its horizon
    b = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), INTEGERS, (1, -1, 0, 0)))
    assert gh_check(b, horizon=10**12).decision


def test_exceed_target_past_the_running_sum_limit_is_rejected(monkeypatch):
    # N = 4 and cycle sum 1, so the bisection's cap is h + 4 (int((t + sup) / 2) + 2)
    # radii; a huge target is refused after the horizon's scan, before the
    # bisection reaches for anything
    a = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), INTEGERS, (1, 0, 0, 0)))
    real_reach = zcocycles._window_reach
    radii = []
    monkeypatch.setattr(
        zcocycles, "_window_reach", lambda channels, r: radii.append(r) or real_reach(channels, r)
    )
    target = 10**15
    with pytest.raises(ValueError, match=f"exceed_target {target} needs .* limit {MAX_SCAN}"):
        gh_check(a, horizon=4, exceed_target=target)
    assert radii == [4]
    # the exact boundary, under a small limit
    sup = gh_check(a, horizon=4).empirical_sup
    cap = 4 + 4 * (int((7 + sup) / 2) + 2)
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 4 + 2 * cap + 1)
    assert_matches_scan(a, 4, 7)
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 4 + 2 * cap)
    with pytest.raises(ValueError, match=f"exceed_target 7 needs {4 + 2 * cap + 1} running sums"):
        gh_check(a, horizon=4, exceed_target=7)


def test_running_sum_limit_admits_every_default_horizon():
    # the default horizon 4N at the largest space, N = MAX_POINTS
    assert MAX_POINTS + 2 * (4 * MAX_POINTS) + 1 <= MAX_SCAN


def test_z_mod_m_scan_past_the_window_residue_limit_is_rejected(monkeypatch):
    # N = 4 on Z/7: horizon h keeps 4 min(7, h + 1) window residues and
    # builds 4 + 2h + 1 running sums; at h = 2 that is 12 and 9
    a = ZCocycle(Odometer((2, 2)), CylinderFunction((2, 2), integers_mod(7), (1, 0, 0, 0)))
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 12)
    assert_matches_scan(a, 2)
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 11)
    with pytest.raises(
        ValueError, match="horizon 2 needs 12 window residues on mod:7, more than the limit 11"
    ):
        gh_check(a, horizon=2)
    # a residue keeps at most m = 7 places per window, however wide the window
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 28)
    assert_matches_scan(a, 9)
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 27)
    with pytest.raises(ValueError, match="horizon 9 needs 28 window residues"):
        gh_check(a, horizon=9)


def test_z_mod_m_window_residues_on_a_large_modulus_are_refused():
    # depth 11 at the default horizon: 2048 windows of up to 8193 residues
    bases = (2,) * 11
    table = tuple(range(1, 1 << 11))
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, integers_mod(1000003), table + (0,)))
    with pytest.raises(ValueError, match=f"needs {2048 * 8193} window residues .* limit {MAX_SCAN}"):
        gh_check(a)


def test_exceed_target_on_a_large_modulus_caps_at_the_first_exceeding_period():
    # cycle sum S = 136 on N = 16: norm(k 2S) = 272 k first exceeds
    # target + sup = 2208 at k = 9, so the cap is 11 periods, where m + 2
    # periods would need more running sums than MAX_SCAN
    bases = (2,) * 4
    h = CylinderFunction(bases, integers_mod(1000003), tuple(range(1, 17)))
    a = ZCocycle(Odometer(bases), h)
    assert gh_check(a).empirical_sup == 1104
    assert_matches_scan(a, None, 1104)
    # no norm on Z/m exceeds m // 2: that target keeps the m + 2 period cap
    with pytest.raises(ValueError, match=f"exceed_target 500000 needs .* limit {MAX_SCAN}"):
        gh_check(a, exceed_target=500000)


def test_window_residue_limit_admits_every_default_horizon_on_mod_5():
    # 5 N residues at most, with N = MAX_POINTS; the check allocates nothing
    for scan_to in (MAX_POINTS - 1, 4 * MAX_POINTS):
        zcocycles._check_scan(integers_mod(5), MAX_POINTS, scan_to, "horizon", 1)


def test_folded_z_mod_m_scans_with_zero_shift_keep_no_window_residues(monkeypatch):
    # past the fold with D = 0 (mod m) a scan keeps one residue set per
    # parity, so only a sliding scan is refused for its window residues
    coboundary = ZCocycle(Odometer((2, 2, 2)), CylinderFunction(
        (2, 2, 2), integers_mod(1000003), (5, 999998, 7, 999996, 0, 1, 1000001, 1)))
    assert coboundary.cycle_sum_payload == 0
    # N = 8 folds at scan_to + 1 >= 4; 23 running sums fit up to scan_to = 7,
    # where a sliding scan would keep 8 * 8 = 64 residues
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 23)
    for horizon in (3, 7, None):
        assert_matches_scan(coboundary, horizon)
    with pytest.raises(ValueError, match="^horizon 2 needs 24 window residues on mod:1000003, "
                                         "more than the limit 23$"):
        gh_check(coboundary, horizon=2)
    # odd N = 3 shifts by D = 2S: S = 3 on Z/6 folds with D = 0, S = 1 slides
    monkeypatch.setattr(zcocycles, "MAX_SCAN", 12)
    for table, refused in (((1, 1, 1), False), ((1, 0, 0), True)):
        a = ZCocycle(Odometer((3,)), CylinderFunction((3,), integers_mod(6), table))
        if refused:
            with pytest.raises(ValueError, match="^horizon 4 needs 15 window residues on mod:6, "
                                                 "more than the limit 12$"):
                gh_check(a, horizon=4)
        else:
            assert_matches_scan(a, 4)


@pytest.mark.parametrize("bases", [(2, 2), (3,), (2, 3)])
def test_exceed_extension_matches_the_radius_loop_exhaustively(bases):
    model = Odometer(bases)
    n = model.size
    for table in itertools.product((-1, 0, 1), repeat=n):
        if sum(table) == 0:
            continue
        a = ZCocycle(model, CylinderFunction(bases, INTEGERS, table))
        for horizon in (0, n):
            for target in (0, 3, 2 * n + 1):
                assert_matches_scan(a, horizon, target)


@st.composite
def non_coboundaries(draw, tags):
    group, values = GROUP_VALUES[draw(st.sampled_from(tags))]
    bases = draw(BASES)
    size = space_size(bases)
    table = [group.validate(v) for v in draw(st.lists(values, min_size=size, max_size=size))]
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, group, tuple(table)))
    assume(not group.values_equal(a.cycle_sum_payload, group.zero()))
    return a


TARGETS = st.sampled_from([0, Fraction(1, 2), 1, 2, Fraction(7, 3), 5, 11])


@given(non_coboundaries(["int", "rat", "vec:2"]), st.sampled_from(HORIZONS), TARGETS)
def test_exceed_extension_matches_the_radius_loop(a, horizon, target):
    assert_matches_scan(a, horizon(a.model.size), target)


@given(non_coboundaries(["mod:2", "mod:5"]), st.sampled_from(HORIZONS[:3]), TARGETS)
def test_exceed_extension_on_z_mod_m_raises_where_the_loop_does(a, horizon, target):
    assert_matches_scan(a, horizon(a.model.size), target)


def test_exceed_extension_far_past_the_horizon():
    # cycle sum 1 at N = 32: the target is first exceeded many periods out
    bases = (2,) * 5
    table = (1, -1, 2, 0, -2, 1, 0, -1) * 4
    table = table[:-1] + (table[-1] + 1,)
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, INTEGERS, table))
    for target in (4, 17):
        assert_matches_scan(a, 3, target)
    report = gh_check(a, horizon=3, exceed_target=17)
    assert report.witness.radius > 3 * a.model.size
    assert report.witness.value.norm() > 17
    assert report.empirical_sup == gh_check(a, horizon=3).empirical_sup


@pytest.mark.parametrize("bases", [(3,), (5,), (3, 3)])
def test_z_mod_2_on_odd_n_folds_where_two_cycle_sums_vanish(bases):
    # on odd N a parity of the running sums repeats after p = N positions,
    # shifted by D = 2S, which is 0 in Z/2 whatever S is: past the fold each
    # window holds its parity's whole period, and the witness search reads
    # the first two wrap segments alone
    model = Odometer(bases)
    n = model.size
    tables = itertools.product((0, 1), repeat=n) if n < 9 else (
        tuple((i * k + k // 3) % 2 for i in range(n)) for k in range(1, 9)
    )
    for table in tables:
        a = ZCocycle(model, CylinderFunction(bases, integers_mod(2), tuple(table)))
        if a.cycle_sum_payload == 0:
            continue
        for horizon in range(2 * n + 2):
            for target in (None, 0, 1):
                assert_matches_scan(a, horizon, target)


@pytest.mark.parametrize(
    "bases, group, table",
    [
        ((2, 2, 2), RATIONALS, (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 2), 0,
                                Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3))),
        ((3, 3), RATIONALS, (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 2), 0, Fraction(-1, 3),
                             Fraction(1, 2), Fraction(-1, 2), 0, Fraction(1, 3))),
        ((2, 2, 2), rational_vectors(2), tuple(
            (Fraction(x, 2), Fraction(y, 3))
            for x, y in [(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (0, 1), (1, -1), (0, 0)]
        )),
    ],
)
def test_exceed_bisection_across_the_fold(monkeypatch, bases, group, table):
    # the horizon's scan slides (horizon + 1 < p); the bisection probes
    # radii past the fold, where each window is read off one period
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, group, tuple(map(group.validate, table))))
    p = fold_period(a.model.size)
    real_reach = zcocycles._window_reach
    radii = []
    monkeypatch.setattr(
        zcocycles, "_window_reach", lambda channels, r: radii.append(r) or real_reach(channels, r)
    )
    folded = set()
    for horizon in (0, p - 2):
        sup = gh_check(a, horizon=horizon).empirical_sup
        for target in (t for t in (Fraction(1, 2), Fraction(2, 3), 1, 2, 5) if t >= sup):
            assert_matches_scan(a, horizon, target)
            radii.clear()
            report = gh_check(a, horizon=horizon, exceed_target=target)
            assert radii[0] == horizon < p - 1
            folded.update(r + 1 >= p for r in radii[1:])
            assert report.witness.value.norm() > target
    assert folded == {False, True}


@pytest.mark.parametrize(
    "bases, table",
    [
        ((2, 3), (-1e9, 1e9, 0.0, 0.0, 0.0, -2e-9)),
        ((2, 3), (1e9, -1e9, 0.0, 0.0, 0.0, 2e-9)),
        ((2, 2), (0.0, 3e8, -3e8, 3e-9)),
    ],
)
def test_real_sums_that_round_alike_across_periods(bases, table):
    # a cycle sum far below the float spacing of the partial sums: R(t) and
    # R(t + 2N) = R(t) + 2S round to one float, so a prefix reaches the sup
    # on several wrap segments, and the first of them is the witness
    a = ZCocycle(Odometer(bases), CylinderFunction(bases, APPROX_REALS, table))
    for horizon in range(4 * a.model.size + 1):
        assert_matches_scan(a, horizon)


def _literal_gh(config):
    """The gh suite's rows and checks from the public sampler and the
    literal definitions: the coboundary decision is the vanishing of f
    summed once round the orbit of the all-zeros prefix, the sup and the
    witness are ``scan_gh_check``'s, and the bound is the pairwise
    diameter of the partial sums along that orbit."""
    rng = random.Random(config.seed)
    model = config.model()
    rows, checks = [], []
    for case in range(config.count):
        f = small_integer_function(rng, config.bases, -2, 2)
        x, partial = (0,) * model.depth, [0]
        for _ in range(model.size):
            partial.append(partial[-1] + f.eval(x).payload)
            x = model.step(x)
        cycle_sum = partial.pop()
        coboundary = cycle_sum == 0
        scan = scan_gh_check(ZCocycle(model, f), config.horizon)
        bound = pairwise_diameter(partial, INTEGERS) if coboundary else ""
        rows.append(dict(case=case, coboundary=coboundary, cycle_sum=cycle_sum,
                         empirical_sup=scan.empirical_sup, bound=bound))
        checks.append({"name": f"case{case}-agreement", "passed": scan.decision == coboundary, "witness": ""})
        if coboundary:
            checks.append({"name": f"case{case}-sup-bound", "passed": scan.empirical_sup <= bound,
                           "witness": f"sup={scan.empirical_sup} M={bound}"})
        else:
            checks.append({"name": f"case{case}-witness", "passed": scan.witness is not None, "witness": ""})
    return rows, checks


@pytest.mark.parametrize("horizon", [None, 0, 1, 3])
def test_run_gh_equals_its_literal_recomputation(horizon, capsys):
    """Depths 1-6 over three seeds, at the default horizon 4N and at short
    ones; coboundaries and non-coboundaries both occur, on long orbits too."""
    decisions = set()
    for depth in range(1, 7):
        for seed in (0, 1, 7):
            config = ExperimentConfig(bases=binary_bases(depth), seed=seed, horizon=horizon, count=8)
            argv = ["run", "gh", "--depth", str(depth), "--seed", str(seed), "--count", "8"]
            code = main(argv + ([] if horizon is None else ["--horizon", str(horizon)]))
            report = json.loads(capsys.readouterr().out)
            rows, checks = _literal_gh(config)
            assert report["rows"] == rows
            assert report["checks"] == checks
            assert code == (0 if all(c["passed"] for c in checks) else 1)
            decisions.update((row["coboundary"], depth >= 5) for row in rows)
    assert decisions == {(False, False), (False, True), (True, False), (True, True)}
