"""Cocycle evaluation, coboundary certificates, density, and bounded sums."""

import random
import re
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from cocycle_lab.dynamics import (
    FullGroupElement,
    MarkerSequence,
    Odometer,
    Tower,
    TowerDecomposition,
    _marker_indices,
    delta_element,
    periodic_approx,
    towers_from_marker,
)
from cocycle_lab.sampling import (
    cylinder_function,
    coboundary_generator,
    small_integer_function,
)
from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MixtureMeasure,
    index_to_prefix,
    iter_prefixes,
    prefix_to_index,
    tau3_functional,
)
from cocycle_lab.values import INTEGERS, RATIONALS, GroupValue, group_from_tag, integers_mod
from cocycle_lab.zcocycles import (
    PeriodicityError,
    ZCocycle,
    cocycle_metric_convergence,
    coboundary_solve,
    density_sequence,
    density_table,
    extend_to_full_group,
    gh_check,
    periodic_coboundary,
    skew_orbit,
    two_sided_sum,
)

B3 = (2, 2, 2)
M3 = Odometer.binary(3)
PM1 = CylinderFunction((2,), INTEGERS, (1, -1))  # +1 on x_1=0, -1 on x_1=1


def literal_evaluate(model, f, j, x):
    """Oracle: walk the orbit step by step, summing the generator."""
    group = f.group
    acc = group.zero()
    if j >= 0:
        y = tuple(x)
        for _ in range(j):
            acc = group.add(acc, f.eval(y).payload)
            y = model.step(y)
    else:
        y = tuple(x)
        for _ in range(-j):
            y = model.step_inverse(y)
            acc = group.sub(acc, f.eval(y).payload)
    return acc


# --- evaluation ----------------------------------------------------------------


def test_evaluate_examples():
    a = ZCocycle(M3, PM1)
    assert a.evaluate(0, (1, 0, 1)).payload == 0
    ones = ZCocycle(M3, CylinderFunction.constant((2,), INTEGERS, 1))
    assert ones.evaluate(5, (0, 0, 0)).payload == 5
    assert a.evaluate(2, (0, 0, 0)).payload == 0  # f(000) + f(100) = 1 - 1


def test_evaluate_matches_literal_walk():
    rng = random.Random(2)
    for _ in range(20):
        f = cylinder_function(rng, B3, RATIONALS)
        a = ZCocycle(M3, f)
        x = index_to_prefix(rng.randrange(8), B3)
        for j in [-17, -8, -3, -1, 0, 1, 2, 7, 8, 9, 25]:
            assert a.evaluate(j, x).payload == literal_evaluate(M3, f, j, x)


def test_cocycle_identity_exhaustive_small():
    rng = random.Random(7)
    f = cylinder_function(rng, (2, 2), RATIONALS)
    m = Odometer.binary(2)
    a = ZCocycle(m, f)
    for x in iter_prefixes((2, 2)):
        for i in range(-4, 5):
            for j in range(-4, 5):
                lhs = a.evaluate(i + j, x).payload
                tj = index_to_prefix(
                    (prefix_to_index(x, m.bases) + j) % m.size, m.bases
                )
                rhs = a.group.add(a.evaluate(i, tj).payload, a.evaluate(j, x).payload)
                assert lhs == rhs


def test_cocycle_identity_randomized_large_j():
    rng = random.Random(13)
    f = cylinder_function(rng, B3, INTEGERS)
    a = ZCocycle(M3, f)
    for _ in range(50):
        i, j = rng.randint(-64, 64), rng.randint(-64, 64)
        x = index_to_prefix(rng.randrange(8), B3)
        tj = index_to_prefix((prefix_to_index(x, B3) + j) % 8, B3)
        assert (
            a.evaluate(i + j, x).payload
            == a.evaluate(i, tj).payload + a.evaluate(j, x).payload
        )


# --- full-group extension --------------------------------------------------------


def test_extension_examples():
    a = ZCocycle(M3, PM1)
    assert extend_to_full_group(a, M3.as_full_group_element()).table == PM1.lift(B3).table
    assert extend_to_full_group(a, FullGroupElement.identity(M3)).table == (0,) * 8
    m2 = Odometer.binary(2)
    a2 = ZCocycle(m2, CylinderFunction.constant((2,), INTEGERS, 1))
    p1 = periodic_approx(m2, MarkerSequence(m2).marker_indices(1))
    ext = extend_to_full_group(a2, p1)
    for x in iter_prefixes((2, 2)):
        assert ext.eval(x).payload == (1 if x[0] == 0 else -1)


def test_extension_cocycle_identity_over_compositions():
    rng = random.Random(23)
    a = ZCocycle(M3, cylinder_function(rng, B3, RATIONALS))
    idx = list(range(8))
    for _ in range(10):
        rng.shuffle(idx)
        r = FullGroupElement(
            M3, CylinderFunction(B3, INTEGERS, tuple(idx[i] - i for i in range(8)))
        )
        rng.shuffle(idx)
        s = FullGroupElement(
            M3, CylinderFunction(B3, INTEGERS, tuple(idx[i] - i for i in range(8)))
        )
        ext_r, ext_s = extend_to_full_group(a, r), extend_to_full_group(a, s)
        ext_rs = extend_to_full_group(a, r.compose(s))
        for i in range(8):
            assert ext_rs.table[i] == a.group.add(
                ext_r.table[s.apply_index(i)], ext_s.table[i]
            )


# --- coboundary decision -----------------------------------------------------------


def test_solve_zero_generator():
    a = ZCocycle(M3, CylinderFunction.constant(B3, INTEGERS, 0))
    cert = coboundary_solve(a)
    assert cert.transfer.table == (0,) * 8
    assert cert.spread_bound == 0
    assert cert.verify()


def test_solve_plus_minus_one():
    a = ZCocycle(M3, PM1)
    cert = coboundary_solve(a)
    # transfer is x -> x_1, spread bound 1 (partial sums alternate 0,1)
    for x in iter_prefixes(B3):
        assert cert.transfer.eval(x).payload == x[0]
    assert cert.spread_bound == 1
    assert cert.verify()


def test_solve_constant_one_fails_with_cycle_sum():
    a = ZCocycle(M3, CylinderFunction.constant((2,), INTEGERS, 1))
    assert coboundary_solve(a) is None
    assert a.cycle_sum.payload == 8


def test_solve_soundness_exhaustive_random():
    rng = random.Random(31)
    for _ in range(100):
        f = small_integer_function(rng, B3)
        a = ZCocycle(M3, f)
        cert = coboundary_solve(a)
        total = sum(f.table)
        assert (cert is not None) == (total == 0)
        if cert is not None:
            assert cert.verify()
            assert cert.transfer.table[0] == 0  # anchored at the all-zeros prefix


def test_solve_completeness_growth():
    rng = random.Random(37)
    for _ in range(20):
        f = small_integer_function(rng, B3)
        a = ZCocycle(M3, f)
        if coboundary_solve(a) is not None:
            continue
        s = abs(a.cycle_sum.payload)
        for t in range(1, 9):
            for i in range(8):
                assert abs(a.evaluate_index(t * 8, i)) == t * s


def test_coboundaries_form_a_subgroup():
    rng = random.Random(41)
    for _ in range(20):
        f1, _ = coboundary_generator(rng, B3, RATIONALS)
        f2, _ = coboundary_generator(rng, B3, RATIONALS)
        c1 = coboundary_solve(ZCocycle(M3, f1))
        c2 = coboundary_solve(ZCocycle(M3, f2))
        both = coboundary_solve(ZCocycle(M3, f1 + f2))
        negated = coboundary_solve(ZCocycle(M3, -f1))
        assert both is not None and negated is not None
        # anchored transfers add and negate
        assert both.transfer.table == tuple(
            a + b for a, b in zip(c1.transfer.table, c2.transfer.table)
        )
        assert negated.transfer.table == tuple(-a for a in c1.transfer.table)


def test_solve_modular_group():
    mod3 = integers_mod(3)
    f = CylinderFunction(B3, mod3, (1, 2, 0, 0, 1, 2, 0, 0))
    a = ZCocycle(M3, f)
    cert = coboundary_solve(a)  # sum = 6 = 0 mod 3
    assert cert is not None and cert.verify()
    g = CylinderFunction(B3, mod3, (1, 0, 0, 0, 0, 0, 0, 0))
    assert coboundary_solve(ZCocycle(M3, g)) is None


# --- transfer over periodic elements --------------------------------------------------


def test_periodic_coboundary_examples():
    m2 = Odometer.binary(2)
    markers = MarkerSequence(m2)
    p1 = periodic_approx(m2, markers.marker_indices(1))
    ones = ZCocycle(m2, CylinderFunction.constant((2,), INTEGERS, 1))
    towers = towers_from_marker(m2, markers.marker_indices(1))
    g = periodic_coboundary(p1, ones, towers)
    for x in iter_prefixes((2, 2)):
        assert g.eval(x).payload == x[0]  # 0 on bases {x_1=0}, 1 on {x_1=1}
    zero = ZCocycle(m2, CylinderFunction.constant((2,), INTEGERS, 0))
    assert periodic_coboundary(p1, zero, towers).table == (0,) * 4
    identity = FullGroupElement.identity(m2)
    assert periodic_coboundary(identity, ones).table == (0,) * 4


def test_periodic_coboundary_solves_all_powers():
    rng = random.Random(43)
    m = Odometer.binary(4)
    markers = MarkerSequence(m)
    for n in (1, 2, 3):
        towers = towers_from_marker(m, markers.marker_indices(n))
        p = periodic_approx(m, towers)
        a = ZCocycle(m, cylinder_function(rng, m.bases, RATIONALS))
        g = periodic_coboundary(p, a, towers)
        # a-hat(P^k, x) = g(P^k x) - g(x) for every power and prefix
        ext = extend_to_full_group(a, p)
        period = 2**n
        for i in range(m.size):
            acc = Fraction(0)
            j = i
            for _ in range(period):
                target = g.table[p.apply_index(j)] - g.table[i]
                acc += ext.table[j]
                j = p.apply_index(j)
                assert acc == g.table[j] - g.table[i]
        for b in towers.base_indices():
            assert g.table[b] == 0


def test_periodic_coboundary_rejects_wrapping_orbit():
    # T itself is periodic on the quotient, but its single orbit wraps the
    # cycle; a generator with nonzero cycle sum then admits no transfer
    ones = ZCocycle(M3, CylinderFunction.constant((2,), INTEGERS, 1))
    with pytest.raises(PeriodicityError):
        periodic_coboundary(M3.as_full_group_element(), ones)
    # with cycle sum zero the wrap is harmless
    balanced = ZCocycle(M3, PM1)
    g = periodic_coboundary(M3.as_full_group_element(), balanced)
    cert = coboundary_solve(balanced)
    assert g.table == cert.transfer.table


# The two-pass transfer and the probing tower builder, kept literally as
# oracles: the first pass finds each orbit's least index by a full walk,
# and each first-return time is probed one step at a time.


def literal_periodic_coboundary(element, a, towers=None):
    if element.model != a.model:
        raise DepthError("full-group element lives on a different model")
    group = a.group
    size = a.model.size
    if towers is not None:
        bases_ = towers.base_indices()
    else:
        perm = element.permutation
        seen = [False] * size
        bases_ = []
        for start in range(size):
            if seen[start]:
                continue
            orbit_min = start
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                orbit_min = min(orbit_min, j)
            bases_.append(orbit_min)
    table = [None] * size
    perm = element.permutation
    for base in bases_:
        if table[base] is not None:
            raise PeriodicityError(f"two base points on one orbit (index {base})")
        acc = group.zero()
        table[base] = acc
        j = base
        while True:
            acc = group.add(acc, a.evaluate_index(element.jump_at(j), j))
            j = perm[j]
            if j == base:
                break
            if table[j] is not None:
                raise PeriodicityError(f"two base points on one orbit (index {j})")
            table[j] = acc
        if not group.values_equal(acc, group.zero()):
            raise PeriodicityError(
                f"orbit of index {base} wraps the cycle with holonomy {acc!r}; "
                "no transfer exists"
            )
    if any(v is None for v in table):
        raise PeriodicityError("base points do not meet every orbit")
    return CylinderFunction(a.model.bases, group, tuple(table))


def literal_towers_from_marker(model, marker):
    indices = _marker_indices(model, marker)
    if not indices:
        raise ValueError("marker set must be nonempty")
    in_marker = set(indices)
    n = model.size
    by_height = {}
    for a in indices:
        t = 1
        while (a + t) % n not in in_marker:
            t += 1
        by_height.setdefault(t, []).append(a)
    towers = tuple(
        Tower(height, tuple(sorted(bases_)))
        for height, bases_ in sorted(by_height.items())
    )
    return TowerDecomposition(model, indices, towers)


CHAIN_PAYLOADS = {
    "int": st.integers(-3, 3),
    "rat": st.fractions(min_value=-3, max_value=3, max_denominator=8),
    "dy": st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-8, 8), st.integers(0, 3)),
    "mod:5": st.integers(0, 4),
    "vec:2": st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2),
    "real": st.floats(-3, 3),
}


@st.composite
def markers(draw, model):
    """A nonempty marker set, each entry an index or its prefix."""
    indices = draw(st.sets(st.integers(0, model.size - 1), min_size=1, max_size=model.size))
    return [
        index_to_prefix(i, model.bases) if draw(st.booleans()) else i for i in sorted(indices)
    ]


@st.composite
def full_group_elements(draw, model, depth=2):
    """A periodic approximation, the odometer, the identity, a digit flip,
    or (up to ``depth`` deep) a composition of two of these."""
    flips = [n for n, b in enumerate(model.bases, start=1) if b == 2]
    kinds = ["approx", "odometer", "identity"] + ["flip"] * bool(flips) + ["compose"] * bool(depth)
    kind = draw(st.sampled_from(kinds))
    if kind == "approx":
        return periodic_approx(model, draw(markers(model)))
    if kind == "odometer":
        return model.as_full_group_element()
    if kind == "identity":
        return FullGroupElement.identity(model)
    if kind == "flip":
        return delta_element(model, draw(st.sampled_from(flips)))
    first = draw(full_group_elements(model, depth - 1))
    return first.compose(draw(full_group_elements(model, depth - 1)))


@st.composite
def chain_cases(draw):
    """(element, cocycle, towers) on mixed radices over one group; the
    generator's cycle sum is cancelled half the time, so that wrapping
    orbits also admit a transfer."""
    model = Odometer(tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))))
    tag = draw(st.sampled_from(sorted(CHAIN_PAYLOADS)))
    group = group_from_tag(tag)
    size = model.size
    table = draw(st.lists(CHAIN_PAYLOADS[tag], min_size=size, max_size=size))
    if draw(st.booleans()):
        total = group.zero()
        for v in table[:-1]:
            total = group.add(total, v)
        table[-1] = group.sub(group.zero(), total)
    a = ZCocycle(model, CylinderFunction(model.bases, group, tuple(table)))
    element = draw(full_group_elements(model))
    towers = draw(st.none() | markers(model).map(lambda m: towers_from_marker(model, m)))
    return element, a, towers


def _transfer_outcome(fn, element, a, towers):
    try:
        return repr(fn(element, a, towers).table)
    except PeriodicityError as exc:
        return ("PeriodicityError", str(exc))


@given(st.data())
def test_towers_from_marker_match_the_probing_oracle(data):
    model = Odometer(tuple(data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=5))))
    marker = data.draw(markers(model))
    assert towers_from_marker(model, marker) == literal_towers_from_marker(model, marker)


@given(chain_cases())
def test_periodic_coboundary_matches_the_two_pass_oracle(case):
    element, a, towers = case
    expected = _transfer_outcome(literal_periodic_coboundary, element, a, towers)
    assert _transfer_outcome(periodic_coboundary, element, a, towers) == expected


def test_periodic_coboundary_oracle_examples_cover_every_outcome():
    # a periodic approximation over its own towers, over none, over the
    # towers of another marker, and the odometer's single wrapping orbit
    m = Odometer((2, 3, 2))
    ones = ZCocycle(m, CylinderFunction.constant((2,), INTEGERS, 1))
    own = towers_from_marker(m, [0, 5])
    other = towers_from_marker(m, [0, 1, 7])
    p = periodic_approx(m, own)
    cases = [(p, own), (p, None), (p, other), (p, towers_from_marker(m, [0])),
             (m.as_full_group_element(), None), (delta_element(m, 3).compose(p), None)]
    outcomes = [_transfer_outcome(periodic_coboundary, e, ones, t) for e, t in cases]
    assert outcomes == [_transfer_outcome(literal_periodic_coboundary, e, ones, t) for e, t in cases]
    assert [o[1].split(" (")[0] for o in outcomes if isinstance(o, tuple)] == [
        "two base points on one orbit",
        "base points do not meet every orbit",
        "orbit of index 0 wraps the cycle with holonomy 12; no transfer exists",
    ]
    with pytest.raises(DepthError, match="different model"):
        periodic_coboundary(p, ZCocycle(Odometer.binary(3), PM1))


@pytest.mark.parametrize("tower_depth", [2, 4])
def test_periodic_coboundary_refuses_towers_on_another_model(tower_depth):
    # deeper towers once indexed past the table (a bare IndexError), and
    # shallower ones returned a table without any error
    m = Odometer.binary(3)
    tm = Odometer.binary(tower_depth)
    towers = towers_from_marker(tm, MarkerSequence(tm).marker_indices(1))
    a = ZCocycle(m, CylinderFunction.constant((2,), INTEGERS, 0))
    p = periodic_approx(m, MarkerSequence(m).marker_indices(1))
    with pytest.raises(DepthError, match="^tower decomposition lives on a different model$"):
        periodic_coboundary(p, a, towers)


# --- density of coboundaries ------------------------------------------------------------


def test_density_agrees_off_top_set_and_certifies():
    rng = random.Random(47)
    m = Odometer.binary(4)
    markers = MarkerSequence(m)
    fair = BernoulliMeasure.uniform(m.bases)
    for _ in range(10):
        f = cylinder_function(rng, m.bases, RATIONALS)
        a = ZCocycle(m, f)
        for n in (1, 2, 3):
            fn = density_sequence(a, markers, n)
            tops = set(markers.top_indices(n))
            for i in range(m.size):
                if i not in tops:
                    assert fn.table[i] == f.table[i]
            assert coboundary_solve(ZCocycle(m, fn)) is not None
            assert tau3_functional(fn, f, fair) <= Fraction(1, 2**n)


def test_density_table_rows():
    m = Odometer.binary(4)
    a = ZCocycle(m, PM1)
    rows = density_table(a, MarkerSequence(m), 3, [BernoulliMeasure.uniform(m.bases)])
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert all(r["certified"] for r in rows)
    assert all(r["tau3_0"] <= Fraction(1, 2 ** r["n"]) for r in rows)


def test_density_of_an_exact_coboundary_is_itself():
    # a generator whose transfer only depends on deep digits is reproduced
    # exactly at large n (construction guarantee F_n = f off D_n)
    m = Odometer.binary(4)
    a = ZCocycle(m, PM1)
    markers = MarkerSequence(m)
    f3 = density_sequence(a, markers, 3)
    assert f3.table == PM1.lift(m.bases).table


# --- bounded orbit sums -------------------------------------------------------------------


def test_gh_constant_one_diverges():
    report = gh_check(ZCocycle(M3, CylinderFunction.constant((2,), INTEGERS, 1)))
    assert not report.decision
    assert report.growth_slope == 1
    assert report.witness is not None
    # window of radius j sums to 2j + 1
    assert report.witness.value.payload == 2 * report.witness.radius + 1


def test_gh_alternating_is_tight():
    report = gh_check(ZCocycle(M3, PM1))
    assert report.decision
    assert report.empirical_sup == 1 == report.certificate.spread_bound


def test_gh_two_sided_sum_matches_literal_window():
    rng = random.Random(53)
    f = cylinder_function(rng, B3, RATIONALS)
    a = ZCocycle(M3, f)
    for i in range(8):
        for j in range(0, 20):
            # oracle: literal window walk
            x = index_to_prefix(i, B3)
            total = Fraction(0)
            y = x
            for _ in range(j):
                y = M3.step_inverse(y)
            for _ in range(2 * j + 1):
                total += f.eval(y).payload
                y = M3.step(y)
            assert two_sided_sum(a, i, j) == total


def test_gh_cross_oracle_agreement():
    rng = random.Random(59)
    for _ in range(200):
        f = small_integer_function(rng, B3)
        a = ZCocycle(M3, f)
        report = gh_check(a)
        assert report.decision == (coboundary_solve(a) is not None)
        if report.decision:
            assert report.empirical_sup <= report.certificate.spread_bound


def test_gh_witness_exceeds_requested_target():
    a = ZCocycle(M3, CylinderFunction(B3, INTEGERS, (1, 0, 0, 0, 0, 0, 0, 0)))
    report = gh_check(a, exceed_target=50)
    assert a.group.norm(report.witness.value.payload) > 50


@pytest.mark.parametrize(
    "horizon, message",
    [(h, f"horizon must be >= 0 and an integer, got {h!r}") for h in (True, 2.5, "3", Fraction(4))]
    + [(-1, "horizon must be >= 0, got -1")],
)
def test_gh_horizon_must_be_a_nonnegative_integer(horizon, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gh_check(ZCocycle(M3, PM1), horizon=horizon)


def test_gh_coboundary_sup_periodicity():
    # scanning two cycles or twenty gives the same sup for a coboundary
    a = ZCocycle(M3, PM1)
    assert gh_check(a, horizon=16).empirical_sup == gh_check(a, horizon=160).empirical_sup


# --- skew product orbits -------------------------------------------------------------------


def test_skew_orbit_examples():
    m2 = Odometer.binary(2)
    zero_h = CylinderFunction.constant((2, 2), INTEGERS, 0)
    orbit = skew_orbit(zero_h, ((0, 0), GroupValue(INTEGERS, 4)), 6, model=m2)
    assert all(v.payload == 4 for v in orbit.values)
    assert orbit.radius == 0

    pm = PM1.lift(B3)
    orbit = skew_orbit(pm, ((0, 0, 0), GroupValue(INTEGERS, 0)), 8, model=M3)
    assert [v.payload for v in orbit.values] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert orbit.radius == 1

    ones = CylinderFunction.constant(B3, INTEGERS, 1)
    orbit = skew_orbit(ones, ((0, 0, 0), GroupValue(INTEGERS, 0)), 8, model=M3)
    assert [v.payload for v in orbit.values] == list(range(1, 9))
    assert orbit.radius == 8


@pytest.mark.parametrize("steps", [2.5, "3", True])
def test_skew_orbit_steps_must_be_an_integer(steps):
    start = ((0, 0, 0), GroupValue(INTEGERS, 0))
    message = f"steps must be >= 0 and an integer, got {steps!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        skew_orbit(ZCocycle(M3, PM1), start, steps)
    with pytest.raises(ValueError, match="^steps must be >= 0$"):
        skew_orbit(ZCocycle(M3, PM1), start, -1)


def test_skew_radius_bounded_iff_coboundary():
    rng = random.Random(61)
    steps = 4 * 8
    for _ in range(40):
        f = small_integer_function(rng, B3)
        a = ZCocycle(M3, f)
        cert = coboundary_solve(a)
        orbit = skew_orbit(a, ((0, 0, 0), GroupValue(INTEGERS, 0)), steps)
        if cert is not None:
            assert orbit.radius <= cert.spread_bound
        else:
            # two full backward/forward cycles force escape past any
            # single-period spread
            assert orbit.radius >= abs(a.cycle_sum.payload)


# --- convergence of iterated cocycles ---------------------------------------------------------


def test_convergence_table_examples():
    fair = BernoulliMeasure.uniform(B3)
    f = CylinderFunction.constant(B3, RATIONALS, Fraction(1, 7))
    same = cocycle_metric_convergence(M3, [f, f, f], f, 3, [fair])
    assert all(row["tau3_0"] == 0 for row in same)

    gens = [
        f + CylinderFunction.constant(B3, RATIONALS, Fraction(1, 2**i))
        for i in range(1, 5)
    ]
    rows = cocycle_metric_convergence(M3, gens, f, 2, [fair])
    # constant difference 2/2^i accumulated over j=2 steps, clipped at 1
    for i, row in enumerate(rows, start=1):
        assert row["tau3_0"] == min(Fraction(2, 2**i), Fraction(1))

    zero_j = cocycle_metric_convergence(M3, gens, f, 0, [fair])
    assert all(row["tau3_0"] == 0 for row in zero_j)


def test_convergence_contract_with_translated_measures():
    """If the generators converge against a measure and its first j
    translates, the iterated cocycles converge against that measure."""
    rng = random.Random(67)
    mu = BernoulliMeasure.uniform(B3)
    j = 3
    # pushforward of mu under T^k as an explicit mixture of point masses
    translated = []
    for k in range(j):
        points = []
        weights = []
        for i, x in enumerate(iter_prefixes(B3)):
            points.append(DiracMeasure(B3, index_to_prefix((i + k) % 8, B3)))
            weights.append(mu.mass(x))
        translated.append(MixtureMeasure(tuple(points), tuple(weights)))

    f = cylinder_function(rng, B3, RATIONALS)
    gens = []
    for i in range(1, 6):
        bump = CylinderFunction.constant(B3, RATIONALS, Fraction(1, 4**i))
        gens.append(f + bump)
    # hypothesis: tau3(f_i, f, mu o T^k) -> 0 for k < j
    for k in range(j):
        dists = [tau3_functional(fi, f, translated[k]) for fi in gens]
        assert all(b <= a for a, b in zip(dists, dists[1:]))
    rows = cocycle_metric_convergence(M3, gens, f, j, [mu])
    values = [row["tau3_0"] for row in rows]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] <= Fraction(3, 4**5)


@given(
    tag=st.sampled_from(("int", "rat", "dy", "mod:5", "vec:2", "real")),
    depth=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    scale=st.sampled_from((1, 1e-9, 3.7e12, 1e300)),
)
def test_partial_sums_are_the_group_add_accumulation(tag, depth, seed, scale):
    # operator.add on the scalar groups gives group.add's values, float bytes included
    group, rng = group_from_tag(tag), random.Random(seed)
    f = cylinder_function(rng, (2,) * depth, group)
    if tag == "real":
        f = CylinderFunction(f.bases, group, [v * scale for v in f.table])
    table = f.table
    expected = tuple(accumulate(table[:-1], group.add, initial=group.zero()))
    assert repr(ZCocycle(Odometer(f.bases), f)._partial) == repr(expected)


@given(
    tag=st.sampled_from(("int", "rat", "dy", "mod:5", "vec:2", "real")),
    depth=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    scale=st.sampled_from((1, 1e-9, 3.7e12, 1e300)),
)
def test_running_sums_are_the_literal_accumulation_in_kernel_form(tag, depth, seed, scale):
    # one pass in kernel form reads back as the group.add accumulation, cycle sum included
    group, rng = group_from_tag(tag), random.Random(seed)
    f = cylinder_function(rng, (2,) * depth, group)
    if tag == "real":
        f = CylinderFunction(f.bases, group, [v * scale for v in f.table])
    literal = tuple(accumulate(f.table, group.add, initial=group.zero()))  # C, then S
    a = ZCocycle(Odometer(f.bases), f)
    sums, cycle, scale_l = a._sums
    read = group.payloads_over([c + [s] for c, s in zip(sums, cycle)], scale_l)
    assert repr(read) == repr(literal)
    assert repr(a.cycle_sum_payload) == repr(literal[-1])
    projected = group.projections(sums)
    if projected is None:
        assert tag == "mod:5"
        return
    columns, den = group.numerators(literal[:-1])
    expected = [[Fraction(x) / den for x in col] for col in group.projections(columns)]
    assert [[Fraction(x) / scale_l for x in col] for col in projected] == expected


@pytest.mark.parametrize("tag", ["int", "real"])
def test_each_channel_reads_the_running_sums_column_itself(tag):
    group = group_from_tag(tag)
    f = cylinder_function(random.Random(3), (2,) * 5, group)
    a = ZCocycle(Odometer(f.bases), f)
    sums, _, _ = a._sums
    channels = a._channels()
    assert len(channels) == len(sums) == 1
    assert all(channel.period is column for channel, column in zip(channels, sums))
