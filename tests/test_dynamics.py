"""Odometer, digit flips, full group, towers, and periodic approximations."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cocycle_lab.dynamics import (
    FullGroupElement,
    MarkerSequence,
    NotBijectiveError,
    Odometer,
    delta_apply,
    delta_element,
    delta_permutation,
    periodic_approx,
    stabilization_index,
    towers_from_marker,
)
from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    aut_distance,
    index_to_prefix,
    iter_prefixes,
    prefix_to_index,
)
from cocycle_lab.values import INTEGERS

B3 = (2, 2, 2)
M3 = Odometer.binary(3)


def step_oracle(x, bases):
    """Literal carry rule, written independently of the index arithmetic."""
    out = list(x)
    for i, b in enumerate(bases):
        if out[i] != b - 1:
            out[i] += 1
            return tuple(out)
        out[i] = 0
    return tuple(out)


# --- odometer ----------------------------------------------------------------


def test_step_examples():
    assert M3.step((0, 0, 0)) == (1, 0, 0)
    assert M3.step((1, 1, 1)) == (0, 0, 0)
    assert M3.step((1, 0, 1)) == (0, 1, 1)


@pytest.mark.parametrize("bases", [(2, 2, 2), (2, 3, 2), (3, 3), (5,)])
def test_step_matches_carry_oracle_and_index_increment(bases):
    m = Odometer(bases)
    for i, x in enumerate(iter_prefixes(bases)):
        stepped = m.step(x)
        assert stepped == step_oracle(x, bases)
        assert prefix_to_index(stepped, bases) == (i + 1) % m.size


@pytest.mark.parametrize("bases", [(2, 2, 2), (2, 3, 2)])
def test_quotient_is_a_single_cycle(bases):
    m = Odometer(bases)
    x = (0,) * len(bases)
    orbit = m.orbit(x)
    assert len(set(orbit)) == m.size
    assert m.step(orbit[-1]) == x


def test_step_inverse():
    for x in iter_prefixes(B3):
        assert M3.step_inverse(M3.step(x)) == x


def test_short_prefixes_are_rejected_not_zero_padded():
    # a depth-1 prefix on a depth-3 model is not a point of the quotient
    element = FullGroupElement.identity(M3)
    for call in (M3.step, M3.step_inverse, M3.orbit, element.apply):
        with pytest.raises(DepthError):
            call((1,))
    with pytest.raises(DepthError):
        stabilization_index(M3, (1, 1))


def test_quotient_consistency_under_refinement():
    # the first k output digits depend only on the first k input digits:
    # stepping at depth 4 and projecting agrees with stepping at depth 3,
    # except on the depth-3 all-max cylinder where the carry leaves depth 3
    m4 = Odometer.binary(4)
    for x in iter_prefixes((2, 2, 2, 2)):
        projected = m4.step(x)[:3]
        if x[:3] != (1, 1, 1):
            assert projected == M3.step(x[:3])


# --- digit flips --------------------------------------------------------------


def test_delta_examples():
    assert delta_apply(1, (0, 0, 0)) == (1, 0, 0)
    for x in iter_prefixes(B3):
        for n in (1, 2, 3):
            assert delta_apply(n, delta_apply(n, x)) == x
    assert delta_apply(2, delta_apply(1, (0, 0, 0))) == (1, 1, 0)
    assert delta_apply(1, delta_apply(2, (0, 0, 0))) == (1, 1, 0)


def test_delta_commutation_exhaustive():
    for n, k in itertools.combinations((1, 2, 3), 2):
        for x in iter_prefixes(B3):
            assert delta_apply(n, delta_apply(k, x)) == delta_apply(k, delta_apply(n, x))


def test_delta_flips_only_its_digit():
    for x in iter_prefixes(B3):
        for n in (1, 2, 3):
            y = delta_apply(n, x)
            assert y[n - 1] == 1 - x[n - 1]
            assert all(y[i] == x[i] for i in range(3) if i != n - 1)


def test_delta_rejects_bad_index_and_base():
    with pytest.raises(IndexError):
        delta_apply(4, (0, 0, 0))
    with pytest.raises(ValueError):
        delta_apply(2, (0, 1), bases=(2, 3))


def test_delta_permutation_matches_prefix_action():
    for n in (1, 2, 3):
        perm = delta_permutation(M3, n)
        for i, x in enumerate(iter_prefixes(B3)):
            assert index_to_prefix(perm[i], B3) == delta_apply(n, x)


def test_delta_as_full_group_element():
    d2 = delta_element(M3, 2)
    for x in iter_prefixes(B3):
        assert d2.apply(x) == delta_apply(2, x)
    assert d2.compose(d2).is_identity()


# --- full group algebra --------------------------------------------------------


def test_full_group_requires_bijection():
    # jump 0 on evens, -1 on odds collapses pairs
    table = tuple(0 if i % 2 == 0 else -1 for i in range(8))
    with pytest.raises(NotBijectiveError):
        FullGroupElement(M3, CylinderFunction(B3, INTEGERS, table))


def test_compose_invert_examples():
    t = M3.as_full_group_element()
    assert t.compose(t.inverse()).is_identity()
    p1 = periodic_approx(M3, MarkerSequence(M3).marker_indices(1))
    assert p1.compose(p1).compose(p1.inverse()).same_mapping(p1)
    two = t.compose(t)
    assert two.jump.table == (2,) * 8


def test_jump_composition_rule():
    rng = random.Random(5)
    # random full-group elements from random permutations
    idx = list(range(8))
    for _ in range(10):
        rng.shuffle(idx)
        jr = tuple(idx[i] - i for i in range(8))
        r = FullGroupElement(M3, CylinderFunction(B3, INTEGERS, jr))
        rng.shuffle(idx)
        js = tuple(idx[i] - i for i in range(8))
        s = FullGroupElement(M3, CylinderFunction(B3, INTEGERS, js))
        comp = r.compose(s)
        for i in range(8):
            assert comp.apply_index(i) == r.apply_index(s.apply_index(i))
            # j_{R.S}(x) = j_R(Sx) + j_S(x)
            assert comp.jump_at(i) == r.jump_at(s.apply_index(i)) + s.jump_at(i)
        inv = r.inverse()
        for i in range(8):
            assert inv.apply_index(r.apply_index(i)) == i


def test_full_group_json_roundtrip():
    p1 = periodic_approx(M3, MarkerSequence(M3).marker_indices(1))
    again = FullGroupElement.from_json(p1.to_json())
    assert again.same_mapping(p1)


def test_tower_decomposition_serializes():
    decomposition = towers_from_marker(M3, MarkerSequence(M3).marker_indices(2))
    obj = decomposition.to_json()
    assert obj["model"] == {"bases": [2, 2, 2]}
    assert obj["towers"] == [{"height": 4, "base": [[0, 0, 0], [0, 0, 1]]}]
    assert obj["marker"] == [[0, 0, 0], [0, 0, 1]]


# --- towers --------------------------------------------------------------------


def return_time_oracle(model, marker_set, start):
    t = 1
    x = model.step(start)
    while x not in marker_set:
        t += 1
        x = model.step(x)
    return t


def test_tower_tops_are_the_marker_tops():
    model = Odometer.binary(5)
    markers = MarkerSequence(model)
    for n in range(1, 5):
        decomposition = towers_from_marker(model, markers.marker_indices(n))
        assert decomposition.top_indices() == markers.top_indices(n)


def test_towers_whole_space():
    decomposition = towers_from_marker(M3, list(iter_prefixes(B3)))
    assert [t.height for t in decomposition.towers] == [1]
    assert len(decomposition.towers[0].base_indices) == 8


def test_towers_from_A1_and_A2():
    markers = MarkerSequence(M3)
    d1 = towers_from_marker(M3, markers.marker_indices(1))
    assert [t.height for t in d1.towers] == [2]
    assert len(d1.towers[0].base_indices) == 4
    d2 = towers_from_marker(M3, markers.marker_indices(2))
    assert [t.height for t in d2.towers] == [4]
    assert len(d2.towers[0].base_indices) == 2


def test_tower_heights_match_return_times():
    rng = random.Random(11)
    for _ in range(10):
        marker = [x for x in iter_prefixes(B3) if rng.random() < 0.5]
        if not marker:
            continue
        decomposition = towers_from_marker(M3, marker)
        marker_set = set(marker)
        for tower in decomposition.towers:
            for b in tower.base_indices:
                start = index_to_prefix(b, B3)
                assert start in marker_set
                assert return_time_oracle(M3, marker_set, start) == tower.height
        assert decomposition.verify_partition()


def test_towers_reject_empty_marker():
    with pytest.raises(ValueError):
        towers_from_marker(M3, [])


def test_marker_sequence_sets():
    markers = MarkerSequence(M3)
    assert markers.marker_prefixes(1) == [x for x in iter_prefixes(B3) if x[0] == 0]
    assert markers.marker_prefixes(2) == [
        x for x in iter_prefixes(B3) if x[0] == x[1] == 0
    ]
    assert markers.top_prefixes(2) == [
        x for x in iter_prefixes(B3) if x[0] == x[1] == 1
    ]
    # nesting A_1 >= A_2 and D_1 >= D_2
    assert set(markers.marker_indices(2)) <= set(markers.marker_indices(1))
    assert set(markers.top_indices(2)) <= set(markers.top_indices(1))


# --- periodic approximations ----------------------------------------------------


def test_periodic_approx_depth2_table():
    m2 = Odometer.binary(2)
    p1 = periodic_approx(m2, MarkerSequence(m2).marker_indices(1))
    assert p1.apply((0, 0)) == (1, 0)
    assert p1.apply((1, 0)) == (0, 0)
    assert p1.apply((0, 1)) == (1, 1)
    assert p1.apply((1, 1)) == (0, 1)


@pytest.mark.parametrize("depth,n", [(3, 1), (3, 2), (4, 3), (5, 2)])
def test_periodic_approx_period_and_agreement(depth, n):
    m = Odometer.binary(depth)
    markers = MarkerSequence(m)
    p = periodic_approx(m, markers.marker_indices(n))
    period = 2**n
    # P^(2^n) is the identity everywhere
    current = p
    for _ in range(period - 1):
        current = current.compose(p)
    assert current.is_identity()
    tops = set(markers.top_indices(n))
    for i in range(m.size):
        if i in tops:
            assert p.apply_index(i) != m.step_index(i)
        else:
            assert p.apply_index(i) == m.step_index(i)


def test_disagreement_set_is_exactly_the_top_set():
    m = Odometer.binary(5)
    markers = MarkerSequence(m)
    rng = random.Random(3)
    from cocycle_lab.sampling import bernoulli_measure

    for n in range(1, 5):
        p = periodic_approx(m, markers.marker_indices(n))
        disagree = tuple(
            i for i in range(m.size) if p.apply_index(i) != m.step_index(i)
        )
        assert disagree == markers.top_indices(n)
        mu = bernoulli_measure(rng, m.bases)
        top_mass = sum(
            (mu.mass(index_to_prefix(i, m.bases)) for i in disagree), Fraction(0)
        )
        assert aut_distance(p, m, mu) == top_mass
    fair = BernoulliMeasure.uniform(m.bases)
    for n in range(1, 5):
        p = periodic_approx(m, markers.marker_indices(n))
        assert aut_distance(p, m, fair) == Fraction(1, 2**n)
        # an automorphism with model.bases but no bases of its own
        bare = SimpleNamespace(permutation=p.permutation, model=m)
        assert aut_distance(bare, m, fair) == Fraction(1, 2**n)


def test_periodic_approx_general_marker_periods():
    # with an arbitrary marker the period on each tower is its height
    marker = [(0, 0, 0), (1, 0, 0), (0, 1, 1)]
    decomposition = towers_from_marker(M3, marker)
    p = periodic_approx(M3, decomposition)
    for tower in decomposition.towers:
        for b in tower.base_indices:
            j = b
            for _ in range(tower.height):
                j = p.apply_index(j)
            assert j == b


# --- stabilization index ----------------------------------------------------------


def test_stabilization_examples():
    assert stabilization_index(M3, (0, 1, 1)) == 1
    assert stabilization_index(M3, (1, 1, 0)) == 3
    for x in iter_prefixes(B3):
        if x[0] == 0:
            assert stabilization_index(M3, x) == 1
    assert stabilization_index(M3, (1, 1, 1)) == 3  # clipped at depth


def test_stabilization_matches_periodic_scan():
    m = Odometer.binary(5)
    markers = MarkerSequence(m)
    approxes = {n: periodic_approx(m, markers.marker_indices(n)) for n in range(1, 5)}
    for i, x in enumerate(iter_prefixes(m.bases)):
        # oracle: the least n with P_i x = T x for every available i >= n
        candidates = [
            n
            for n in range(1, 6)
            if all(approxes[j].apply_index(i) == m.step_index(i) for j in range(n, 5))
        ]
        assert stabilization_index(m, x) == min(candidates)
