"""The sampling draw loop against the literal per-entry draws.

Every table must equal, in value and in repr, the one the literal
``payload``/``randint`` calls give, and leave the generator in the same
state (``sampling_oracle`` has the cases; it also runs as a plain script
on interpreters without pytest).
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocycle_lab import sampling
from cocycle_lab.values import DYADICS, INTEGERS, RATIONALS
from sampling_oracle import (
    DEPTHS,
    SPANS,
    TAGS,
    bernoulli_case,
    coboundary_case,
    cylinder_case,
    family_case,
    outcome,
    pair_case,
    small_integer_case,
)

seeds = st.integers(0, 2**64)
tags = st.sampled_from(TAGS)
spans = st.sampled_from(SPANS)
depths = st.integers(DEPTHS.start, DEPTHS.stop - 1)


def agree(outcomes):
    return all(o == outcomes[0] for o in outcomes[1:])


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("span", SPANS)
def test_cylinder_function_every_tag_span_and_depth(tag, span):
    for depth in DEPTHS:
        assert agree(cylinder_case(depth, tag, span, depth)), depth


@given(seed=seeds, tag=tags, span=spans, depth=depths)
def test_cylinder_function_matches_payload(seed, tag, span, depth):
    assert agree(cylinder_case(seed, tag, span, depth))


@given(seed=seeds, lo=st.integers(-4, 4), width=st.integers(-3, 6), depth=depths)
def test_small_integer_function_matches_randint(seed, lo, width, depth):
    # width 1 is lo == hi (each entry still draws); width <= 0 is lo > hi
    assert agree(small_integer_case(seed, lo, lo + width - 1, depth))


def test_small_integer_function_refuses_lo_above_hi_before_drawing():
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError) as new:
        sampling.small_integer_function(rng, (2, 2), 1, 0)
    assert rng.getstate() == state
    with pytest.raises(ValueError) as literal:
        random.Random(7).randint(1, 0)
    assert str(new.value) == str(literal.value)


@given(seed=seeds, tag=tags, span=spans, depth=depths, data=st.data())
def test_invariant_family_matches_payload(seed, tag, span, depth, data):
    count = data.draw(st.integers(0, depth))
    assert agree(family_case(seed, tag, span, depth, count))


@given(seed=seeds, tag=tags, span=spans, depth=depths)
def test_coboundary_generator_matches_payload(seed, tag, span, depth):
    assert agree(coboundary_case(seed, tag, span, depth))


@given(seed=seeds, tag=tags, depth=depths)
def test_perturbed_pair_is_f_plus_a_span_two_cylinder(seed, tag, depth):
    assert agree(pair_case(seed, tag, depth))


@given(seed=seeds, depth=depths)
def test_bernoulli_measure_matches_randint(seed, depth):
    assert agree(bernoulli_case(seed, depth))


@pytest.mark.parametrize("tag", ["int", "rat", "dy", "mod:5"])
@pytest.mark.parametrize("span", [0, -1, -4, True])
def test_spans_the_loop_does_not_key_run_the_literal_payload(tag, span):
    # rat at span 0 draws its numerator and then raises on the denominator
    for depth in (1, 3):
        assert agree(cylinder_case(depth, tag, span, depth))


def test_value_and_sum_tables_stay_bounded():
    rng = random.Random(3)
    for _ in range(20):
        for group in (INTEGERS, RATIONALS, DYADICS):
            sampling.perturbed_pair(rng, (2,) * 8, group)
    assert sampling._sum_table.cache_info().currsize <= 3
    for group, f_keys in ((INTEGERS, 9), (RATIONALS, 17 * 8), (DYADICS, 17 * 4)):
        h_keys = len(sampling._value_table(group, 2)[1])
        assert len(sampling._value_table(group, 8)[1]) == f_keys
        width, sums = sampling._sum_table(group, 8, 2)
        assert width == h_keys and len(sums) == f_keys * h_keys


def test_outcome_sees_a_changed_stream():
    # the comparison includes the state: a draw after an equal table shows
    plain = outcome(lambda rng: sampling.cylinder_function(rng, (2, 2), INTEGERS), 5)
    extra = outcome(
        lambda rng: (sampling.cylinder_function(rng, (2, 2), INTEGERS), rng.getrandbits(1))[0], 5
    )
    assert plain[:2] == extra[:2] and plain[2] != extra[2]
