"""The sampling draw loop against the literal per-entry draws.

Every table must equal, in value and in repr, the one the literal
``payload``/``randint`` calls give, and leave the generator in the same
state (``sampling_oracle`` has the cases; it also runs as a plain script
on interpreters without pytest).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocycle_lab import sampling
from cocycle_lab.space import (
    _law_sums,
    _metric_law,
    exceedance_mass,
    tau3_functional,
    tau4_functional,
)
from cocycle_lab.values import DYADICS, INTEGERS, RATIONALS, group_from_tag
from sampling_oracle import (
    DEPTHS,
    SPANS,
    TAGS,
    bernoulli_case,
    coboundary_case,
    cylinder_case,
    family_case,
    main,
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


@pytest.mark.parametrize("count", ["0", "-2", "x", "1.5", ""])
def test_the_oracle_script_refuses_a_seed_count_below_one(count, capsys):
    assert main(["sampling_oracle.py", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SEEDS must be an integer >= 1, got {count!r}\n"


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


@given(
    seed=seeds,
    tag=st.sampled_from(("int", "rat", "dy", "mod:2", "mod:5", "mod:7")),
    bases=st.lists(st.integers(2, 5), min_size=1, max_size=6),  # odd and mixed radices
)
def test_perturbation_law_is_the_law_of_the_literal_pair(seed, tag, bases):
    """The topology suite's key path against ``perturbed_pair`` and
    ``bernoulli_measure`` read through the public functionals: the same
    tau3, tau4 and exceedance masses, and the same generator state."""
    group, keyed, literal = group_from_tag(tag), random.Random(seed), random.Random(seed)
    law, den = sampling._perturbation_law(keyed, bases, group)
    f, g = sampling.perturbed_pair(literal, bases, group)
    mu = sampling.bernoulli_measure(literal, bases)
    assert keyed.getstate() == literal.getstate()
    oracle, oracle_den = _metric_law(f, g, mu)
    assert {k: Fraction(m, den) for k, m in law.items()} == {
        k: Fraction(m, oracle_den) for k, m in oracle.items()
    }
    for eps in (Fraction(k, 8) for k in range(0, 25, 3)):
        assert _law_sums(law, den, eps) == (
            tau3_functional(f, g, mu),
            tau4_functional(f, g, mu),
            exceedance_mass(f, g, eps, mu),
        )


@pytest.mark.parametrize("tag", ["real", "vec:2"])
def test_perturbation_law_leaves_the_literal_groups_undrawn(tag):
    rng = random.Random(4)
    state = rng.getstate()
    assert sampling._perturbation_law(rng, (2, 3), group_from_tag(tag)) is None
    assert rng.getstate() == state


@pytest.mark.parametrize("tag", ["int", "rat", "dy", "mod:5"])
@pytest.mark.parametrize("span", [0, -1, -4, True])
def test_spans_the_loop_does_not_key_run_the_literal_payload(tag, span):
    # rat at span 0 draws its numerator and then raises on the denominator
    for depth in (1, 3):
        assert agree(cylinder_case(depth, tag, span, depth))


def _literal_keys(rng, widths, n):
    keys = []
    for _ in range(n):
        key = 0
        for w in widths:
            key = key * w + rng._randbelow(w)
        keys.append(key)
    return keys


# widths of 1 (which still draw), powers of two (rejected half the time)
# and the rat span-8 widths
KEY_WIDTHS = [(1,), (1, 5), (5, 1), (8,), (2, 16), (17, 8)]


@pytest.mark.parametrize("widths", KEY_WIDTHS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4096])
def test_keys_match_literal_randbelow(widths, n):
    keys = outcome(lambda rng: sampling._keys(rng, widths, n), n)
    assert keys == outcome(lambda rng: _literal_keys(rng, widths, n), n)
    assert len(keys[0]) == n


@given(seed=seeds, widths=st.sampled_from(KEY_WIDTHS), n=st.integers(2, 4096))
def test_keys_match_literal_randbelow_at_any_size(seed, widths, n):
    assert outcome(lambda rng: sampling._keys(rng, widths, n), seed) == outcome(
        lambda rng: _literal_keys(rng, widths, n), seed
    )


def test_value_tables_stay_bounded():
    sampling._value_table.cache_clear()
    rng = random.Random(3)
    for _ in range(20):
        for group in (INTEGERS, RATIONALS, DYADICS):
            sampling.perturbed_pair(rng, (2,) * 8, group)
            sampling._perturbation_law(rng, (2,) * 8, group)
    assert sampling._value_table.cache_info().currsize == 6  # one per group and span
    for group, f_keys, h_keys in ((INTEGERS, 9, 3), (RATIONALS, 17 * 8, 5 * 2), (DYADICS, 17 * 4, 5 * 4)):
        assert len(sampling._value_table(group, 8)[1]) == f_keys
        assert len(sampling._value_table(group, 2)[1]) == h_keys


def test_outcome_sees_a_changed_stream():
    # the comparison includes the state: a draw after an equal table shows
    plain = outcome(lambda rng: sampling.cylinder_function(rng, (2, 2), INTEGERS), 5)
    extra = outcome(
        lambda rng: (sampling.cylinder_function(rng, (2, 2), INTEGERS), rng.getrandbits(1))[0], 5
    )
    assert plain[:2] == extra[:2] and plain[2] != extra[2]
