"""Generator families, the flip-group cocycle formula, and dyadic approximation."""

import contextlib
import io
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cocycle_lab import involution_cocycles, values
from cocycle_lab.cli import main
from cocycle_lab.dynamics import Odometer, delta_permutation
from cocycle_lab.involution_cocycles import (
    ConjugationError,
    GeneratorFamily,
    TransferReport,
    _chain,
    _coboundary_mismatch,
    _kernel_form,
    _potential_walk,
    InvarianceError,
    InvolutionCocycle,
    OracleInconsistencyError,
    h_approximate,
    psi,
    recover_generators,
    transport,
    transport_certificate,
    verify_identities,
    word_apply,
    word_reduce,
)
from cocycle_lab.sampling import coboundary_generator, invariant_family, payload
from cocycle_lab.space import (
    CylinderFunction,
    binary_bases,
    index_to_prefix,
    iter_prefixes,
    prefix_to_index,
)
from cocycle_lab.suites import ExperimentConfig, _dyadic_family, _round_trip, render_json
from cocycle_lab.values import (
    APPROX_REALS,
    DYADICS,
    INTEGERS,
    RATIONALS,
    REPORTING_TOLERANCE,
    GroupValue,
    NeighborhoodChain,
    group_from_tag,
    integers_mod,
    is_dyadic,
    round_to_dyadic,
)
from cocycle_lab.zcocycles import ZCocycle, coboundary_solve

B3 = (2, 2, 2)


def family_n2_depth3():
    """The worked family: f_1 = a on x_2=0 / b on x_2=1, f_2 = q."""
    a, b, q = Fraction(2), Fraction(5), Fraction(7, 3)
    f1 = CylinderFunction(
        B3, RATIONALS, tuple(a if ((i >> 1) & 1) == 0 else b for i in range(8))
    )
    f2 = CylinderFunction.constant(B3, RATIONALS, q)
    return GeneratorFamily.from_cylinder_functions(B3, [f1, f2]), (a, b, q)


# --- family construction -------------------------------------------------------


def test_structural_invariance_storage():
    fam, _ = family_n2_depth3()
    assert len(fam.tables[0]) == 4  # f_1 indexed by digits 2..3
    assert len(fam.tables[1]) == 2  # f_2 indexed by digit 3
    g1 = fam.generator_function(1)
    for x in iter_prefixes(B3):
        assert g1.eval(x) == g1.eval(word_apply({1}, x))


def test_invariance_violation_is_rejected():
    f1 = CylinderFunction(B3, RATIONALS, tuple(Fraction(i % 2) for i in range(8)))
    with pytest.raises(InvarianceError):
        GeneratorFamily.from_cylinder_functions(B3, [f1])


def test_family_depth_must_cover_generators():
    with pytest.raises(Exception):
        GeneratorFamily((2,), RATIONALS, ((Fraction(1),), (Fraction(1),)))


def test_family_needs_at_least_one_generator():
    for build in (
        lambda: GeneratorFamily(B3, RATIONALS, ()),
        lambda: GeneratorFamily.from_cylinder_functions(B3, []),
        lambda: GeneratorFamily.from_json({"N": 0, "depth": 3, "group": "rat", "tables": []}),
    ):
        with pytest.raises(ValueError, match="^family needs at least one generator$"):
            build()


def test_family_json_roundtrip():
    fam, _ = family_n2_depth3()
    again = GeneratorFamily.from_json(fam.to_json())
    assert again.tables == fam.tables and again.bases == fam.bases


# --- generator evaluation --------------------------------------------------------


def test_eval_generator_n1_formula():
    rng = random.Random(3)
    fam = invariant_family(rng, 4, 3, RATIONALS)
    c = InvolutionCocycle(fam)
    f1 = fam.generator_function(1)
    for x in iter_prefixes(fam.bases):
        expected = f1.eval(x).payload
        if x[0] == 1:
            expected = -expected
        assert c.eval_generator(1, x).payload == expected


def test_eval_generator_zero_family():
    fam = GeneratorFamily(B3, RATIONALS, ((Fraction(0),) * 4, (Fraction(0),) * 2))
    c = InvolutionCocycle(fam)
    for n in (1, 2):
        for x in iter_prefixes(B3):
            assert c.eval_generator(n, x).payload == 0


def test_eval_generator_worked_example():
    fam, (a, b, q) = family_n2_depth3()
    c = InvolutionCocycle(fam)
    # hand-substitution: x_1 f_1(d2 x) + (+1) q - x_1 f_1(x) at x = 100
    assert c.eval_generator(2, (1, 0, 0)).payload == b + q - a


def test_eval_generator_range_check():
    fam, _ = family_n2_depth3()
    c = InvolutionCocycle(fam)
    with pytest.raises(IndexError):
        c.eval_generator(3, (0, 0, 0))


def test_prefix_index_range_check():
    fam, _ = family_n2_depth3()
    c = InvolutionCocycle(fam)
    for i in (-1, 1 << fam.depth):
        with pytest.raises(IndexError, match=r"prefix index -?\d+ out of range 0\.\.7"):
            fam.generator_payload(1, i)
        for word in ([1], []):
            with pytest.raises(IndexError, match=r"out of range 0\.\.7"):
                c.eval_word_index(word, i)
    assert fam.generator_payload(1, 7) == fam.tables[0][3]
    assert c.eval_word_index([1], 7) == c.eval_generator(1, (1, 1, 1)).payload


# --- the potential walk against the literal formula --------------------------------

EXACT_TAGS = ("int", "rat", "dy", "mod:5", "mod:2305843009213693951", "vec:1", "vec:2", "vec:3")


def literal_generator_tables(family):
    """c(delta_n, x) = (-1)^{x_n} f_n(x) + sum_{k<n} x_k (f_k(delta_n x) - f_k(x)),
    term by term at every generator and prefix: O(N^2 2^depth)."""
    group = family.group
    f = family.tables
    size = 1 << family.depth
    tables = []
    for n in range(1, family.count + 1):
        flip = 1 << (n - 1)
        table = []
        for i in range(size):
            i_flipped = i ^ flip
            acc = f[n - 1][i >> n]
            if i & flip:
                acc = group.neg(acc)
            for k in range(1, n):
                if (i >> (k - 1)) & 1:
                    acc = group.add(acc, f[k - 1][i_flipped >> k])
                    acc = group.sub(acc, f[k - 1][i >> k])
            table.append(acc)
        tables.append(tuple(table))
    return tuple(tables)


def walk(fam):
    """The potential walk on the family's payloads, with its group's operations:
    the payload-form oracle of the package's kernel-form walk."""
    return fraction_potential_walk(fam)


def _assert_walk_is_literal(fam):
    walked, literal = InvolutionCocycle(fam)._generator_tables, literal_generator_tables(fam)
    assert walked == literal
    assert repr(walked) == repr(literal)  # same payload types, not just equal values


def test_walk_matches_the_literal_formula_exhaustive():
    # every depth <= 4 and every generator count N <= depth, on each exact group
    for tag in EXACT_TAGS:
        group = group_from_tag(tag)
        for depth in range(1, 5):
            for count in range(1, depth + 1):
                for seed in range(3):
                    fam = invariant_family(random.Random(seed), depth, count, group)
                    _assert_walk_is_literal(fam)


@settings(max_examples=30, deadline=None)  # the literal formula is quadratic in N
@given(
    tag=st.sampled_from(EXACT_TAGS),
    depth=st.integers(1, 10),
    count=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
@example(tag="rat", depth=10, count=10, seed=0)
@example(tag="vec:2", depth=10, count=7, seed=1)
def test_walk_matches_the_literal_formula(tag, depth, count, seed):
    group = group_from_tag(tag)
    _assert_walk_is_literal(invariant_family(random.Random(seed), depth, min(count, depth), group))


def test_potential_is_minus_psi_and_its_coboundary_is_the_cocycle():
    for tag in EXACT_TAGS:
        group = group_from_tag(tag)
        for depth, count in ((1, 1), (3, 2), (4, 4), (5, 3), (6, 6)):
            fam = invariant_family(random.Random(depth), depth, count, group)
            tables, potential = walk(fam)
            for i, x in enumerate(iter_prefixes(fam.bases)):
                assert potential[i] == group.neg(psi(count, fam, x).payload)
                for n, table in enumerate(tables, start=1):
                    assert table[i] == group.sub(potential[i ^ (1 << (n - 1))], potential[i])


def test_walk_on_the_reals_is_the_literal_formula_up_to_rounding():
    mismatched = 0
    for depth in range(1, 8):
        for count in range(1, depth + 1):
            fam = invariant_family(random.Random(depth * 10 + count), depth, count, APPROX_REALS)
            walked, literal = walk(fam)[0], literal_generator_tables(fam)
            for n in range(1, count + 1):
                for i in range(1 << depth):
                    w, v = walked[n - 1][i], literal[n - 1][i]
                    assert abs(w - v) <= REPORTING_TOLERANCE
                    mismatched += w != v
                    if i & ((1 << n) - 1) == 0:  # x_1 = ... = x_n = 0: exactly f_n
                        assert w == v == fam.generator_payload(n, i)
    assert mismatched  # float sums in a different order do round differently


# --- word evaluation ---------------------------------------------------------------


def test_eval_word_singleton_and_empty():
    fam, _ = family_n2_depth3()
    c = InvolutionCocycle(fam)
    for x in iter_prefixes(B3):
        assert c.eval_word([2], x) == c.eval_generator(2, x)
        assert c.eval_word([], x).payload == 0
        assert c.eval_word(frozenset(), x).payload == 0


def test_eval_word_unreduced_square_vanishes():
    fam, _ = family_n2_depth3()
    c = InvolutionCocycle(fam)
    for n in (1, 2):
        for x in iter_prefixes(B3):
            assert c.eval_word([n, n], x).payload == 0


def test_eval_word_order_independence_exhaustive():
    rng = random.Random(11)
    fam = invariant_family(rng, 3, 3, RATIONALS)
    c = InvolutionCocycle(fam)
    for word in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        for x in iter_prefixes(B3):
            reference = c.eval_word(list(word), x)
            for perm in itertools.permutations(word):
                assert c.eval_word(list(perm), x) == reference
            assert c.eval_word(frozenset(word), x) == reference


def test_word_reduce():
    assert word_reduce([1, 2, 1]) == frozenset({2})
    assert word_reduce([3, 3]) == frozenset()
    assert word_apply([1, 2, 1], (0, 0, 0)) == (0, 1, 0)


# --- identity verification -----------------------------------------------------------


def test_identities_zero_and_random_families():
    zero = GeneratorFamily(B3, RATIONALS, ((Fraction(0),) * 4, (Fraction(0),) * 2))
    assert verify_identities(InvolutionCocycle(zero)).ok
    rng = random.Random(17)
    for depth in (3, 4, 5, 6):
        fam = invariant_family(rng, depth, min(depth, 4), RATIONALS)
        assert verify_identities(InvolutionCocycle(fam)).ok


def test_identities_fail_for_broken_invariance():
    """An oracle built from the generator formula with f_1 depending on
    x_1 violates the defining identities, with a located witness."""
    values = {0: Fraction(1), 1: Fraction(2)}  # f_1 reads its own digit

    def oracle(n, x):
        # the n=1 specialization of the generator formula
        sign = -1 if x[0] == 1 else 1
        return GroupValue(RATIONALS, sign * values[x[0]])

    check = verify_identities(oracle, count=1, bases=(2, 2))
    assert not check.ok
    assert check.witness["identity"] == "square"


def chain_identities(tables, group, bases):
    """The literal check: the words (n, n), (n, k) and (k, n) walked through
    the identity chain at every prefix, in (prefix, n, k) order."""
    zero = group.zero()
    for i in range(1 << len(bases)):
        x = index_to_prefix(i, bases)
        for n in range(1, len(tables) + 1):
            v = _chain(tables, group, (n, n), i)
            if not group.values_equal(v, zero):
                return False, {"identity": "square", "n": n, "x": x,
                               "value": GroupValue(group, v)}
            for k in range(1, n):
                lhs = _chain(tables, group, (n, k), i)
                rhs = _chain(tables, group, (k, n), i)
                if not group.values_equal(lhs, rhs):
                    return False, {"identity": "commutation", "n": n, "k": k, "x": x,
                                   "lhs": GroupValue(group, lhs),
                                   "rhs": GroupValue(group, rhs)}
    return True, None


def _raw_oracle(tables, group, bases):
    return lambda n, x: GroupValue(group, tables[n - 1][prefix_to_index(x, bases)])


def _agrees_with_the_chain(tables, group, bases):
    check = verify_identities(_raw_oracle(tables, group, bases), len(tables), bases, group)
    assert (check.ok, check.witness) == chain_identities(tables, group, bases)
    return check


def test_identities_match_the_chain_on_every_small_raw_oracle_exhaustive():
    bases = (2, 2)
    kinds = set()
    for count in (1, 2):
        for entries in itertools.product((-1, 0, 1), repeat=4 * count):
            tables = tuple(entries[4 * n:4 * n + 4] for n in range(count))
            check = _agrees_with_the_chain(tables, INTEGERS, bases)
            kinds.add(check.witness["identity"] if check.witness else "ok")
    assert kinds == {"ok", "square", "commutation"}


@given(
    tag=st.sampled_from(("int", "rat", "dy", "mod:5", "vec:2")),
    depth=st.integers(1, 4),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 2**16)),
                   max_size=3),
)
def test_identities_match_the_chain_on_edited_raw_tables(tag, depth, count, seed, edits):
    # a family's generator tables, with up to three entries overwritten
    group = group_from_tag(tag)
    rng = random.Random(seed)
    cocycle = InvolutionCocycle(invariant_family(rng, depth, min(count, depth), group))
    tables = [list(t) for t in cocycle._generator_tables]
    for n, i, s in edits:
        tables[n % len(tables)][i % len(tables[0])] = payload(random.Random(s), group, 2)
    tables = tuple(map(tuple, tables))
    check = _agrees_with_the_chain(tables, group, cocycle.bases)
    if not edits:
        assert check.ok and verify_identities(cocycle).ok
    # on an exact group the recovery replay fails exactly when an identity does
    oracle = _raw_oracle(tables, group, cocycle.bases)
    try:
        recover_generators(oracle, len(tables), cocycle.bases, group)
    except OracleInconsistencyError:
        assert not check.ok
    else:
        assert check.ok


def test_inexact_reals_keep_the_identity_scan():
    """Two entries off by 8e-10 each stay within the tolerance of the
    recovery replay, but their commutation identity is off by 1.6e-9."""
    family = GeneratorFamily((2, 2), APPROX_REALS, ((1.0, 2.0), (3.0,)))
    tables = [list(t) for t in InvolutionCocycle(family)._generator_tables]
    tables[0][3] += 8e-10
    tables[1][1] += 8e-10
    oracle = _raw_oracle(tables, APPROX_REALS, (2, 2))
    recover_generators(oracle, 2, (2, 2), APPROX_REALS)
    check = verify_identities(oracle, 2, (2, 2), APPROX_REALS)
    assert not check.ok
    assert (check.witness["identity"], check.witness["n"], check.witness["k"]) == (
        "commutation", 2, 1)
    assert check.witness["x"] == (1, 0)


# --- oracle arguments -----------------------------------------------------------------


def _zero_oracle(n, x):
    return GroupValue(RATIONALS, Fraction(0))


@pytest.mark.parametrize("count", [0, -1])
def test_counts_below_one_are_refused(count):
    for check in (verify_identities, recover_generators):
        with pytest.raises(ValueError, match=rf"between 1 and 2 \(the depth\), got {count}"):
            check(_zero_oracle, count, (2, 2))


def test_counts_above_the_depth_are_refused():
    for check in (verify_identities, recover_generators):
        with pytest.raises(ValueError, match=r"between 1 and 2 \(the depth\), got 3"):
            check(_zero_oracle, 3, (2, 2))


def test_groups_off_a_cocycles_group_are_refused():
    fam, _ = family_n2_depth3()
    for check in (verify_identities, recover_generators):
        with pytest.raises(ValueError, match="group int does not match the cocycle's group rat"):
            check(InvolutionCocycle(fam), 2, B3, INTEGERS)


def test_counts_past_a_cocycles_generators_are_refused():
    fam, _ = family_n2_depth3()
    for check in (verify_identities, recover_generators):
        with pytest.raises(ValueError, match=r"1 and 2 \(the cocycle's generator count\), got 3"):
            check(InvolutionCocycle(fam), 3, B3)


@pytest.mark.parametrize("depth", [2, 4])
def test_bases_off_a_cocycles_depth_are_refused(depth):
    fam, _ = family_n2_depth3()
    bases = (2,) * depth
    for check in (verify_identities, recover_generators):
        with pytest.raises(ValueError, match=rf"bases {re.escape(str(bases))} do not match"):
            check(InvolutionCocycle(fam), 2, bases)


def test_a_cocycle_answers_a_shorter_count_with_its_leading_generators():
    fam, _ = family_n2_depth3()
    rec = recover_generators(InvolutionCocycle(fam), 1, B3, RATIONALS)
    assert rec.tables == fam.tables[:1]
    assert verify_identities(InvolutionCocycle(fam), 1).ok


# --- recovery ---------------------------------------------------------------------------


def test_recover_zero_cocycle():
    zero = GeneratorFamily(B3, RATIONALS, ((Fraction(0),) * 4, (Fraction(0),) * 2))
    rec = recover_generators(InvolutionCocycle(zero), 2, B3, RATIONALS)
    assert rec.tables == zero.tables


def test_recover_roundtrip_worked_example():
    fam, _ = family_n2_depth3()
    rec = recover_generators(InvolutionCocycle(fam), 2, fam.bases, fam.group)
    assert rec.tables == fam.tables


def test_recover_roundtrip_random_families():
    rng = random.Random(19)
    for depth in (4, 5, 6):
        fam = invariant_family(rng, depth, min(depth, 5), RATIONALS)
        oracle = InvolutionCocycle(fam)
        rec = recover_generators(oracle, fam.count, fam.bases, fam.group)
        assert rec.tables == fam.tables


def test_recover_rejects_inconsistent_oracle():
    def oracle(n, x):
        # not of the invariant-family form: value ignores the sign rule
        return GroupValue(RATIONALS, Fraction(x[0]))

    with pytest.raises(OracleInconsistencyError):
        recover_generators(oracle, 1, (2, 2), RATIONALS)


# --- signed partial sums -------------------------------------------------------------------


def test_psi_examples():
    fam, _ = family_n2_depth3()
    assert psi(2, fam, (0, 0, 0)).payload == 0
    f1 = fam.generator_function(1)
    for x in iter_prefixes(B3):
        if x[0] == 1:
            assert psi(1, fam, x).payload == -f1.eval(x).payload
        else:
            assert psi(1, fam, x).payload == 0
    assert psi(0, fam, (1, 1, 1)).payload == 0


def test_psi_additivity():
    rng = random.Random(23)
    fam = invariant_family(rng, 5, 4, RATIONALS)
    f_tables = [fam.generator_function(n) for n in range(1, 5)]
    for x in iter_prefixes(fam.bases):
        for n in range(1, 5):
            delta = psi(n, fam, x).payload - psi(n - 1, fam, x).payload
            expected = -f_tables[n - 1].eval(x).payload if x[n - 1] else Fraction(0)
            assert delta == expected


# --- dyadic approximation --------------------------------------------------------------------


def test_happrox_dyadic_family_is_fixed():
    fam = GeneratorFamily(
        B3, RATIONALS, ((Fraction(1, 2), Fraction(3, 4), Fraction(0), Fraction(2)),)
    )
    report = h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))
    assert report.rounded_family.tables == fam.tables
    assert all(v == 0 for v in report.transfer.table)
    alpha, beta = InvolutionCocycle(fam), report.beta
    for x in iter_prefixes(B3):
        assert alpha.eval_generator(1, x) == beta.eval_generator(1, x)


def test_happrox_worked_example():
    fam = GeneratorFamily((2, 2), RATIONALS, ((Fraction(1, 3), Fraction(1, 3)),))
    report = h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))
    assert report.rounded_family.tables == ((Fraction(3, 8), Fraction(3, 8)),)
    for i, x in enumerate(iter_prefixes((2, 2))):
        expected = -Fraction(x[0], 24)  # x_1 * (1/3 - 3/8)
        assert report.transfer.table[i] == expected
    # cohomology over both words at every depth-2 prefix
    alpha, beta = InvolutionCocycle(report.family), report.beta
    g = report.transfer
    for x in iter_prefixes((2, 2)):
        for word in ([], [1]):
            lhs = alpha.eval_word(word, x).payload
            wx = word_apply(word, x)
            rhs = g.eval(wx).payload + beta.eval_word(word, x).payload - g.eval(x).payload
            assert lhs == rhs


def test_happrox_random_families_exhaustive():
    rng = random.Random(29)
    chain = NeighborhoodChain(Fraction(1, 4))
    for _ in range(5):
        fam = invariant_family(rng, 5, 4, RATIONALS)
        report = h_approximate(fam, chain)  # raises on a failed check
        # radii follow the chain and bound the rounding error per index
        assert report.radii == tuple(chain.epsilon(n) for n in (1, 2, 3, 4))
        for n in range(1, 5):
            for orig, rounded in zip(fam.tables[n - 1], report.rounded_family.tables[n - 1]):
                assert is_dyadic(rounded)
                assert abs(orig - rounded) <= chain.epsilon(n)
        assert max(abs(v) for v in report.transfer.table) <= chain.eps0
        # beta takes dyadic values on every word at every prefix
        beta = report.beta
        size = 1 << 5
        for bits in range(1 << 4):
            word = [n for n in (1, 2, 3, 4) if (bits >> (n - 1)) & 1]
            for i in range(size):
                assert is_dyadic(beta.eval_word_index(word, i))


def test_happrox_transfer_is_the_literal_sum():
    # g = P(f) - P(fbar) is g(x) = sum_n x_n (f_n(x) - fbar_n(x)), summed term by term
    rng = random.Random(31)
    chain = NeighborhoodChain(Fraction(1, 3))
    families = [invariant_family(rng, depth, count, RATIONALS)
                for depth, count in ((1, 1), (3, 2), (4, 4), (5, 3), (6, 5))]
    families.append(GeneratorFamily(B3, DYADICS, ((Fraction(1, 2),) * 4, (Fraction(-3, 4),) * 2)))
    for fam in families:
        report = h_approximate(fam, chain)
        rounded = report.rounded_family
        for i, x in enumerate(iter_prefixes(fam.bases)):
            expected = Fraction(0)
            for n in range(1, fam.count + 1):
                if x[n - 1]:
                    expected += fam.generator_payload(n, i) - rounded.generator_payload(n, i)
            assert report.transfer.table[i] == expected
            assert repr(report.transfer.table[i]) == repr(expected)


def test_happrox_beta_is_built_once():
    fam = invariant_family(random.Random(3), 4, 3, RATIONALS)
    report = h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))
    assert report.beta is report.beta
    assert report.beta.family == report.rounded_family


def _words(count):
    """Every reduced flip word over 1..count; the k-th word's flip mask is k."""
    return [[n for n in range(1, count + 1) if (k >> (n - 1)) & 1] for k in range(1 << count)]


def scan_cohomology(alpha, beta, g_table, bases):
    """The literal check: alpha(w, x) = g(wx) + beta(w, x) - g(x) on every
    reduced flip word w (by flip mask) and prefix x, through the chain."""
    for mask, word in enumerate(_words(len(alpha))):
        for i in range(len(g_table)):
            lhs = _chain(alpha, RATIONALS, word, i)
            rhs = g_table[i ^ mask] + _chain(beta, RATIONALS, word, i) - g_table[i]
            if lhs != rhs:
                raise AssertionError(
                    f"cohomology equation failed at word {word}, "
                    f"x={index_to_prefix(i, bases)}"
                )


def scan_dyadic(tables, size):
    """The literal check: the cocycle is dyadic on every flip word and prefix."""
    return all(
        is_dyadic(_chain(tables, RATIONALS, word, i))
        for word in _words(len(tables))
        for i in range(size)
    )


def _dyadic_generators(tables, den: int) -> bool:
    """Whether a cocycle whose kernel-form generator tables hold one column
    of ints over ``den`` is dyadic on every flip word: a word's value is a
    sum of generator values, and the dyadics are closed under addition.  The
    reduced denominators den // gcd(v, den) are powers of two exactly when
    their lcm, den // gcd(den, every v), is one."""
    common = den
    for (table,) in tables:
        common = math.gcd(common, *table)
    d = den // common
    return d & (d - 1) == 0


def _verdict(check, *args):
    """None when the check accepts, else its AssertionError message."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def transfer_mismatch(alpha, beta, g_table, bases):
    """The package's transfer check on a triple: alpha - beta against the
    coboundary of g by ``_coboundary_mismatch``, on int numerators over one
    denominator as ``h_approximate`` runs it, raising its text."""
    differences = [tuple(map(operator.sub, a, b)) for a, b in zip(alpha, beta)]
    nums, den = _kernel_form([*differences, g_table], RATIONALS)
    mismatch = _coboundary_mismatch(nums[:-1], nums[-1], RATIONALS)
    if mismatch is not None:
        n, i, _, _ = mismatch
        raise AssertionError(
            f"cohomology equation failed at word {[n]}, x={index_to_prefix(i, bases)}"
        )


def _transfer_triple(fam, eps0=Fraction(1, 4)):
    report = h_approximate(fam, NeighborhoodChain(eps0))
    alpha = InvolutionCocycle(report.family)._generator_tables
    return alpha, report.beta._generator_tables, list(report.transfer.table)


def test_transfer_mismatch_accepts_every_small_family_exhaustive():
    for depth, count in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        values = (Fraction(1, 3), Fraction(-5, 2)) + ((Fraction(0),) if depth < 3 else ())
        sizes = [1 << (depth - n) for n in range(1, count + 1)]
        for entries in itertools.product(values, repeat=sum(sizes)):
            tables, start = [], 0
            for size in sizes:
                tables.append(entries[start:start + size])
                start += size
            fam = GeneratorFamily((2,) * depth, RATIONALS, tuple(tables))
            alpha, beta, g = _transfer_triple(fam)
            assert _verdict(scan_cohomology, alpha, beta, g, fam.bases) is None
            assert _verdict(transfer_mismatch, alpha, beta, g, fam.bases) is None


@given(
    tag=st.sampled_from(("rat", "dy")),
    depth=st.integers(1, 6),
    count=st.integers(1, 5),
    eps0=st.sampled_from((Fraction(1, 4), Fraction(1, 3), Fraction(5, 7), Fraction(1, 1024))),
    seed=st.integers(0, 2**16),
)
def test_transfer_mismatch_accepts_true_triples(tag, depth, count, eps0, seed):
    group = DYADICS if tag == "dy" else RATIONALS
    fam = invariant_family(random.Random(seed), depth, min(count, depth), group)
    alpha, beta, g = _transfer_triple(fam, eps0)
    assert _verdict(transfer_mismatch, alpha, beta, g, fam.bases) is None
    assert _verdict(scan_cohomology, alpha, beta, g, fam.bases) is None
    h_approximate(fam, NeighborhoodChain(eps0))


@pytest.mark.parametrize("depth, count", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_transfer_mismatch_rejects_exactly_what_the_word_walk_rejects(depth, count):
    fam = invariant_family(random.Random(depth * 10 + count), depth, count, RATIONALS)
    alpha, beta, g = _transfer_triple(fam)
    bases = fam.bases
    cases = []
    for j in range(len(g)):  # every single-entry perturbation of g
        for delta in (Fraction(1, 3), Fraction(-2)):
            moved = list(g)
            moved[j] += delta
            cases.append((beta, moved))
    for n in range(count):  # ... and of each beta generator table
        for j in range(len(g)):
            moved = [list(t) for t in beta]
            moved[n][j] += Fraction(1, 2)
            cases.append((tuple(map(tuple, moved)), g))
    # g plus a function of the digits past N is still a transfer
    shift = [g[i] + Fraction(i >> count, 3) for i in range(len(g))]
    cases.append((beta, shift))
    accepted = 0
    for beta_case, g_case in cases:
        expected = _verdict(scan_cohomology, alpha, beta_case, g_case, bases)
        assert _verdict(transfer_mismatch, alpha, beta_case, g_case, bases) == expected
        assert _verdict(fraction_check_transfer, alpha, beta_case, g_case, bases) == expected
        accepted += expected is None
    assert accepted == 1


def test_dyadic_generators_agree_with_the_word_walk():
    rng = random.Random(43)
    cases = []
    for depth, count in ((1, 1), (3, 2), (4, 3), (5, 4), (6, 5)):
        fam = invariant_family(rng, depth, count, RATIONALS)
        alpha, beta, _ = _transfer_triple(fam)
        cases += [(alpha, 1 << depth), (beta, 1 << depth)]
    # hand-built beta tables: dyadic but for one 1/3 entry, at every position
    for count, depth in ((1, 2), (2, 3), (3, 3)):
        size = 1 << depth
        base = [[Fraction(rng.randint(-8, 8), 4) for _ in range(size)] for _ in range(count)]
        cases.append((tuple(map(tuple, base)), size))
        for n in range(count):
            for j in range(size):
                tables = [list(t) for t in base]
                tables[n][j] = Fraction(1, 3)
                cases.append((tuple(map(tuple, tables)), size))
    # two non-dyadic letters whose two-letter word is dyadic
    size = 4
    cases.append(((tuple([Fraction(1, 3)] * size), tuple([Fraction(-1, 3)] * size)), size))
    verdicts = set()
    for tables, size in cases:
        expected = scan_dyadic(tables, size)
        assert _dyadic_generators(*_kernel_form(tables, RATIONALS)) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_happrox_rejects_integer_family():
    fam = GeneratorFamily(B3, INTEGERS, ((1, 2, 3, 4),))
    with pytest.raises(Exception):
        h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))


# --- transport ---------------------------------------------------------------------------------


def test_transport_identity_is_noop():
    m = Odometer.binary(3)
    f = CylinderFunction(B3, RATIONALS, tuple(Fraction(i, 5) for i in range(8)))
    a = ZCocycle(m, f)
    moved = transport(a, tuple(range(8)))
    assert moved.generator.table == a.generator.lift(B3).table


def test_transport_rotation_preserves_certificates_and_sums():
    rng = random.Random(31)
    m = Odometer.binary(3)
    for r in range(8):
        rotation = tuple((i + r) % 8 for i in range(8))
        f, _ = coboundary_generator(rng, B3, RATIONALS)
        a = ZCocycle(m, f)
        cert = coboundary_solve(a)
        moved = transport(a, rotation)
        assert moved.cycle_sum.payload == a.cycle_sum.payload
        moved_cert = transport_certificate(cert, rotation)
        assert moved_cert.verify()
        assert moved_cert.transfer.table[0] == 0
        # the transported cocycle's own solve agrees with the moved certificate
        direct = coboundary_solve(moved)
        assert direct.transfer.table == moved_cert.transfer.table

        g = cylinder_function_with_sum(rng)
        b = ZCocycle(m, g)
        assert transport(b, rotation).cycle_sum.payload == b.cycle_sum.payload


def cylinder_function_with_sum(rng):
    return CylinderFunction(
        B3, RATIONALS, tuple(Fraction(rng.randint(-3, 3)) for _ in range(8))
    )


def test_transport_rejects_noncommuting_permutation():
    m = Odometer.binary(3)
    a = ZCocycle(m, CylinderFunction.constant(B3, RATIONALS, 1))
    swap = list(range(8))
    swap[0], swap[2] = swap[2], swap[0]
    with pytest.raises(ConjugationError):
        transport(a, tuple(swap))


def test_transport_certificate_rejects_noncommuting_permutation():
    m = Odometer.binary(3)
    f, _ = coboundary_generator(random.Random(3), B3, RATIONALS)
    certificate = coboundary_solve(ZCocycle(m, f))
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    with pytest.raises(ConjugationError):
        transport_certificate(certificate, swap)


def test_transport_involution_cocycle_along_flips():
    rng = random.Random(37)
    fam = invariant_family(rng, 4, 3, RATIONALS)
    c = InvolutionCocycle(fam)
    m = Odometer.binary(4)
    phi = delta_permutation(m, 4)  # flips commute with each other
    moved = transport(c, phi)
    assert verify_identities(moved).ok
    # transported values are the originals read at phi-inverse
    for x in iter_prefixes(fam.bases):
        y = word_apply({4}, x)
        for n in (1, 2, 3):
            assert moved.eval_generator(n, x) == c.eval_generator(n, y)


def test_transport_involution_rejects_odometer_rotation():
    rng = random.Random(41)
    fam = invariant_family(rng, 3, 2, RATIONALS)
    c = InvolutionCocycle(fam)
    rotation = tuple((i + 1) % 8 for i in range(8))
    with pytest.raises(ConjugationError):
        transport(c, rotation)


# --- integer-numerator kernels against the Fraction kernels ----------------------------------
# The payload bodies of the walk, the replay, the transfer check and the
# dyadic approximation, kept literally as oracles: on int, rat and dy the
# package now runs them on int numerators over one denominator.


def fraction_potential_walk(family):
    group = family.group
    add, sub, neg = group.add, group.sub, group.neg
    size = 1 << family.depth
    potential = [group.zero()] * size
    tables = []
    for n, f in enumerate(family.tables, start=1):
        flip = 1 << (n - 1)
        table = [None] * size
        for start in range(0, size, flip << 1):
            # x_1 = ... = x_n = 0 at start
            f_n = potential[start + flip] = table[start] = f[start >> n]
            table[start + flip] = neg(f_n)
            for i in range(start + 1, start + flip):
                up = potential[i + flip] = add(potential[i + flip], f_n)
                table[i] = v = sub(up, potential[i])
                table[i + flip] = neg(v)
        tables.append(tuple(table))
    return tuple(tables), potential


def fraction_replay(tables, bases, group):
    f = tuple(t[:: 1 << n] for n, t in enumerate(tables, start=1))
    family = GeneratorFamily(bases, group, f)
    equal = group.values_equal
    for n, (table, replayed) in enumerate(
        zip(tables, fraction_potential_walk(family)[0]), start=1
    ):
        for i, (v, w) in enumerate(zip(table, replayed)):
            if not equal(v, w):
                return family, (n, i, v, w)
    return family, None


def fraction_recover(tables, bases, group):
    """The recovery as it ran on payload tables: the family, or the
    OracleInconsistencyError text."""
    family, mismatch = fraction_replay(tables, bases, group)
    if mismatch is not None:
        n, i, v, w = mismatch
        return (
            f"oracle disagrees with its invariance extension at "
            f"n={n}, x={index_to_prefix(i, bases)}: {v!r} vs {w!r}"
        )
    return family


def fraction_verify(tables, bases, group):
    """The identity check as it ran on payload tables: the replay decides,
    and the (prefix, n, k) scan names the witness."""
    if fraction_replay(tables, bases, group)[1] is None:
        return True, None
    return chain_identities(tables, group, bases)


def fraction_check_transfer(alpha, beta, g_table, bases):
    for n, (alpha_n, beta_n) in enumerate(zip(alpha, beta), start=1):
        flip = 1 << (n - 1)
        for i, g in enumerate(g_table):
            if alpha_n[i] != g_table[i ^ flip] + beta_n[i] - g:
                raise AssertionError(
                    f"cohomology equation failed at word {[n]}, "
                    f"x={index_to_prefix(i, bases)}"
                )


def fraction_h_approximate(family, chain):
    """h_approximate on Fractions; returns the report and beta's tables."""
    group = RATIONALS
    radii = tuple(chain.radii(family.count))
    rounded_tables = tuple(
        tuple(round_to_dyadic(v, eps) for v in table)
        for table, eps in zip(family.tables, radii)
    )
    rounded = GeneratorFamily(family.bases, group, rounded_tables)
    base = (
        family
        if family.group == group
        else GeneratorFamily(family.bases, group, family.tables)
    )
    beta, p_rounded = fraction_potential_walk(rounded)
    alpha, p_base = fraction_potential_walk(base)
    g_table = [p - q for p, q in zip(p_base, p_rounded)]
    transfer = CylinderFunction(family.bases, group, tuple(g_table))
    max_transfer = Fraction(max(map(abs, g_table)))
    report = TransferReport(base, rounded, transfer, radii, sum(radii, Fraction(0)), max_transfer)

    bound = report.radius_bound
    if bound > chain.eps0:
        raise AssertionError("radius bound exceeds the base radius")
    for i, g in enumerate(g_table):
        if abs(g) > bound:
            raise AssertionError(
                f"transfer value {g} at {index_to_prefix(i, family.bases)} "
                f"exceeds the bound {bound}"
            )
    fraction_check_transfer(alpha, beta, g_table, family.bases)
    return report, beta


ALL_TAGS = EXACT_TAGS + ("real",)


def _same(new, old):
    assert new == old
    assert repr(new) == repr(old)  # same payload types, not just equal values


def _payload_view(tables, den, group):
    return tuple(group.payloads_over(t, den) for t in tables)


def _outcome(call, *args):
    """A call's result, or the text of the error it raised."""
    try:
        return call(*args)
    except (OracleInconsistencyError, AssertionError) as exc:
        return str(exc)


def _assert_kernels_match(fam, eps0s=(Fraction(1, 4),)):
    group, bases = fam.group, fam.bases
    tables, potential = fraction_potential_walk(fam)
    cocycle = InvolutionCocycle(fam)
    kernel, _, den = cocycle._kernel_tables
    # d columns on vec:d, one column elsewhere
    assert {len(table) for table in kernel} == {getattr(group, "dim", 1)}
    _same(_payload_view(kernel, den, group), tables)
    f, den = _kernel_form(fam.tables, group)
    walked, walked_potential = _potential_walk(f, fam.depth, group)
    _same(_payload_view(walked, den, group), tables)
    _same(group.payloads_over(walked_potential, den), tuple(potential))
    # the recovery and the identity check, from the cocycle and from a raw oracle
    expected = fraction_recover(tables, bases, group)
    for oracle in (cocycle, _raw_oracle(tables, group, bases)):
        recovered = recover_generators(oracle, fam.count, bases, group)
        _same(recovered.tables, expected.tables)
        _same(recovered.tables, fam.tables)
    assert verify_identities(cocycle).ok
    # the round trip compares numerators; the public recovery is its oracle
    assert _round_trip(cocycle) == (recover_generators(cocycle, fam.count, bases).tables
                                    == fam.tables, "")
    # on every group these paths read the walk and build no payload view
    assert "_generator_tables" not in vars(cocycle)
    _same(cocycle._generator_tables, tables)
    if group not in (RATIONALS, DYADICS):
        return
    for eps0 in eps0s:
        chain = NeighborhoodChain(eps0)
        report, beta = fraction_h_approximate(fam, chain)
        new = h_approximate(fam, chain)
        assert json.dumps(new.to_json()).encode() == json.dumps(report.to_json()).encode()
        _same(new.transfer.table, report.transfer.table)
        _same(new.max_transfer, report.max_transfer)
        _same(new.rounded_family.tables, report.rounded_family.tables)
        assert "_generator_tables" not in vars(new.beta)
        nums, _, den = new.beta._kernel_tables
        _same(_payload_view(nums, den, RATIONALS), beta)
        _same(new.beta._generator_tables, beta)
        assert _dyadic_generators(nums, den)
        # the rounding runs once per distinct value, and is round_to_dyadic on every entry
        for table, rounded, eps in zip(fam.tables, new.rounded_family.tables, new.radii):
            _same(rounded, tuple(round_to_dyadic(v, eps) for v in table))


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(ALL_TAGS),
    depth=st.integers(1, 10),
    count=st.integers(1, 10),
    span=st.sampled_from((2, 8, 30)),
    seed=st.integers(0, 2**16),
)
@example(tag="rat", depth=10, count=10, span=8, seed=0)
@example(tag="int", depth=10, count=4, span=8, seed=1)
@example(tag="real", depth=9, count=9, span=8, seed=2)
def test_numerator_kernels_match_the_fraction_kernels(tag, depth, count, span, seed):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(seed), depth, min(count, depth), group, span)
    _assert_kernels_match(fam, (Fraction(1, 4), Fraction(5, 7), Fraction(1, 1024)))


@pytest.mark.parametrize("tag", ["int", "rat", "dy"])
def test_a_verified_cocycle_walks_once_for_its_checks_and_readers(monkeypatch, tag):
    walks = []
    potential_walk = involution_cocycles._potential_walk

    def counted(*args):
        walks.append(args)
        return potential_walk(*args)

    monkeypatch.setattr(involution_cocycles, "_potential_walk", counted)
    fam = invariant_family(random.Random(7), 6, 4, group_from_tag(tag))
    cocycle = InvolutionCocycle(fam)
    assert verify_identities(cocycle).ok
    # the cocycle's own walk; the check reads its potential
    assert len(walks) == 1
    walked = cocycle._kernel_tables
    for i, x in enumerate(iter_prefixes(fam.bases)):
        for n in range(1, fam.count + 1):
            assert cocycle.eval_generator(n, x).payload == Fraction(walked[0][n - 1][0][i], walked[2])
        cocycle.eval_word([3, 1, 3, 2], x)
        cocycle.eval_word({2, 4}, x)
    assert len(walks) == 1  # the payload view reads the walk; it is no second one
    assert cocycle._kernel_tables is walked


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("mod", "vec")), arg=st.integers(1, 2**70))
@example(kind="mod", arg=1)
@example(kind="vec", arg=1)
def test_rational_holds_exactly_on_int_rat_and_dy(kind, arg):
    for tag in ("int", "rat", "dy", "real"):
        assert group_from_tag(tag).rational == (tag != "real")
    assert not group_from_tag(f"{kind}:{arg}").rational


def _primes(count):
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def coprime_family(depth, count, seed):
    """A rat family whose entries have pairwise-coprime odd prime denominators."""
    rng = random.Random(seed)
    sizes = [1 << (depth - n) for n in range(1, count + 1)]
    primes = iter(_primes(sum(sizes) + 1)[1:])

    def entry(p):
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, min(p - 1, 50)), p)

    tables = tuple(tuple(entry(next(primes)) for _ in range(size)) for size in sizes)
    return GeneratorFamily((2,) * depth, RATIONALS, tables)


@pytest.mark.parametrize("depth, count", [(7, 7), (8, 3), (8, 8)])
def test_numerator_kernels_on_pairwise_coprime_denominators(depth, count):
    fam = coprime_family(depth, count, depth * 10 + count)
    den = _kernel_form(fam.tables, RATIONALS)[1]
    assert len(str(den)) > 200  # exact big ints, no size cutoff
    _assert_kernels_match(fam, (Fraction(1, 4), Fraction(1, 3), Fraction(1, 1 << 20)))


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(EXACT_TAGS),
    depth=st.integers(1, 6),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 63), st.integers(0, 2**16)),
                   min_size=1, max_size=3),
)
@example(tag="rat", depth=3, count=2, seed=0, edits=[(1, 5, 7)])
def test_edited_raw_tables_fail_as_the_fraction_kernels_do(tag, depth, count, seed, edits):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(seed), depth, min(count, depth), group)
    tables = [list(t) for t in fraction_potential_walk(fam)[0]]
    for n, i, s in edits:
        tables[n % len(tables)][i % len(tables[0])] = payload(random.Random(s), group, 2)
    tables = tuple(map(tuple, tables))
    oracle = _raw_oracle(tables, group, fam.bases)
    old = fraction_recover(tables, fam.bases, group)
    new = _outcome(recover_generators, oracle, len(tables), fam.bases, group)
    if isinstance(old, str):
        assert new == old
    else:
        _same(new.tables, old.tables)
    check = verify_identities(oracle, len(tables), fam.bases, group)
    assert (check.ok, check.witness) == fraction_verify(tables, fam.bases, group)
    assert repr(check.witness) == repr(fraction_verify(tables, fam.bases, group)[1])


def test_an_edit_on_coprime_denominators_fails_as_the_fraction_kernels_do():
    fam = coprime_family(7, 5, 3)
    tables = [list(t) for t in fraction_potential_walk(fam)[0]]
    tables[2][37] += Fraction(1, 7919)
    tables = tuple(map(tuple, tables))
    oracle = _raw_oracle(tables, RATIONALS, fam.bases)
    old = fraction_recover(tables, fam.bases, RATIONALS)
    assert old.startswith("oracle disagrees with its invariance extension at n=3, ")
    assert _outcome(recover_generators, oracle, 5, fam.bases, RATIONALS) == old
    check = verify_identities(oracle, 5, fam.bases, RATIONALS)
    assert not check.ok
    assert repr(check.witness) == repr(fraction_verify(tables, fam.bases, RATIONALS)[1])


def test_a_transfer_past_its_bound_raises_as_the_fraction_kernel_does(monkeypatch):
    # a grid rule that overshoots by three grid steps, more than 1.5 radii:
    # the |g| bound is what catches it
    def overshoot(num, den, q, rule=values._grid_numerator):
        return rule(num, den, q) + 3

    monkeypatch.setattr(involution_cocycles, "_grid_numerator", overshoot)
    # the Fraction oracle rounds through round_to_dyadic, which reads it here
    monkeypatch.setattr(values, "_grid_numerator", overshoot)
    for fam in (invariant_family(random.Random(5), 5, 3, RATIONALS), coprime_family(6, 4, 1)):
        chain = NeighborhoodChain(Fraction(1, 4))
        old = _outcome(fraction_h_approximate, fam, chain)
        assert old.startswith("transfer value ") and " exceeds the bound " in old
        assert _outcome(h_approximate, fam, chain) == old


def tie_family(tag, depth, count, eps0, seed):
    """A family whose entries sit on the rounding's edge cases at radius
    eps_n: grid midpoints (n + 1/2) 2^-q_n of both signs, which are dyadic
    and so stay; rationals 1/(3 * 2^(q_n + 4)) either side of them; and, on
    rat, dyadics such as 3/12 = 1/4 whose numerators are over an L that is
    not a power of two (the other entries put 3 into L)."""
    rng = random.Random(seed)
    chain = NeighborhoodChain(eps0)
    tables = []
    for n in range(1, count + 1):
        step = Fraction(1, 1 << values._grid_exponent(chain.epsilon(n)))
        near = step / 48
        choices = [step * (k + Fraction(1, 2)) for k in (-3, -1, 0, 2)]
        if tag == "rat":
            choices += [m + sign * near for m in choices[:2] for sign in (-1, 1)]
            choices += [Fraction(3, 12), Fraction(-9, 12), Fraction(1, 3), Fraction(-5, 7)]
        tables.append(tuple(rng.choice(choices) for _ in range(1 << (depth - n))))
    return GeneratorFamily((2,) * depth, group_from_tag(tag), tuple(tables))


EDGE_RADII = (Fraction(1), Fraction(2), Fraction(7, 3), Fraction(5), Fraction(1, 1 << 200))


@pytest.mark.parametrize("tag", ["rat", "dy"])
@pytest.mark.parametrize("eps0", EDGE_RADII)
def test_h_approximate_on_grid_ties_and_dyadics_matches_the_fraction_kernel(tag, eps0):
    for depth, count, seed in ((3, 2, 0), (5, 3, 1), (6, 6, 2)):
        fam = tie_family(tag, depth, count, eps0, seed)
        chain = NeighborhoodChain(eps0)
        report, beta = fraction_h_approximate(fam, chain)
        new = h_approximate(fam, chain)
        assert render_json(new.to_json()) == render_json(report.to_json())
        _same(new.family.tables, report.family.tables)
        _same(new.rounded_family.tables, report.rounded_family.tables)
        _same(new.transfer.table, report.transfer.table)
        _same(new.max_transfer, report.max_transfer)
        _same(new.beta._generator_tables, beta)
        # a dyadic entry, a grid midpoint or 3/12 over an L divisible by 21, stays as it is
        for table, rounded in zip(fam.tables, new.rounded_family.tables):
            for v, r in zip(table, rounded):
                assert r == v if is_dyadic(v) else r != v
        assert _dyadic_family(new.rounded_family)


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(("rat", "dy")),
    depth=st.integers(1, 6),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    rounded=st.booleans(),
    edit=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 31),
                                        st.sampled_from((Fraction(1, 3), Fraction(3, 12))))),
)
@example(tag="rat", depth=3, count=2, seed=0, rounded=False, edit=None)
@example(tag="dy", depth=3, count=2, seed=0, rounded=False, edit=(1, 1, Fraction(1, 3)))
def test_the_family_dyadic_check_is_the_cocycle_dyadic_check(tag, depth, count, seed,
                                                             rounded, edit):
    fam = invariant_family(random.Random(seed), depth, min(count, depth), group_from_tag(tag))
    if rounded:
        fam = h_approximate(fam, NeighborhoodChain(Fraction(1, 4))).rounded_family
    if edit is not None:
        n, i, v = edit
        tables = [list(t) for t in fam.tables]
        tables[n % len(tables)][i % len(tables[n % len(tables)])] = v
        fam = GeneratorFamily(fam.bases, RATIONALS, tuple(map(tuple, tables)))
    tables, _, den = InvolutionCocycle(fam)._kernel_tables
    expected = _dyadic_generators(tables, den)
    assert _dyadic_family(fam) == all(is_dyadic(v) for t in fam.tables for v in t) == expected
    if edit is not None and edit[2] == Fraction(1, 3):
        assert not expected
    elif rounded or tag == "dy":
        assert expected


def test_both_dyadic_checks_refuse_unrounded_rat_families():
    for seed in range(10):
        fam = invariant_family(random.Random(seed), 6, 4, RATIONALS)
        assert not _dyadic_family(fam)
        tables, _, den = InvolutionCocycle(fam)._kernel_tables
        assert not _dyadic_generators(tables, den)


def test_dyadic_generators_read_numerators_over_a_shared_denominator():
    # 3/12 = 1/4 is dyadic although 12 is not a power of two; 2/12 = 1/6 is not
    assert _dyadic_generators((((3, -9, 0),), ((6, 12),)), 12)
    assert not _dyadic_generators((((3, -9, 0),), ((6, 2),)), 12)
    assert not _dyadic_generators((((1,),),), 3)
    assert _dyadic_generators((((5,),),), 1 << 40)


# --- one walk per verdict: the tables against the walk's own potential ---------------------
# Both checks compare the generator tables with the coboundary of the
# potential that the cocycle's one walk returns (a raw oracle's: one walk of
# the family read off the leading-zeros cylinders), so a wrong table entry
# fails them even where the walk that built it would build it again.  The
# dyadic approximation checks its one walk, of the rounding error, the same way.


def _count_walks(monkeypatch):
    walks = []
    potential_walk = involution_cocycles._potential_walk

    def counted(*args):
        walks.append(args)
        return potential_walk(*args)

    monkeypatch.setattr(involution_cocycles, "_potential_walk", counted)
    return walks


def _corrupt_walks(monkeypatch, n=2, i=1):
    """Make every potential walk return t_n with a wrong entry at index i,
    off the cylinder x_1 = ... = x_n = 0, 1 added on every column; the
    potential stays as walked."""
    potential_walk = involution_cocycles._potential_walk

    def corrupted(f, depth, group):
        tables, potential = potential_walk(f, depth, group)
        if len(tables) < n:
            return tables, potential
        table = tuple((*c[:i], c[i] + 1, *c[i + 1 :]) for c in tables[n - 1])
        return (*tables[: n - 1], table, *tables[n:]), potential

    monkeypatch.setattr(involution_cocycles, "_potential_walk", corrupted)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_wrong_entry_of_the_walk_fails_both_checks(monkeypatch, tag):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(5), 4, 3, group)
    _corrupt_walks(monkeypatch)
    cocycle = InvolutionCocycle(fam)
    with pytest.raises(OracleInconsistencyError, match=r"at n=2, x=\(1, 0, 0, 0\): "):
        recover_generators(cocycle, fam.count, fam.bases, group)
    check = verify_identities(cocycle)
    literal = chain_identities(cocycle._generator_tables, group, fam.bases)
    assert not check.ok
    assert (check.ok, check.witness) == literal
    assert repr(check.witness) == repr(literal[1])


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_verified_and_recovered_cocycle_walks_once(monkeypatch, tag):
    walks = _count_walks(monkeypatch)
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(9), 6, 4, group)
    cocycle = InvolutionCocycle(fam)
    assert verify_identities(cocycle).ok
    assert recover_generators(cocycle, fam.count, fam.bases, group).tables == fam.tables
    assert verify_identities(cocycle, count=2).ok
    assert recover_generators(cocycle, 2, fam.bases, group).tables == fam.tables[:2]
    assert len(walks) == 1


@pytest.mark.parametrize("tag", ["rat", "mod:5", "real"])
def test_run_odometer_walks_once_per_family(monkeypatch, tag):
    walks = _count_walks(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "odometer", "--depth", "6", "--count", "4", "--group", tag,
                     "--seed", "0"]) == 0
    assert len(walks) == 4


@pytest.mark.parametrize("tag", ["rat", "dy"])
def test_a_dyadic_approximation_walks_once(monkeypatch, tag):
    fam = invariant_family(random.Random(9), 6, 4, group_from_tag(tag))
    walks = _count_walks(monkeypatch)
    report = h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))
    assert len(walks) == 1  # the rounding error's walk; beta walks only when read
    assert "_kernel_tables" not in vars(report.beta)


def test_run_happrox_walks_once_per_family(monkeypatch):
    walks = _count_walks(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "happrox", "--depth", "6", "--count", "4", "--seed", "0"]) == 0
    assert len(walks) == 4


def _literal_happrox(config):
    """The rows, checks and exit code of ``run happrox`` from its definition:
    the suite's draws replayed through the public samplers, and each family
    approximated by ``fraction_h_approximate``."""
    rng = random.Random(config.seed)
    depth = len(config.bases)
    chain = NeighborhoodChain(config.eps0)
    rows, checks = [], []
    for idx in range(config.count):
        n_gen = rng.randint(1, min(4, depth))
        family = invariant_family(rng, depth, n_gen, RATIONALS)
        report, _ = fraction_h_approximate(family, chain)
        max_g = max(abs(g) for g in report.transfer.table)
        dyadic = all(is_dyadic(v) for table in report.rounded_family.tables for v in table)
        rows.append({"family": idx, "generators": n_gen, "max_transfer": max_g,
                     "bound": sum(report.radii, Fraction(0)), "dyadic": dyadic})
        checks += [
            {"name": f"family{idx}-dyadic", "passed": dyadic, "witness": ""},
            {"name": f"family{idx}-transfer-bound", "passed": max_g <= config.eps0,
             "witness": f"max|g|={max_g}"},
        ]
    return rows, checks, 0 if all(c["passed"] for c in checks) else 1


def _cell(value):
    """A report cell; a Fraction cell as its Fraction, after checking its decimal."""
    if isinstance(value, dict):
        assert value["decimal"] == float(Fraction(value["fraction"]))
        return Fraction(value["fraction"])
    return value


@pytest.mark.parametrize("eps0", ["1/4", "1/3", "1"])
@pytest.mark.parametrize("depth", range(1, 7))
def test_run_happrox_is_its_literal_definition(depth, eps0):
    for seed in range(3):
        argv = ["--depth", str(depth), "--count", "3", "--seed", str(seed), "--eps0", eps0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "happrox", *argv])
        report = json.loads(out.getvalue())
        rows = [{k: _cell(v) for k, v in row.items()} for row in report["rows"]]
        config = ExperimentConfig(binary_bases(depth), seed=seed, eps0=eps0, count=3)
        assert (rows, report["checks"], code) == _literal_happrox(config)


@pytest.mark.parametrize("tag", ["rat", "dy"])
def test_a_wrong_entry_of_the_walk_fails_the_dyadic_approximation(monkeypatch, tag):
    # the same wrong entry in walks of f and of fbar would cancel in alpha - beta
    fam = invariant_family(random.Random(5), 4, 3, group_from_tag(tag))
    chain = NeighborhoodChain(Fraction(1, 4))
    h_approximate(fam, chain)
    _corrupt_walks(monkeypatch)
    with pytest.raises(AssertionError) as failure:
        h_approximate(fam, chain)
    assert str(failure.value) == "cohomology equation failed at word [2], x=(1, 0, 0, 0)"


def test_run_odometer_records_a_failed_recovery_as_a_failed_round_trip(monkeypatch):
    _corrupt_walks(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "odometer", "--depth", "4", "--count", "6", "--group", "rat",
                     "--seed", "0"]) == 1
    report = json.loads(out.getvalue())
    checks = {c["name"]: c for c in report["checks"]}
    corrupted = [row["generators"] >= 2 for row in report["rows"]]
    assert True in corrupted and False in corrupted
    for row, wrong in zip(report["rows"], corrupted):
        roundtrip = checks[f"family{row['family']}-roundtrip"]
        assert row["roundtrip"] is roundtrip["passed"] is (not wrong)
        if wrong:
            assert roundtrip["witness"].startswith(
                "oracle disagrees with its invariance extension at n=2, x=(1, 0, 0, 0): "
            )
        else:
            assert roundtrip["witness"] == ""


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_raw_oracle_walks_once_per_call(monkeypatch, tag):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(11), 5, 3, group)
    oracle = _raw_oracle(InvolutionCocycle(fam)._generator_tables, group, fam.bases)
    walks = _count_walks(monkeypatch)
    assert verify_identities(oracle, 3, fam.bases, group).ok
    # every group walks, real too, although its identity scan decides
    assert len(walks) == 1
    assert recover_generators(oracle, 3, fam.bases, group).tables == fam.tables
    assert len(walks) == 2


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("tag", EXACT_TAGS)
def test_a_cocycle_answers_each_prefix_count_as_a_raw_oracle_does(monkeypatch, tag, corrupt):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(13), 5, 4, group)
    if corrupt:
        _corrupt_walks(monkeypatch)
    cocycle = InvolutionCocycle(fam)
    for k in range(1, fam.count + 1):
        raw = _raw_oracle(cocycle._generator_tables[:k], group, fam.bases)
        check = verify_identities(cocycle, count=k)
        expected = verify_identities(raw, k, fam.bases, group)
        assert check.ok == (k == 1 or not corrupt)
        assert (check.ok, check.witness) == (expected.ok, expected.witness)
        assert repr(check.witness) == repr(expected.witness)
        recovered = _outcome(recover_generators, cocycle, k, fam.bases, group)
        expected = _outcome(recover_generators, raw, k, fam.bases, group)
        assert isinstance(recovered, str) == (k > 1 and corrupt)
        assert recovered == expected
        assert repr(recovered) == repr(expected)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_the_round_trip_answers_as_the_public_recovery_does(monkeypatch, tag, corrupt):
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(17), 5, 3, group)
    if corrupt:
        _corrupt_walks(monkeypatch)
    cocycle = InvolutionCocycle(fam)
    try:
        recovered = recover_generators(cocycle, fam.count, fam.bases, group)
        expected = recovered.tables == fam.tables, ""
    except OracleInconsistencyError as exc:
        expected = False, str(exc)
    assert _round_trip(cocycle) == expected
    assert expected[0] is not corrupt


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_cocycle_checks_its_tables_once_for_verify_and_round_trip(monkeypatch, tag, corrupt):
    # run odometer asks verify_identities and the round trip of one cocycle;
    # both read its one cached first mismatch, at every prefix count
    group = group_from_tag(tag)
    fam = invariant_family(random.Random(19), 5, 4, group)
    if corrupt:
        _corrupt_walks(monkeypatch)
    cocycle = InvolutionCocycle(fam)
    checks = []
    mismatch = involution_cocycles._coboundary_mismatch
    monkeypatch.setattr(
        involution_cocycles, "_coboundary_mismatch", lambda *args: checks.append(args) or mismatch(*args)
    )
    if group.exact:
        assert verify_identities(cocycle).ok is not corrupt
        assert verify_identities(cocycle, count=1).ok
    roundtrip, witness = _round_trip(cocycle)
    assert roundtrip is not corrupt
    for k in range(1, fam.count + 1):
        recovered = _outcome(recover_generators, cocycle, k, fam.bases, group)
        assert isinstance(recovered, str) == (k > 1 and corrupt)
    assert len(checks) == 1


@settings(max_examples=80, deadline=None)
@given(
    nums=st.lists(st.integers(-40, 40) | st.integers(-(2**80), 2**80), max_size=30),
    den=st.integers(1, 12) | st.integers(1, 2**70),
    tag=st.sampled_from(ALL_TAGS),
)
def test_kernel_values_become_payloads_as_per_entry_fractions_do(nums, den, tag):
    group = group_from_tag(tag)
    values = nums + nums[::2]  # with repeats
    dim = getattr(group, "dim", 0)
    columns = [values[k:] + values[:k] for k in range(dim)] or [values]
    if dim:
        expected = tuple(tuple(Fraction(v, den) for v in row) for row in zip(*columns))
    elif tag in ("rat", "dy"):
        expected = tuple(Fraction(v, den) for v in values)
    else:
        modulus = getattr(group, "modulus", None)
        den, expected = 1, tuple(values if modulus is None else (v % modulus for v in values))
    out = group.payloads_over(columns, den)
    _same(out, expected)
    if dim or tag in ("rat", "dy"):
        # one payload per distinct numerator (row on vec:d), shared by the equal entries
        assert len({id(q) for q in out}) == len(set(zip(*columns)))


@pytest.mark.parametrize("tag", ["rat", "dy"])
def test_the_max_transfer_is_the_largest_transfer_value(tag):
    fam = invariant_family(random.Random(19), 7, 3, group_from_tag(tag))
    report = h_approximate(fam, NeighborhoodChain(Fraction(1, 4)))
    oracle = max(abs(v) for v in report.transfer.table)
    _same(report.max_transfer, oracle)


# --- the slice kernels against their per-entry forms ---------------------------------------
# The walk and the check run on the slices of ``_flip_halves``: by offset at
# small n, by contiguous block past sqrt(N/2).  Depths 1..9 reach both.

SLICE_TAGS = ("int", "rat", "dy", "mod:5", "vec:2", "real")


def literal_mismatch(tables, potential, group):
    """The check index by index, in n-major order: the first (n, i) where a
    column's t_n(x) + P(x) differs from P(delta_n x)."""
    equal = group.values_equal
    for n, table in enumerate(tables, start=1):
        flip = 1 << (n - 1)
        for i in range(len(potential[0])):
            if not all(equal(c[i] + p[i], p[i ^ flip]) for c, p in zip(table, potential)):
                value = [c[i] for c in table]
                return n, i, value, [p[i ^ flip] - p[i] for p in potential]
    return None


@pytest.mark.parametrize("depth", range(1, 13))
def test_flip_halves_pair_each_prefix_with_its_flip_in_at_most_sqrt_half_n_slices(depth):
    size = 1 << depth
    for n in range(1, depth + 1):
        flip = 1 << (n - 1)
        for skip in (0, 1):
            halves = involution_cocycles._flip_halves(size, n, skip)
            assert len(halves) ** 2 <= size // 2
            indices = range(size)
            lo = sorted(i for s, _, _ in halves for i in indices[s])
            assert lo == [i for i in indices if i & flip == 0 and i % (flip << 1) >= skip]
            for s, t, block in halves:
                assert [i ^ flip for i in indices[s]] == list(indices[t])
                if block is not None:  # contiguous: inside one block of 2^n prefixes
                    assert {i >> n for i in indices[s]} <= {block}


@pytest.mark.parametrize("tag", SLICE_TAGS)
def test_the_slice_walk_and_check_match_the_per_entry_forms_exhaustively(tag):
    group = group_from_tag(tag)
    for depth in range(1, 10):
        for count in range(1, depth + 1):
            fam = invariant_family(random.Random(depth * 16 + count), depth, count, group)
            tables, potential = fraction_potential_walk(fam)
            f, den = _kernel_form(fam.tables, group)
            walked, walked_potential = _potential_walk(f, depth, group)
            _same(_payload_view(walked, den, group), tables)
            _same(group.payloads_over(walked_potential, den), tuple(potential))
            assert _coboundary_mismatch(walked, walked_potential, group) is None
            assert literal_mismatch(walked, walked_potential, group) is None


def test_the_slice_walk_keeps_signed_zeros_and_float_bytes():
    values = (0.0, -0.0, 0.1, -0.3, 1e-17, -2.5)
    rng = random.Random(3)
    for depth in range(1, 9):
        tables = tuple(
            tuple(rng.choice(values) for _ in range(1 << (depth - n)))
            for n in range(1, depth + 1)
        )
        fam = GeneratorFamily((2,) * depth, APPROX_REALS, tables)
        expected, potential = fraction_potential_walk(fam)
        f, den = _kernel_form(fam.tables, APPROX_REALS)
        walked, walked_potential = _potential_walk(f, depth, APPROX_REALS)
        _same(_payload_view(walked, den, APPROX_REALS), expected)
        _same(tuple(walked_potential[0]), tuple(potential))


def _with_entry(tables, n, c, i, change):
    """``tables`` with ``change`` applied to entry i of column c of t_n."""
    table = list(map(list, tables[n - 1]))
    table[c][i] = change(table[c][i])
    return (*tables[: n - 1], tuple(map(tuple, table)), *tables[n:])


@pytest.mark.parametrize("tag", SLICE_TAGS)
def test_a_corrupted_entry_is_found_first_where_the_literal_scan_finds_it(tag):
    group = group_from_tag(tag)
    check = involution_cocycles._coboundary_mismatch
    for depth in range(1, 6):
        fam = invariant_family(random.Random(depth), depth, depth, group)
        walked, potential = _potential_walk(_kernel_form(fam.tables, group)[0], depth, group)
        rng = random.Random(depth)
        for n, table in enumerate(walked, start=1):
            for c in range(len(table)):
                for i in range(1 << depth):
                    corrupted = _with_entry(walked, n, c, i, lambda v: v + 1)
                    found = check(corrupted, potential, group)
                    assert found == literal_mismatch(corrupted, potential, group)
                    assert found[:2] == (n, i)
                    # a second wrong entry anywhere, in the next column on vec:2:
                    # the first in n-major order wins
                    m, j = rng.randrange(1, depth + 1), rng.randrange(1 << depth)
                    twice = _with_entry(corrupted, m, (c + 1) % len(table), j, lambda v: v - 3)
                    assert check(twice, potential, group) == literal_mismatch(twice, potential, group)
        # a wrong potential entry fails every pair it sits in, from both sides
        for c, column in enumerate(potential):
            for k in range(1 << depth):
                moved = [list(p) for p in potential]
                moved[c][k] += 1
                found = check(walked, moved, group)
                assert found is not None
                assert found == literal_mismatch(walked, moved, group)


@pytest.mark.parametrize("modulus", [5, 2305843009213693951])
def test_adding_the_modulus_to_an_entry_is_no_mismatch_on_mod_m(modulus):
    group = integers_mod(modulus)
    for depth in range(1, 6):
        fam = invariant_family(random.Random(depth), depth, depth, group)
        walked, potential = _potential_walk(_kernel_form(fam.tables, group)[0], depth, group)
        for n in range(1, depth + 1):
            for i in range(1 << depth):
                shifted = _with_entry(walked, n, 0, i, lambda v: v + modulus)
                assert _coboundary_mismatch(shifted, potential, group) is None
                assert literal_mismatch(shifted, potential, group) is None
