"""Cylinder functions, exact measures, and the tau functionals."""

from fractions import Fraction
from math import inf, nextafter
from sys import float_info

import pytest
from hypothesis import example, given, strategies as st

from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
    _float_below,
    _law_sums,
    _tau_sums,
    aut_distance,
    convergence_rows,
    exceedance_mass,
    exceedance_prefixes,
    full_prefix_index,
    index_to_prefix,
    iter_prefixes,
    measure_from_json,
    measure_of_cylinder_set,
    prefix_to_index,
    space_size,
    tau1_membership,
    tau3_functional,
    tau4_functional,
)
from cocycle_lab.values import (
    APPROX_REALS,
    INTEGERS,
    RATIONALS,
    GroupMismatchError,
    UnsupportedValueError,
    group_from_tag,
)

B3 = (2, 2, 2)


def rat(n, d=1):
    return Fraction(n, d)


# --- indexing and evaluation -----------------------------------------------


def test_index_codec_roundtrip_mixed_bases():
    bases = (2, 3, 2)
    seen = set()
    for i in range(12):
        x = index_to_prefix(i, bases)
        assert prefix_to_index(x, bases) == i
        seen.add(x)
    assert len(seen) == 12


def test_index_order_is_x1_fastest():
    assert index_to_prefix(0, B3) == (0, 0, 0)
    assert index_to_prefix(1, B3) == (1, 0, 0)
    assert index_to_prefix(2, B3) == (0, 1, 0)


def test_full_prefix_index_needs_valid_full_depth():
    bases = (2, 3, 2)
    for i in range(12):
        assert full_prefix_index(index_to_prefix(i, bases), bases) == i
    for bad in ((1,), (1, 2), (0, 3, 0), (0, 0, 0, 0)):
        with pytest.raises(DepthError):
            full_prefix_index(bad, bases)


def test_eval_projects_to_leading_digits():
    f = CylinderFunction((2,), INTEGERS, (10, 20))
    assert f.eval((0,)).payload == 10
    assert f.eval((1, 0, 1)).payload == 20  # only x_1 matters


def test_eval_depth_too_small():
    f = CylinderFunction((2, 2), INTEGERS, (1, 2, 3, 4))
    with pytest.raises(DepthError):
        f.eval((0,))


def test_lift_identity_and_tiling():
    f = CylinderFunction((2,), INTEGERS, (5, 7))
    assert f.lift((2,)).table == (5, 7)
    assert f.lift((2, 2)).table == (5, 7, 5, 7)
    # double lift equals a single lift to the final depth
    assert f.lift((2, 2)).lift(B3).table == f.lift(B3).table


def test_lift_to_own_bases_is_the_function_itself():
    f = CylinderFunction((2, 3), RATIONALS, tuple(Fraction(i, 5) for i in range(6)))
    assert f.lift((2, 3)) is f
    assert f.lift([2, 3]) is f


def test_lift_requires_extension():
    f = CylinderFunction((2, 2), INTEGERS, (1, 2, 3, 4))
    with pytest.raises(DepthError):
        f.lift((2,))
    with pytest.raises(DepthError):
        f.lift((3, 2, 2))


def test_lift_agrees_pointwise_exhaustively():
    f = CylinderFunction((2,), INTEGERS, (3, -4))
    lifted = f.lift(B3)
    for x in iter_prefixes(B3):
        assert lifted.eval(x) == f.eval(x)


def test_table_length_is_validated():
    with pytest.raises(ValueError):
        CylinderFunction((2, 2), INTEGERS, (1, 2, 3))


def test_cylinder_function_json_roundtrip():
    f = CylinderFunction(B3, RATIONALS, tuple(rat(i, 3) for i in range(8)))
    obj = f.to_json()
    assert obj["bases"] == [2, 2, 2] and obj["depth"] == 3 and obj["group"] == "rat"
    again = CylinderFunction.from_json(obj)
    assert again == f
    with pytest.raises(ValueError):
        CylinderFunction.from_json({**obj, "depth": 2})


# --- measures ---------------------------------------------------------------


def point_mass_oracle_bernoulli(weights, x):
    m = Fraction(1)
    for i, d in enumerate(x):
        m *= weights[i][d]
    return m


def test_bernoulli_half_first_digit():
    mu = BernoulliMeasure.uniform(B3)
    s = [x for x in iter_prefixes(B3) if x[0] == 0]
    assert measure_of_cylinder_set(mu, s) == rat(1, 2)


def test_bernoulli_total_mass_and_additivity():
    mu = BernoulliMeasure(
        (2, 3), ((rat(1, 4), rat(3, 4)), (rat(1, 2), rat(1, 3), rat(1, 6)))
    )
    prefixes = list(iter_prefixes((2, 3)))
    assert measure_of_cylinder_set(mu, prefixes) == 1
    for x in prefixes:
        assert mu.mass(x) == point_mass_oracle_bernoulli(mu.weights, x)


def test_dirac_example():
    mu = DiracMeasure(B3, (0, 1, 1))
    assert measure_of_cylinder_set(mu, [(0, 1, 1)]) == 1
    assert measure_of_cylinder_set(mu, [(1, 1, 1)]) == 0
    # zero-tail convention past the point's depth
    mu2 = DiracMeasure(B3, (1,))
    assert mu2.mass((1, 0, 0)) == 1
    assert mu2.mass((1, 1, 0)) == 0


def test_markov_singletons():
    mu = MarkovMeasure.homogeneous(
        B3, (rat(1, 2), rat(1, 2)), ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2)))
    )
    for x in iter_prefixes(B3):
        # oracle: literal chain product
        expected = rat(1, 2)
        for i in range(len(x) - 1):
            expected *= rat(1, 2)
        assert mu.mass(x) == expected == rat(1, 8)


def test_markov_inhomogeneous_chain_product():
    mats = (
        ((rat(1), rat(0)), (rat(1, 3), rat(2, 3))),
        ((rat(1, 4), rat(3, 4)), (rat(1, 2), rat(1, 2))),
    )
    mu = MarkovMeasure(B3, (rat(2, 5), rat(3, 5)), mats)
    x = (1, 1, 0)
    assert mu.mass(x) == rat(3, 5) * rat(2, 3) * rat(1, 2)
    assert measure_of_cylinder_set(mu, list(iter_prefixes(B3))) == 1


def test_markov_mass_on_the_empty_prefix_is_one():
    mats = (((rat(1), rat(0)), (rat(1, 3), rat(2, 3))),) * 2
    mu = MarkovMeasure(B3, (rat(2, 5), rat(3, 5)), mats)
    assert mu.mass(()) == 1
    assert mu.mass_table(()) == (1,)


def test_mixture_mass():
    mu = MixtureMeasure(
        (DiracMeasure(B3, (0, 0, 0)), BernoulliMeasure.uniform(B3)),
        (rat(1, 3), rat(2, 3)),
    )
    assert mu.mass((0, 0, 0)) == rat(1, 3) + rat(2, 3) * rat(1, 8)
    assert measure_of_cylinder_set(mu, list(iter_prefixes(B3))) == 1


def test_measure_validation():
    with pytest.raises(ValueError):
        BernoulliMeasure((2,), ((rat(1, 3), rat(1, 3)),))
    with pytest.raises(ValueError):
        MixtureMeasure((BernoulliMeasure.uniform(B3),), (rat(1, 2),))


@pytest.mark.parametrize(
    "mu",
    [
        BernoulliMeasure.uniform(B3),
        DiracMeasure(B3, (0, 1, 1)),
        MarkovMeasure.homogeneous(
            B3, (rat(1, 2), rat(1, 2)), ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2)))
        ),
        MixtureMeasure(
            (DiracMeasure(B3, (1, 0, 0)), BernoulliMeasure.uniform(B3)),
            (rat(1, 4), rat(3, 4)),
        ),
    ],
)
def test_measure_json_roundtrip(mu):
    again = measure_from_json(mu.to_json())
    for x in iter_prefixes(B3):
        assert again.mass(x) == mu.mass(x)


# --- mass tables -------------------------------------------------------------


@st.composite
def probability_vectors(draw, size):
    cuts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
    return tuple(rat(c, sum(cuts)) for c in cuts)


@st.composite
def measures(draw, bases=None, nesting=2):
    """A measure of any kind on mixed bases; mixtures nest up to ``nesting`` deep."""
    if bases is None:
        bases = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    kinds = ("bernoulli", "markov", "dirac") + (("mixture",) if nesting else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "bernoulli":
        return BernoulliMeasure(bases, tuple(draw(probability_vectors(b)) for b in bases))
    if kind == "markov":
        transitions = tuple(
            tuple(draw(probability_vectors(bases[k + 1])) for _ in range(bases[k]))
            for k in range(len(bases) - 1)
        )
        return MarkovMeasure(bases, draw(probability_vectors(bases[0])), transitions)
    if kind == "dirac":  # the point may be shorter than the bases (zero tail)
        length = draw(st.integers(0, len(bases)))
        return DiracMeasure(bases, tuple(draw(st.integers(0, b - 1)) for b in bases[:length]))
    components = draw(st.lists(measures(bases, nesting - 1), min_size=1, max_size=3))
    return MixtureMeasure(tuple(components), draw(probability_vectors(len(components))))


NESTED_MARKOV = MarkovMeasure(
    (3, 2, 2),
    (rat(1, 6), rat(1, 2), rat(1, 3)),
    (
        ((rat(1, 4), rat(3, 4)), (rat(1), rat(0)), (rat(2, 5), rat(3, 5))),
        ((rat(1, 3), rat(2, 3)), (rat(1, 2), rat(1, 2))),
    ),
)


# pairwise-coprime row denominators: the table's is their product
COPRIME_BERNOULLI = BernoulliMeasure(
    (2, 3, 2, 2),
    (
        (rat(1, 3), rat(2, 3)),
        (rat(1, 5), rat(2, 5), rat(2, 5)),
        (rat(3, 7), rat(4, 7)),
        (rat(0), rat(1)),
    ),
)

# each step's transition matrix over its own prime: 3, then 5, then 7
COPRIME_MARKOV = MarkovMeasure(
    (2, 3, 2, 2),
    (rat(1, 2), rat(1, 2)),
    (
        ((rat(1, 3), rat(1, 3), rat(1, 3)), (rat(2, 3), rat(0), rat(1, 3))),
        ((rat(1, 5), rat(4, 5)), (rat(2, 5), rat(3, 5)), (rat(1), rat(0))),
        ((rat(3, 7), rat(4, 7)), (rat(6, 7), rat(1, 7))),
    ),
)

# components over pairwise-coprime denominators 3^k, 5^k and 7^k; weights
# of a probability vector cannot have pairwise-coprime denominators > 1,
# so theirs are 6, 3 and 2
COPRIME_MIXTURE = MixtureMeasure(
    (
        BernoulliMeasure((2, 2, 2), ((rat(1, 3), rat(2, 3)),) * 3),
        BernoulliMeasure((2, 2, 2), ((rat(2, 5), rat(3, 5)),) * 3),
        MarkovMeasure.homogeneous(
            (2, 2, 2), (rat(3, 7), rat(4, 7)), ((rat(1, 7), rat(6, 7)), (rat(5, 7), rat(2, 7)))
        ),
    ),
    (rat(1, 6), rat(1, 3), rat(1, 2)),
)

NESTED_MIXTURE = MixtureMeasure(
    (
        MixtureMeasure(
            (NESTED_MARKOV, DiracMeasure((3, 2, 2), (1, 1))), (rat(1, 3), rat(2, 3))
        ),
        BernoulliMeasure.uniform((3, 2, 2)),
    ),
    (rat(3, 4), rat(1, 4)),
)


@given(measures())
@example(DiracMeasure((3, 2, 2), (2,)))
@example(COPRIME_BERNOULLI)
@example(COPRIME_MARKOV)
@example(COPRIME_MIXTURE)
@example(NESTED_MIXTURE)
def test_mass_table_is_the_mass_of_every_prefix(mu):
    for depth in range(1, len(mu.bases) + 1):
        bases = mu.bases[:depth]
        nums, den = numerators = mu._mass_numerators(bases)
        assert type(den) is int and den >= 1
        assert all(type(n) is int for n in nums)
        assert sum(nums) == den
        assert mu._mass_numerators(list(bases)) is numerators  # cached on the instance
        table = mu.mass_table(bases)
        assert type(table) is tuple and len(table) == space_size(bases)
        for i, (m, n) in enumerate(zip(table, nums)):
            assert type(m) is Fraction
            assert m == Fraction(n, den) == mu.mass(index_to_prefix(i, bases))
        assert mu.mass_table(list(bases)) is table  # cached on the instance


def test_mass_table_needs_a_leading_segment_of_the_bases():
    mu = BernoulliMeasure.uniform((2, 3, 2))
    assert mu.mass_table((2, 3)) == (rat(1, 6),) * 6
    for bad in ((3,), (2, 2), (2, 3, 2, 2)):
        with pytest.raises(DepthError):
            mu.mass_table(bad)


# --- tau functionals ---------------------------------------------------------


# The oracles sum over the prefixes in table order with mu.mass, term by
# term as the functionals' literal sums do, so that on ``real`` they
# repeat the float bytes too.


def _brute_metrics(f, g, bases):
    metric = f.group.metric
    for x in iter_prefixes(bases):
        yield x, metric(f.eval(x).payload, g.eval(x).payload)


def brute_tau3(f, g, mu, bases):
    total = Fraction(0)
    for x, d in _brute_metrics(f, g, bases):
        total += mu.mass(x) * (d if d < 1 else Fraction(1))
    return total


def brute_tau4(f, g, mu, bases):
    total = Fraction(0)
    for x, d in _brute_metrics(f, g, bases):
        total += mu.mass(x) * d / (1 + d)
    return total


def brute_exceedance(f, g, eps, mu, bases):
    return sum((mu.mass(x) for x, d in _brute_metrics(f, g, bases) if d > eps), Fraction(0))


def test_tau1_examples():
    f = CylinderFunction.constant(B3, RATIONALS, rat(2, 7))
    mu = BernoulliMeasure.uniform(B3)
    assert tau1_membership(f, f, [mu], rat(1, 100), rat(1, 100))
    g = CylinderFunction.constant(B3, RATIONALS, f.table[0] + 1)
    assert not tau1_membership(f, g, [mu], rat(1, 2), rat(1, 2))
    h = CylinderFunction((2,), RATIONALS, (rat(0), rat(1)))
    zero = CylinderFunction.constant((2,), RATIONALS, 0)
    assert tau1_membership(h, zero, [mu], rat(1, 2), rat(3, 4))  # 1/2 < 3/4


def test_tau1_strictness_at_the_boundary():
    mu = BernoulliMeasure.uniform((2,))
    h = CylinderFunction((2,), RATIONALS, (rat(0), rat(1)))
    zero = CylinderFunction.constant((2,), RATIONALS, 0)
    # exceedance measure is exactly 1/2, and membership needs strict <
    assert not tau1_membership(h, zero, [mu], rat(1, 2), rat(1, 2))
    # exceedance uses strict >, so eps = 1 empties the set
    assert tau1_membership(h, zero, [mu], rat(1), rat(1, 100))


def test_tau3_examples():
    mu = BernoulliMeasure.uniform(B3)
    f = CylinderFunction.constant(B3, RATIONALS, rat(1, 3))
    assert tau3_functional(f, f, mu) == 0
    g = CylinderFunction.constant(B3, RATIONALS, rat(1, 3) + rat(1, 2))
    assert tau3_functional(f, g, mu) == rat(1, 2)
    a = CylinderFunction((2,), RATIONALS, (rat(0), rat(2)))
    zero = CylinderFunction.constant((2,), RATIONALS, 0)
    assert tau3_functional(a, zero, mu) == rat(1, 2)  # clipped at 1 on half the space


def test_tau4_examples():
    mu = BernoulliMeasure.uniform(B3)
    f = CylinderFunction.constant(B3, RATIONALS, rat(5, 9))
    assert tau4_functional(f, f, mu) == 0
    g = CylinderFunction.constant(B3, RATIONALS, f.table[0] + rat(1, 2))
    assert tau4_functional(f, g, mu) == rat(1, 3)
    a = CylinderFunction((2,), RATIONALS, (rat(0), rat(2)))
    zero = CylinderFunction.constant((2,), RATIONALS, 0)
    assert tau4_functional(a, zero, mu) == rat(1, 3)  # (1/2) * (2/3)


def test_tau_group_mismatch():
    f = CylinderFunction.constant(B3, RATIONALS, 0)
    g = CylinderFunction.constant(B3, INTEGERS, 0)
    with pytest.raises(GroupMismatchError):
        tau3_functional(f, g, BernoulliMeasure.uniform(B3))


tables3 = st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=8)] * 8))


@given(tables3, tables3)
def test_tau_functionals_match_brute_force(tf, tg):
    f = CylinderFunction(B3, RATIONALS, tf)
    g = CylinderFunction(B3, RATIONALS, tg)
    mu = BernoulliMeasure.uniform(B3)
    assert tau3_functional(f, g, mu) == brute_tau3(f, g, mu, B3)
    assert tau4_functional(f, g, mu) == brute_tau4(f, g, mu, B3)


GROUP_PAYLOADS = {
    "int": st.integers(-3, 3),
    "rat": st.fractions(min_value=-3, max_value=3, max_denominator=8),
    "dy": st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-8, 8), st.integers(0, 3)),
    "mod:5": st.integers(0, 4),
    "vec:2": st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2),
    "real": st.floats(-3, 3),
}
EXACT_TAGS = ("int", "rat", "dy", "mod:5", "vec:2")
RADII = (rat(0), rat(1, 4), rat(1, 2), rat(1), rat(2))


@st.composite
def law_cases(draw, tags):
    """(f, g, mu, eps): a measure of any kind, and f and g of different
    depths on a leading segment of its bases, in one group of ``tags``."""
    mu = draw(measures())
    tag = draw(st.sampled_from(tags))
    group = group_from_tag(tag)
    bases = mu.bases[: draw(st.integers(1, len(mu.bases)))]
    short = bases[: draw(st.integers(1, len(bases)))]

    def function(b):
        size = space_size(b)
        return CylinderFunction(
            b, group, draw(st.lists(GROUP_PAYLOADS[tag], min_size=size, max_size=size))
        )

    f, g = function(bases), function(short)
    return (f, g) if draw(st.booleans()) else (g, f), mu, draw(st.sampled_from(RADII))


def _primes(count):
    found, n = [], 2
    while len(found) < count:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    return found


# f and g over 48 distinct primes, against a measure whose rows' denominators
# are pairwise coprime too: every metric value is its own law entry
_P = _primes(49)[1:]
COPRIME_PAIR = (
    CylinderFunction((2, 3, 2, 2), RATIONALS, [rat(7 * i - 40, p) for i, p in enumerate(_P[:24])]),
    CylinderFunction((2, 3, 2, 2), RATIONALS, [rat(p - 3 * i, p) for i, p in enumerate(_P[24:])]),
)


def _expected_sums(f, g, eps, mu):
    bases = max(f.bases, g.bases, key=len)
    return (
        brute_tau3(f, g, mu, bases),
        brute_tau4(f, g, mu, bases),
        brute_exceedance(f, g, eps, mu, bases),
    )


@given(law_cases(EXACT_TAGS))
@example((COPRIME_PAIR, COPRIME_BERNOULLI, rat(1, 2)))
@example((COPRIME_PAIR, COPRIME_MARKOV, rat(1)))
def test_functionals_from_the_law_match_the_literal_sums(case):
    (f, g), mu, eps = case
    sums = _tau_sums(f, g, eps, mu)
    public = (tau3_functional(f, g, mu), tau4_functional(f, g, mu), exceedance_mass(f, g, eps, mu))
    expected = _expected_sums(f, g, eps, mu)
    assert sums == public == expected
    assert list(map(repr, sums)) == list(map(repr, public)) == list(map(repr, expected))
    assert all(type(v) is Fraction for v in sums + public)


@given(law_cases(("real",)))
@example((
    (
        CylinderFunction((2, 2), APPROX_REALS, (0.1, 1.0, 2.5, -0.3)),
        CylinderFunction((2,), APPROX_REALS, (0.0, 1.0 / 3)),
    ),
    COPRIME_MIXTURE,
    rat(1, 2),
))
def test_functionals_on_real_repeat_the_literal_float_sums(case):
    (f, g), mu, eps = case
    sums = _tau_sums(f, g, eps, mu)
    public = (tau3_functional(f, g, mu), tau4_functional(f, g, mu), exceedance_mass(f, g, eps, mu))
    expected = _expected_sums(f, g, eps, mu)
    for got in (sums, public):  # bit for bit: type and repr
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in expected]


def _literal_tau3(law, den):
    total = Fraction(0)
    for (p, q), n in law.items():
        total += n * min(Fraction(p, q), Fraction(1))
    return total / den


def _literal_tau4(law, den):
    total = Fraction(0)
    for (p, q), n in law.items():
        total += n * Fraction(p, q) / (1 + Fraction(p, q))
    return total / den


_PRIMES = _primes(1202)[2:]  # 1,200 primes from 5 on
# reduced metric values p/q whose term denominators are distinct primes: q
# for tau3 in the first law (every third value lies above 1, where tau3
# clips), p + q for tau4 in the second
LAW_OVER_PRIMES = {
    (q + 1 + i % 5 if i % 3 == 0 else 1 + i % (q - 1), q): 1 + i % 7
    for i, q in enumerate(_PRIMES)
}
TAU4_LAW_OVER_PRIMES = {(1 + i % 3, p - 1 - i % 3): 2 + i % 5 for i, p in enumerate(_PRIMES)}


@pytest.mark.parametrize(
    "law",
    [LAW_OVER_PRIMES, TAU4_LAW_OVER_PRIMES, {}, {(3, 7): 5}, {(9, 2): 1}, {(0, 1): 4}],
    ids=["tau3-primes", "tau4-primes", "empty", "one-below-1", "one-above-1", "zero"],
)
@pytest.mark.parametrize("den", [1, 2**7 * 3**5 * 7])
def test_law_sums_equal_literal_fraction_sums(law, den):
    tau3, tau4, _ = _law_sums(law, den, Fraction(0))
    for got, literal in ((tau3, _literal_tau3), (tau4, _literal_tau4)):
        assert type(got) is Fraction and got == literal(law, den)
    if not law:
        assert tau3 == tau4 == 0


def test_prime_laws_have_over_a_thousand_coprime_denominators():
    assert len({q for _, q in LAW_OVER_PRIMES}) == len(LAW_OVER_PRIMES) > 1000
    assert len({p + q for p, q in TAU4_LAW_OVER_PRIMES}) == len(TAU4_LAW_OVER_PRIMES) > 1000
    assert sum(p > q for p, q in LAW_OVER_PRIMES) > 300  # tau3's clipped branch


H2 = CylinderFunction((2,), RATIONALS, (rat(0), rat(1)))
ZERO2 = CylinderFunction.constant((2,), RATIONALS, 0)
MU2 = BernoulliMeasure.uniform((2,))
EXCEEDANCE_READERS = {
    "exceedance_prefixes": lambda f, g, eps: len(exceedance_prefixes(f, g, eps)),
    "exceedance_mass": lambda f, g, eps: exceedance_mass(f, g, eps, MU2),
    "_tau_sums": lambda f, g, eps: _tau_sums(f, g, eps, MU2)[2],
    "tau1_membership": lambda f, g, eps: tau1_membership(f, g, [MU2], eps, rat(3, 4)),
}


@pytest.mark.parametrize("reader", EXCEEDANCE_READERS)
def test_every_exceedance_reader_takes_an_exact_radius_string(reader):
    read = EXCEEDANCE_READERS[reader]
    assert read(H2, ZERO2, "1/2") == read(H2, ZERO2, rat(1, 2))
    assert read(H2, ZERO2, "1") == read(H2, ZERO2, rat(1))


@pytest.mark.parametrize("reader", EXCEEDANCE_READERS)
def test_every_exceedance_reader_refuses_a_float_radius_on_an_exact_group(reader):
    with pytest.raises(UnsupportedValueError, match="exact rational"):
        EXCEEDANCE_READERS[reader](H2, ZERO2, 0.5)
    # on real the radius is read as it is given
    h = CylinderFunction((2,), APPROX_REALS, (0.0, 1.0))
    zero = CylinderFunction.constant((2,), APPROX_REALS, 0.0)
    read = EXCEEDANCE_READERS[reader]
    assert read(h, zero, 0.5) == read(h, zero, rat(1, 2))


# --- the real radius as a float threshold -----------------------------------
# past the float range: float() raises OverflowError there
PAST_FLOATS = st.builds(lambda n, d, sign: sign * Fraction((1 << 1030) + n, d),
                        st.integers(0, 1 << 60), st.integers(1, 4), st.sampled_from((1, -1)))
FRACTION_RADII = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),  # a float exactly
    st.fractions(),  # almost always between two floats
    st.fractions(max_value=0),  # negative
    PAST_FLOATS,
)


@given(FRACTION_RADII, st.lists(st.floats(allow_nan=False), max_size=4))
def test_the_float_threshold_agrees_with_the_fraction_comparison(eps, others):
    e = _float_below(eps)
    assert Fraction(e) <= eps if abs(e) != inf else e == -inf and eps < -float_info.max
    try:
        near = float(eps)
    except OverflowError:
        near = float_info.max if eps > 0 else -float_info.max
    # the floats on either side of eps, and a few others
    for d in (near, nextafter(near, inf), nextafter(near, -inf), 0.0, inf, -inf, *others):
        assert (d > e) == (d > eps)


def test_the_float_threshold_steps_down_from_a_float_above_the_radius():
    assert _float_below(Fraction(0.1)) == 0.1  # a float exactly
    assert _float_below(Fraction(1, 10)) == nextafter(0.1, -inf)  # float(1/10) > 1/10
    assert _float_below(Fraction(1, 3)) == 1 / 3  # float(1/3) < 1/3
    assert _float_below(Fraction(-1, 10)) == -0.1  # float(-1/10) < -1/10
    assert _float_below(Fraction(1 << 1030)) == float_info.max
    assert _float_below(Fraction(-(1 << 1030))) == -inf


@given(tables3, tables3)
def test_tau4_below_tau3_below_one(tf, tg):
    f = CylinderFunction(B3, RATIONALS, tf)
    g = CylinderFunction(B3, RATIONALS, tg)
    mu = BernoulliMeasure.uniform(B3)
    t3, t4 = tau3_functional(f, g, mu), tau4_functional(f, g, mu)
    assert t4 <= t3 <= 1


@given(tables3)
def test_refinement_lift_has_zero_distance(tf):
    f = CylinderFunction(B3, RATIONALS, tf)
    lifted = f.lift((2, 2, 2, 2))
    mu = BernoulliMeasure.uniform((2, 2, 2, 2))
    assert tau3_functional(f, lifted, mu) == 0


def test_tau1_monotone_in_delta():
    mu = BernoulliMeasure.uniform(B3)
    f = CylinderFunction((2,), RATIONALS, (rat(0), rat(1)))
    zero = CylinderFunction.constant((2,), RATIONALS, 0)
    eps = rat(1, 2)
    for d1, d2 in [(rat(1, 4), rat(3, 4)), (rat(51, 100), rat(9, 10))]:
        if tau1_membership(f, zero, [mu], eps, d1):
            assert tau1_membership(f, zero, [mu], eps, d2)


@given(tables3, st.integers(1, 3), st.integers(1, 3))
def test_quantitative_inclusion_constants(tf, enum, dnum):
    """tau3 < eps*delta and tau4 < eps*delta/(1+eps) each force a small
    exceedance set (eps kept <= 1: the integrand clip makes larger eps
    carry no information)."""
    f = CylinderFunction(B3, RATIONALS, tf)
    zero = CylinderFunction.constant(B3, RATIONALS, 0)
    mu = BernoulliMeasure.uniform(B3)
    eps, delta = Fraction(enum, 3), Fraction(dnum, 3)
    exceed = measure_of_cylinder_set(mu, exceedance_prefixes(f, zero, eps))
    if tau3_functional(f, zero, mu) < eps * delta:
        assert exceed < delta
    if tau4_functional(f, zero, mu) < eps * delta / (1 + eps):
        assert exceed < delta


# --- pointwise stabilization vs tau1 with point masses -----------------------


def test_pointwise_stabilization_matches_dirac_membership():
    """A sequence stabilizes at x iff it is eventually tau1-close under
    the point mass at x with any delta < 1."""
    mu = DiracMeasure(B3, (1, 0, 1))
    target = CylinderFunction.constant(B3, RATIONALS, rat(1))
    seq = [
        target + CylinderFunction.constant(B3, RATIONALS, rat(1, n))
        for n in range(1, 4)
    ] + [target, target]
    member = [
        tau1_membership(fn, target, [mu], rat(1, 100), rat(1, 2)) for fn in seq
    ]
    assert member == [False, False, False, True, True]
    # a sequence never stabilizing at the point never becomes a member
    bad = CylinderFunction.constant(B3, RATIONALS, rat(3))
    assert not tau1_membership(bad, target, [mu], rat(1, 2), rat(1, 2))


# --- automorphism distance ---------------------------------------------------


def test_aut_distance_examples():
    from cocycle_lab.dynamics import MarkerSequence, Odometer, periodic_approx

    mu2 = BernoulliMeasure.uniform((2, 2))
    m2 = Odometer.binary(2)
    assert aut_distance(m2, m2, mu2) == 0
    identity = (tuple(range(4)), (2, 2))
    assert aut_distance(identity, m2, mu2) == 1  # they disagree everywhere

    m3 = Odometer.binary(3)
    p1 = periodic_approx(m3, MarkerSequence(m3).marker_indices(1))
    mu3 = BernoulliMeasure.uniform((2, 2, 2))
    # oracle: exhaustive disagreement scan
    disagree = [
        index_to_prefix(i, (2, 2, 2))
        for i in range(8)
        if p1.permutation[i] != m3.permutation[i]
    ]
    assert disagree == [x for x in iter_prefixes((2, 2, 2)) if x[0] == 1]
    assert aut_distance(p1, m3, mu3) == rat(1, 2)


def test_aut_distance_depth_mismatch():
    from cocycle_lab.dynamics import Odometer

    with pytest.raises(DepthError):
        aut_distance(Odometer.binary(2), Odometer.binary(3), BernoulliMeasure.uniform((2, 2)))
    # a permutation needs one entry per prefix of its bases
    mu = BernoulliMeasure.uniform((2, 2))
    for perm in ((1, 0, 2), (1, 0, 2, 3, 4)):
        with pytest.raises(DepthError, match="different prefix spaces"):
            aut_distance((perm, (2, 2)), (perm, (2, 2)), mu)


# --- measures in other radices ----------------------------------------------
# A mass table is indexed in the measure's radices, so a measure whose bases
# do not extend the function's or the prefixes' is refused, not paired digit
# by digit across different radices.

F22 = CylinderFunction((2, 2), RATIONALS, (rat(0), rat(1, 2), rat(2), rat(-1)))
ZERO22 = CylinderFunction.constant((2, 2), RATIONALS, 0)
MU33 = BernoulliMeasure.uniform((3, 3))
MU223 = BernoulliMeasure.uniform((2, 2, 3))


def test_tau3_refuses_a_measure_in_other_radices():
    with pytest.raises(DepthError, match="do not extend"):
        tau3_functional(F22, ZERO22, MU33)
    assert tau3_functional(F22, ZERO22, MU223) == brute_tau3(F22, ZERO22, MU223, (2, 2))


def test_tau4_refuses_a_measure_in_other_radices():
    with pytest.raises(DepthError, match="do not extend"):
        tau4_functional(F22, ZERO22, MU33)
    assert tau4_functional(F22, ZERO22, MU223) == brute_tau4(F22, ZERO22, MU223, (2, 2))


def test_measure_of_cylinder_set_refuses_a_measure_in_other_radices():
    with pytest.raises(DepthError, match="do not extend"):
        measure_of_cylinder_set(MU33, [(1, 1)], (2, 2))
    with pytest.raises(DepthError, match="do not extend"):
        measure_of_cylinder_set(MU33, [], (2, 2))
    with pytest.raises(DepthError, match="not written in bases"):
        measure_of_cylinder_set(MU223, [(1,)], (2, 2))
    with pytest.raises(DepthError, match="at coordinate 2"):
        measure_of_cylinder_set(MU223, [(1, 2)], (2, 2))
    with pytest.raises(ValueError, match="repeated"):
        measure_of_cylinder_set(MU223, [(1, 1), (1, 1)], (2, 2))
    assert measure_of_cylinder_set(MU223, [(1, 1), (0, 1)], (2, 2)) == rat(1, 2)
    assert measure_of_cylinder_set(MU33, [(1, 1), (2, 2)]) == rat(2, 9)


def test_aut_distance_refuses_a_measure_in_other_radices():
    from cocycle_lab.dynamics import Odometer

    m2 = Odometer.binary(2)
    for s in (m2, (tuple(range(4)), (2, 2))):
        with pytest.raises(DepthError, match="do not extend"):
            aut_distance(s, m2, MU33)
    assert aut_distance((tuple(range(4)), (2, 2)), m2, MU223) == 1


# --- index sums against the prefix path ---------------------------------------
# The functionals sum mass-table entries over table indices; the oracle is
# measure_of_cylinder_set over the literal sets, written as prefixes.


def _outcome(fn, *args):
    """The value, or the exception type for a DepthError."""
    try:
        return fn(*args)
    except DepthError:
        return DepthError


@st.composite
def function_pairs(draw):
    """A measure, and f and g of different depths: their bases are a leading
    segment of the measure's or, sometimes, another mixed base vector."""
    mu = draw(measures())
    if draw(st.booleans()):
        bases = mu.bases[: draw(st.integers(1, len(mu.bases)))]
    else:
        bases = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    short = bases[: draw(st.integers(1, len(bases)))]
    values = st.fractions(min_value=-2, max_value=2, max_denominator=4)

    def function(b):
        return CylinderFunction(b, RATIONALS, draw(st.lists(
            values, min_size=space_size(b), max_size=space_size(b))))

    f, g = function(bases), function(short)
    return (f, g) if draw(st.booleans()) else (g, f), mu


@given(function_pairs(), st.sampled_from((rat(0), rat(1, 4), rat(1, 2), rat(1))),
       st.sampled_from((rat(0), rat(1, 3), rat(1, 2), rat(1))))
def test_exceedance_functionals_match_the_prefix_path(pair, eps, delta):
    (f, g), mu = pair
    bases = max(f.bases, g.bases, key=len)
    exceed = [x for x in iter_prefixes(bases) if abs(f.eval(x).payload - g.eval(x).payload) > eps]
    assert exceedance_prefixes(f, g, eps) == exceed
    prefix_mass = _outcome(measure_of_cylinder_set, mu, exceed, bases)
    if prefix_mass is not DepthError:
        assert prefix_mass == sum(mu.mass(x) for x in exceed)
    assert _outcome(exceedance_mass, f, g, eps, mu) == prefix_mass
    expected = prefix_mass if prefix_mass is DepthError else prefix_mass < delta
    assert _outcome(tau1_membership, f, g, [mu], eps, delta) == expected


@given(st.data(), measures())
def test_aut_distance_matches_the_prefix_path(data, mu):
    bases = mu.bases[: data.draw(st.integers(1, len(mu.bases)))]
    if data.draw(st.booleans()):  # sometimes another base vector of the same size
        bases = tuple(data.draw(st.permutations(bases)))
    s, t = (tuple(data.draw(st.permutations(range(space_size(bases))))) for _ in "st")
    disagree = [index_to_prefix(i, bases) for i in range(len(s)) if s[i] != t[i]]
    expected = _outcome(measure_of_cylinder_set, mu, disagree, bases)
    if expected is not DepthError:
        assert expected == sum(mu.mass(x) for x in disagree)
    assert _outcome(aut_distance, (s, bases), (t, bases), mu) == expected


# --- convergence table -------------------------------------------------------


def test_convergence_rows_columns():
    mu = BernoulliMeasure.uniform(B3)
    target = CylinderFunction.constant(B3, RATIONALS, 0)
    seq = [
        CylinderFunction.constant(B3, RATIONALS, rat(1, 2**n)) for n in range(1, 4)
    ]
    rows = convergence_rows(seq, target, mu, rat(1, 4), rat(1, 2))
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert set(rows[0]) == {"n", "tau1", "tau3", "tau4"}
    assert rows[0]["tau3"] == rat(1, 2)
    assert rows[2]["tau1"] == 1  # 1/8 <= 1/4 so the exceedance set is empty


DELTAS = (rat(0), rat(1, 4), rat(1, 2), rat(1), "3/4")


@given(law_cases(EXACT_TAGS + ("real",)), st.sampled_from(DELTAS))
def test_convergence_rows_match_the_three_public_functions(case, delta):
    (f, g), mu, eps = case
    functions = [f, g, f]
    expected = [
        {
            "n": n,
            "tau1": int(tau1_membership(fn, g, [mu], eps, delta)),
            "tau3": tau3_functional(fn, g, mu),
            "tau4": tau4_functional(fn, g, mu),
        }
        for n, fn in enumerate(functions, start=1)
    ]
    rows = convergence_rows(functions, g, mu, eps, delta)
    assert rows == expected
    assert repr(rows) == repr(expected)


@pytest.mark.parametrize("group", [RATIONALS, APPROX_REALS])
def test_convergence_rows_refuse_a_float_delta(group):
    mu = BernoulliMeasure.uniform(B3)
    target = CylinderFunction.constant(B3, group, 0)
    with pytest.raises(UnsupportedValueError):
        convergence_rows([target], target, mu, rat(1, 4), 0.5)


def test_convergence_csv_header_and_exact_fractions():
    from cocycle_lab.space import convergence_csv

    mu = BernoulliMeasure.uniform(B3)
    target = CylinderFunction.constant(B3, RATIONALS, 0)
    seq = [CylinderFunction.constant(B3, RATIONALS, rat(1, 3))]
    text = convergence_csv(convergence_rows(seq, target, mu, rat(1, 4), rat(1, 2)))
    lines = text.strip().splitlines()
    assert lines[0] == "n,tau1,tau3,tau4"
    assert lines[1] == "1,0,1/3,1/4"
