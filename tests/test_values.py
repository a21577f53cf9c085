"""Group laws, metrics, neighborhood chains, and dyadic rounding."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cocycle_lab.values import (
    APPROX_REALS,
    DYADICS,
    INTEGERS,
    RATIONALS,
    GroupMismatchError,
    MAX_PROJECTION_TERMS,
    GroupValue,
    ModularGroup,
    NeighborhoodChain,
    UnsupportedValueError,
    _grid_exponent,
    _grid_numerator,
    _grid_round,
    _integer_numerators,
    as_fraction,
    group_from_tag,
    integers_mod,
    is_dyadic,
    rational_vectors,
    round_to_dense,
    round_to_dyadic,
    value_from_json,
)
from cocycle_lab import values
from cocycle_lab.space import MAX_POINTS

MOD4 = integers_mod(4)
VEC2 = rational_vectors(2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
dyadics = st.builds(
    lambda n, k: Fraction(n, 1 << k), st.integers(-32, 32), st.integers(0, 5)
)

GROUP_STRATEGIES = [
    (INTEGERS, st.integers(-50, 50)),
    (RATIONALS, rationals),
    (DYADICS, dyadics),
    (MOD4, st.integers(0, 3)),
    (VEC2, st.tuples(rationals, rationals)),
]


def triples(pair):
    group, strat = pair
    return st.tuples(st.just(group), st.tuples(strat, strat, strat))


group_triples = st.one_of([triples(p) for p in GROUP_STRATEGIES])


# --- worked examples -------------------------------------------------------


def test_add_fractions():
    a = GroupValue(RATIONALS, Fraction(1, 3))
    b = GroupValue(RATIONALS, Fraction(1, 6))
    assert (a + b).payload == Fraction(1, 2)


def test_add_mod():
    a = GroupValue(MOD4, 3)
    b = GroupValue(MOD4, 2)
    assert (a + b).payload == 1


def test_add_identity():
    a = GroupValue(RATIONALS, Fraction(-7, 5))
    zero = GroupValue(RATIONALS, 0)
    assert a + zero == a


def test_metric_examples():
    assert GroupValue(RATIONALS, Fraction(1, 2)).metric_to(
        GroupValue(RATIONALS, Fraction(1, 3))
    ) == Fraction(1, 6)
    a = GroupValue(INTEGERS, 9)
    assert a.metric_to(a) == 0


def test_vector_metric_is_sum_of_absolute_differences():
    a = GroupValue(VEC2, (Fraction(1), Fraction(0)))
    b = GroupValue(VEC2, (Fraction(0), Fraction(1)))
    # oracle: the documented norm, summed coordinatewise
    expected = abs(Fraction(1) - 0) + abs(Fraction(0) - 1)
    assert a.metric_to(b) == expected == 2


def test_mod_metric_is_circular():
    g = integers_mod(10)
    assert g.metric(1, 9) == 2
    assert g.metric(0, 5) == 5


def test_group_mismatch_raises():
    with pytest.raises(GroupMismatchError):
        GroupValue(RATIONALS, 1) + GroupValue(INTEGERS, 1)
    with pytest.raises(GroupMismatchError):
        GroupValue(MOD4, 1).metric_to(GroupValue(integers_mod(5), 1))


def test_dyadic_validation():
    assert GroupValue(DYADICS, Fraction(3, 8)).payload == Fraction(3, 8)
    with pytest.raises(UnsupportedValueError):
        GroupValue(DYADICS, Fraction(1, 3))


# --- group laws (sampled) --------------------------------------------------


@given(group_triples)
def test_add_commutative_associative(data):
    group, (a, b, c) = data
    a, b, c = (group.validate(v) for v in (a, b, c))
    assert group.add(a, b) == group.add(b, a)
    assert group.add(group.add(a, b), c) == group.add(a, group.add(b, c))


@given(group_triples)
def test_inverse_and_identity(data):
    group, (a, _, _) = data
    a = group.validate(a)
    assert group.add(a, group.neg(a)) == group.zero()
    assert group.add(a, group.zero()) == a


@given(group_triples)
def test_metric_axioms_and_translation_invariance(data):
    group, (a, b, c) = data
    a, b, c = (group.validate(v) for v in (a, b, c))
    d = group.metric(a, b)
    assert d >= 0
    assert group.metric(a, a) == 0
    assert d == group.metric(b, a)
    assert group.metric(a, c) <= group.metric(a, b) + group.metric(b, c)
    assert group.metric(group.add(a, c), group.add(b, c)) == d


@given(group_triples, st.integers(-7, 7))
def test_scale_is_repeated_addition(data, k):
    group, (a, _, _) = data
    a = group.validate(a)
    acc = group.zero()
    for _ in range(abs(k)):
        acc = group.add(acc, a)
    if k < 0:
        acc = group.neg(acc)
    assert group.scale(a, k) == acc


# --- neighborhood chain ----------------------------------------------------


def test_chain_halving_is_exact():
    chain = NeighborhoodChain(Fraction(3, 7))
    for n in range(12):
        assert 2 * chain.epsilon(n + 1) <= chain.epsilon(n)
        assert chain.epsilon(n) == Fraction(3, 7) / 2**n


@given(rationals, st.integers(0, 6))
def test_chain_balls_are_symmetric(v, n):
    chain = NeighborhoodChain(Fraction(1, 2))
    eps = chain.epsilon(n)
    inside = abs(v) <= eps
    assert (abs(-v) <= eps) == inside


def test_chain_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        NeighborhoodChain(Fraction(0))


# --- dyadic rounding -------------------------------------------------------


def literal_grid_round(v: Fraction, eps: Fraction) -> Fraction:
    """Independent oracle: find the grid 2^-q <= eps by the literal scan
    over q, then scan that grid around v."""
    q = 0
    while Fraction(1, 2**q) > eps:
        q += 1
    den = 2**q
    floor = math.floor(v * den)
    candidates = [Fraction(k, den) for k in range(floor - 2, floor + 3)]
    return min(candidates, key=lambda c: (abs(v - c), abs(c)))


def brute_nearest_dyadic(v: Fraction, eps: Fraction) -> Fraction:
    return v if is_dyadic(v) else literal_grid_round(v, eps)


def test_round_examples():
    chain = NeighborhoodChain(Fraction(1, 4))
    # eps_1 = 1/8: nearest grid point to 1/3 at denominator 8 is 3/8
    r = round_to_dense(GroupValue(RATIONALS, Fraction(1, 3)), 1, chain)
    assert r.group == DYADICS and r.payload == Fraction(3, 8)
    assert abs(Fraction(1, 3) - r.payload) == Fraction(1, 24) <= Fraction(1, 8)
    assert round_to_dense(GroupValue(RATIONALS, 0), 3, chain).payload == 0
    assert round_to_dense(
        GroupValue(RATIONALS, Fraction(1, 2)), 5, chain
    ).payload == Fraction(1, 2)


@given(rationals, st.integers(0, 8))
def test_round_matches_brute_force_and_contract(v, n):
    chain = NeighborhoodChain(Fraction(1, 2))
    eps = chain.epsilon(n)
    r = round_to_dense(GroupValue(RATIONALS, v), n, chain)
    assert r.payload == brute_nearest_dyadic(v, eps)
    assert is_dyadic(r.payload)
    assert abs(v - r.payload) <= eps


@given(rationals, st.fractions(min_value=Fraction(1, 10**6), max_value=8).filter(lambda e: e > 0))
@example(Fraction(1, 3), Fraction(5, 2))
def test_grid_round_matches_the_literal_scan(v, eps):
    assert _grid_round(v, eps) == literal_grid_round(v, eps)


@settings(max_examples=25, deadline=2000)  # the literal scan is quadratic in k
@given(rationals, st.integers(1, 20000), st.integers(-1, 1))
@example(Fraction(1, 3), 20000, 0)
@example(Fraction(-7, 5), 20000, -1)
@example(Fraction(-7, 5), 20000, 1)
def test_grid_round_matches_the_literal_scan_down_to_2_to_the_minus_20000(v, k, j):
    eps = Fraction(1, (1 << k) + j)  # 2^-k and its two neighbours
    assert _grid_round(v, eps) == literal_grid_round(v, eps)


def _literal_numerator(num: int, den: int, q: int) -> int:
    """The literal scan's grid point for num / den on the grid 2^-q, as its numerator."""
    scaled = literal_grid_round(Fraction(num, den), Fraction(1, 1 << q)) * (1 << q)
    assert scaled.denominator == 1
    return scaled.numerator


GRID_EXPONENTS = st.one_of(st.integers(0, 8), st.integers(64, 200))


@given(rationals, st.integers(1, 7), GRID_EXPONENTS)
@example(Fraction(1, 3), 1, 0)
@example(Fraction(-1, 3), 3, 64)
def test_grid_numerator_matches_the_literal_scan(v, c, q):
    # an unreduced pair (num, den) rounds as its value does
    num, den = v.numerator * c, v.denominator * c
    assert _grid_numerator(num, den, q) == _literal_numerator(num, den, q)


@given(st.integers(-10**6, 10**6), st.integers(1, 7), GRID_EXPONENTS)
@example(0, 1, 0)
@example(-1, 1, 0)
@example(-1, 3, 64)
@example(2, 5, 200)
def test_grid_numerator_ties_go_toward_zero(n, c, q):
    # num * 2^q / den = n + 1/2 exactly: the grid points n and n + 1 are equally near
    num, den = (2 * n + 1) * c, c << (q + 1)
    expected = n if n >= 0 else n + 1
    assert _grid_numerator(num, den, q) == expected == _literal_numerator(num, den, q)


@given(st.fractions(min_value=Fraction(1, 1 << 80), max_value=64).filter(lambda e: e > 0))
@example(Fraction(1))
@example(Fraction(7, 6))
@example(Fraction(1, 1 << 70))
@example(Fraction(1, (1 << 70) + 1))
def test_grid_exponent_is_the_least_q_with_2_to_the_minus_q_at_most_eps(eps):
    q = _grid_exponent(eps)
    assert Fraction(1, 1 << q) <= eps
    assert q == 0 or Fraction(1, 1 << (q - 1)) > eps


def test_round_float_input():
    chain = NeighborhoodChain(Fraction(1, 2))
    r = round_to_dense(GroupValue(APPROX_REALS, 0.3), 2, chain)
    assert r.group == DYADICS
    assert abs(Fraction(r.payload) - Fraction(0.3)) <= Fraction(1, 8)


def test_round_unsupported_variant():
    chain = NeighborhoodChain(Fraction(1, 2))
    with pytest.raises(UnsupportedValueError):
        round_to_dense(GroupValue(INTEGERS, 3), 1, chain)
    with pytest.raises(UnsupportedValueError):
        round_to_dense(GroupValue(MOD4, 3), 1, chain)


def test_round_tie_goes_toward_zero():
    # only floats can tie (an exact tie point is itself dyadic)
    assert round_to_dyadic(Fraction(1, 3), Fraction(1)) == Fraction(0)
    chain = NeighborhoodChain(Fraction(1))
    r = round_to_dense(GroupValue(APPROX_REALS, 0.5), 0, chain)
    assert r.payload == 0
    r = round_to_dense(GroupValue(APPROX_REALS, -0.5), 0, chain)
    assert r.payload == 0


# --- serialization ---------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        GroupValue(RATIONALS, Fraction(1, 3)),
        GroupValue(DYADICS, Fraction(3, 8)),
        GroupValue(INTEGERS, -5),
        GroupValue(MOD4, 3),
        GroupValue(VEC2, (Fraction(1, 3), Fraction(-2))),
        GroupValue(APPROX_REALS, 0.25),
    ],
)
def test_value_json_roundtrip(value):
    assert value_from_json(value.to_json()) == value


def test_documented_json_shapes():
    assert GroupValue(RATIONALS, Fraction(1, 3)).to_json() == {"t": "rat", "n": 1, "d": 3}
    assert GroupValue(DYADICS, Fraction(3, 8)).to_json() == {"t": "dy", "n": 3, "k": 3}


def test_group_tags_roundtrip():
    for tag in ("int", "rat", "dy", "real", "mod:6", "vec:3"):
        assert group_from_tag(tag).tag == tag
    with pytest.raises(UnsupportedValueError):
        group_from_tag("nope")


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda: integers_mod(2.5), "got 2.5"),
        (lambda: integers_mod(True), "got True"),
        (lambda: rational_vectors(2.0), "got 2.0"),
        (lambda: ModularGroup("5"), "got '5'"),
        (lambda: integers_mod(0), "got 0"),
        (lambda: group_from_tag("mod:True"), "'mod:True'"),
        (lambda: group_from_tag("vec:2.5"), "'vec:2.5'"),
        (lambda: group_from_tag("mod:-3"), "got -3"),
    ],
)
def test_group_parameters_must_be_integers(make, shown):
    # a float or bool modulus used to give Z/2.5 (1 + 2 = 0.5) or Z/True
    with pytest.raises((TypeError, ValueError), match=shown):
        make()


@pytest.mark.parametrize(
    "record",
    [
        {"t": "mod", "m": True, "r": 1},
        {"t": "mod", "m": 2.5, "r": 1},
        {"t": "mod", "m": "5", "r": 1},
        {"t": "mod", "r": 1},
        {"t": "mod:5", "m": 5, "r": 1},
        {"t": "vec", "v": 3},
        {"t": "vec"},
        {"n": 1},
        {"t": 5, "n": 1},
        {"t": ["int"], "n": 1},
        {"t": "nope", "n": 1},
        ["int", 1],
    ],
)
def test_ill_formed_value_records_are_unknown(record):
    with pytest.raises(UnsupportedValueError, match="unknown value record"):
        value_from_json(record)


def test_value_records_name_their_group_as_a_tag_does():
    assert value_from_json({"t": "mod", "m": 7, "r": 9}) == GroupValue(integers_mod(7), 2)
    assert value_from_json({"t": "vec", "v": [[1, 2]] * 3}).group == rational_vectors(3)
    with pytest.raises(ValueError, match="modulus must be an integer >= 1, got 0"):
        value_from_json({"t": "mod", "m": 0, "r": 1})
    with pytest.raises(ValueError, match="dimension must be an integer >= 1, got 0"):
        value_from_json({"t": "vec", "v": []})


def projected(group, payloads):
    """``group.projections`` of the payloads' kernel form, with its denominator."""
    columns, scale = group.numerators(payloads)
    return group.projections(columns), scale


def test_vector_projections_past_the_term_limit_are_refused(monkeypatch):
    zero = rational_vectors(20).zero()
    with pytest.raises(ValueError, match=f"Q\\^20 .* 8 values need 83886080 .* limit {MAX_PROJECTION_TERMS}"):
        projected(rational_vectors(20), [zero] * 8)
    # the exact boundary: 2 values of Q^3 are 2 * 3 * 4 = 24 signed terms
    vec3 = rational_vectors(3)
    pair = [(Fraction(1), Fraction(2), Fraction(-1)), vec3.zero()]
    monkeypatch.setattr(values, "MAX_PROJECTION_TERMS", 24)
    assert projected(vec3, pair) == ([[2, 0], [4, 0], [-2, 0], [0, 0]], 1)
    monkeypatch.setattr(values, "MAX_PROJECTION_TERMS", 23)
    with pytest.raises(ValueError, match="2 values need 24 signed terms, more than the limit 23"):
        projected(vec3, pair)


def fraction_projections(group, payloads):
    """Oracle: the projections as Fractions, each signed coordinate sum
    formed term by term (rat: the values themselves)."""
    if group == RATIONALS:
        return [list(payloads)]
    return [
        [a[0] + sum(c if s > 0 else -c for s, c in zip(signs, a[1:])) for a in payloads]
        for signs in itertools.product((1, -1), repeat=group.dim - 1)
    ]


_EXACT = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)) | st.builds(
    Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)
)


@given(st.data())
def test_int_projections_over_their_denominator_are_the_fraction_projections(data):
    group = data.draw(st.sampled_from([RATIONALS] + [rational_vectors(d) for d in (1, 2, 3)]))
    value = _EXACT if group == RATIONALS else st.tuples(*[_EXACT] * group.dim)
    payloads = data.draw(st.lists(value, min_size=1, max_size=12))
    columns, scale = projected(group, payloads)
    assert all(type(x) is int for column in columns for x in column)
    assert [[Fraction(x, scale) for x in column] for column in columns] == fraction_projections(
        group, payloads
    )
    # one denominator: the lcm of every coordinate's
    coords = payloads if group == RATIONALS else [c for a in payloads for c in a]
    assert scale == math.lcm(*(c.denominator for c in coords))


_KERNEL_PAYLOADS = [
    (INTEGERS, st.integers(-(2**70), 2**70)),
    (RATIONALS, _EXACT),
    (DYADICS, dyadics),
    (integers_mod(5), st.integers(0, 4)),
    (integers_mod(2**61 - 1), st.integers(0, 2**61 - 2)),
    (rational_vectors(1), st.tuples(_EXACT)),
    (rational_vectors(3), st.tuples(_EXACT, _EXACT, _EXACT)),
    (APPROX_REALS, st.just(-0.0) | st.floats(-1e300, 1e300)),
]


@given(st.sampled_from(range(len(_KERNEL_PAYLOADS))), st.data())
def test_payloads_over_inverts_numerators_and_reads_sums_on_every_group(k, data):
    group, payload = _KERNEL_PAYLOADS[k]
    pairs = data.draw(st.lists(st.tuples(payload, payload), max_size=12))
    a, b = [p for p, _ in pairs], [q for _, q in pairs]
    columns, scale = group.numerators(a + b)
    assert len(columns) == getattr(group, "dim", 1)  # d columns on vec:d, one elsewhere
    out = group.payloads_over(columns, scale)
    assert out == tuple(a + b) and repr(out) == repr(tuple(a + b))  # -0.0 stays on real
    # column sums and differences read back as the group's
    n = len(a)
    for op, group_op in ((operator.add, group.add), (operator.sub, group.sub)):
        out = group.payloads_over([list(map(op, c[:n], c[n:])) for c in columns], scale)
        expected = tuple(map(group_op, a, b))
        assert out == expected and repr(out) == repr(expected)
    assert repr(APPROX_REALS.payloads_over(*APPROX_REALS.numerators([-0.0]))) == "(-0.0,)"


@given(st.integers(1, 2**70), st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))
@example(2**61 - 1, 2**61 - 1, 0)
@example(5, -1, 4)
def test_modular_values_equal_is_congruence_mod_m(m, a, b):
    group = integers_mod(m)
    assert group.values_equal(a, b) == (a % m == b % m)
    assert group.values_equal(a % m, b % m) == (a % m == b % m)  # == on residues


class _Unread:
    """MAX_POINTS values that fail when read: the term check reads only the count."""

    def __len__(self):
        return MAX_POINTS

    def __iter__(self):
        raise LookupError("read")


@pytest.mark.parametrize("d, admitted", [(2, True), (3, True), (4, False)])
def test_vector_projections_admit_vec2_and_vec3_at_every_size(d, admitted):
    with pytest.raises(LookupError if admitted else ValueError):
        rational_vectors(d).projections([_Unread()] * d)


def test_as_fraction_returns_a_fraction_unchanged():
    # re-validating an exact table then allocates nothing
    q = Fraction(3, 7)
    assert as_fraction(q) is q
    assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction
    assert as_fraction("-1/2") == Fraction(-1, 2)
    for bad in (True, 0.5):
        with pytest.raises(UnsupportedValueError):
            as_fraction(bad)


@given(st.one_of(st.lists(rationals), st.lists(st.integers(-50, 50))))
def test_integer_numerators_share_the_least_common_denominator(values):
    nums, common = _integer_numerators(values)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, common) for n in nums] == values
    assert common == math.lcm(*(Fraction(v).denominator for v in values))


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_as_fraction_zero_denominator_is_a_value_error_naming_the_string(text):
    with pytest.raises(ValueError, match=f"^{text!r} has a zero denominator$") as info:
        as_fraction(text)
    assert not isinstance(info.value, ZeroDivisionError)


def test_parametrized_groups_repr_as_their_tag():
    assert repr(integers_mod(5)) == "mod:5"
    assert repr(rational_vectors(3)) == "vec:3"
    assert integers_mod(5) == integers_mod(5) and hash(VEC2) == hash(rational_vectors(2))
    assert repr(GroupValue(MOD4, 7)) == "3@mod:4"
