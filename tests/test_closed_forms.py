"""Closed forms on the single cycle against the generic constructions.

The density approximants F_n are computed from the tower-top partial sums,
the density rows from the tower tops alone, and transport along a
commuting permutation rotates or XORs the tables.  The oracles are the
generic chains they replace: towers over the marker A_n, the periodic
approximation, its transfer and the differences of that transfer; each
density row as the approximant, its coboundary solve and tau3 over every
prefix; and transport by reading tables at phi^{-1} through an explicit
inverse permutation.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cocycle_lab.cli import main
from cocycle_lab.dynamics import (
    MarkerSequence,
    Odometer,
    periodic_approx,
    towers_from_marker,
)
from cocycle_lab.involution_cocycles import (
    ConjugationError,
    GeneratorFamily,
    InvolutionCocycle,
    transport,
    transport_certificate,
)
from cocycle_lab.sampling import (
    bernoulli_measure,
    coboundary_generator,
    cylinder_function,
    invariant_family,
)
from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
    tau3_functional,
)
from cocycle_lab.values import APPROX_REALS, INTEGERS, RATIONALS, group_from_tag
from cocycle_lab.zcocycles import (
    CoboundaryCertificate,
    ZCocycle,
    _spread_bound,
    coboundary_solve,
    density_sequence,
    density_table,
    periodic_coboundary,
)

EXACT_TAGS = ("int", "rat", "dy", "mod:5", "vec:2")


def chain_density(a: ZCocycle, markers: MarkerSequence, n: int) -> tuple:
    """F_n through towers, periodic approximation and its transfer."""
    model = a.model
    towers = towers_from_marker(model, markers.marker_indices(n))
    approx = periodic_approx(model, towers)
    g = periodic_coboundary(approx, a, towers).table
    size = model.size
    return tuple(a.group.sub(g[(i + 1) % size], g[i]) for i in range(size))


def assert_same_payloads(new: tuple, old: tuple) -> None:
    assert new == old
    assert [type(v) for v in new] == [type(v) for v in old]
    for u, v in zip(new, old):
        if isinstance(u, tuple):
            assert [type(c) for c in u] == [type(c) for c in v]


# --- density approximants F_n ----------------------------------------------------------


@pytest.mark.parametrize("bases", [(2, 2, 2), (3, 2), (2, 3)])
def test_density_closed_form_exhaustive_small(bases):
    model = Odometer(bases)
    markers = MarkerSequence(model)
    for values in itertools.product((-1, 0, 1), repeat=model.size):
        a = ZCocycle(model, CylinderFunction(bases, INTEGERS, values))
        for n in range(1, model.depth):
            assert density_sequence(a, markers, n).table == chain_density(a, markers, n)


@given(
    tag=st.sampled_from(EXACT_TAGS),
    depth=st.sampled_from((3, 5, 8)),
    generator_depth=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_density_closed_form_matches_chain(tag, depth, generator_depth, seed):
    group = group_from_tag(tag)
    rng = random.Random(seed)
    model = Odometer.binary(depth)
    f = cylinder_function(rng, (2,) * min(depth, generator_depth), group)
    a = ZCocycle(model, f)
    markers = MarkerSequence(model)
    for n in range(1, depth):
        new = density_sequence(a, markers, n)
        assert new.bases == model.bases and new.group == group
        assert_same_payloads(new.table, chain_density(a, markers, n))


@pytest.mark.parametrize("seed", range(3))
def test_density_real_is_bit_exact_off_the_tops(seed):
    rng = random.Random(seed)
    model = Odometer.binary(6)
    markers = MarkerSequence(model)
    a = ZCocycle(model, cylinder_function(rng, model.bases, APPROX_REALS))
    f = a.generator.table
    for n in range(1, model.depth):
        tops = set(markers.top_indices(n))
        approximant = density_sequence(a, markers, n)
        table = approximant.table
        assert all(table[i] == f[i] for i in range(model.size) if i not in tops)
        assert coboundary_solve(ZCocycle(model, approximant)) is not None


# --- density rows ----------------------------------------------------------------------


def literal_density_table(a: ZCocycle, markers: MarkerSequence, n_max: int, measures) -> list:
    """Each row through the approximant, its coboundary solve and tau3 over every prefix."""
    f_full = a.generator.lift(a.model.bases)
    rows = []
    for n in range(1, n_max + 1):
        approximant = density_sequence(a, markers, n)
        certificate = coboundary_solve(ZCocycle(a.model, approximant))
        row = {"n": n, "certified": certificate is not None}
        if certificate is not None:
            row["M"] = certificate.spread_bound
        for k, mu in enumerate(measures):
            row[f"tau3_{k}"] = tau3_functional(approximant, f_full, mu)
        rows.append(row)
    return rows


def assert_same_rows(new: list, old: list) -> None:
    # repr carries the type: Fraction(0, 1), 0 and 0.0 are equal but print apart
    assert new == old
    assert [{k: repr(v) for k, v in row.items()} for row in new] == [
        {k: repr(v) for k, v in row.items()} for row in old
    ]


def probability_vector(rng: random.Random, size: int) -> tuple:
    cuts = [rng.randint(0, 4) for _ in range(size)]
    cuts[rng.randrange(size)] += 1
    return tuple(Fraction(c, sum(cuts)) for c in cuts)


def density_measures(rng: random.Random, bases: tuple) -> list:
    """A Bernoulli, a Markov, a Dirac and a mixture measure on the bases."""
    bernoulli = bernoulli_measure(rng, bases)
    markov = MarkovMeasure(
        bases,
        probability_vector(rng, bases[0]),
        tuple(
            tuple(probability_vector(rng, bases[step + 1]) for _ in range(bases[step]))
            for step in range(len(bases) - 1)
        ),
    )
    dirac = DiracMeasure(bases, tuple(rng.randrange(b) for b in bases))
    mixture = MixtureMeasure((bernoulli, dirac, markov), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return [bernoulli, markov, dirac, mixture]


@pytest.mark.parametrize("bases", [(2, 2, 2), (3, 2), (2, 3)])
def test_density_table_exhaustive_small(bases):
    model = Odometer(bases)
    markers = MarkerSequence(model)
    markov = density_measures(random.Random(5), bases)[1]
    for values in itertools.product((-1, 0, 1), repeat=model.size):
        a = ZCocycle(model, CylinderFunction(bases, INTEGERS, values))
        rows = density_table(a, markers, model.depth - 1, [markov])
        assert_same_rows(rows, literal_density_table(a, markers, model.depth - 1, [markov]))


@given(
    tag=st.sampled_from(EXACT_TAGS + ("vec:3", "real")),
    bases=st.sampled_from(((2, 2, 2), (2,) * 5, (3, 2, 2), (2, 3, 2, 2))),
    generator_depth=st.integers(1, 5),
    n_max=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_density_table_matches_literal_rows(tag, bases, generator_depth, n_max, seed):
    group = group_from_tag(tag)
    rng = random.Random(seed)
    model = Odometer(bases)
    n_max = min(n_max, model.depth - 1)
    f = cylinder_function(rng, bases[:generator_depth], group)
    a = ZCocycle(model, f)
    markers = MarkerSequence(model)
    measures = density_measures(rng, bases)
    rows = density_table(a, markers, n_max, measures)
    assert_same_rows(rows, literal_density_table(a, markers, n_max, measures))


def test_density_table_real_tops_all_far():
    # every top moves by >= 1, so each top term is an exact Fraction mass; the
    # off-top terms mass * 0.0 still make the literal sum a float
    model = Odometer.binary(4)
    markers = MarkerSequence(model)
    f = CylinderFunction(model.bases, APPROX_REALS, (1.5,) * model.size)
    a = ZCocycle(model, f)
    measures = density_measures(random.Random(9), model.bases)
    rows = density_table(a, markers, 3, measures)
    assert_same_rows(rows, literal_density_table(a, markers, 3, measures))
    assert all(isinstance(row["tau3_0"], float) for row in rows)


# --- the integer pass on int, rat, dy and Q^d ----------------------------------------------

PRIMES = tuple(q for q in range(2, 2000) if all(q % r for r in range(2, int(q**0.5) + 1)))


def test_density_table_coprime_denominators():
    # every generator entry and every Bernoulli row has its own prime
    # denominator, so the common denominators L and D are products of many primes
    model = Odometer.binary(6)
    markers = MarkerSequence(model)
    rng = random.Random(11)
    table = tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for q in PRIMES[: model.size])
    a = ZCocycle(model, CylinderFunction(model.bases, RATIONALS, table))
    primes = PRIMES[model.size : model.size + model.depth]
    weights = tuple((Fraction(k, q), Fraction(q - k, q)) for k, q in zip(range(1, 7), primes))
    measures = [BernoulliMeasure(model.bases, weights)] + density_measures(rng, model.bases)
    rows = density_table(a, markers, model.depth - 1, measures)
    assert_same_rows(rows, literal_density_table(a, markers, model.depth - 1, measures))
    assert all(row["tau3_0"].denominator > 1 for row in rows)


@pytest.mark.parametrize("tag", ["int", "rat", "dy", "vec:2", "vec:3"])
def test_density_table_every_row_at_depth_10(tag):
    model = Odometer.binary(10)
    markers = MarkerSequence(model)
    rng = random.Random(3)
    a = ZCocycle(model, cylinder_function(rng, model.bases, group_from_tag(tag)))
    measures = density_measures(rng, model.bases)
    rows = density_table(a, markers, 9, measures)
    assert [row["n"] for row in rows] == list(range(1, 10))
    assert_same_rows(rows, literal_density_table(a, markers, 9, measures))


@pytest.mark.parametrize("bases", [(2, 3, 3, 2), (3, 3, 3), (2, 2, 3, 2, 3)])
@pytest.mark.parametrize("tag", ["int", "rat", "dy", "vec:2"])
def test_density_table_radix_3_levels(bases, tag):
    # a level of radix 3 merges three sub-towers per tower
    model = Odometer(bases)
    markers = MarkerSequence(model)
    rng = random.Random(7)
    for generator_depth in range(1, model.depth + 1):
        f = cylinder_function(rng, bases[:generator_depth], group_from_tag(tag))
        a = ZCocycle(model, f)
        measures = density_measures(rng, bases)
        rows = density_table(a, markers, model.depth - 1, measures)
        assert_same_rows(rows, literal_density_table(a, markers, model.depth - 1, measures))


def test_density_table_int_bound_stays_int():
    model = Odometer((2, 3, 2, 2))
    markers = MarkerSequence(model)
    a = ZCocycle(model, cylinder_function(random.Random(2), model.bases, INTEGERS))
    rows = density_table(a, markers, 3, [BernoulliMeasure.uniform(model.bases)])
    assert_same_rows(rows, literal_density_table(a, markers, 3, [BernoulliMeasure.uniform(model.bases)]))
    assert all(type(row["M"]) is int and type(row["tau3_0"]) is Fraction for row in rows)


def test_density_table_refuses_markers_of_another_model():
    model = Odometer.binary(4)
    a = ZCocycle(model, CylinderFunction((2,), INTEGERS, (1, -1)))
    with pytest.raises(DepthError):
        density_table(a, MarkerSequence(Odometer.binary(5)), 3)


# sha256 of `cocycle density --measures --format json` on density_golden_inputs,
# recorded before density_table summed over the tower tops only
DENSITY_GOLDEN = {
    ((2, 2, 2, 2, 2, 2), "int"): "28f7e5f4455f2f8236b82dafdbaca9e2e6ce1d8cbe3a004c2a9082d3be380d08",
    ((2, 2, 2, 2, 2, 2), "rat"): "aa5c457834de5bd256ca9b8095263224b60a572d578776980e018a128c6d1ff2",
    ((2, 2, 2, 2, 2, 2), "dy"): "bd6559c31fcb44379f37a7f9abf92fa4800733d124368a0dfcde11535402518e",
    ((2, 2, 2, 2, 2, 2), "mod:5"): "632623f1e6ee7332446635123111c76ba3d00820c68e2d8ec2995b327fc7da84",
    ((2, 2, 2, 2, 2, 2), "vec:2"): "dbb4da878152ceefeab7f4b440ab6a84e86220724ff7fe5b5e5109a063a4589c",
    ((2, 2, 2, 2, 2, 2), "real"): "d7ecc939a84f46ac42dbda4a21cef86483b30c2af63c49db4eaa386067f5eea6",
    ((3, 2, 2), "int"): "00e9d1b69c1d74e8471a37fbe96c2c65f9695449bc34b6f08c1220c30227d677",
    ((3, 2, 2), "rat"): "bcdb4954a22fdd949a88115721edf8da7a82cc3b86d118dc06ea3dcc593af586",
    ((3, 2, 2), "dy"): "0233b42b8d9e73bdd9141f7b13b4fc73b5a9eebe3009fc60d66f81e80cd1c045",
    ((3, 2, 2), "mod:5"): "7273f477ef79ed2df9879cccc00877335e6fe75991a615b9fc71a837a10e6a9f",
    ((3, 2, 2), "vec:2"): "85c74e10f5876ac845d2205e37f6809967456d6929f4e8bbe22fafc271e48743",
    ((3, 2, 2), "real"): "aace7eaf55face3cb53bb55aed7924e58f5aef86947bf8f1d0824f47c06db04e",
}


def density_golden_inputs(tmp_path, bases: tuple, tag: str) -> tuple:
    rng = random.Random(0)
    f = cylinder_function(rng, bases, group_from_tag(tag))
    generator = tmp_path / "gen.json"
    generator.write_text(json.dumps(f.to_json()))
    measures = tmp_path / "measures.json"
    measures.write_text(json.dumps([mu.to_json() for mu in density_measures(rng, bases)]))
    return str(generator), str(measures)


@pytest.mark.parametrize("bases, tag", sorted(DENSITY_GOLDEN))
def test_density_measures_golden(tmp_path, bases, tag):
    generator, measures = density_golden_inputs(tmp_path, bases, tag)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cocycle", "density", "--input", generator, "--measures", measures, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DENSITY_GOLDEN[bases, tag]


# --- transport -------------------------------------------------------------------------


def inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def moved_z_table(a: ZCocycle, perm):
    inv = inverse(perm)
    table = a.generator.lift(a.model.bases).table
    return tuple(table[inv[i]] for i in range(a.model.size))


def moved_family(family: GeneratorFamily, perm) -> GeneratorFamily:
    inv = inverse(perm)
    size = 1 << family.depth
    functions = [
        CylinderFunction(
            family.bases,
            family.group,
            tuple(family.generator_payload(n, inv[i]) for i in range(size)),
        )
        for n in range(1, family.count + 1)
    ]
    return GeneratorFamily.from_cylinder_functions(family.bases, functions)


def moved_certificate(certificate: CoboundaryCertificate, perm):
    inv = inverse(perm)
    model = certificate.model
    group = certificate.generator.group
    c = certificate.transfer.lift(model.bases).table
    moved = [c[inv[i]] for i in range(model.size)]
    moved = tuple(group.sub(v, moved[0]) for v in moved)
    f = certificate.generator.lift(model.bases).table
    return (
        tuple(f[inv[i]] for i in range(model.size)),
        moved,
        _spread_bound(*group.numerators(moved), group),
    )


@given(
    tag=st.sampled_from(EXACT_TAGS),
    depth=st.integers(1, 5),
    r=st.integers(0, 31),
    seed=st.integers(0, 2**16),
)
def test_rotation_transport_matches_inverse_tables(tag, depth, r, seed):
    group = group_from_tag(tag)
    rng = random.Random(seed)
    model = Odometer.binary(depth)
    size = model.size
    rotation = tuple((i + r) % size for i in range(size))
    a = ZCocycle(model, cylinder_function(rng, model.bases, group))
    assert_same_payloads(transport(a, rotation).generator.table, moved_z_table(a, rotation))

    f, _ = coboundary_generator(rng, model.bases, group)
    certificate = coboundary_solve(ZCocycle(model, f))
    moved = transport_certificate(certificate, rotation)
    generator, transfer, bound = moved_certificate(certificate, rotation)
    assert_same_payloads(moved.generator.table, generator)
    assert_same_payloads(moved.transfer.table, transfer)
    assert moved.spread_bound == bound
    assert moved.verify()


@given(
    tag=st.sampled_from(EXACT_TAGS),
    depth=st.integers(1, 5),
    s=st.integers(0, 31),
    seed=st.integers(0, 2**16),
)
def test_xor_transport_matches_inverse_tables(tag, depth, s, seed):
    group = group_from_tag(tag)
    rng = random.Random(seed)
    family = invariant_family(rng, depth, rng.randint(1, depth), group)
    size = 1 << depth
    xor = tuple(i ^ (s % size) for i in range(size))
    moved = transport(InvolutionCocycle(family), xor).family
    oracle = moved_family(family, xor)
    assert moved.bases == oracle.bases and moved.group == oracle.group
    for new, old in zip(moved.tables, oracle.tables, strict=True):
        assert_same_payloads(new, old)


def test_transport_reads_the_permutation_of_an_automorphism():
    model = Odometer.binary(3)
    a = ZCocycle(model, CylinderFunction(model.bases, RATIONALS, tuple(range(8))))
    moved = transport(a, model)  # the odometer itself: the rotation by 1
    assert moved == transport(a, model.permutation)
    assert moved.generator.table == (7, 0, 1, 2, 3, 4, 5, 6)


def test_transports_reject_noncommuting_permutations_exhaustively():
    # depth 2: of the 24 permutations, exactly the 4 rotations commute with
    # the odometer and exactly the 4 XORs commute with both digit flips
    model = Odometer.binary(2)
    a = ZCocycle(model, CylinderFunction((2, 2), RATIONALS, (1, 2, 3, -6)))
    certificate = coboundary_solve(a)
    family = GeneratorFamily((2, 2), RATIONALS, ((1, 2), (3,)))
    rotations = {tuple((i + r) % 4 for i in range(4)) for r in range(4)}
    xors = {tuple(i ^ s for i in range(4)) for s in range(4)}
    for perm in itertools.permutations(range(4)):
        if perm in rotations:
            transport(a, perm)
            transport_certificate(certificate, perm)
        else:
            with pytest.raises(ConjugationError):
                transport(a, perm)
            with pytest.raises(ConjugationError):
                transport_certificate(certificate, perm)
        if perm in xors:
            transport(InvolutionCocycle(family), perm)
        else:
            with pytest.raises(ConjugationError):
                transport(InvolutionCocycle(family), perm)
