"""Closed forms on the single cycle against the generic constructions.

The density approximants F_n are computed from the tower-top partial sums,
and transport along a commuting permutation rotates or XORs the tables.
The oracles are the generic chains they replace: towers over the marker
A_n, the periodic approximation, its transfer and the differences of that
transfer; and transport by reading tables at phi^{-1} through an explicit
inverse permutation.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

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
from cocycle_lab.sampling import coboundary_generator, cylinder_function, invariant_family
from cocycle_lab.space import CylinderFunction
from cocycle_lab.values import APPROX_REALS, INTEGERS, RATIONALS, group_from_tag
from cocycle_lab.zcocycles import (
    CoboundaryCertificate,
    ZCocycle,
    _spread_bound,
    coboundary_solve,
    density_sequence,
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
        _spread_bound(moved, group),
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
