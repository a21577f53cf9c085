"""The package's own builders store their tables unchecked
(``CylinderFunction._trusted``, ``GeneratorFamily._trusted``); the
validating public constructors stay the oracle.  Every builder's output
must equal the public constructor's on its table, entry types included,
and the kernel form a sampler builds from its draw keys must be exactly
``group.numerators`` of the table, with the same L, handed to the running
sums once.
"""

import random
from contextlib import nullcontext
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocycle_lab import sampling
from cocycle_lab.dynamics import Odometer
from cocycle_lab.involution_cocycles import (
    GeneratorFamily,
    InvolutionCocycle,
    h_approximate,
    recover_generators,
)
from cocycle_lab.space import CylinderFunction
from cocycle_lab.values import INTEGERS, NeighborhoodChain, group_from_tag
from cocycle_lab.zcocycles import ZCocycle, coboundary_solve


def _same(a, b) -> bool:
    """Equal, and of one type at every level of nesting (tables, vectors)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def assert_validated(built) -> None:
    """``built`` is what the validating constructor makes of its own fields."""
    group = built.group
    if isinstance(built, GeneratorFamily):
        oracle = GeneratorFamily(built.bases, group, built.tables)
        assert built == oracle and _same(built.tables, oracle.tables)
    else:
        oracle = CylinderFunction(built.bases, group, built.table)
        assert built == oracle and _same(built.table, oracle.table)


def _numerators_refused(group, carried: bool):
    """A context in which ``group.numerators`` fails when ``carried``: the
    kernel must come from the function's builder."""
    if not carried:
        return nullcontext()
    return patch.object(type(group), "numerators", side_effect=AssertionError("recomputed"))


@given(
    seed=st.integers(0, 2**32),
    tag=st.sampled_from(("int", "rat", "dy", "mod:5", "vec:2", "real")),
    span=st.integers(1, 8),
    depth=st.integers(0, 8),
)
def test_every_trusted_builder_equals_its_validated_form(seed, tag, span, depth):
    group, bases, rng = group_from_tag(tag), (2,) * depth, random.Random(seed)
    if depth == 0:
        with pytest.raises(ValueError, match="base vector must be nonempty"):
            sampling.cylinder_function(rng, bases, group, span)
        return
    keyed = sampling._keyed(group, span) is not None

    def draws(rng):
        f = sampling.cylinder_function(rng, bases, group, span)
        g, transfer = sampling.coboundary_generator(rng, bases, group, span)
        h = sampling.cylinder_function(rng, (2,), group, span)
        small = sampling.small_integer_function(rng, bases, -span, span)
        return f, g, transfer, h, small

    # a sampled function's kernel is group.numerators of its table, L included
    carriers = ((0, keyed), (2, keyed), (3, keyed), (4, True))  # f, transfer, h, small
    functions = draws(random.Random(seed))
    for k, carried in carriers:
        fn = functions[k]
        with _numerators_refused(fn.group, carried):
            kernel = fn._numerators()
        assert kernel == fn.group.numerators(fn.table)

    # the running sums take it over, tiled on a deeper model, as they read the
    # validated lifted table, and the function keeps none
    functions = draws(random.Random(seed))
    for k, carried in carriers:
        fn = functions[k]
        model = Odometer(bases + (2,))
        lifted = CylinderFunction(model.bases, fn.group, fn.table * (model.size // fn.size))
        with _numerators_refused(fn.group, carried):
            sums = ZCocycle(model, fn)._sums
            if carried:
                with pytest.raises(AssertionError, match="recomputed"):
                    fn._numerators()
        assert sums == ZCocycle(model, lifted)._sums

    f, g, transfer, h, small = draws(rng)
    assert small.group == INTEGERS
    family = sampling.invariant_family(rng, depth, rng.randint(1, depth), group, span)
    for built in (f, g, transfer, h, small, family):
        assert_validated(built)
    for built in (f.lift(bases + (2, 2)), f + h, h - f, -f, f + g, g - g):
        assert_validated(built)
    certificate = coboundary_solve(ZCocycle(Odometer(bases), g))
    if certificate is not None:  # on real, a tolerance decides
        assert_validated(certificate.transfer)
    cocycle = InvolutionCocycle(family)
    assert_validated(recover_generators(cocycle, family.count, family.bases))
    if tag in ("rat", "dy"):
        report = h_approximate(family, NeighborhoodChain(Fraction(1, 4)))
        for built in (report.family, report.rounded_family, report.transfer):
            assert_validated(built)
