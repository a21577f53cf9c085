"""Literal oracles for the sampling draw loop, runnable without pytest.

Each ``*_case`` function draws one object from ``random.Random(seed)``
through ``cocycle_lab.sampling`` and again through the literal per-entry
calls it must reproduce (``payload`` or ``rng.randint``).  It returns the
outcomes, each the object (or the ValueError it raised), its repr, the
generator state after the draw and the kernel form the running sums read
of each function in it (``CylinderFunction._numerators``: the one a
sampler hands over).  The sampler is right when all are equal and the
sampled functions' kernel forms equal ``group.numerators`` of the literal
tables, L included.

    PYTHONPATH=src python tests/sampling_oracle.py [SEEDS]

runs every case over all tags, spans and depths for SEEDS seeds (default
10) and prints one summary line, with the number of kernel forms checked
and the time taken; it exits 1 on the first mismatch.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from time import perf_counter

from cocycle_lab import sampling
from cocycle_lab.involution_cocycles import GeneratorFamily
from cocycle_lab.sampling import payload
from cocycle_lab.space import BernoulliMeasure, CylinderFunction
from cocycle_lab.values import INTEGERS, group_from_tag

TAGS = ("int", "rat", "dy", "mod:1", "mod:5", f"mod:{2**61 + 1}", "vec:2", "real")
SPANS = (1, 2, 3, 4, 8)
DEPTHS = range(11)


def _functions(value) -> list:
    """The cylinder functions in an outcome's value."""
    parts = value if isinstance(value, tuple) else (value,)
    return [p for p in parts if isinstance(p, CylinderFunction)]


def kernels(value) -> list:
    """The kernel form ``ZCocycle._sums`` reads of each function in ``value``."""
    return [f._numerators() for f in _functions(value)]


def numerators(value) -> list:
    """``group.numerators`` of each function's table in ``value``."""
    return [f.group.numerators(f.table) for f in _functions(value)]


def outcome(draw, seed):
    rng = random.Random(seed)
    try:
        value = draw(rng)
    except ValueError as exc:
        value = (type(exc).__name__, str(exc))
    return value, repr(value), rng.getstate(), kernels(value)


def _literal_table(rng, group, span, n):
    return tuple(payload(rng, group, span) for _ in range(n))


def _literal_cylinder(rng, bases, group, span=8):
    return CylinderFunction(bases, group, _literal_table(rng, group, span, 2 ** len(bases)))


def cylinder_case(seed, tag, span, depth):
    group, bases = group_from_tag(tag), (2,) * depth
    return [
        outcome(lambda rng: sampling.cylinder_function(rng, bases, group, span), seed),
        outcome(lambda rng: _literal_cylinder(rng, bases, group, span), seed),
    ]


def small_integer_case(seed, lo, hi, depth):
    bases = (2,) * depth
    return [
        outcome(lambda rng: sampling.small_integer_function(rng, bases, lo, hi), seed),
        outcome(
            lambda rng: CylinderFunction(
                bases, INTEGERS, tuple(rng.randint(lo, hi) for _ in range(2**depth))
            ),
            seed,
        ),
    ]


def family_case(seed, tag, span, depth, count):
    group = group_from_tag(tag)
    return [
        outcome(lambda rng: sampling.invariant_family(rng, depth, count, group, span), seed),
        outcome(
            lambda rng: GeneratorFamily(
                (2,) * depth,
                group,
                tuple(_literal_table(rng, group, span, 2 ** (depth - n)) for n in range(1, count + 1)),
            ),
            seed,
        ),
    ]


def coboundary_case(seed, tag, span, depth):
    group, bases = group_from_tag(tag), (2,) * depth

    def literal(rng):
        transfer = _literal_cylinder(rng, bases, group, span)
        t = transfer.table
        table = tuple(group.sub(t[(i + 1) % len(t)], t[i]) for i in range(len(t)))
        return CylinderFunction(bases, group, table), transfer

    return [
        outcome(lambda rng: sampling.coboundary_generator(rng, bases, group, span), seed),
        outcome(literal, seed),
    ]


def pair_case(seed, tag, depth):
    group, bases = group_from_tag(tag), (2,) * depth

    def through_cylinders(rng):
        f = sampling.cylinder_function(rng, bases, group)
        return f, f + sampling.cylinder_function(rng, bases, group, span=2)

    def literal(rng):
        f = _literal_cylinder(rng, bases, group)
        return f, f + _literal_cylinder(rng, bases, group, span=2)

    return [
        outcome(lambda rng: sampling.perturbed_pair(rng, bases, group), seed),
        outcome(through_cylinders, seed),
        outcome(literal, seed),
    ]


def bernoulli_case(seed, depth):
    bases = (2,) * depth

    def literal(rng):
        rows = []
        for b in bases:
            cuts = [rng.randint(1, 6) for _ in range(b)]
            rows.append(tuple(Fraction(c, sum(cuts)) for c in cuts))
        return BernoulliMeasure(bases, tuple(rows))

    return [outcome(lambda rng: sampling.bernoulli_measure(rng, bases), seed), outcome(literal, seed)]


def all_cases(seed):
    """Every case at one seed: each tag, span and depth, and lo <= hi and lo > hi."""
    for tag in TAGS:
        for depth in DEPTHS:
            yield ("pair", seed, tag, depth), pair_case(seed, tag, depth)
            for span in SPANS:
                yield ("cylinder", seed, tag, span, depth), cylinder_case(seed, tag, span, depth)
                yield ("coboundary", seed, tag, span, depth), coboundary_case(seed, tag, span, depth)
                for count in range(depth + 1):
                    yield (
                        ("family", seed, tag, span, depth, count),
                        family_case(seed, tag, span, depth, count),
                    )
    for depth in DEPTHS:
        yield ("bernoulli", seed, depth), bernoulli_case(seed, depth)
        for lo in range(-3, 3):
            for hi in range(lo - 2, lo + 4):
                yield ("small", seed, lo, hi, depth), small_integer_case(seed, lo, hi, depth)


def main(argv):
    seeds = int(argv[1]) if len(argv) > 1 else 10
    checked = forms = 0
    start = perf_counter()
    for seed in range(seeds):
        for name, outcomes in all_cases(seed):
            sampled, literal = outcomes[0], outcomes[-1]
            if any(o != sampled for o in outcomes[1:]) or sampled[3] != numerators(literal[0]):
                print(f"mismatch: {name}")
                return 1
            checked += 1
            forms += len(sampled[3])
    print(
        f"python {sys.version.split()[0]}: {checked} cases over {seeds} seeds agree, "
        f"{forms} kernel forms among them, in {perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
