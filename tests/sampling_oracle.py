"""Literal oracles for the sampling draw loop, runnable without pytest.

Each ``*_case`` function draws one object from ``random.Random(seed)``
through ``cocycle_lab.sampling`` and again through the literal per-entry
calls it must reproduce (``payload`` or ``rng.randint``).  It returns the
outcomes, each the object (or the ValueError it raised), its repr and the
generator state after the draw; the sampler is right when all are equal.

    PYTHONPATH=src python tests/sampling_oracle.py [SEEDS]

runs every case over all tags, spans and depths for SEEDS seeds (default
10) and prints one summary line; it exits 1 on the first mismatch.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from cocycle_lab import sampling
from cocycle_lab.involution_cocycles import GeneratorFamily
from cocycle_lab.sampling import payload
from cocycle_lab.space import BernoulliMeasure, CylinderFunction
from cocycle_lab.values import INTEGERS, group_from_tag

TAGS = ("int", "rat", "dy", "mod:1", "mod:5", f"mod:{2**61 + 1}", "vec:2", "real")
SPANS = (1, 2, 3, 4, 8)
DEPTHS = range(11)


def outcome(draw, seed):
    rng = random.Random(seed)
    try:
        value = draw(rng)
    except ValueError as exc:
        value = (type(exc).__name__, str(exc))
    return value, repr(value), rng.getstate()


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
    checked = 0
    for seed in range(seeds):
        for name, outcomes in all_cases(seed):
            if any(o != outcomes[0] for o in outcomes[1:]):
                print(f"mismatch: {name}")
                return 1
            checked += 1
    print(f"python {sys.version.split()[0]}: {checked} cases over {seeds} seeds agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
