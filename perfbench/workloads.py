"""Seeded workload inputs and the CLI operations run on them.

Each workload builder takes a ``random.Random`` and a work directory,
writes its input files there through the package's public constructors,
and returns the operation list of one pass plus a description of the
inputs.  An operation is ``(kind, argv)``: ``argv`` goes to
``cocycle_lab.cli.main`` and ``kind`` names the output format, which
``content`` uses to pick out the mathematical part of the output.

The sizes keep the known quadratic paths (the gh scan, the vec spread
bound, exhaustive identity checks) visible at N = 2^7 .. 2^12.  The
operations of a pass come in groups of four of similar size (light,
middle, heavy), so that the median and the tail percentile of a run fall
inside a group rather than on the edge between two groups, where
run-to-run noise would swing them; operations whose cost depends on the
seed sit at the ends of the order.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from cocycle_lab import sampling
from cocycle_lab.space import (
    CylinderFunction,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
)
from cocycle_lab.values import INTEGERS, RATIONALS, group_from_tag


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def _probability_vector(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    cuts = [rng.randint(1, 6) for _ in range(size)]
    total = sum(cuts)
    return tuple(Fraction(c, total) for c in cuts)


def _markov_measure(rng: random.Random, bases) -> MarkovMeasure:
    transitions = tuple(
        tuple(_probability_vector(rng, bases[k + 1]) for _ in range(bases[k]))
        for k in range(len(bases) - 1)
    )
    return MarkovMeasure(bases, _probability_vector(rng, bases[0]), transitions)


def _measures(rng: random.Random, bases) -> list:
    """One each of non-uniform Bernoulli, Markov, Dirac and mixture."""
    bernoulli = sampling.bernoulli_measure(rng, bases)
    markov = _markov_measure(rng, bases)
    dirac = DiracMeasure(bases, tuple(rng.randrange(b) for b in bases))
    mixture = MixtureMeasure(
        (sampling.bernoulli_measure(rng, bases), _markov_measure(rng, bases)),
        _probability_vector(rng, 2),
    )
    return [bernoulli, markov, dirac, mixture]


def _non_coboundary(rng: random.Random, bases) -> CylinderFunction:
    """An integer generator with cycle sum exactly 1."""
    f, _ = sampling.coboundary_generator(rng, bases, INTEGERS, span=4)
    table = (f.table[0] + 1,) + f.table[1:]
    return CylinderFunction(bases, INTEGERS, table)


def _suite(rng: random.Random, suite: str, depth: int, count: int, *extra: str):
    return ("report", ["run", suite, "--depth", str(depth), "--count", str(count),
                       *extra, "--seed", str(rng.randrange(1 << 30)), "--format", "json"])


def density(rng: random.Random, workdir: Path):
    """F_n pipeline on the 2-odometer with rational generators."""
    bases = (2,) * 8
    measures = _write(workdir, "measures-d8.json",
                      [mu.to_json() for mu in _measures(rng, bases)])
    ops = [_suite(rng, "density", 10, 1, "--group", "rat", "--n-max", "4") for _ in range(4)]
    for k in range(4):
        gen = _write(workdir, f"density-gen{k}.json",
                     sampling.cylinder_function(rng, bases, RATIONALS).to_json())
        ops.append(("rows", ["cocycle", "density", "--input", gen, "--depth", "8",
                             "--measures", measures, "--format", "json"]))
    for depth, n_max in ((11, 4), (11, 4), (12, 2), (12, 2)):
        ops.append(_suite(rng, "density", depth, 1, "--group", "rat", "--n-max", str(n_max)))
    return ops, {"N": [1 << 8, 1 << 10, 1 << 11, 1 << 12], "groups": ["rat"]}


def orbit_sums(rng: random.Random, workdir: Path):
    """Two-sided orbit sums (gh) and the coboundary solver, no measures."""
    ops = []
    for depth, horizon in ((9, 64), (10, 32)):
        path = _write(workdir, f"noncob-d{depth}.json",
                      _non_coboundary(rng, (2,) * depth).to_json())
        ops.append(("gh", ["cocycle", "gh", "--input", path, "--horizon", str(horizon)]))
    for group, depth in (("int", 8), ("mod:5", 8), ("int", 9), ("mod:5", 9)):
        f, _ = sampling.coboundary_generator(rng, (2,) * depth, group_from_tag(group))
        path = _write(workdir, f"cob-{group.replace(':', '')}-d{depth}.json", f.to_json())
        ops.append(("gh", ["cocycle", "gh", "--input", path]))
    for k in range(2):
        f, _ = sampling.coboundary_generator(rng, (2,) * 8, group_from_tag("vec:2"))
        path = _write(workdir, f"cob-vec2-d8-{k}.json", f.to_json())
        ops.append(("solve", ["cocycle", "solve", "--input", path]))
    ops += [_suite(rng, "gh", 7, 2) for _ in range(2)]
    ops += [_suite(rng, "gh", 8, 1) for _ in range(2)]
    return ops, {"N": [1 << 7, 1 << 8, 1 << 9, 1 << 10],
                 "groups": ["int", "mod:5", "vec:2"]}


def involution(rng: random.Random, workdir: Path):
    """Generator tables, identity checks and dyadic rounding, no Z-cocycles."""
    ops = [
        _suite(rng, "odometer", 8, 6, "--group", "rat"),
        _suite(rng, "happrox", 9, 1, "--group", "rat"),
    ]
    for k, depth in enumerate((11, 11, 11, 12)):
        family = sampling.invariant_family(rng, depth, 3, RATIONALS)
        path = _write(workdir, f"family{k}-d{depth}.json", family.to_json())
        ops += [(sub, ["gamma", sub, "--input", path])
                for sub in ("verify", "roundtrip", "happrox")]
    return ops, {"N": [1 << 8, 1 << 9, 1 << 11, 1 << 12], "groups": ["rat"]}


def topology(rng: random.Random, workdir: Path):
    """tau3/tau4/exceedance with a fresh Bernoulli measure per case."""
    ops = [_suite(rng, "topology", depth, 40, "--group", "rat") for depth in (5, 6, 7) * 4]
    return ops, {"N": [1 << 5, 1 << 6, 1 << 7], "groups": ["rat"]}


WORKLOADS = {
    "density": density,
    "orbit-sums": orbit_sums,
    "involution": involution,
    "topology": topology,
}


def build(name: str, seed: int, workdir: Path):
    """Write the inputs of one workload and return (operations, info)."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, workdir)
