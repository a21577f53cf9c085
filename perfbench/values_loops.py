"""Timed loops over the public ``values`` group methods.

Group methods run millions of times per operation, so wrapping them in
spans would swamp the trace.  The traced run instead times fixed seeded
loops over the payload operations the kernels use, and reports the median
nanoseconds per call over a few repeats.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

CALLS = 20_000
REPEATS = 5


def _ns_per_call(loop, data) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        loop(data)
        times.append(perf_counter() - start)
    return median(times) / len(data) * 1e9


def measure(values, rng: random.Random) -> dict:
    """ns per call for the hot payload operations of each value group."""
    ints = values.INTEGERS
    rats = values.RATIONALS
    mod5 = values.integers_mod(5)
    vec2 = values.rational_vectors(2)
    round_to_dyadic = values.round_to_dyadic

    def rational():
        return Fraction(rng.randint(-64, 64), rng.randint(1, 840))

    int_pairs = [(rng.randint(-64, 64), rng.randint(-64, 64)) for _ in range(CALLS)]
    mod_values = [rng.randrange(5) for _ in range(CALLS)]
    rat_pairs = [(rational(), rational()) for _ in range(CALLS)]
    vec_pairs = [((rational(), rational()), (rational(), rational())) for _ in range(CALLS)]
    eps = [Fraction(1, 4) / (1 << n) for n in range(1, 6)]
    rounding = [(Fraction(rng.randint(-64, 64), 3 * rng.randint(1, 40)), rng.choice(eps))
                for _ in range(CALLS)]

    def int_sub_norm(data, sub=ints.sub, norm=ints.norm):
        for a, b in data:
            norm(sub(a, b))

    def mod_norm(data, norm=mod5.norm):
        for a in data:
            norm(a)

    def vec_metric(data, metric=vec2.metric):
        for a, b in data:
            metric(a, b)

    def rat_add(data, add=rats.add):
        for a, b in data:
            add(a, b)

    def rat_metric(data, metric=rats.metric):
        for a, b in data:
            metric(a, b)

    def dyadic(data):
        for q, e in data:
            round_to_dyadic(q, e)

    return {
        "values.int.sub_norm_ns": _ns_per_call(int_sub_norm, int_pairs),
        "values.mod5.norm_ns": _ns_per_call(mod_norm, mod_values),
        "values.vec2.metric_ns": _ns_per_call(vec_metric, vec_pairs),
        "values.rat.add_ns": _ns_per_call(rat_add, rat_pairs),
        "values.rat.metric_ns": _ns_per_call(rat_metric, rat_pairs),
        "values.round_to_dyadic_ns": _ns_per_call(dyadic, rounding),
    }
