"""Seeded random instances for experiment suites and tests.

All randomness flows through an explicit ``random.Random`` so that a
config seed fixes every sampled object exactly.

Stream contract: each table entry consumes exactly the draws of one
``payload(rng, group, span)`` call (``small_integer_function``: of one
``rng.randint(lo, hi)``), in table order, so a table and the generator
state after it equal those of the literal per-entry loop.  ``rng`` must be
a ``random.Random`` whose ``_randbelow`` is the getrandbits-based one
(``randint(a, b)`` is ``a + _randbelow(b - a + 1)``, and ``_randbelow(w)``
draws ``getrandbits(w.bit_length())`` until the result is below w), as on
CPython 3.10 to 3.13.  On ``int``, ``rat``, ``dy`` and ``mod:m`` the draws
of a table run through ``_keys``, a loop over a bound ``getrandbits``:
an entry draws once (``int``, ``mod:m``) or twice (``rat``, ``dy``), each
kind in a loop of its own, and its draws combine into one int key.
The value of each key is read off a table built once per group and span
(on ``mod:m`` the key is the value), and a ``vec:d`` entry is d ``rat``
entries; ``real`` draws each entry through ``payload``.  A keyed function
is stored trusted (``_trusted``), with its kernel form: ``group.numerators``
of its distinct keys' values (the table's L), read per key.  On the first
four groups the topology suite reads a case's mu-law from the draw keys
(``_perturbation_law``): it consumes f's draws without building f, g or
the measure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from math import prod
from typing import Sequence

from .involution_cocycles import GeneratorFamily
from .space import BernoulliMeasure, CylinderFunction, check_bases, space_size
from .values import (
    APPROX_REALS,
    DYADICS,
    INTEGERS,
    RATIONALS,
    Group,
    ModularGroup,
    RationalVectorGroup,
)


def rational(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def payload(rng: random.Random, group: Group, span: int = 8):
    if group == INTEGERS:
        return rng.randint(-span // 2, span // 2)
    if group == RATIONALS:
        return rational(rng, span, span)
    if group == DYADICS:
        return Fraction(rng.randint(-span, span), 1 << rng.randint(0, 3))
    if group == APPROX_REALS:
        return rng.uniform(-float(span), float(span))
    if isinstance(group, ModularGroup):
        return rng.randrange(group.modulus)
    if isinstance(group, RationalVectorGroup):
        return tuple(rational(rng, span, span) for _ in range(group.dim))
    raise TypeError(f"no sampler for group {group!r}")


def _keys(rng: random.Random, widths: tuple[int, ...], n: int) -> list[int]:
    """The keys of n entries, each drawing ``rng._randbelow(w)`` for w in ``widths``.

    ``widths`` holds one or two widths (a ``vec:d`` entry is d ``rat``
    entries).  The draws of an entry are the digits of its key, first draw
    most significant: a one-draw key is its draw, a two-draw key a * w2 + b
    for the draws a < w1 and b < w2.  Each count of draws has its own loop
    over a bound ``getrandbits``, and the two-draw loop builds each key as
    its draws come in, with no list of draws.  Either consumes the generator
    exactly as the ``_randbelow`` calls would; a width of 1 still draws.
    """
    getrandbits = rng.getrandbits
    keys = []
    append = keys.append
    if len(widths) == 1:
        (w,) = widths
        k = w.bit_length()
        for _ in repeat(None, n):
            while (r := getrandbits(k)) >= w:
                pass
            append(r)
        return keys
    w1, w2 = widths
    k1, k2 = w1.bit_length(), w2.bit_length()
    for _ in repeat(None, n):
        while (a := getrandbits(k1)) >= w1:
            pass
        while (b := getrandbits(k2)) >= w2:
            pass
        append(a * w2 + b)
    return keys


@cache
def _value_table(group: Group, span: int) -> tuple[tuple[int, ...], tuple]:
    """The draw widths of one ``payload(rng, group, span)`` entry and the value of each key."""
    if group == INTEGERS:
        lo, hi = -span // 2, span // 2
        return (hi - lo + 1,), tuple(range(lo, hi + 1))
    if group == RATIONALS:
        return (2 * span + 1, span), tuple(
            Fraction(a - span, b + 1) for a in range(2 * span + 1) for b in range(span)
        )
    return (2 * span + 1, 4), tuple(
        Fraction(a - span, 1 << b) for a in range(2 * span + 1) for b in range(4)
    )


def _keyed(group: Group, span: int):
    """(widths, values) when ``payload`` draws a group entry as one key, else None.

    ``values[key]`` is the entry (on ``mod:m`` the key itself).  None on
    ``real`` and ``vec:d``, and wherever ``span`` leaves a width below 1, so
    that the literal ``payload`` call runs there and raises as it always has.
    """
    if isinstance(group, ModularGroup):
        return (group.modulus,), range(group.modulus)
    if not (group in (INTEGERS, RATIONALS, DYADICS) and type(span) is int):
        return None
    widths, values = _value_table(group, span)
    return (widths, values) if min(widths) >= 1 else None


def _payloads(rng: random.Random, group: Group, span: int, n: int) -> tuple:
    """n entries, equal to n literal ``payload(rng, group, span)`` calls."""
    if isinstance(group, RationalVectorGroup):
        return tuple(zip(*[iter(_payloads(rng, RATIONALS, span, n * group.dim))] * group.dim))
    keyed = _keyed(group, span)
    if keyed is None:
        return tuple(payload(rng, group, span) for _ in range(n))
    widths, values = keyed
    return tuple(map(values.__getitem__, _keys(rng, widths, n)))


def _keyed_function(bases: tuple, group: Group, values, keys: list) -> CylinderFunction:
    """The trusted function on ``values[k]`` for the drawn ``keys``, with its kernel."""
    distinct = list(set(keys))
    columns, scale = group.numerators([values[k] for k in distinct])
    kernel = [list(map(dict(zip(distinct, column)).__getitem__, keys)) for column in columns]
    table = tuple(map(values.__getitem__, keys))
    return CylinderFunction._trusted(check_bases(bases), group, table, (kernel, scale))


def cylinder_function(
    rng: random.Random, bases: Sequence[int], group: Group, span: int = 8
) -> CylinderFunction:
    bases, keyed = tuple(bases), _keyed(group, span)
    if keyed is None:
        return CylinderFunction(bases, group, _payloads(rng, group, span, space_size(bases)))
    return _keyed_function(bases, group, keyed[1], _keys(rng, keyed[0], space_size(bases)))


#: The spans of f and of the perturbation h in ``perturbed_pair``.
_PAIR_SPANS = (8, 2)


def perturbed_pair(
    rng: random.Random, bases: Sequence[int], group: Group
) -> tuple[CylinderFunction, CylinderFunction]:
    """f and g = f + h for a random f and a small random perturbation h:
    ``f = cylinder_function(rng, bases, group)`` followed by
    ``g = f + cylinder_function(rng, bases, group, span=2)``."""
    bases = tuple(bases)
    span, h_span = _PAIR_SPANS
    f = cylinder_function(rng, bases, group, span)
    return f, f + cylinder_function(rng, bases, group, h_span)


def small_integer_function(
    rng: random.Random, bases: Sequence[int], lo: int = -1, hi: int = 1
) -> CylinderFunction:
    bases = tuple(bases)
    if hi < lo:
        rng.randint(lo, hi)  # raises randrange's empty-range ValueError, drawing nothing
    keys = _keys(rng, (hi - lo + 1,), space_size(bases))
    return _keyed_function(bases, INTEGERS, range(lo, hi + 1), keys)


def coboundary_generator(
    rng: random.Random, bases: Sequence[int], group: Group, span: int = 8
) -> tuple[CylinderFunction, CylinderFunction]:
    """A generator that is a coboundary by construction, with its transfer."""
    transfer = cylinder_function(rng, bases, group, span)
    t = transfer.table
    table = tuple(group.sub(t[(i + 1) % len(t)], t[i]) for i in range(len(t)))
    return CylinderFunction._trusted(transfer.bases, group, table), transfer


def invariant_family(
    rng: random.Random,
    depth: int,
    count: int,
    group: Group,
    span: int = 8,
) -> GeneratorFamily:
    """A generator family with the structural invariance built in."""
    if count > depth:
        raise ValueError("family size cannot exceed the depth")
    tables = tuple(_payloads(rng, group, span, 1 << (depth - n)) for n in range(1, count + 1))
    return GeneratorFamily((2,) * depth, group, tables)


def _bernoulli_cuts(rng: random.Random, bases: Sequence[int]) -> list[list[int]]:
    """The weight rows of ``bernoulli_measure`` as drawn: positive ints, each row over its sum."""
    draws = iter(_keys(rng, (6,), sum(bases)))
    return [[1 + k for k in islice(draws, b)] for b in bases]


def bernoulli_measure(rng: random.Random, bases: Sequence[int]) -> BernoulliMeasure:
    """Product measure with random positive rational weights."""
    bases = tuple(bases)
    rows = _bernoulli_cuts(rng, bases)
    return BernoulliMeasure(
        bases, tuple(tuple(Fraction(c, t) for c in row) for row, t in zip(rows, map(sum, rows)))
    )


def _perturbation_law(rng: random.Random, bases: Sequence[int], group: Group):
    """(law, D): ``space._metric_law(*perturbed_pair(rng, bases, group),
    bernoulli_measure(rng, bases))`` in the same draws, over a multiple D of
    its denominator, where ``_keyed`` covers f and h; else None, drawing nothing.

    The metric is translation-invariant, so |f - g| = |h|: f's draws are
    consumed and f and g are not built.  The mass numerators, the Kronecker
    product of the drawn cuts over D, the product of the row sums, are summed
    per h key, and each drawn key is normed once.
    """
    keyed = [_keyed(group, span) for span in _PAIR_SPANS]
    if None in keyed:
        return None
    (f_widths, _), (h_widths, values) = keyed
    bases = check_bases(bases)
    n = space_size(bases)
    _keys(rng, f_widths, n)
    h_keys = _keys(rng, h_widths, n)
    rows = _bernoulli_cuts(rng, bases)
    nums = [1]
    for row in rows:
        nums = [m * c for c in row for m in nums]
    per_key = {}
    get = per_key.get
    for k, m in zip(h_keys, nums):
        per_key[k] = get(k, 0) + m
    law = {}
    for k, m in per_key.items():
        v = values[k] if group.rational else group.norm(values[k])  # abs() below norms int, rat, dy
        key = abs(v.numerator), v.denominator
        law[key] = law.get(key, 0) + m
    return law, prod(map(sum, rows))
