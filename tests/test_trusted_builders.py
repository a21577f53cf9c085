"""The package's own builders and JSON readers store their tables
unchecked (``CylinderFunction._trusted``, ``GeneratorFamily._trusted``);
the validating public constructors stay the oracle.  Every builder's
output must equal the public constructor's on its table, entry types
included, and the kernel form a sampler builds from its draw keys, or a
reader from its distinct records, must be exactly ``group.numerators`` of
the table (``_kernel_form`` of a family's tables), with the same L, handed
to the kernels once.  A reader refuses what the literal reading (each
record alone, then the constructor) refuses, with the same message.
"""

import json
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
    _kernel_form,
    h_approximate,
    recover_generators,
)
from cocycle_lab.space import CylinderFunction, binary_bases
from cocycle_lab.values import (
    INTEGERS,
    NeighborhoodChain,
    _is_int,
    _require_list,
    _require_object,
    group_from_tag,
)
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


# --- decoded tables: ``from_json`` builds through ``_trusted`` and, on rat and
# dy, carries the kernel that decoding built


def _literal_payloads(group, records) -> list:
    """Each record parsed alone, as a reader of the JSON format would."""
    return [group.payload_from_json(_require_object(obj, "a value record")) for obj in records]


def _literal_family(obj):
    """The family of ``obj``: its records read one by one, then the validating constructor."""
    _require_object(obj, "a generator family")
    group = group_from_tag(obj["group"])
    bases = binary_bases(obj["depth"])
    tables = [
        _literal_payloads(group, _require_list(table, "an entry of tables"))
        for table in _require_list(obj["tables"], "tables")
    ]
    count = obj.get("N", len(tables))
    if not _is_int(count):
        raise ValueError(f"N must be an integer, got {count!r}")
    if len(tables) != count:
        raise ValueError("N field disagrees with the number of tables")
    return GeneratorFamily(bases, group, tables)


def _literal_function(obj):
    """The function of ``obj``: its records read one by one, then the validating constructor."""
    _require_object(obj, "a cylinder function")
    group = group_from_tag(obj["group"])
    bases = tuple(_require_list(obj["bases"], "bases"))
    if obj.get("depth", len(bases)) != len(bases):
        raise ValueError("depth field disagrees with bases length")
    return CylinderFunction(bases, group, _literal_payloads(group, _require_list(obj["table"], "table")))


def _outcome(read, obj):
    """What ``read(obj)`` returns, or the type and text of what it raises."""
    try:
        return read(obj)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


# records that some or all groups refuse, each in its own way
MALFORMED = [
    5, None, "x", [1, 2], {}, {"t": "rat", "n": True, "d": 1}, {"t": "rat", "n": 1.5, "d": 2},
    {"n": 1, "d": 0}, {"n": 1, "d": False}, {"n": "1", "d": 2}, {"n": 3}, {"t": "int", "n": "x"},
    {"m": 4, "r": 1}, {"m": 5, "r": 2.0}, {"v": [[1, 2]]}, {"v": [[1, 0], [1, 1]]}, {"v": 1.0},
    {"v": float("inf")}, {"v": True}, {"n": 1, "k": -1}, {"n": 1, "k": 1 << 17}, {"n": 1, "k": 1.0},
    {"n": 3, "k": 0}, {"n": 1, "d": 3}, {"n": -1, "k": 2, "d": 2},
]


def _mutated(draw, records: list) -> list:
    """``records`` with one entry replaced by a malformed record."""
    at = draw(st.integers(0, len(records) - 1))
    return records[:at] + [draw(st.sampled_from(MALFORMED))] + records[at + 1:]


@pytest.mark.parametrize("tag, other", [("rat", "d"), ("dy", "k")])
@pytest.mark.parametrize("key", ["n", "other"])
@pytest.mark.parametrize("kind", [float, bool])
def test_a_record_equal_in_value_to_a_read_one_is_still_refused(tag, other, key, kind):
    # (1.0, 1) and (True, 1) equal the pair (1, 1) as dict keys, but not as records
    record = {"t": tag, "n": 1, other: 1}
    table = [record, {**record, other if key == "other" else key: kind(1)}]
    for obj, read, literal in (
        ({"bases": [2], "group": tag, "table": table}, CylinderFunction.from_json, _literal_function),
        ({"depth": 2, "group": tag, "tables": [table]}, GeneratorFamily.from_json, _literal_family),
    ):
        expected = _outcome(literal, obj)
        assert type(expected) is tuple and _outcome(read, obj) == expected  # refused alike


def _json_of(built, shared: bool):
    """``built.to_json()``, its equal payloads sharing one record object when
    ``shared`` (as the writer hands them out), else every record its own."""
    obj = built.to_json()
    return obj if shared else json.loads(json.dumps(obj))


TAGS = ("int", "rat", "dy", "mod:5", "vec:2", "real")


@given(
    data=st.data(),
    seed=st.integers(0, 2**32),
    tag=st.sampled_from(TAGS),
    depth=st.integers(1, 6),
    shared=st.booleans(),
    fault=st.sampled_from(("none", "record", "N", "length", "empty", "too many")),
)
def test_a_decoded_family_is_the_validated_family_with_its_kernel(data, seed, tag, depth, shared, fault):
    group, rng = group_from_tag(tag), random.Random(seed)
    family = sampling.invariant_family(rng, depth, rng.randint(1, depth), group)
    obj = _json_of(family, shared)
    tables = obj["tables"]
    if fault == "record":
        n = data.draw(st.integers(0, len(tables) - 1))
        tables[n] = _mutated(data.draw, tables[n])
    elif fault == "N":
        obj["N"] = data.draw(st.sampled_from((len(tables) + 1, len(tables) - 1, "1", True, 1.0)))
    elif fault == "length":
        n = data.draw(st.integers(0, len(tables) - 1))
        tables[n] = tables[n][1:] if data.draw(st.booleans()) else tables[n] + tables[n][:1]
    elif fault == "empty":
        obj["tables"], obj["N"] = [], 0
    elif fault == "too many":
        obj["tables"] = tables + [tables[-1]] * (depth + 1 - len(tables))
        obj["N"] = depth + 1
    got, expected = _outcome(GeneratorFamily.from_json, obj), _outcome(_literal_family, obj)
    if not isinstance(expected, GeneratorFamily):
        assert got == expected
        return
    assert got == expected and _same(got.tables, expected.tables)
    assert got == family or fault == "record"
    carried = tag in ("rat", "dy")
    with _numerators_refused(group, carried):
        kernel = got._numerators()
        if carried:  # handed over once
            with pytest.raises(AssertionError, match="recomputed"):
                got._numerators()
    assert _same(kernel, _kernel_form(expected.tables, group))


@given(
    data=st.data(),
    seed=st.integers(0, 2**32),
    tag=st.sampled_from(TAGS),
    depth=st.integers(1, 6),
    shared=st.booleans(),
    fault=st.sampled_from(("none", "record", "length", "bases")),
)
def test_a_decoded_function_is_the_validated_function_with_its_kernel(data, seed, tag, depth, shared, fault):
    group, bases = group_from_tag(tag), (2,) * depth
    f = sampling.cylinder_function(random.Random(seed), bases, group)
    obj = _json_of(f, shared)
    if fault == "record":
        obj["table"] = _mutated(data.draw, obj["table"])
    elif fault == "length":
        obj["table"] = obj["table"][1:] if data.draw(st.booleans()) else obj["table"] + obj["table"][:1]
    elif fault == "bases":  # refused after the records, as the constructor refuses it
        obj["bases"] = obj["bases"][:-1] + [data.draw(st.sampled_from((1, 2.0, "2", True)))]
        if data.draw(st.booleans()):
            obj["table"] = _mutated(data.draw, obj["table"])
    got, expected = _outcome(CylinderFunction.from_json, obj), _outcome(_literal_function, obj)
    if not isinstance(expected, CylinderFunction):
        assert got == expected
        return
    assert got == expected and _same(got.table, expected.table)
    assert got == f or fault == "record"
    carried = tag in ("rat", "dy")
    with _numerators_refused(group, carried):
        kernel = got._numerators()
        if carried:  # handed over once
            with pytest.raises(AssertionError, match="recomputed"):
                got._numerators()
    assert kernel == group.numerators(expected.table)
    assert type(kernel[0]) is list and all(type(column) is list for column in kernel[0])


def test_a_decoded_family_hands_its_kernel_to_the_walk_and_to_happrox():
    family = sampling.invariant_family(random.Random(5), 6, 3, group_from_tag("rat"))
    obj = json.loads(json.dumps(family.to_json()))
    chain = NeighborhoodChain(Fraction(1, 4))
    walked, rounded = GeneratorFamily.from_json(obj), GeneratorFamily.from_json(obj)
    cocycle, expected = InvolutionCocycle(walked), _kernel_form(family.tables, family.group)
    with _numerators_refused(family.group, True):
        assert cocycle._kernel_family == expected
    assert cocycle._kernel_tables == InvolutionCocycle(family)._kernel_tables
    assert h_approximate(rounded, chain) == h_approximate(family, chain)
    for decoded in (walked, rounded):  # each took its kernel over
        with _numerators_refused(family.group, True), pytest.raises(AssertionError, match="recomputed"):
            decoded._numerators()
