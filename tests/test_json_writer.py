"""The JSON writer against its oracle, ``json.dumps(obj, indent=2)``.

Every report and command output goes through ``suites.render_json``; it
must give the oracle's text byte for byte, on arbitrary JSON trees and on
the package's own outputs, raise where the oracle raises, and leave no
reference cycle behind.
"""

import gc
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocycle_lab import sampling, suites
from cocycle_lab.dynamics import Odometer
from cocycle_lab.involution_cocycles import GeneratorFamily, h_approximate
from cocycle_lab.suites import ExperimentConfig, render_json, run as run_suite
from cocycle_lab.values import NeighborhoodChain, group_from_tag
from cocycle_lab.zcocycles import ZCocycle, gh_check


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


# text that the escaper and the layout could get wrong
awkward = st.sampled_from(
    ['"', "\\", "{", "}", "[", "]", ",\n", ": ", "\x00", "\x1f", "\t", "é", " ",
     "\U0001f600", "\ud800", ""]
)
strings = st.one_of(st.text(), st.lists(awkward, max_size=4).map("".join))
ints = st.one_of(st.integers(), st.integers(-(10**60), 10**60), st.sampled_from([0, -1, 2**63, -(2**64)]))
floats = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, strings)
# value records: str keys, int or str values, as the value groups write them
records = st.dictionaries(strings, st.one_of(ints, strings), min_size=1, max_size=3)


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(strings, children, max_size=4),
        ),
        max_leaves=20,
    )


@given(trees(st.one_of(scalars, records)))
def test_the_writer_is_the_oracle_on_json_trees(obj):
    assert render_json(obj) == oracle(obj)


@given(records, trees(scalars), st.integers(0, 3))
def test_a_record_repeated_at_several_depths_is_written_at_each(record, tree, depth):
    nested = record
    for _ in range(depth):
        nested = [nested, {"r": record, "t": tree}]
    obj = {"a": record, "b": [record, (record, [record])], "c": nested, "d": tree, "e": record}
    assert render_json(obj) == oracle(obj)


def test_equal_but_distinct_values_are_not_confused():
    # 1 == True == 1.0 and 0.0 == -0.0 in a dict key, but not in the text
    obj = [{"n": 1}, {"n": True}, {"n": 1.0}, {"n": 0}, {"n": False}, {"n": 0.0}, {"n": -0.0},
           [{"n": 1}, {"n": True}], {"n": "1"}, {"n": 1}]
    assert render_json(obj) == oracle(obj)


# --- shared records: ``payloads_to_json`` hands one dict to every equal entry


shared_records = st.lists(records, min_size=1, max_size=3).map(st.sampled_from)


@given(shared_records.flatmap(trees))
def test_the_writer_is_the_oracle_on_trees_of_shared_records(obj):
    assert render_json(obj) == oracle(obj)


# --- tables: a list that starts with a dict and repeats an object is joined
# from one text per distinct object

# records as the writer may meet them: int/str values, or holding a bool or a float
any_records = st.one_of(
    records,
    st.dictionaries(strings, st.one_of(st.booleans(), floats, ints), min_size=1, max_size=3),
)


@given(st.data(), st.lists(any_records, min_size=1, max_size=4))
def test_a_table_of_shared_records_is_written_as_the_oracle_writes_it(data, pool):
    shared = st.sampled_from(pool)
    entries = st.one_of(
        shared, shared, scalars, any_records,
        st.lists(st.one_of(scalars, shared), max_size=3),
        st.lists(st.one_of(scalars, shared), max_size=3).map(tuple),
    )
    table = [data.draw(shared)] + data.draw(st.lists(entries, max_size=12))
    obj = data.draw(st.sampled_from([table, tuple(table), {"t": table, "u": pool}, [table, [table]]]))
    assert render_json(obj) == oracle(obj)


@given(any_records, st.lists(st.one_of(scalars, st.lists(scalars, max_size=2)), min_size=1, max_size=6))
def test_a_list_that_starts_with_a_record_and_then_holds_no_record(record, rest):
    for obj in ([record, *rest], [record, *rest, record], [dict(record), *rest, dict(record)]):
        assert render_json(obj) == oracle(obj)


RECORD = {"t": "rat", "n": -3, "d": 7}


def test_one_record_object_repeated_inside_a_list():
    obj = [RECORD, RECORD, {"x": [RECORD]}, RECORD, [], RECORD]
    assert render_json(obj) == oracle(obj)


def test_the_same_record_object_at_two_indentation_levels():
    obj = {"a": RECORD, "b": [RECORD, [RECORD, {"c": RECORD}]], "d": RECORD}
    assert render_json(obj) == oracle(obj)
    obj = [[RECORD], RECORD, [[RECORD]], RECORD, [RECORD]]
    assert render_json(obj) == oracle(obj)


def test_equal_records_that_are_distinct_objects():
    # the last one holds the same items in another order, so its text differs
    obj = [dict(RECORD), dict(RECORD), RECORD, {"t": "rat", "d": 7, "n": -3}, dict(RECORD)]
    assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "shared",
    [{"t": "real", "v": -0.0}, {"t": "real", "v": 0.0}, {"t": "real", "v": float("nan")},
     {"ok": True}, {"ok": False, "n": 1}, {"t": "rat", "n": 1, "d": 2, "x": 0.5}],
    ids=repr,
)
def test_a_shared_record_holding_a_bool_or_float(shared):
    obj = [shared, {"a": shared}, shared, [shared], {"t": "real", "v": 0.0}, shared,
           {"t": "real", "v": -0.0}, {"ok": 1}, shared]
    assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [None, True, False, 0, -7, 1.5, -0.0, float("nan"), float("inf"), float("-inf"), "x\n",
     [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, {"a": ()}, [[], {}, ()]],
    ids=repr,
)
def test_scalars_and_empty_containers(obj):
    assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize("key", [1, 2.5, True, None])
def test_a_key_that_is_not_a_string_is_refused(key):
    # the oracle would write it as a string; no output has one
    with pytest.raises(TypeError):
        render_json({"a": 1, key: [1]})


@pytest.mark.parametrize("obj", [Fraction(1, 3), {"a": {1, 2}}, [object()]], ids=repr)
def test_what_the_oracle_refuses_is_refused_alike(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        render_json(obj)
    assert str(got.value) == str(expected.value)


# CPython limits int <-> decimal text conversion since 3.10.7 and 3.11
needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)


@needs_int_limit
@pytest.mark.parametrize("where", ["top", "record", "list", "tree"])
def test_an_int_past_the_digit_limit_raises_the_oracle_error(where):
    wide = 10 ** (sys.get_int_max_str_digits() + 1)
    obj = {
        "top": wide,
        "record": [{"t": "rat", "n": wide, "d": 3}],
        "list": [1, [2, wide]],
        "tree": {"a": {"b": wide, "c": 1.5}},
    }[where]
    with pytest.raises(ValueError) as expected:
        oracle(obj)
    with pytest.raises(ValueError) as got:
        render_json(obj)
    assert str(got.value) == str(expected.value)


GROUPS = ["int", "rat", "dy", "mod:5", "vec:2", "real"]


@pytest.mark.parametrize("tag", GROUPS)
@pytest.mark.parametrize("seed", [0, 1])
def test_the_package_outputs_are_written_as_the_oracle_writes_them(tag, seed):
    rng = random.Random(seed)
    group = group_from_tag(tag)
    family = sampling.invariant_family(rng, 6, 3, group)
    f = sampling.cylinder_function(rng, (2,) * 6, group)
    cob, transfer = sampling.coboundary_generator(rng, (2,) * 6, group)
    outputs = [family.to_json(), f.to_json(), transfer.to_json()]
    for h in (f, cob):
        outputs.append(gh_check(ZCocycle(Odometer((2,) * 6), h)).to_json())
    if tag in ("rat", "dy"):
        outputs.append(h_approximate(family, NeighborhoodChain(Fraction(1, 4))).to_json())
    for obj in outputs:
        assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "suite, tag",
    [(suite, tag) for suite in sorted(suites.SUITES) for tag in GROUPS
     if suite != "happrox" or tag == "rat"],  # happrox refuses the other groups
)
def test_report_payloads_are_written_as_the_oracle_writes_them(suite, tag, monkeypatch):
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return render_json(obj)

    monkeypatch.setattr(suites, "render_json", recording)
    config = ExperimentConfig.from_json({"depth": 5, "count": 3, "group": tag, "seed": 1})
    text = run_suite(config, suite).to_json()
    (payload,) = payloads
    assert text == oracle(payload) + "\n"


def test_the_writer_leaves_no_reference_cycle():
    # the output of ``gamma happrox`` on a decoded family: tables of shared records
    family = sampling.invariant_family(random.Random(3), 10, 3, group_from_tag("rat"))
    family = GeneratorFamily.from_json(json.loads(json.dumps(family.to_json())))
    obj = h_approximate(family, NeighborhoodChain(Fraction(1, 4))).to_json()
    report = run_suite(ExperimentConfig.from_json({"depth": 5, "count": 3}), "topology")
    gc.collect()
    gc.disable()
    try:
        render_json(obj)
        report.to_json()
        assert gc.collect() == 0
    finally:
        gc.enable()
