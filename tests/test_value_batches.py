"""Whole-table value records: ``Group.payloads_from_json`` and
``Group.payloads_to_json`` against their per-record oracles,
``payload_from_json`` and ``payload_to_json``.

The batch forms parse or write once per distinct record or payload, so
they must give the same payloads (value, type and ``repr``), the same
records and the same refusals, raised at the same record, as the oracles
applied entry by entry.  A record that is not a JSON object is the one
exception: a table reader refuses it in words, where ``payload_from_json``
alone fails on indexing it.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab.involution_cocycles import GeneratorFamily
from cocycle_lab.space import CylinderFunction
from cocycle_lab.values import MAX_DYADIC_EXPONENT, group_from_tag

TAGS = ("int", "rat", "dy", "mod:5", "vec:2", "real")

rationals = st.fractions(max_denominator=10**6) | st.fractions(min_value=-3, max_value=3,
                                                              max_denominator=8)
PAYLOADS = {
    "int": st.integers(-5, 5) | st.integers(),
    "rat": rationals,
    "dy": st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-40, 40), st.integers(0, 70)),
    "mod:5": st.integers(0, 4),
    "vec:2": st.tuples(rationals, rationals),
    "real": st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
}


def _with_repeats(tag):
    """Lists of payloads picked from a small pool, so entries repeat as one object."""
    pool = st.lists(PAYLOADS[tag], min_size=1, max_size=6)
    return pool.flatmap(lambda p: st.lists(st.sampled_from(p), max_size=40))


def _same(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert type(a) is type(b)
        assert repr(a) == repr(b)  # tells -0.0 from 0.0, and compares NaN


def _outcome(call, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call(*args)
    except Exception as exc:  # the refusal itself is what is compared
        return type(exc), str(exc)


def _refusal(group, record):
    """What a table reader raises at ``record``: a record that is not a JSON
    object in words, any other as ``payload_from_json`` raises it alone."""
    if isinstance(record, dict):
        return _outcome(group.payload_from_json, record)
    kind = "null" if record is None else type(record).__name__
    return ValueError, f"a value record must be a JSON object, got {kind}"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tag=st.sampled_from(TAGS))
def test_decoding_a_table_is_decoding_each_record(data, tag):
    group = group_from_tag(tag)
    payloads = data.draw(_with_repeats(tag))
    shared = [group.payload_to_json(a) for a in payloads]
    fresh = json.loads(json.dumps(shared))  # equal records, each its own dict
    for records in (shared, fresh):
        batch = _outcome(group.payloads_from_json, records)
        alone = _outcome(lambda: [group.payload_from_json(r) for r in records])
        if isinstance(alone, list):
            _same(batch, alone)
        else:  # a non-finite real is refused, as it is alone
            assert batch == alone


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tag=st.sampled_from(TAGS))
def test_encoding_a_table_is_encoding_each_payload(data, tag):
    group = group_from_tag(tag)
    payloads = data.draw(_with_repeats(tag))
    records = group.payloads_to_json(payloads)
    expected = [group.payload_to_json(a) for a in payloads]
    assert repr(records) == repr(expected)
    assert json.dumps(records) == json.dumps(expected)


def test_a_real_table_keeps_its_signed_zeros_and_nans():
    group = group_from_tag("real")
    nan, other_nan = math.nan, float("nan")
    payloads = (0.0, -0.0, nan, 0.0, other_nan, -0.0, nan, 1e-300, -0.0)
    records = group.payloads_to_json(payloads)
    assert repr(records) == repr([group.payload_to_json(a) for a in payloads])
    assert [r["v"] for r in records][:2] == [0.0, -0.0]
    assert [math.copysign(1, r["v"]) for r in records[:2]] == [1, -1]
    assert records[2] is records[6] and records[2] is not records[4]  # one per object
    decoded = json.loads(json.dumps(records))
    with pytest.raises(ValueError, match="^real group needs a finite float, got nan$"):
        group.payloads_from_json(decoded)
    finite = [a for a in payloads if a == a]
    _same(group.payloads_from_json([r for r in decoded if r["v"] == r["v"]]), finite)


# a valid record, then refused records of the same group, some equal to it
# in value (1 == True == 1.0): each must raise what it raises alone
REFUSALS = {
    "int": ({"t": "int", "n": 1}, [
        {"t": "int", "n": True}, {"t": "int", "n": 1.0}, {"t": "int"}, [1], "n", None,
    ]),
    "rat": ({"t": "rat", "n": 1, "d": 2}, [
        {"t": "rat", "n": True, "d": 2}, {"t": "rat", "n": 1.0, "d": 2},
        {"t": "rat", "n": 1, "d": True}, {"t": "rat", "n": 1, "d": 2.0},
        {"t": "rat", "n": 1, "d": 0}, {"t": "rat", "n": 0, "d": False},
        {"t": "rat", "n": 1}, {"t": "rat", "d": 2}, [1, 2], "nd", None, 7,
    ]),
    "dy": ({"t": "dy", "n": 1, "k": 1}, [
        {"t": "dy", "n": True, "k": 1}, {"t": "dy", "n": 1.0, "k": 1},
        {"t": "dy", "n": 1, "k": True}, {"t": "dy", "n": 1, "k": 1.0},
        {"t": "dy", "n": 1, "k": -1}, {"t": "dy", "n": 1, "k": MAX_DYADIC_EXPONENT + 1},
        {"t": "dy", "k": -1}, {"t": "dy", "k": 1}, {"t": "dy", "n": 1}, [1, 1], "nk", None,
    ]),
    "mod:5": ({"t": "mod", "m": 5, "r": 1}, [
        {"t": "mod", "m": 5, "r": True}, {"t": "mod", "m": 5, "r": 1.0},
        {"t": "mod", "m": 7, "r": 1}, {"t": "mod", "m": 5}, [5, 1], None,
    ]),
    "vec:2": ({"t": "vec", "v": [[1, 2], [3, 4]]}, [
        {"t": "vec", "v": [[True, 2], [3, 4]]}, {"t": "vec", "v": [[1, 0], [3, 4]]},
        {"t": "vec", "v": [[1, 2]]}, {"t": "vec"}, None,
    ]),
    "real": ({"t": "real", "v": 1.0}, [
        {"t": "real", "v": True}, {"t": "real", "v": "1.0"}, {"t": "real"}, [1.0], None,
    ]),
}


@pytest.mark.parametrize("tag", TAGS)
def test_a_refused_record_raises_what_it_raises_alone_at_its_place(tag):
    group = group_from_tag(tag)
    valid, refused = REFUSALS[tag]
    for bad in refused:
        raised = _outcome(group.payload_from_json, bad)  # refused alone too
        assert isinstance(raised, tuple) and issubclass(raised[0], Exception)
        alone = _refusal(group, bad)
        assert _outcome(group.payloads_from_json, [valid, bad, valid]) == alone
        assert _outcome(group.payloads_from_json, [valid, valid, bad]) == alone
        for later in refused:  # the first refused record is the one reported
            assert _outcome(group.payloads_from_json, [valid, bad, valid, later]) == alone


@pytest.mark.parametrize("tag", TAGS)
def test_table_readers_refuse_as_record_readers_do(tag):
    group = group_from_tag(tag)
    valid, refused = REFUSALS[tag]
    for bad in refused:
        alone = _refusal(group, bad)
        family = {"N": 1, "depth": 2, "group": tag, "tables": [[valid, bad]]}
        function = {"bases": [2], "depth": 1, "group": tag, "table": [valid, bad]}
        assert _outcome(GeneratorFamily.from_json, family) == alone
        assert _outcome(CylinderFunction.from_json, function) == alone


@pytest.mark.parametrize("tag", ["rat", "dy"])
def test_equal_records_decode_to_one_shared_payload(tag):
    group = group_from_tag(tag)
    records = json.loads(json.dumps([group.payload_to_json(Fraction(3, 4))] * 5))
    payloads = group.payloads_from_json(records)
    assert len({id(q) for q in payloads}) == 1
    assert payloads == [Fraction(3, 4)] * 5
