"""Refusals of the public API: each call raises its exception type with its
exact text.  A library refusal gets a ``CASES`` entry here; its command-line
twin, if any, is a row of ``test_cli_table.py``, which reads the refused
documents below."""

import math
import random
from fractions import Fraction

import pytest

from cocycle_lab.dynamics import (
    FullGroupElement,
    MarkerSequence,
    Odometer,
    Tower,
    TowerDecomposition,
    _marker_indices,
    delta_apply,
    delta_index,
)
from cocycle_lab.involution_cocycles import (
    ConjugationError,
    GeneratorFamily,
    InvolutionCocycle,
    psi,
    transport,
    verify_identities,
    word_apply,
)
from cocycle_lab.sampling import invariant_family, payload
from cocycle_lab.space import (
    MAX_BINARY_DEPTH,
    MAX_POINTS,
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
    binary_bases,
    check_bases,
    measure_from_json,
    measure_of_cylinder_set,
    validate_prefix,
)
from cocycle_lab.suites import ExperimentConfig, Report, UsageError, density_suite
from cocycle_lab.values import (
    APPROX_REALS,
    INTEGERS,
    MAX_DYADIC_EXPONENT,
    RATIONALS,
    GroupMismatchError,
    GroupValue,
    ModularGroup,
    NeighborhoodChain,
    RationalVectorGroup,
    UnsupportedValueError,
    group_from_tag,
    integers_mod,
    round_to_dyadic,
)
from cocycle_lab.zcocycles import PeriodicityError, ZCocycle, periodic_coboundary, skew_orbit

B2, B3 = (2, 2), (2, 2, 2)
M2, M3 = Odometer(B2), Odometer(B3)
HALF = ["1/2", "1/2"]
DIRAC = {"kind": "dirac", "bases": [2, 2], "point": [1]}
# a measure record per weight list with one float weight, and its refusal
FLOAT_MEASURES = {
    "bernoulli": (
        {"kind": "bernoulli", "bases": [2, 2], "weights": [[0.5, 0.5], HALF]},
        "cannot interpret 0.5 as an exact rational",
    ),
    "markov-initial": (
        {"kind": "markov", "bases": [2, 2], "initial": [0.25, 0.75], "transitions": [[HALF, HALF]]},
        "cannot interpret 0.25 as an exact rational",
    ),
    "markov-row": (
        {"kind": "markov", "bases": [2, 2], "initial": ["1/4", "3/4"], "transitions": [[HALF, [0.5, 0.5]]]},
        "cannot interpret 0.5 as an exact rational",
    ),
    "mixture": (
        {"kind": "mixture", "weights": [0.5, 0.5], "components": [DIRAC, DIRAC]},
        "cannot interpret 0.5 as an exact rational",
    ),
}
# depths refused before (2,) * depth is built
HUGE_DEPTHS = {"max+1": MAX_BINARY_DEPTH + 1, "1e8": 100_000_000, "1e30": 10**30}
DEPTH_RANGE = f"depth must lie in 1..{MAX_BINARY_DEPTH} (at most {MAX_POINTS} prefixes)"
DY_EXPONENT = f"dyadic exponent k must be an integer in 0..{MAX_DYADIC_EXPONENT}"
NOT_INTS = "a value record needs integers, got"
# value records refused before they are evaluated, with their refusals
VALUE_RECORDS = {
    "dy-k-1e10": ({"t": "dy", "n": 1, "k": 10_000_000_000}, ValueError, f"{DY_EXPONENT}, got 10000000000"),
    "dy-k--1": ({"t": "dy", "n": 1, "k": -1}, ValueError, f"{DY_EXPONENT}, got -1"),
    "dy-k-true": ({"t": "dy", "n": 1, "k": True}, ValueError, f"{DY_EXPONENT}, got True"),
    "dy-n-1.5": ({"t": "dy", "n": 1.5, "k": 1}, UnsupportedValueError, f"{NOT_INTS} 1.5 / 2"),
    "rat-n-true": ({"t": "rat", "n": True, "d": 3}, UnsupportedValueError, f"{NOT_INTS} True / 3"),
    "rat-d-str": ({"t": "rat", "n": 1, "d": "3"}, UnsupportedValueError, f"{NOT_INTS} 1 / '3'"),
    "rat-d-0": ({"t": "rat", "n": 1, "d": 0}, ValueError, "value record 1/0 has a zero denominator"),
}
NOT_EXACT = "cannot interpret 0.5 as an exact rational"


def exact(record):
    """``record`` with each float weight written as the exact string '1/2' etc."""
    if isinstance(record, float):
        return str(Fraction(record))
    if isinstance(record, list):
        return [exact(r) for r in record]
    if isinstance(record, dict):
        return {k: (v if k in ("bases", "point") else exact(v)) for k, v in record.items()}
    return record


def _int_function(bases, table):
    return CylinderFunction(bases, INTEGERS, tuple(table))


def _family():
    return GeneratorFamily(B2, RATIONALS, ((Fraction(1, 3), Fraction(1, 2)),))


def _rat_family(depth):
    return {"N": 1, "depth": depth, "group": "rat", "tables": [[{"t": "rat", "n": 1, "d": 3}]]}


_FAMILY = {"N": 1, "depth": 2, "group": "int", "tables": [[{"t": "int", "n": 1}, {"t": "int", "n": 2}]]}


def _oracle(n, x):
    # a raw oracle whose values change group with the prefix
    return GroupValue(INTEGERS if x[0] == 0 else RATIONALS, 0)


def _digit(digit, coordinate):
    return f"digit {digit!r} at coordinate {coordinate} out of range [0,2)"


def _dirac():
    return DiracMeasure((2,), (0,))


def _one_orbit_towers():
    # the odometer is one cycle, so bases 0 and 1 lie on one orbit
    return TowerDecomposition(M2, (0, 1), (Tower(1, (0,)), Tower(3, (1,))))


CASES = [
    ("zcocycle-generator-off-the-prefixes",
     lambda: ZCocycle(M2, _int_function((3,), (0, 1, 2))),
     DepthError, "generator does not live on the model's prefixes"),
    ("full-group-non-int-jump",
     lambda: FullGroupElement(M2, CylinderFunction(B2, RATIONALS, (1, 1, 1, 1))),
     TypeError, "jump function must be integer-valued"),
    ("full-group-jump-off-the-prefixes",
     lambda: FullGroupElement(M2, _int_function((3,), (1, 1, 1))),
     DepthError, "jump function does not live on the model's prefixes"),
    ("full-group-compose-across-models",
     lambda: FullGroupElement(M2, _int_function(B2, (1,) * 4)).compose(
         FullGroupElement(M3, _int_function(B3, (1,) * 8))),
     DepthError, "full-group elements live on different models"),
    ("delta-index-digit-out-of-range",
     lambda: delta_index(M2, 3, 0),
     IndexError, "digit index 3 out of range 1..2"),
    ("delta-index-non-binary-coordinate",
     lambda: delta_index(Odometer((2, 3)), 2, 0),
     ValueError, "coordinate 2 has base 3, need 2"),
    ("marker-index-out-of-range",
     lambda: _marker_indices(M2, [4]),
     ValueError, "marker index 4 out of range"),
    ("marker-sequence-index-out-of-range",
     lambda: MarkerSequence(M3).marker_indices(3),
     IndexError, "marker index 3 out of range 1..2"),
    ("family-from-functions-mixed-groups",
     lambda: GeneratorFamily.from_cylinder_functions(B2, [
         CylinderFunction(B2, RATIONALS, (1, 1, 2, 2)),
         CylinderFunction(B2, INTEGERS, (1, 1, 1, 1))]),
     ValueError, "generators must share one value group"),
    ("family-generator-payload-index",
     lambda: _family().generator_payload(2, 0),
     IndexError, "generator index 2 out of range 1..1"),
    ("cocycle-word-index",
     lambda: InvolutionCocycle(_family()).eval_word_index([1, 2], 0),
     IndexError, "generator index 2 out of range 1..1"),
    ("raw-oracle-mixed-groups",
     lambda: verify_identities(_oracle, 1, B2),
     ValueError, "oracle values must share one group"),
    ("raw-oracle-without-count-or-bases",
     lambda: verify_identities(_oracle),
     ValueError, "a raw oracle needs explicit count and bases"),
    ("psi-index",
     lambda: psi(2, _family(), (0, 0)),
     IndexError, "index 2 out of range 0..1"),
    ("transport-non-permutation",
     lambda: transport(InvolutionCocycle(_family()), (0, 0, 1, 2)),
     ConjugationError, "phi is not a permutation of the prefix space"),
    ("transport-non-cocycle",
     lambda: transport("f", (0, 1, 2, 3)),
     TypeError, "cannot transport 'f'"),
    ("mixture-empty",
     lambda: MixtureMeasure((), ()),
     ValueError, "mixture needs at least one component"),
    ("mixture-mismatched-bases",
     lambda: MixtureMeasure(
         (BernoulliMeasure.uniform(B2), BernoulliMeasure.uniform(B3)),
         (Fraction(1, 2), Fraction(1, 2))),
     ValueError, "mixture components must share one base vector"),
    ("cylinder-set-mixed-depths",
     lambda: measure_of_cylinder_set(BernoulliMeasure.uniform(B2), [(0,), (0, 1)]),
     DepthError, "cylinder set must consist of same-depth prefixes"),
    ("check-bases-above-max-points",
     lambda: check_bases((2,) * (MAX_POINTS.bit_length())),
     ValueError, f"prefix space larger than {MAX_POINTS} points"),
    ("modular-group-modulus",
     lambda: ModularGroup(0),
     ValueError, "modulus must be an integer >= 1, got 0"),
    ("vector-group-dimension",
     lambda: RationalVectorGroup(True),
     ValueError, "dimension must be an integer >= 1, got True"),
    ("modular-group-payload",
     lambda: integers_mod(5).validate(1.0),
     UnsupportedValueError, "Z/5 needs int, got 1.0"),
    ("vector-group-payload",
     lambda: RationalVectorGroup(2).validate((1,)),
     UnsupportedValueError, "Q^2 needs a length-2 coordinate list"),
    ("mod-record-modulus-mismatch",
     lambda: integers_mod(5).payload_from_json({"t": "mod", "m": 7, "r": 1}),
     GroupMismatchError, "modulus 7 != 5"),
    ("real-validation",
     lambda: APPROX_REALS.validate("0.5"),
     UnsupportedValueError, "real group needs float, got '0.5'"),
    ("real-validation-nan",
     lambda: APPROX_REALS.validate(math.nan),
     ValueError, "real group needs a finite float, got nan"),
    ("real-validation-infinity",
     lambda: APPROX_REALS.validate(math.inf),
     ValueError, "real group needs a finite float, got inf"),
    ("real-validation-minus-infinity",
     lambda: APPROX_REALS.validate(-math.inf),
     ValueError, "real group needs a finite float, got -inf"),
    ("real-validation-int-past-the-float-range",
     lambda: APPROX_REALS.validate(1 << 1024),
     ValueError, f"real group needs a finite float, got {1 << 1024}"),
    ("group-value-not-a-value",
     lambda: GroupValue(INTEGERS, 1) + 1,
     GroupMismatchError, "expected GroupValue, got 1"),
    ("group-value-subtract-across-groups",
     lambda: GroupValue(INTEGERS, 1) - GroupValue(RATIONALS, 1),
     GroupMismatchError, f"group mismatch: {INTEGERS!r} vs {RATIONALS!r}"),
    ("cylinder-function-subtract-across-groups",
     lambda: _int_function(B2, (0,) * 4) - CylinderFunction(B2, RATIONALS, (0,) * 4),
     GroupMismatchError, f"{INTEGERS!r} vs {RATIONALS!r}"),
    ("chain-negative-index",
     lambda: NeighborhoodChain(Fraction(1)).epsilon(-1),
     ValueError, "index must be >= 0"),
    ("round-to-dyadic-nonpositive-radius",
     lambda: round_to_dyadic(Fraction(1, 3), Fraction(0)),
     ValueError, "eps must be positive, got 0"),
    ("round-to-dyadic-zero-int-radius",
     lambda: round_to_dyadic(Fraction(1, 3), 0),
     ValueError, "eps must be positive, got 0"),
    ("chain-zero-radius",
     lambda: NeighborhoodChain(0),
     ValueError, "eps0 must be positive, got 0"),
    ("config-zero-radius",
     lambda: ExperimentConfig(eps0=0),
     UsageError, "eps0 must be positive, got 0"),
    ("skew-orbit-start-in-the-wrong-group",
     lambda: skew_orbit(_int_function(B2, (1, 0, 0, -1)), ((0, 0), GroupValue(RATIONALS, 0)), 1),
     DepthError, "starting group value lives in the wrong group"),
    ("periodic-coboundary-two-bases-on-one-orbit",
     lambda: periodic_coboundary(
         FullGroupElement(M2, _int_function(B2, (1,) * 4)),
         ZCocycle(M2, _int_function(B2, (1, -1, 0, 0))),
         _one_orbit_towers()),
     PeriodicityError, "two base points on one orbit (index 1)"),
    ("report-unknown-format",
     lambda: Report("gh", {}, ("case",), [], []).render("xml"),
     UsageError, "unknown format 'xml'"),
    ("density-suite-non-binary-bases",
     lambda: density_suite(ExperimentConfig(bases=(2, 3))),
     UsageError, "the density rate 2^-n is stated for the 2-odometer"),
    ("sampling-payload-unknown-group",
     lambda: payload(random.Random(0), "g"),
     TypeError, "no sampler for group 'g'"),
    ("group-tag-not-a-string",
     lambda: group_from_tag(5),
     UnsupportedValueError, "a group tag must be a string, got 5"),
    ("cylinder-function-json-not-an-object",
     lambda: CylinderFunction.from_json([]),
     ValueError, "a cylinder function must be a JSON object, got list"),
    ("generator-family-json-not-an-object",
     lambda: GeneratorFamily.from_json(None),
     ValueError, "a generator family must be a JSON object, got null"),
    ("generator-family-json-count-not-an-int",
     lambda: GeneratorFamily.from_json({**_FAMILY, "N": True}),
     ValueError, "N must be an integer, got True"),
    ("invariant-family-count-above-depth",
     lambda: invariant_family(random.Random(0), 2, 3, RATIONALS),
     ValueError, "family size cannot exceed the depth"),
    ("experiment-config-float-base",
     lambda: ExperimentConfig(bases=(2, 2.5)),
     UsageError, "bases entry 1 must be an integer, got 2.5"),
    # measure weights: exact rationals only
    *(
        (f"measure-reader-float-{name}", lambda record=record: measure_from_json(record),
         UnsupportedValueError, message)
        for name, (record, message) in FLOAT_MEASURES.items()
    ),
    ("bernoulli-float-weight",
     lambda: BernoulliMeasure((2,), ((0.5, 0.5),)),
     UnsupportedValueError, NOT_EXACT),
    ("markov-float-initial",
     lambda: MarkovMeasure(B2, (0.5, 0.5), ((HALF, HALF),)),
     UnsupportedValueError, NOT_EXACT),
    ("markov-float-row",
     lambda: MarkovMeasure(B2, HALF, ((HALF, (0.5, 0.5)),)),
     UnsupportedValueError, NOT_EXACT),
    ("mixture-float-weight",
     lambda: MixtureMeasure((_dirac(), _dirac()), (0.5, 0.5)),
     UnsupportedValueError, NOT_EXACT),
    # probability vectors are checked alike
    *(
        (f"{what.replace(' ', '-')}-{name}", call, ValueError,
         f"{what} [{', '.join(bad)}] must be 2 nonnegative weights summing to 1")
        for name, bad in (("sum-below-1", ("1/2", "1/3")), ("negative", ("3/2", "-1/2")), ("short", ("1",)))
        for what, call in (
            ("weights", lambda bad=bad: BernoulliMeasure((2,), (bad,))),
            ("initial distribution", lambda bad=bad: MarkovMeasure(B2, bad, ((HALF, HALF),))),
            ("transition 0 row", lambda bad=bad: MarkovMeasure(B2, HALF, ((HALF, bad),))),
            ("mixture weights", lambda bad=bad: MixtureMeasure((_dirac(), _dirac()), bad)),
        )
    ),
    *(
        (f"markov-{name}-transition-matrices", lambda matrices=matrices: MarkovMeasure(B2, HALF, matrices),
         ValueError, "need 1 transition matrices")
        for name, matrices in (("no", ()), ("two", ((HALF, HALF), (HALF, HALF))))
    ),
    # bases, digits and depths: ints only
    *(
        (f"{what}-bases-{name}", call, ValueError, f"every base must be an integer >= 2, got ({bad!r}, 2)")
        for name, bad in (("2.5", 2.5), ("str", "2"), ("true", True))
        for what, call in (
            ("check", lambda bad=bad: check_bases((bad, 2))),
            ("odometer", lambda bad=bad: Odometer((bad, 2))),
            ("cylinder-function", lambda bad=bad: CylinderFunction((bad, 2), INTEGERS, (0, 0, 0, 0))),
            ("dirac-record", lambda bad=bad: measure_from_json(
                {"kind": "dirac", "bases": [bad, 2], "point": []})),
            ("bernoulli-record", lambda bad=bad: measure_from_json(
                {"kind": "bernoulli", "bases": [bad, 2], "weights": [HALF, HALF]})),
        )
    ),
    *(
        (f"dirac-point-{name}", lambda point=point: DiracMeasure(B3, point), DepthError, _digit(point[0], 1))
        for name, point in (("0.9", (0.9, 1)), ("1.0", (1.0,)), ("true", (True,)), ("str", ("1",)))
    ),
    *(
        (f"{what}-digit-{name}", call, DepthError, _digit(digit, coordinate))
        for name, digit in (("0.7", 0.7), ("1.0", 1.0), ("true", True), ("str", "1"))
        for what, call, coordinate in (
            ("eval", lambda digit=digit: _int_function((2,), (3, 4)).eval((digit,)), 1),
            ("prefix", lambda digit=digit: validate_prefix((0, digit), B2), 2),
            ("mass", lambda digit=digit: BernoulliMeasure.uniform(B2).mass((digit,)), 1),
        )
    ),
    *(
        (f"word-apply-{name}-digit-2", lambda word=word: word_apply(word, (2, 0)), DepthError, _digit(2, 1))
        for name, word in (("flip-1", {1}), ("flip-2", {2}), ("empty", ()))
    ),
    ("word-apply-digit-0.5",
     lambda: word_apply({1}, (0.5, 0)),
     DepthError, _digit(0.5, 1)),
    *(
        (f"family-depth-{name}", lambda depth=depth: GeneratorFamily.from_json(_rat_family(depth)),
         ValueError, f"depth must be an integer, got {depth!r}")
        for name, depth in (("true", True), ("2.0", 2.0), ("str", "2"), ("null", None))
    ),
    *(
        (f"binary-{what}-depth-{name}", call, ValueError, f"{DEPTH_RANGE}, got {depth}")
        for name, depth in HUGE_DEPTHS.items()
        for what, call in (
            ("bases", lambda depth=depth: binary_bases(depth)),
            ("odometer", lambda depth=depth: Odometer.binary(depth)),
        )
    ),
    # value records: checked before they are evaluated
    *(
        (f"value-record-{name}", lambda record=record: group_from_tag(record["t"]).payload_from_json(record),
         error, message)
        for name, (record, error, message) in VALUE_RECORDS.items()
    ),
    # a table entry that is not a record is refused in words, on every group
    *(
        (f"{tag}-bare-record-{name}", lambda tag=tag, bare=bare: group_from_tag(tag).payloads_from_json([bare]),
         ValueError, f"a value record must be a JSON object, got {kind}")
        for tag in ("int", "rat", "dy", "mod:5", "vec:2", "real")
        for name, bare, kind in (("5", 5, "int"), ("null", None, "null"), ("list", [1, 2], "list"))
    ),
    ("vector-record-bool-numerator",
     lambda: RationalVectorGroup(2).payload_from_json({"t": "vec", "v": [[True, 1], [0, 1]]}),
     UnsupportedValueError, "a value record needs integers, got True / 1"),
    ("vector-record-zero-denominator",
     lambda: RationalVectorGroup(2).payload_from_json({"t": "vec", "v": [[1, 0], [0, 1]]}),
     ValueError, "value record 1/0 has a zero denominator"),
    ("family-bases-2-3", lambda: GeneratorFamily((2, 3), RATIONALS, ((1, 2, 3),)),
     ValueError, "digit flips need an all-binary base vector"),
    # every table entry is validated: a bad entry last is refused too
    *(
        (f"int-{what}-float-{name}", call, UnsupportedValueError, "integer group needs int, got 2.0")
        for name, table in (
            ("first", (2.0, 2, 3, "x")), ("second", (1, 2.0, 3, "x")), ("last", (1, 2, 3, 2.0)),
        )
        for what, call in (
            ("table", lambda table=table: CylinderFunction(B2, INTEGERS, table)),
            ("family", lambda table=table: GeneratorFamily(B3, INTEGERS, (table,))),
        )
    ),
]


@pytest.mark.parametrize("call, error, text", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refusal(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


def test_case_ids_are_unique():
    ids = [case[0] for case in CASES]
    assert len(set(ids)) == len(ids), sorted({i for i in ids if ids.count(i) > 1})


def test_the_refused_inputs_have_accepted_neighbours():
    """Each refusal above is of its one bad value: the valid input next to it is taken."""
    for record, _ in FLOAT_MEASURES.values():
        assert measure_from_json(exact(record)).mass((1, 0)) >= 0
    assert _int_function((2,), (3, 4)).eval((1,)).payload == 4
    assert word_apply({1}, (1, 0)) == delta_apply(1, (1, 0)) == (0, 0)
    assert word_apply([2, 1, 2], [0, 1]) == (1, 1)
    assert GeneratorFamily.from_json(_rat_family(1)).depth == 1
    assert binary_bases(MAX_BINARY_DEPTH) == (2,) * MAX_BINARY_DEPTH
    for record, _, _ in VALUE_RECORDS.values():
        good = dict(record, n=3, **({"k": 2} if "k" in record else {"d": 4}))
        assert group_from_tag(record["t"]).payload_from_json(good) == Fraction(3, 4)
    vector = {"t": "vec", "v": [[1, 2], [0, 1]]}
    assert RationalVectorGroup(2).payload_from_json(vector) == (Fraction(1, 2), 0)


def test_group_value_and_function_arithmetic():
    third = GroupValue(RATIONALS, Fraction(1, 3))
    assert -third == GroupValue(RATIONALS, Fraction(-1, 3))
    assert third - GroupValue(RATIONALS, 1) == GroupValue(RATIONALS, Fraction(-2, 3))
    assert third.scale(-6) == GroupValue(RATIONALS, -2)
    f = _int_function(B2, (1, 2, 3, 4))
    assert (f - _int_function((2,), (1, 1))).table == (0, 1, 2, 3)
