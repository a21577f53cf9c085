"""Refusals of the public API that no other test reaches: each call raises
its exception type with its exact text."""

import json
import math
import random
from fractions import Fraction

import pytest

from cocycle_lab.cli import main
from cocycle_lab.dynamics import (
    FullGroupElement,
    MarkerSequence,
    Odometer,
    Tower,
    TowerDecomposition,
    _marker_indices,
    delta_index,
)
from cocycle_lab.involution_cocycles import (
    ConjugationError,
    GeneratorFamily,
    InvolutionCocycle,
    psi,
    transport,
    verify_identities,
)
from cocycle_lab.sampling import invariant_family, payload
from cocycle_lab.space import (
    MAX_POINTS,
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    MixtureMeasure,
    check_bases,
    measure_of_cylinder_set,
)
from cocycle_lab.suites import ExperimentConfig, Report, UsageError, density_suite
from cocycle_lab.values import (
    APPROX_REALS,
    INTEGERS,
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


def _int_function(bases, table):
    return CylinderFunction(bases, INTEGERS, tuple(table))


def _family():
    return GeneratorFamily(B2, RATIONALS, ((Fraction(1, 3), Fraction(1, 2)),))


def _oracle(n, x):
    # a raw oracle whose values change group with the prefix
    return GroupValue(INTEGERS if x[0] == 0 else RATIONALS, 0)


_GEN = {"bases": [2], "depth": 1, "group": "int", "table": [{"t": "int", "n": 1}, {"t": "int", "n": -1}]}
_FAMILY = {"N": 1, "depth": 2, "group": "int", "tables": [[{"t": "int", "n": 1}, {"t": "int", "n": 2}]]}


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
     ValueError, "radius must be positive"),
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
     lambda: Report("gh", {}, ("case",)).render("xml"),
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
]


@pytest.mark.parametrize("call, error, text", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refusal(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


def test_group_value_and_function_arithmetic():
    third = GroupValue(RATIONALS, Fraction(1, 3))
    assert -third == GroupValue(RATIONALS, Fraction(-1, 3))
    assert third - GroupValue(RATIONALS, 1) == GroupValue(RATIONALS, Fraction(-2, 3))
    assert third.scale(-6) == GroupValue(RATIONALS, -2)
    f = _int_function(B2, (1, 2, 3, 4))
    assert (f - _int_function((2,), (1, 1))).table == (0, 1, 2, 3)


@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
@pytest.mark.parametrize("command", ["gh", "solve", "eval", "density"])
def test_a_non_finite_real_input_exits_2_naming_the_value(tmp_path, command, text, shown, capsys):
    # Python's json reads NaN and Infinity, which no JSON output may hold
    path = tmp_path / "gen.json"
    path.write_text(
        '{"bases": [2], "depth": 1, "group": "real", '
        f'"table": [{{"t": "real", "v": {text}}}, {{"t": "real", "v": -1.0}}]}}'
    )
    extra = ["--j", "1", "--x", "0"] if command == "eval" else []
    assert main(["cocycle", command, "--input", str(path), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: real group needs a finite float, got {shown}\n"


def test_real_sums_that_overflow_exit_2(tmp_path, capsys):
    # finite entries whose partial sums pass the float range: no Infinity is printed
    table = [{"t": "real", "v": v} for v in (1e308, 1e308, -1e308, -1e308)]
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"bases": [2, 2], "depth": 2, "group": "real", "table": table}))
    for command in ("gh", "solve"):
        assert main(["cocycle", command, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: real group needs a finite float, got inf\n")


@pytest.mark.parametrize("command", ["verify", "roundtrip", "happrox"])
def test_a_non_finite_real_family_exits_2_naming_the_value(tmp_path, command, capsys):
    path = tmp_path / "family.json"
    path.write_text(
        '{"N": 1, "depth": 2, "group": "real", '
        '"tables": [[{"t": "real", "v": NaN}, {"t": "real", "v": 0.5}]]}'
    )
    assert main(["gamma", command, "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: real group needs a finite float, got nan\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "suite, flag, name",
    [("happrox", "--eps0", "eps0"), ("topology", "--epsilon-max", "epsilon_max")],
)
def test_a_radius_past_the_float_range_exits_2(suite, flag, name, fmt, capsys):
    # the JSON report prints each radius as a float too; csv is refused alike
    assert main(["run", suite, "--depth", "3", "--count", "1", flag, "1e400", "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad config: {name} must lie within the float range, got '1e400'\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        json.dumps({"kind": "bernoulli", "bases": [2] * 3, "weights": [["1/2", "1/2"]] * 3}),
        "[1]",
    ],
    ids=["empty-list", "empty-object", "unwrapped-record", "non-record-entry"],
)
def test_density_measures_must_be_a_non_empty_list(tmp_path, text, fmt, capsys):
    gen, measures = tmp_path / "gen.json", tmp_path / "measures.json"
    table = [{"t": "int", "n": 1}, {"t": "int", "n": -1}]
    gen.write_text(json.dumps({"bases": [2], "depth": 1, "group": "int", "table": table}))
    measures.write_text(text)
    argv = ["cocycle", "density", "--input", str(gen), "--depth", "3", "--measures", str(measures)]
    assert main([*argv, "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", f"error: {measures}: --measures needs a non-empty JSON list of measure records\n"
    )



def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("cocycle gh", json.dumps(_without(_GEN, "table")), "missing key 'table'"),
        ("cocycle solve", json.dumps({**_GEN, "group": 5}), "a group tag must be a string, got 5"),
        ("cocycle gh", "[1, 2]", "a cylinder function must be a JSON object, got list"),
        ("cocycle gh", "null", "a cylinder function must be a JSON object, got null"),
        ("gamma roundtrip", json.dumps(_without(_FAMILY, "tables")), "missing key 'tables'"),
        ("gamma verify", json.dumps({**_FAMILY, "group": 5}), "a group tag must be a string, got 5"),
        ("gamma verify", "[]", "a generator family must be a JSON object, got list"),
        ("gamma happrox", "null", "a generator family must be a JSON object, got null"),
        ("gamma verify", json.dumps({**_FAMILY, "N": True}), "N must be an integer, got True"),
        ("gamma verify", json.dumps({**_FAMILY, "N": 1.0}), "N must be an integer, got 1.0"),
        ("cocycle solve", json.dumps({**_GEN, "table": 5}), "table must be a JSON list, got int"),
        ("cocycle gh", json.dumps({**_GEN, "bases": 5}), "bases must be a JSON list, got int"),
        ("gamma verify", json.dumps({**_FAMILY, "tables": 5}), "tables must be a JSON list, got int"),
        ("gamma verify", json.dumps({**_FAMILY, "tables": [5]}),
         "an entry of tables must be a JSON list, got int"),
    ],
    ids=["missing-table", "group-5", "cocycle-list", "cocycle-null", "missing-tables",
         "family-group-5", "family-list", "family-null", "count-true", "count-float",
         "table-5", "bases-5", "tables-5", "tables-entry-5"],
)
def test_a_malformed_json_input_exits_2_with_a_message_in_words(tmp_path, command, text, message,
                                                                capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main([*command.split(), "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "text, kind",
    [("[1]", "list"), ('"x"', "str"), ("3", "int"), ("0.5", "float"), ("null", "null")],
    ids=["list", "string", "int", "float", "null"],
)
def test_a_config_that_is_not_an_object_exits_2_naming_its_type(tmp_path, text, kind, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", "gh", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: a config must be a JSON object, got {kind}\n")


_DIRAC = {"kind": "dirac", "bases": [2] * 3, "point": [0] * 3}
_MARKOV = {"kind": "markov", "bases": [2] * 3, "initial": ["1/2", "1/2"], "transitions": [[["1/2", "1/2"]] * 2] * 2}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"kind": "mixture", "components": [[1]], "weights": [1]}, "a measure must be a JSON object, got list"),
        ({"kind": "mixture", "components": [_DIRAC], "weights": 5}, "mixture weights must be a JSON list, got int"),
        ({"kind": "bernoulli", "bases": [2] * 3, "weights": 5}, "weights must be a JSON list, got int"),
        ({**_DIRAC, "point": 5}, "point must be a JSON list, got int"),
        ({**_MARKOV, "transitions": [5, 5]}, "a transition matrix must be a JSON list, got int"),
        ({**_MARKOV, "initial": 5}, "initial distribution must be a JSON list, got int"),
    ],
    ids=["component-list", "mixture-weights-5", "weights-5", "point-5", "transitions-entry-5", "initial-5"],
)
def test_a_malformed_measure_record_exits_2_with_a_message_in_words(tmp_path, record, message, capsys):
    gen, measures = tmp_path / "gen.json", tmp_path / "measures.json"
    gen.write_text(json.dumps(_GEN))
    measures.write_text(json.dumps([record]))
    argv = ["cocycle", "density", "--input", str(gen), "--depth", "3", "--measures", str(measures)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {measures}: {message}\n")


def test_a_measure_record_without_bases_exits_2_naming_the_key(tmp_path, capsys):
    gen, measures = tmp_path / "gen.json", tmp_path / "measures.json"
    gen.write_text(json.dumps(_GEN))
    measures.write_text(json.dumps([{"kind": "bernoulli", "weights": [["1/2", "1/2"]]}]))
    argv = ["cocycle", "density", "--input", str(gen), "--depth", "3", "--measures", str(measures)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {measures}: missing key 'bases'\n")


@pytest.mark.parametrize("bad", [0, 1, 3])
def test_a_table_is_refused_at_its_first_invalid_entry(bad):
    # every entry is validated: a bad entry last is refused too
    entries = [1, 2, 3, 4]
    entries[bad] = 2.0
    if bad < 3:
        entries[3] = "x"
    with pytest.raises(UnsupportedValueError, match=r"^integer group needs int, got 2\.0$"):
        CylinderFunction(B2, INTEGERS, tuple(entries))
    with pytest.raises(UnsupportedValueError, match=r"^integer group needs int, got 2\.0$"):
        GeneratorFamily((2,) * 3, INTEGERS, (tuple(entries),))
