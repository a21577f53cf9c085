"""The input boundary: one integer test for bases, digits and depths, one
probability check for measure weights, and value records checked before
they are evaluated.

Every value below is refused where it enters -- by the Python constructors
and, where the command line reaches it, by ``cli.main`` with exit code 2 --
instead of being truncated by ``int()``, absorbed as a float by
``Fraction()``, or failing later inside a kernel.
"""

import json
from fractions import Fraction

import pytest

from cocycle_lab.cli import main
from cocycle_lab.dynamics import Odometer, delta_apply
from cocycle_lab.involution_cocycles import GeneratorFamily, word_apply
from cocycle_lab.space import (
    MAX_BINARY_DEPTH,
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
    binary_bases,
    check_bases,
    measure_from_json,
    validate_prefix,
)
from cocycle_lab.values import (
    INTEGERS,
    MAX_DYADIC_EXPONENT,
    UnsupportedValueError,
    group_from_tag,
)

HALF = ["1/2", "1/2"]
DIRAC = {"kind": "dirac", "bases": [2, 2], "point": [1]}
GENERATOR = {
    "bases": [2, 2],
    "depth": 2,
    "group": "int",
    "table": [{"t": "int", "n": 1}, {"t": "int", "n": -1}, {"t": "int", "n": 0}, {"t": "int", "n": 0}],
}
FLOAT_MEASURES = {
    "bernoulli": {"kind": "bernoulli", "bases": [2, 2], "weights": [[0.5, 0.5], HALF]},
    "markov initial": {
        "kind": "markov",
        "bases": [2, 2],
        "initial": [0.25, 0.75],
        "transitions": [[HALF, HALF]],
    },
    "markov row": {
        "kind": "markov",
        "bases": [2, 2],
        "initial": ["1/4", "3/4"],
        "transitions": [[HALF, [0.5, 0.5]]],
    },
    "mixture": {"kind": "mixture", "weights": [0.5, 0.5], "components": [DIRAC, DIRAC]},
}


def _exact(record):
    """``record`` with each float weight written as the exact string '1/2' etc."""
    if isinstance(record, float):
        return str(Fraction(record))
    if isinstance(record, list):
        return [_exact(r) for r in record]
    if isinstance(record, dict):
        return {k: (v if k in ("bases", "point") else _exact(v)) for k, v in record.items()}
    return record


def _cli(tmp_path, capsys, argv, **documents):
    """Exit code and stderr of ``main`` with each document written to a file."""
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if arg == name else arg for arg in argv]
    code = main(argv)
    return code, capsys.readouterr().err


def _density(tmp_path, capsys, measures):
    argv = ["cocycle", "density", "--input", "gen", "--measures", "measures"]
    return _cli(tmp_path, capsys, argv, gen=GENERATOR, measures=measures)


# --- measure weights: exact rationals only ---------------------------------


@pytest.mark.parametrize("name", sorted(FLOAT_MEASURES))
def test_float_weights_are_refused_by_the_measure_reader(name):
    with pytest.raises(UnsupportedValueError, match="cannot interpret 0.5|cannot interpret 0.25"):
        measure_from_json(FLOAT_MEASURES[name])
    assert measure_from_json(_exact(FLOAT_MEASURES[name])).mass((1, 0)) >= 0


def test_float_weights_are_refused_by_the_constructors():
    with pytest.raises(UnsupportedValueError):
        BernoulliMeasure((2,), ((0.5, 0.5),))
    with pytest.raises(UnsupportedValueError):
        MarkovMeasure((2, 2), (0.5, 0.5), ((HALF, HALF),))
    with pytest.raises(UnsupportedValueError):
        MarkovMeasure((2, 2), HALF, ((HALF, (0.5, 0.5)),))
    dirac = DiracMeasure((2,), (0,))
    with pytest.raises(UnsupportedValueError):
        MixtureMeasure((dirac, dirac), (0.5, 0.5))


@pytest.mark.parametrize("name", sorted(FLOAT_MEASURES))
def test_float_weights_are_usage_errors(tmp_path, capsys, name):
    code, err = _density(tmp_path, capsys, [FLOAT_MEASURES[name]])
    assert code == 2
    assert "as an exact rational" in err
    assert _density(tmp_path, capsys, [_exact(FLOAT_MEASURES[name])])[0] == 0


def test_probability_vectors_are_checked_alike():
    for bad in (("1/2", "1/3"), ("3/2", "-1/2"), ("1",)):
        with pytest.raises(ValueError, match="must be 2 nonnegative weights summing to 1"):
            BernoulliMeasure((2,), (bad,))
        with pytest.raises(ValueError, match="must be 2 nonnegative weights summing to 1"):
            MarkovMeasure((2, 2), bad, ((HALF, HALF),))
        with pytest.raises(ValueError, match="must be 2 nonnegative weights summing to 1"):
            MarkovMeasure((2, 2), HALF, ((HALF, bad),))
        dirac = DiracMeasure((2,), (0,))
        with pytest.raises(ValueError, match="must be 2 nonnegative weights summing to 1"):
            MixtureMeasure((dirac, dirac), bad)


def test_markov_needs_one_transition_matrix_per_step(tmp_path, capsys):
    with pytest.raises(ValueError, match="need 1 transition matrices"):
        MarkovMeasure((2, 2), HALF, ())
    with pytest.raises(ValueError, match="need 1 transition matrices"):
        MarkovMeasure((2, 2), HALF, ((HALF, HALF), (HALF, HALF)))
    record = {"kind": "markov", "bases": [2, 2], "initial": HALF, "transitions": []}
    assert _density(tmp_path, capsys, [record])[0] == 2


# --- bases, digits and depths: ints only -----------------------------------


@pytest.mark.parametrize("bad", [2.5, "2", True])
def test_non_integer_bases_are_refused(bad):
    bases = (bad, 2)
    with pytest.raises(ValueError, match="every base must be an integer >= 2"):
        check_bases(bases)
    with pytest.raises(ValueError, match="every base must be an integer >= 2"):
        Odometer(bases)
    with pytest.raises(ValueError, match="every base must be an integer >= 2"):
        CylinderFunction(bases, INTEGERS, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="every base must be an integer >= 2"):
        measure_from_json({"kind": "dirac", "bases": list(bases), "point": []})
    with pytest.raises(ValueError, match="every base must be an integer >= 2"):
        measure_from_json({"kind": "bernoulli", "bases": list(bases), "weights": [HALF, HALF]})


@pytest.mark.parametrize("bad", [2.5, "2"])
def test_non_integer_table_bases_are_usage_errors(tmp_path, capsys, bad):
    table = dict(GENERATOR, bases=[bad, 2])
    code, err = _cli(tmp_path, capsys, ["cocycle", "solve", "--input", "gen"], gen=table)
    assert code == 2
    assert f"every base must be an integer >= 2, got ({bad!r}, 2)" in err


@pytest.mark.parametrize("bad", [2.5, "2"])
def test_non_integer_measure_bases_are_usage_errors(tmp_path, capsys, bad):
    record = {"kind": "bernoulli", "bases": [bad, 2], "weights": [HALF, HALF]}
    code, err = _density(tmp_path, capsys, [record])
    assert code == 2
    assert "every base must be an integer >= 2" in err


@pytest.mark.parametrize("point", [(0.9, 1), (1.0,), (True,), ("1",)])
def test_non_integer_dirac_point_is_refused(tmp_path, capsys, point):
    with pytest.raises(DepthError, match="at coordinate 1"):
        DiracMeasure((2, 2, 2), point)
    record = {"kind": "dirac", "bases": [2, 2], "point": list(point)}
    code, err = _density(tmp_path, capsys, [record])
    assert code == 2
    assert f"digit {point[0]!r} at coordinate 1" in err


@pytest.mark.parametrize("digit", [0.7, 1.0, True, "1"])
def test_non_integer_digits_are_depth_errors(digit):
    f = CylinderFunction((2,), INTEGERS, (3, 4))
    with pytest.raises(DepthError):
        f.eval((digit,))
    with pytest.raises(DepthError):
        validate_prefix((0, digit), (2, 2))
    with pytest.raises(DepthError):
        BernoulliMeasure.uniform((2, 2)).mass((digit,))
    assert f.eval((1,)).payload == 4


def test_word_apply_refuses_a_digit_outside_base_two():
    for word in ({1}, {2}, ()):
        with pytest.raises(DepthError, match="digit 2 at coordinate 1"):
            word_apply(word, (2, 0))
    with pytest.raises(DepthError):
        word_apply({1}, (0.5, 0))
    assert word_apply({1}, (1, 0)) == delta_apply(1, (1, 0)) == (0, 0)
    assert word_apply([2, 1, 2], [0, 1]) == (1, 1)


@pytest.mark.parametrize("depth", [True, 2.0, "2", None])
def test_family_depth_must_be_an_integer(tmp_path, capsys, depth):
    family = {"N": 1, "depth": depth, "group": "rat", "tables": [[{"t": "rat", "n": 1, "d": 3}]]}
    with pytest.raises(ValueError, match=f"depth must be an integer, got {depth!r}"):
        GeneratorFamily.from_json(family)
    code, err = _cli(tmp_path, capsys, ["gamma", "verify", "--input", "family"], family=family)
    assert code == 2
    assert f"depth must be an integer, got {depth!r}" in err
    assert GeneratorFamily.from_json(dict(family, depth=1)).depth == 1


# --- depths: refused before (2,) * depth is built ---------------------------


@pytest.mark.parametrize("depth", [MAX_BINARY_DEPTH + 1, 100_000_000, 10**30])
def test_a_huge_depth_is_refused_before_its_bases_are_built(tmp_path, capsys, depth):
    message = f"depth must lie in 1..{MAX_BINARY_DEPTH}"
    with pytest.raises(ValueError, match=message):
        binary_bases(depth)
    with pytest.raises(ValueError, match=message):
        Odometer.binary(depth)
    code, err = _cli(tmp_path, capsys, ["run", "gh", "--depth", str(depth)])
    assert code == 2 and message in err
    code, err = _cli(
        tmp_path, capsys, ["run", "gh", "--config", "config"], config={"depth": depth, "count": 1}
    )
    assert code == 2 and message in err
    family = {"N": 1, "depth": depth, "group": "rat", "tables": [[{"t": "rat", "n": 1, "d": 3}]]}
    code, err = _cli(tmp_path, capsys, ["gamma", "verify", "--input", "family"], family=family)
    assert code == 2 and message in err
    assert binary_bases(MAX_BINARY_DEPTH) == (2,) * MAX_BINARY_DEPTH


# --- value records: checked before they are evaluated -----------------------


@pytest.mark.parametrize(
    "record, message",
    [
        (
            {"t": "dy", "n": 1, "k": 10_000_000_000},
            f"integer in 0..{MAX_DYADIC_EXPONENT}, got 10000000000",
        ),
        ({"t": "dy", "n": 1, "k": -1}, f"integer in 0..{MAX_DYADIC_EXPONENT}, got -1"),
        ({"t": "dy", "n": 1, "k": True}, f"integer in 0..{MAX_DYADIC_EXPONENT}, got True"),
        ({"t": "dy", "n": 1.5, "k": 1}, "needs integers, got 1.5 / 2"),
        ({"t": "rat", "n": True, "d": 3}, "needs integers, got True / 3"),
        ({"t": "rat", "n": 1, "d": "3"}, "needs integers, got 1 / '3'"),
        ({"t": "rat", "n": 1, "d": 0}, "value record 1/0 has a zero denominator"),
    ],
)
def test_value_records_are_checked_before_they_are_evaluated(tmp_path, capsys, record, message):
    with pytest.raises((TypeError, ValueError), match=message):
        group_from_tag(record["t"]).payload_from_json(record)
    family = {"N": 1, "depth": 1, "group": record["t"], "tables": [[record]]}
    code, err = _cli(tmp_path, capsys, ["gamma", "verify", "--input", "family"], family=family)
    assert code == 2 and message in err
    good = dict(record, n=3, **({"k": 2} if "k" in record else {"d": 4}))
    assert group_from_tag(record["t"]).payload_from_json(good) == Fraction(3, 4)


def test_vector_value_records_need_integer_pairs():
    vec = group_from_tag("vec:2")
    with pytest.raises(UnsupportedValueError, match="needs integers, got True / 1"):
        vec.payload_from_json({"t": "vec", "v": [[True, 1], [0, 1]]})
    with pytest.raises(ValueError, match="zero denominator"):
        vec.payload_from_json({"t": "vec", "v": [[1, 0], [0, 1]]})
    assert vec.payload_from_json({"t": "vec", "v": [[1, 2], [0, 1]]}) == (Fraction(1, 2), 0)
