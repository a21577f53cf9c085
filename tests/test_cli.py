"""Command-line driver: subcommands, report formats, determinism, exit codes."""

import json
import random
import sys
from fractions import Fraction

import pytest

from cocycle_lab import cli
from cocycle_lab.cli import main
from cocycle_lab.involution_cocycles import GeneratorFamily
from cocycle_lab.space import CylinderFunction, exceedance_mass, tau3_functional, tau4_functional
from cocycle_lab.sampling import (
    bernoulli_measure,
    coboundary_generator,
    invariant_family,
    perturbed_pair,
)
from cocycle_lab.suites import ExperimentConfig, Report, UsageError, run as run_suite
from cocycle_lab.values import INTEGERS, RATIONALS, group_from_tag, integers_mod
from test_involution_cocycles import _corrupt_walks


@pytest.fixture
def generator_file(tmp_path):
    f = CylinderFunction((2,), INTEGERS, (1, -1))
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(f.to_json()))
    return str(path)


@pytest.fixture
def nonsolvable_file(tmp_path):
    f = CylinderFunction((2,), INTEGERS, (1, 1))
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(f.to_json()))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    fam = GeneratorFamily(
        (2, 2, 2),
        RATIONALS,
        (
            (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(5, 3)),
            (Fraction(1, 5), Fraction(2, 5)),
        ),
    )
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam.to_json()))
    return str(path)


def test_cocycle_eval(generator_file, capsys):
    assert main(
        ["cocycle", "eval", "--input", generator_file, "--depth", "3", "--j", "2", "--x", "0,0,0"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == {"t": "int", "n": 0}


def test_cocycle_solve_emits_certificate(generator_file, tmp_path):
    out_path = tmp_path / "cert.json"
    assert main(
        ["cocycle", "solve", "--input", generator_file, "--depth", "3", "--out", str(out_path)]
    ) == 0
    payload = json.loads(out_path.read_text())
    assert payload["coboundary"] is True
    assert payload["certificate"]["M"] == "1"
    transfer = CylinderFunction.from_json(payload["certificate"]["transfer"])
    assert transfer.table == (0, 1, 0, 1, 0, 1, 0, 1)


def test_cocycle_solve_nonsolvable(nonsolvable_file, capsys):
    assert main(["cocycle", "solve", "--input", nonsolvable_file, "--depth", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coboundary"] is False
    assert out["cycle_sum"] == {"t": "int", "n": 8}


def test_cocycle_density_csv(generator_file, capsys):
    assert main(
        ["cocycle", "density", "--input", generator_file, "--depth", "4", "--n-max", "3"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,tau3"
    assert len(lines) == 4
    for line in lines[1:]:
        n, value = line.split(",")
        assert Fraction(value) <= Fraction(1, 2 ** int(n))


def test_cocycle_density_depth_one_has_no_rows(generator_file, capsys):
    # the default n_max is depth - 1 = 0: no approximant, an empty table
    assert main(["cocycle", "density", "--input", generator_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


@pytest.mark.parametrize("depth, n_max", [("4", "4"), ("4", "9"), ("1", "1")])
def test_cocycle_density_n_max_beyond_the_markers_is_usage_error(generator_file, depth, n_max, capsys):
    argv = ["cocycle", "density", "--input", generator_file, "--depth", depth, "--n-max", n_max]
    assert main(argv) == 2
    captured = capsys.readouterr()
    if depth == "1":  # no marker at all: say so, not an empty range
        assert "the density rows need depth >= 2, got depth 1" in captured.err
        assert "1..0" not in captured.err
    else:
        assert f"--n-max must lie in 1..{int(depth) - 1}, got {n_max}" in captured.err
    assert captured.out == ""


def _prime_denominator_generator(depth):
    """A valid rat generator whose entries 1/p have distinct odd prime denominators p."""
    primes, k = [], 3
    while len(primes) < 1 << depth:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 2
    return CylinderFunction((2,) * depth, RATIONALS, tuple(Fraction(1, p) for p in primes))


# CPython limits int <-> decimal text conversion since 3.10.7 and 3.11
needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)


@needs_int_limit
@pytest.mark.parametrize(
    "command",
    [["cocycle", "density"], ["cocycle", "density", "--format", "json"], ["cocycle", "solve"],
     ["cocycle", "gh"]],
)
def test_an_exact_value_too_wide_to_print_is_named_in_the_cli_words(tmp_path, command, capsys):
    # depth 12: tau3 and the cycle sum have over 30,000 digits, past CPython's 4,300;
    # gh refuses the cycle sum before its scan, which would run for minutes
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_prime_denominator_generator(12).to_json()))
    assert main(command + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: an exact value exceeds the interpreter's "
        f"{sys.get_int_max_str_digits()}-digit limit for an integer's text\n"
    )
    assert "set_int_max_str_digits" not in captured.err
    assert captured.out == ""


@needs_int_limit
def test_an_input_integer_too_wide_to_read_is_named_in_the_cli_words(tmp_path, capsys):
    path = tmp_path / "wide.json"
    entry = '{"t": "int", "n": ' + "7" * (sys.get_int_max_str_digits() + 1) + "}"
    table = '{"bases": [2], "depth": 1, "group": "int", "table": [' + entry + ', {"t": "int", "n": 1}]}'
    path.write_text(table)
    assert main(["cocycle", "solve", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: an exact value exceeds the interpreter's ")
    assert "set_int_max_str_digits" not in captured.err


def _bernoulli_record(bases):
    return {"kind": "bernoulli", "bases": list(bases), "weights": [[f"1/{b}"] * b for b in bases]}


@pytest.mark.parametrize(
    "bad",
    [
        _bernoulli_record((3, 3, 3, 3)),  # another odometer
        _bernoulli_record((2, 2)),  # too short for the model
        _bernoulli_record((2, 3, 2, 2)),  # right length, one base off
    ],
)
def test_cocycle_density_rejects_measures_off_the_model(generator_file, tmp_path, bad, capsys):
    mpath = tmp_path / "measures.json"
    mpath.write_text(json.dumps([_bernoulli_record((2, 2, 2, 2, 2)), bad]))
    argv = ["cocycle", "density", "--input", generator_file, "--depth", "4", "--measures", str(mpath)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "measure 1 has bases" in captured.err
    assert "exceeds model depth" not in captured.err
    assert captured.out == ""


def test_cocycle_gh(nonsolvable_file, capsys):
    assert main(["cocycle", "gh", "--input", nonsolvable_file, "--depth", "3", "--horizon", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coboundary"] is False
    assert out["growth_slope"] == "1"
    assert out["witness"]["j"] == 16


def test_gamma_verify_and_roundtrip(family_file, capsys):
    assert main(["gamma", "verify", "--input", family_file]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["gamma", "roundtrip", "--input", family_file]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_gamma_happrox(family_file, capsys):
    assert main(["gamma", "happrox", "--input", family_file, "--eps0", "1/4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert Fraction(out["bound"]) <= Fraction(1, 4)
    rounded = GeneratorFamily.from_json(out["rounded"])
    assert all(v.denominator & (v.denominator - 1) == 0 for t in rounded.tables for v in t)


@pytest.mark.parametrize("suite", ["density", "topology", "odometer", "happrox", "gh"])
def test_run_suites_pass(suite, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "run",
            suite,
            "--depth",
            "4",
            "--seed",
            "5",
            "--count",
            "4",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["header"]["seed"] == "5"


def test_run_odometer_round_trips_on_the_inexact_reals(tmp_path):
    # float generator tables: recovery reads f_n where no arithmetic touched it
    out_path = tmp_path / "report.json"
    args = ["run", "odometer", "--depth", "6", "--count", "6", "--group", "real"]
    assert main(args + ["--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["header"]["group"] == "real"
    roundtrips = [c for c in payload["checks"] if c["name"].endswith("-roundtrip")]
    assert len(roundtrips) == 6 and all(c["passed"] for c in roundtrips)
    assert payload["passed"] is True


def test_run_unknown_suite_is_usage_error(capsys):
    assert main(["run", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_run_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "gh", "--depth", "4", "--seed", "9", "--count", "6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_csv_format(tmp_path, capsys):
    assert main(["run", "density", "--depth", "4", "--seed", "1", "--count", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "generator,n,tau3,bound,certified"


def test_run_topology_detects_clipped_constant_failure(capsys):
    """With eps allowed above 1 the tau3 constant genuinely fails, and the
    suite reports it through exit code 1 with a witness."""
    code = main(
        [
            "run",
            "topology",
            "--bases",
            "2,2",
            "--seed",
            "0",
            "--count",
            "60",
            "--epsilon-max",
            "4",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err


def _literal_topology(bases, group, seed, count, epsilon_max):
    """The topology suite's rows and checks from the public samplers and
    functionals, with each case's bounds formed from its own eps and delta."""
    rng = random.Random(seed)
    rows, checks = [], []
    for case in range(count):
        f, g = perturbed_pair(rng, bases, group)
        mu = bernoulli_measure(rng, bases)
        eps = Fraction(rng.randint(1, 8), 8) * epsilon_max
        delta = Fraction(rng.randint(1, 8), 8)
        t3, t4 = tau3_functional(f, g, mu), tau4_functional(f, g, mu)
        exceed = exceedance_mass(f, g, eps, mu)
        rows.append(dict(case=case, eps=eps, delta=delta, tau3=t3, tau4=t4, exceedance=exceed))
        for name, t, bound in (("tau3", t3, eps * delta), ("tau4", t4, eps * delta / (1 + eps))):
            if t < bound:
                checks.append({
                    "name": f"case{case}-{name}-constant",
                    "passed": exceed < delta,
                    "witness": f"{name}={t} eps={eps} delta={delta} mu(exceed)={exceed}",
                })
    return rows, checks


@pytest.mark.parametrize("tag", ["int", "rat", "dy", "mod:5"])
@pytest.mark.parametrize("epsilon_max", ["3/7", "5"])
def test_run_topology_equals_its_literal_recomputation(tag, epsilon_max, capsys):
    """96 cases over the 64 (eps, delta) draws, so that pairs repeat, with
    eps up to 3/7 and up to 5; the exit code is 1 exactly when a check fails."""
    bases, seed, count = (2,) * 2, 11, 96
    code = main([
        "run", "topology", "--depth", "2", "--count", str(count), "--group", tag,
        "--epsilon-max", epsilon_max, "--seed", str(seed), "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    rows, checks = _literal_topology(bases, group_from_tag(tag), seed, count, Fraction(epsilon_max))
    assert len({(row["eps"], row["delta"]) for row in rows}) < count

    def cell(v):
        return {"fraction": str(v), "decimal": float(v)} if type(v) is Fraction else v

    assert report["rows"] == [{k: cell(v) for k, v in row.items()} for row in rows]
    assert report["checks"] == checks and checks
    assert code == (0 if all(c["passed"] for c in checks) else 1)


def test_run_with_config_file_and_override(tmp_path):
    config = {"depth": 4, "seed": 3, "count": 3, "group": "rat"}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "r.json"
    assert main(
        ["run", "odometer", "--config", str(cfg_path), "--seed", "7", "--out", str(out_path)]
    ) == 0
    payload = json.loads(out_path.read_text())
    assert payload["header"]["seed"] == "7"  # flag overrides the file


def test_run_with_measures_file(tmp_path):
    # no suite reads measures, so `run` has no --measures flag (argparse exit 2)
    measures = [
        {
            "kind": "bernoulli",
            "bases": [2, 2, 2, 2],
            "weights": [["1/2", "1/2"]] * 4,
        }
    ]
    mpath = tmp_path / "measures.json"
    mpath.write_text(json.dumps(measures))
    assert main(
        ["run", "density", "--depth", "4", "--seed", "2", "--count", "2", "--measures", str(mpath)]
    ) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"depth": 4, "count": 0, "n_max": 0},
        {"depth": 4, "count": 0},
        {"depth": 4, "n_max": 0},
        {"depth": 4, "count": -1},
        {"depth": 4, "count": 2.5},
    ],
)
def test_config_file_rejects_counts_below_one(tmp_path, config, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "density", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "must be an integer >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "config, message",
    [
        ({"depth": 4, "seed": "x"}, "seed must be an integer"),
        ({"depth": 4, "seed": True}, "seed must be an integer"),
        ({"depth": 4, "seed": 1.5}, "seed must be an integer"),
        ({"depth": 4, "horizon": "x"}, "horizon must be >= 0"),
        ({"depth": 4, "horizon": 2.5}, "horizon must be >= 0"),
    ],
)
def test_config_file_rejects_bad_seed_and_horizon(tmp_path, config, message, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "gh", "--count", "2", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_run_density_real_group_meets_the_rate(seed, capsys):
    # F_n equals f bit-exactly off the tower tops, so no float noise enters tau3
    argv = ["run", "density", "--depth", "6", "--count", "2", "--group", "real", "--seed", seed]
    assert main(argv) == 0


def test_bad_input_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cocycle", "solve", "--input", str(bad)]) == 2


def test_model_must_extend_table(generator_file):
    assert main(["cocycle", "solve", "--input", generator_file, "--bases", "3,2"]) == 2


def test_report_json_roundtrip():
    config = ExperimentConfig(bases=(2, 2, 2, 2), seed=4, count=3)
    report = run_suite(config, "gh")
    parsed = json.loads(report.to_json())
    assert parsed["suite"] == "gh"
    assert parsed["passed"] == report.passed
    assert [list(r) for r in parsed["rows"]] == [list(report.columns)] * len(report.rows)
    # parse-emit-parse equality through the documented schema
    assert json.loads(json.dumps(parsed)) == parsed


def test_report_json_renders_fraction_and_decimal():
    config = ExperimentConfig(bases=(2, 2, 2, 2), seed=4, count=2)
    report = run_suite(config, "density")
    parsed = json.loads(report.to_json())
    cell = parsed["rows"][0]["tau3"]
    assert set(cell) == {"fraction", "decimal"}
    assert float(Fraction(cell["fraction"])) == cell["decimal"]


def test_empty_report_csv_is_header_only():
    report = Report("demo", {"seed": 0, "depth": 1}, ("a", "b"))
    assert report.to_csv() == "a,b\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle", "gh", "--depth", "3", "--horizon", "-3"],
        ["run", "gh", "--depth", "3", "--count", "2", "--horizon", "-1"],
    ],
)
def test_negative_horizon_is_usage_error(generator_file, argv, capsys):
    if argv[0] == "cocycle":
        argv = argv + ["--input", generator_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "horizon must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "density", "--depth", "0"], "--depth"),
        (["run", "gh", "--depth", "3", "--count", "0"], "--count"),
        (["run", "density", "--depth", "3", "--n-max", "0"], "--n-max"),
        (["cocycle", "solve", "--depth", "0"], "--depth"),
        (["cocycle", "density", "--depth", "3", "--n-max", "0"], "--n-max"),
        (["cocycle", "density", "--depth", "3", "--n-max", "-2"], "--n-max"),
    ],
)
def test_zero_or_negative_count_flag_is_usage_error(generator_file, argv, flag, capsys):
    if argv[0] == "cocycle":
        argv = argv + ["--input", generator_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be >= 1" in captured.err
    assert captured.out == ""


INT_X = {"bases": [2], "depth": 1, "group": "int", "table": [{"t": "int", "n": "x"}, {"t": "int", "n": 1}]}
RAT_ZERO_DEN = {
    "bases": [2], "depth": 1, "group": "rat",
    "table": [{"t": "rat", "n": 1, "d": 0}, {"t": "rat", "n": 1, "d": 1}],
}
BARE_ENTRY = {"bases": [2], "depth": 1, "group": "int", "table": [5, {"t": "int", "n": 1}]}
FAMILY_ZERO_DEN = {
    "N": 1, "depth": 2, "group": "rat",
    "tables": [[{"t": "rat", "n": 1, "d": 0}, {"t": "rat", "n": 1, "d": 1}]],
}


@pytest.mark.parametrize(
    "command, document",
    [
        (["cocycle", "solve", "--input"], INT_X),
        (["cocycle", "solve", "--input"], RAT_ZERO_DEN),
        (["cocycle", "gh", "--input"], BARE_ENTRY),
        (["cocycle", "eval", "--j", "1", "--x", "0", "--input"], [1, 2]),
        (["gamma", "verify", "--input"], FAMILY_ZERO_DEN),
        (["gamma", "happrox", "--input"], [1, 2]),
        (["gamma", "roundtrip", "--input"], {"N": 1, "depth": 2, "group": "int", "tables": [[1, 2]]}),
        (["run", "gh", "--count", "1", "--config"], [1, 2]),
        (["cocycle", "density", "--input", "GEN", "--measures"], [1, 2]),
        (["cocycle", "density", "--input", "GEN", "--measures"], [{"kind": "bernoulli", "bases": [2], "weights": [["1/0", "1"]]}]),
    ],
)
def test_malformed_file_is_usage_error_naming_it(tmp_path, generator_file, command, document, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = [generator_file if arg == "GEN" else arg for arg in command] + [str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize("depth", [4.7, "3", True, 0, -2, None])
def test_config_depth_must_be_a_positive_integer(tmp_path, depth, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"depth": depth, "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "depth must be an integer >= 1" in captured.err
    assert captured.out == ""


def test_config_float_radius_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"depth": 3, "count": 1, "eps0": 0.25}))
    assert main(["run", "happrox", "--config", str(cfg_path)]) == 2
    assert "exact rational" in capsys.readouterr().err


def test_gamma_happrox_integer_family_is_usage_error(tmp_path, capsys):
    fam = invariant_family(random.Random(5), 4, 2, INTEGERS)
    path = tmp_path / "int_family.json"
    path.write_text(json.dumps(fam.to_json()))
    assert main(["gamma", "happrox", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: dyadic approximation needs a rational or dyadic family, got group 'int'\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "happrox", "--input", "FAMILY"],
        ["run", "happrox", "--depth", "3", "--count", "1"],
    ],
)
def test_failed_self_check_exits_1_with_its_message(argv, family_file, monkeypatch, capsys):
    _corrupt_walks(monkeypatch, n=1)
    argv = [family_file if a == "FAMILY" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cohomology equation failed at word [1], x=(1, 0, 0)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "happrox", "--input", "FAMILY", "--eps0", "1/0"],
        ["run", "happrox", "--depth", "3", "--count", "1", "--eps0", "1/0"],
        ["run", "topology", "--depth", "3", "--count", "1", "--epsilon-max", "1/0"],
    ],
)
def test_zero_denominator_radius_flag_is_usage_error(family_file, argv, capsys):
    argv = [family_file if arg == "FAMILY" else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "'1/0' has a zero denominator" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["eps0", "epsilon_max"])
def test_config_zero_denominator_radius_is_usage_error(tmp_path, key, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"depth": 3, "count": 1, key: "1/0"}))
    assert main(["run", "happrox", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad config: '1/0' has a zero denominator\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "bases, bad",
    [
        ([2.7, 2, "3"], "bases entry 0 must be an integer, got 2.7"),
        ([2, "3"], "bases entry 1 must be an integer, got '3'"),
        ([2, 2, True], "bases entry 2 must be an integer, got True"),
        ([2, None], "bases entry 1 must be an integer, got None"),
        ([2.0, 2], "bases entry 0 must be an integer, got 2.0"),
    ],
)
def test_config_bases_entries_must_be_integers(tmp_path, bases, bad, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"bases": bases, "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: {bad}\n"
    assert captured.out == ""


def test_config_integer_bases_still_run(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"bases": [2, 2, 3], "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["header"]["bases"] == "2,2,3"
    with pytest.raises(UsageError, match="bases entry 1"):
        ExperimentConfig(bases=(2, 2.5))


@pytest.mark.parametrize(
    "group, shown",
    [(5, "5"), (["rat"], "['rat']"), (True, "True"), ({"tag": "rat"}, "{'tag': 'rat'}")],
)
def test_config_group_must_be_a_string(tmp_path, group, shown, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"group": group, "depth": 3, "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: group must be a string, got {shown}\n"
    assert captured.out == ""


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"depth": 4, "cuont": 2}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad config: unknown key 'cuont'; known: depth, bases,")
    assert captured.out == ""


@pytest.mark.parametrize(
    "config, flags, bases",
    [
        ({"bases": [2, 2, 2], "count": 1}, ["--depth", "5"], "2,2,2,2,2"),
        ({"depth": 3, "count": 1}, ["--bases", "2,3"], "2,3"),
        ({"bases": [2, 2, 2], "count": 1}, ["--bases", "3,2"], "3,2"),
        ({"depth": 3, "count": 1}, ["--depth", "4"], "2,2,2,2"),
        ({"bases": [2, 3], "count": 1}, [], "2,3"),
    ],
)
def test_model_flags_override_the_config_model(tmp_path, config, flags, bases, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "gh", "--config", str(cfg_path), *flags]) == 0
    header = json.loads(capsys.readouterr().out)["header"]
    assert header["bases"] == bases
    assert header["depth"] == str(bases.count(",") + 1)


def test_config_with_both_depth_and_bases_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"depth": 4, "bases": [2, 2], "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad config: give either bases or depth, not both\n"
    assert captured.out == ""
    # a model flag replaces both keys of the file
    assert main(["run", "gh", "--config", str(cfg_path), "--depth", "3"]) == 0


def test_horizon_past_the_scan_limit_is_usage_error(nonsolvable_file, tmp_path, capsys):
    huge = str(1 << 40)  # refused before any running sum is built
    assert main(["cocycle", "gh", "--input", nonsolvable_file, "--depth", "3", "--horizon", huge]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: horizon {huge} needs ")
    assert "more than the limit" in captured.err
    assert captured.out == ""
    cfg_path = tmp_path / "config.json"
    # a coboundary case scans radii below N only; the first non-coboundary is refused
    cfg_path.write_text(json.dumps({"depth": 3, "count": 10, "horizon": 1 << 40}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "more than the limit" in captured.err
    assert captured.out == ""


def test_a_folded_z_mod_m_coboundary_is_answered_at_the_default_horizon(tmp_path, capsys):
    # a depth-13 coboundary on Z/1000003 folds with D = 0: one residue set
    # per parity, where a sliding scan would keep 8192 windows of 8192 residues
    generator, _ = coboundary_generator(random.Random(0), (2,) * 13, integers_mod(1000003))
    path = tmp_path / "coboundary.json"
    path.write_text(json.dumps(generator.to_json()))
    assert main(["cocycle", "gh", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["coboundary"] is True
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle", "eval", "--input", "GEN", "--j", "1", "--x", "0"],
        ["cocycle", "solve", "--input", "GEN"],
        ["cocycle", "gh", "--input", "GEN"],
        ["gamma", "verify", "--input", "FAMILY"],
        ["gamma", "roundtrip", "--input", "FAMILY"],
        ["gamma", "happrox", "--input", "FAMILY"],
    ],
)
def test_format_is_refused_where_nothing_reads_it(generator_file, family_file, argv, capsys):
    files = {"GEN": generator_file, "FAMILY": family_file}
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --format csv" in captured.err
    assert captured.out == ""


def test_reused_parser_carries_nothing_between_calls(generator_file, nonsolvable_file, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    calls = [
        ["cocycle", "gh", "--input", nonsolvable_file, "--depth", "3", "--horizon", "16"],
        ["cocycle", "gh", "--input", nonsolvable_file, "--depth", "3"],
        ["cocycle", "solve", "--input", generator_file, "--depth", "3", "--out", str(out_path)],
        ["cocycle", "solve", "--input", generator_file, "--depth", "3"],
        ["run", "gh", "--depth", "3", "--count", "2", "--seed", "7", "--horizon", "5"],
        ["run", "gh", "--depth", "3", "--count", "2"],
        ["run", "density", "--depth", "4", "--count", "1", "--format", "csv"],
        ["cocycle", "density", "--input", generator_file, "--depth", "4", "--n-max", "2"],
        ["run", "density", "--depth", "4", "--count", "1"],
    ]

    def outcome(argv):
        out_path.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        return code, captured.out, captured.err, written

    first = []
    for argv in calls:
        cli._parser.cache_clear()  # each call is the first of its process
        first.append(outcome(argv))
    assert [outcome(argv) for argv in calls] == first
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["run", "gh", "--bases", "2,x"], "--bases", "2,x"),
        (["run", "gh", "--bases", "2,2.5"], "--bases", "2,2.5"),
        (["cocycle", "solve", "--bases", "2,,2"], "--bases", "2,,2"),
        (["cocycle", "eval", "--j", "1", "--x", "0,a,0"], "--x", "0,a,0"),
        (["cocycle", "eval", "--j", "1", "--x", "0, 1.0"], "--x", "0, 1.0"),
    ],
)
def test_integer_list_flags_name_the_flag(generator_file, argv, flag, text, capsys):
    if argv[0] == "cocycle":
        argv = argv + ["--input", generator_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} needs comma-separated integers, got {text!r}\n"
    assert captured.out == ""


def test_integer_list_flags_still_take_spaces(generator_file, capsys):
    argv = ["cocycle", "eval", "--input", generator_file, "--bases", "2, 2,2", "--j", "1"]
    assert main(argv + ["--x", "1, 0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == [1, 0, 0]


@pytest.mark.parametrize("bases, shown", [(None, "None"), (5, "5"), ("2,2", "'2,2'"), ({}, "{}")])
def test_config_bases_must_be_a_list(tmp_path, bases, shown, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"bases": bases, "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: bases must be a list of integers, got {shown}\n"
    assert captured.out == ""
