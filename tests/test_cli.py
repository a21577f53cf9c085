"""Command-line driver: what a row of ``test_cli_table.py`` cannot check --
parsed report contents, ``--out`` files, repeated runs, a corrupted kernel,
the topology suite against its literal recomputation, and the parser cache."""

import json
import random
from fractions import Fraction

import pytest

from cocycle_lab import cli
from cocycle_lab.cli import main
from cocycle_lab.involution_cocycles import GeneratorFamily
from cocycle_lab.space import CylinderFunction, exceedance_mass, tau3_functional, tau4_functional
from cocycle_lab.sampling import bernoulli_measure, coboundary_generator, perturbed_pair
from cocycle_lab.suites import ExperimentConfig, Report, run as run_suite
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


def test_run_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "gh", "--depth", "4", "--seed", "9", "--count", "6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


@pytest.mark.parametrize(
    "epsilon_max, tag",
    [(e, tag) for e in ("3/7", "5") for tag in ("int", "rat", "dy", "mod:5", "real")]
    + [("5", "vec:2")],
)
def test_run_topology_equals_its_literal_recomputation(tag, epsilon_max, capsys):
    """96 cases over the 64 (eps, delta) draws, so that pairs repeat, with
    eps up to 3/7 and up to 5; the exit code is 1 exactly when a check fails.
    ``vec:2`` runs at 5 only: at 3/7 the L1 size of its perturbations keeps
    tau3 above eps*delta in all 96 cases, so no check fires there."""
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
    report = Report("demo", {"seed": 0, "depth": 1}, ("a", "b"), [], [])
    assert report.to_csv() == "a,b\n"


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


def test_config_integer_bases_still_run(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"bases": [2, 2, 3], "count": 1}))
    assert main(["run", "gh", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["header"]["bases"] == "2,2,3"


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


def test_integer_list_flags_still_take_spaces(generator_file, capsys):
    argv = ["cocycle", "eval", "--input", generator_file, "--bases", "2, 2,2", "--j", "1"]
    assert main(argv + ["--x", "1, 0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == [1, 0, 0]
