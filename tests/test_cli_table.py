"""The command-line contract as one table: each row is one ``cocycle-lab`` call.

A row holds:

* ``id`` -- the pytest id;
* ``command`` -- the argv, written as shell words (``shlex.split``); a word
  that names an ``INPUTS`` entry (``gen.json``, ``family-d10.json``, ...) is
  an input file the row needs, and is replaced by that file's path;
* ``code`` -- the expected exit code: 0 passed, 1 a witness, 2 bad input;
* ``out`` -- the stdout check: ``None`` (unchecked), ``DUMPS`` (stdout
  equals ``json.dumps(json.loads(out), indent=2) + "\\n"``) or the exact text;
* ``err`` -- ``None`` (unchecked) or the exact stderr, input names standing
  for their paths.

Each row runs ``cli.main`` in process.  An input is a JSON document, raw
text or bytes, or a function that builds the document (the sampled families
and the depth-13 coboundary), written once per module on first use.  A new
command or refusal gets a row here; CI runs only one installed call per
top-level command, to test the console script.
"""

import argparse
import functools
import json
import random
import shlex
from dataclasses import dataclass

import pytest

from cocycle_lab import cli, suites
from cocycle_lab.sampling import coboundary_generator, invariant_family
from cocycle_lab.values import group_from_tag, integers_mod


def _family(depth, tag="rat"):
    """The 3-generator family of ``invariant_family`` at seed 0."""
    return lambda: invariant_family(random.Random(0), depth, 3, group_from_tag(tag)).to_json()


def _coboundary():
    return coboundary_generator(random.Random(0), (2,) * 13, integers_mod(1000003))[0].to_json()


def _rats(*pairs):
    return [{"t": "rat", "n": n, "d": d} for n, d in pairs]


def _dys(*pairs):
    return [{"t": "dy", "n": n, "k": k} for n, k in pairs]


def _mods(m, *residues):
    return [{"t": "mod", "m": m, "r": r} for r in residues]


def _vecs(*vectors):
    return [{"t": "vec", "v": [list(c) for c in v]} for v in vectors]


def _reals(*values):
    return [{"t": "real", "v": v} for v in values]


GEN = {"bases": [2], "depth": 1, "group": "int", "table": [{"t": "int", "n": 1}, {"t": "int", "n": -1}]}

INPUTS = {
    "gen.json": GEN,
    "family.json": {"N": 1, "depth": 2, "group": "rat", "tables": [_rats((1, 3), (1, 2))]},
    "rat.json": {
        "N": 2, "depth": 3, "group": "rat",
        "tables": [_rats((1, 3), (-2, 5), (3, 7), (4, 11)), _rats((5, 3), (-6, 7))],
    },
    "dy.json": {
        "N": 2, "depth": 3, "group": "dy",
        "tables": [_dys((1, 1), (-3, 2), (5, 3), (2, 0)), _dys((7, 2), (-1, 1))],
    },
    "mod5.json": {
        "N": 2, "depth": 3, "group": "mod:5", "tables": [_mods(5, 1, 3, 4, 0), _mods(5, 2, 4)],
    },
    "vec2.json": {
        "N": 2, "depth": 3, "group": "vec:2", "tables": [
            _vecs([(1, 3), (-2, 5)], [(3, 7), (0, 1)], [(4, 1), (1, 2)], [(-1, 6), (5, 9)]),
            _vecs([(5, 3), (1, 4)], [(-6, 7), (2, 3)]),
        ],
    },
    "vec3.json": {
        "N": 2, "depth": 3, "group": "vec:3", "tables": [
            _vecs(
                [(1, 3), (-2, 5), (7, 2)], [(3, 7), (0, 1), (-1, 4)],
                [(4, 1), (1, 2), (2, 9)], [(-1, 6), (5, 9), (0, 1)],
            ),
            _vecs([(5, 3), (1, 4), (-3, 8)], [(-6, 7), (2, 3), (1, 1)]),
        ],
    },
    "real.json": {
        "N": 2, "depth": 3, "group": "real",
        "tables": [_reals(0.25, -1.5, 0.1, 2.0), _reals(0.7, -0.3)],
    },
    # the float tolerance does not telescope: the walk's tables miss the
    # coboundary of its potential, and the identities fail too
    "unsound.json": {
        "N": 3, "depth": 3, "group": "real", "tables": [
            _reals(-999999999.3, -999999999.3, 0.1, 1000000000.1),
            _reals(300000000.2, -999999999.3),
            _reals(-999999999.3),
        ],
    },
    "chains.json": [
        {
            "kind": "markov", "bases": [2, 2, 2], "initial": ["1/3", "2/3"],
            "transitions": [[["1/5", "4/5"], ["1/2", "1/2"]], [["3/7", "4/7"], ["1", "0"]]],
        },
        {
            "kind": "mixture", "weights": ["1/4", "3/4"], "components": [
                {"kind": "dirac", "bases": [2, 2, 2], "point": [1, 0]},
                {
                    "kind": "bernoulli", "bases": [2, 2, 2],
                    "weights": [["1/3", "2/3"], ["1/2", "1/2"], ["2/5", "3/5"]],
                },
            ],
        },
    ],
    "mod.json": {"bases": [2, 2], "depth": 2, "group": "mod:7", "table": _mods(7, 3, 5, 2, 4)},
    "mod-d11.json": {
        "bases": [2] * 11, "depth": 11, "group": "mod:1000003", "table": _mods(1000003, *range(1, 1 << 11), 0),
    },
    "vgen.json": {
        "bases": [2], "depth": 1, "group": "vec:2", "table": _vecs([(1, 2), (-1, 3)], [(0, 1), (2, 5)]),
    },
    "ternary.json": {
        "bases": [3], "depth": 1, "group": "int",
        "table": [{"t": "int", "n": 1}, {"t": "int", "n": -2}, {"t": "int", "n": 0}],
    },
    "rgen.json": {"bases": [2, 2], "depth": 2, "group": "real", "table": _reals(0.25, -1.5, 0.1, 2.0)},
    "measures.json": [
        {"kind": "bernoulli", "bases": [2, 2, 2], "weights": [[0.5, 0.5], ["1/2", "1/2"], ["1/2", "1/2"]]},
    ],
    "no-measures.json": [],
    "empty.json": {"N": 0, "depth": 3, "group": "rat", "tables": []},
    "real-NaN.json": {"bases": [2], "depth": 1, "group": "real", "table": _reals(float("nan"), -1.0)},
    "real-Infinity.json": {"bases": [2], "depth": 1, "group": "real", "table": _reals(float("inf"), -1.0)},
    "group-5.json": {**GEN, "group": 5},
    "no-table.json": {"bases": [2], "depth": 1, "group": "int"},
    "deep.json": "[" * 200000 + "]" * 200000,
    "list-config.json": [1],
    "not-utf8.json": b'\xff{"depth": 3}',
    "coboundary-mod.json": _coboundary,
    "family-d10.json": _family(10),
    "family-d12.json": _family(12),
    "family-d9-mod:5.json": _family(9, "mod:5"),
    "family-d9-real.json": _family(9, "real"),
}

DUMPS = "stdout is json.dumps(indent=2) of its own parse"


@dataclass(frozen=True)
class Row:
    id: str
    command: str
    code: int = 0
    out: str | None = None
    err: str | None = None

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)


NOT_UTF8 = "error: not-utf8.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
DEPTH_ONE = "error: the density rows need depth >= 2, got depth 1\n"
EMPTY_BASES = "error: --bases needs comma-separated integers, got ''\n"

TABLE = [
    # exit 0: every command, group and generated input
    Row("run-gh-csv", "run gh --depth 3 --count 2 --format csv"),
    Row("cocycle-gh", "cocycle gh --input gen.json --depth 3"),
    Row("cocycle-eval", "cocycle eval --input gen.json --depth 3 --j 3 --x 0,1,0"),
    Row("cocycle-solve", "cocycle solve --input gen.json --depth 3"),
    Row("help", "--help", out=cli._parser().format_help(), err=""),
    *(Row(f"gamma-{op}", f"gamma {op} --input family.json") for op in ("happrox", "verify", "roundtrip")),
    Row("run-topology", "run topology --depth 3 --count 3"),
    *(
        Row(f"run-topology-{group}", f"run topology --depth 4 --count 3 --group {group}")
        for group in ("int", "dy", "real", "mod:7", "vec:2")
    ),
    *(
        Row(f"run-topology-bases-325-{group}", f"run topology --bases 3,2,5 --count 3 --group {group}")
        for group in ("mod:5", "rat")
    ),
    Row("run-density", "run density --depth 4 --count 2"),
    *(
        Row(f"run-density-{group}", f"run density --depth 4 --count 2 --group {group}",
            out=DUMPS if group == "real" else None)
        for group in ("dy", "int", "mod:5", "real", "vec:2")
    ),
    *(
        Row(f"run-odometer-{group}", f"run odometer --depth 6 --count 3 --group {group}",
            out=DUMPS if group == "vec:2" else None)
        for group in ("real", "int", "dy", "mod:5", "vec:2")
    ),
    *(
        Row(f"run-odometer-d8-{group}", f"run odometer --depth 8 --count 3 --group {group}")
        for group in ("vec:3", "mod:2305843009213693951")
    ),
    *(
        Row(f"gamma-{op}-{name}", f"gamma {op} --input {name}.json",
            out=DUMPS if (op, name) == ("happrox", "rat") else None)
        for name in ("rat", "dy") for op in ("verify", "roundtrip", "happrox")
    ),
    *(
        Row(f"gamma-{op}-{name}", f"gamma {op} --input {name}.json")
        for name in ("mod5", "vec2", "vec3", "real") for op in ("verify", "roundtrip")
    ),
    *(
        Row(f"run-topology-96-{group}",
            f"run topology --depth 7 --count 96 --epsilon-max 3/7 --group {group}", out=DUMPS)
        for group in ("rat", "mod:5")
    ),
    *(
        Row(f"gamma-{op}-d{depth}", f"gamma {op} --input family-d{depth}.json", out=DUMPS)
        for depth in (10, 12) for op in ("verify", "roundtrip", "happrox")
    ),
    *(
        Row(f"gamma-{op}-d9-{group}", f"gamma {op} --input family-d9-{group}.json")
        for group in ("mod:5", "real") for op in ("verify", "roundtrip")
    ),
    Row("run-happrox", "run happrox --depth 5 --count 2"),
    Row("cocycle-density", "cocycle density --input gen.json --depth 3"),
    Row("cocycle-density-chains", "cocycle density --input gen.json --depth 3 --measures chains.json"),
    Row("cocycle-solve-mod:7", "cocycle solve --input mod.json --depth 3"),
    Row("cocycle-gh-mod:7", "cocycle gh --input mod.json --depth 3"),
    Row("cocycle-gh-vec:2", "cocycle gh --input vgen.json --depth 4"),
    Row("cocycle-gh-bases-33", "cocycle gh --input ternary.json --bases 3,3"),
    Row("cocycle-gh-coboundary-mod", "cocycle gh --input coboundary-mod.json"),
    *(
        row
        for horizon in (1, 4)
        for row in (
            Row(f"cocycle-gh-bases-33-h{horizon}",
                f"cocycle gh --input ternary.json --bases 3,3 --horizon {horizon}"),
            Row(f"cocycle-gh-real-h{horizon}",
                f"cocycle gh --input rgen.json --depth 3 --horizon {horizon}"),
        )
    ),
    # exit 1: a float family whose sums miss their identities
    Row(
        "gamma-verify-unsound", "gamma verify --input unsound.json", 1,
        out=json.dumps({"ok": False, "witness": (
            "{'identity': 'commutation', 'n': 3, 'k': 2, 'x': (0, 0, 0), "
            "'lhs': -1999999998.5999997@real, 'rhs': -1999999998.6@real}"
        )}, indent=2) + "\n",
        err="",
    ),
    Row(
        "gamma-roundtrip-unsound", "gamma roundtrip --input unsound.json", 1, out='{\n  "ok": false\n}\n',
        err="error: oracle disagrees with its invariance extension at n=1, x=(1, 1, 0): "
        "999999999.3 vs 999999999.3\n",
    ),
    # exit 2: refusals
    # scans past the value group limits: Q^20 spread bounds need 8 * 20 * 2^19
    # signed terms at N = 8; a depth-11 non-coboundary on Z/1000003 keeps 2048
    # windows of up to 8193 residues
    Row(
        "run-density-vec:20", "run density --depth 3 --count 1 --group vec:20", 2, out="",
        err="error: Q^20 projections of 8 values need 83886080 signed terms, more than the limit 16777216\n",
    ),
    Row(
        "cocycle-gh-mod-d11", "cocycle gh --input mod-d11.json --depth 11", 2, out="",
        err=f"error: horizon 8192 needs {2048 * 8193} window residues on mod:1000003, "
        "more than the limit 16777216\n",
    ),
    *(
        Row(f"density-depth-one-{i}", command, 2, out="", err=DEPTH_ONE)
        for i, command in enumerate((
            "run density --depth 1",
            "run density --bases 2",
            "run density --depth 1 --n-max 1",
            "cocycle density --input gen.json --n-max 1",
            "cocycle density --input gen.json --n-max 1 --format json",
        ))
    ),
    Row("cocycle-gh-format-csv", "cocycle gh --input gen.json --format csv", 2),
    Row("cocycle-density-float-weight",
        "cocycle density --input gen.json --depth 3 --measures measures.json", 2),
    *(
        Row(f"gamma-{op}-empty", f"gamma {op} --input empty.json", 2, out="",
            err="error: empty.json: family needs at least one generator\n")
        for op in ("verify", "roundtrip", "happrox")
    ),
    *(
        Row(f"cocycle-{op}-{value}", f"cocycle {op} --input real-{value}.json", 2)
        for value in ("NaN", "Infinity") for op in ("gh", "solve")
    ),
    Row("run-happrox-eps0-1e400", "run happrox --depth 3 --count 1 --eps0 1e400", 2),
    Row("run-topology-epsilon-max-1e400", "run topology --depth 3 --count 1 --epsilon-max 1e400", 2),
    Row("cocycle-density-no-measures",
        "cocycle density --input gen.json --depth 3 --measures no-measures.json", 2),
    *(Row(f"cocycle-gh-{name}", f"cocycle gh --input {name}.json", 2) for name in ("group-5", "no-table")),
    Row(
        "gamma-verify-deep", "gamma verify --input deep.json", 2,
        err="error: deep.json: JSON nested deeper than the interpreter allows\n",
    ),
    Row("run-gh-list-config", "run gh --config list-config.json", 2),
    # a file that is not UTF-8 is named like any other malformed file
    Row("cocycle-gh-not-utf8", "cocycle gh --input not-utf8.json", 2, err=NOT_UTF8),
    Row("gamma-happrox-not-utf8", "gamma happrox --input not-utf8.json", 2, err=NOT_UTF8),
    Row("run-gh-config-not-utf8", "run gh --config not-utf8.json", 2, err=NOT_UTF8),
    Row(
        "cocycle-density-measures-not-utf8", "cocycle density --input gen.json --measures not-utf8.json", 2,
        err=NOT_UTF8,
    ),
    # an empty --bases is refused, not read as no --bases
    Row("run-gh-empty-bases", 'run gh --bases "" --count 1', 2, out="", err=EMPTY_BASES),
    Row("run-odometer-empty-bases", 'run odometer --bases "" --count 1', 2, out="", err=EMPTY_BASES),
    Row("cocycle-gh-empty-bases", 'cocycle gh --input gen.json --bases ""', 2, out="", err=EMPTY_BASES),
    Row(
        "cocycle-eval-empty-bases", 'cocycle eval --input gen.json --bases "" --j 1 --x 0', 2, out="",
        err=EMPTY_BASES,
    ),
]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    """The path of a named input, written on first use."""
    folder = tmp_path_factory.mktemp("inputs")

    @functools.cache
    def path(name: str) -> str:
        document = INPUTS[name]
        if callable(document):
            document = document()
        file = folder / name
        if isinstance(document, bytes):
            file.write_bytes(document)
        else:
            file.write_text(document if isinstance(document, str) else json.dumps(document))
        return str(file)

    return path


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in TABLE])
def test_row(row, input_path, capsys):
    paths = {word: input_path(word) for word in row.argv if word in INPUTS}
    code = cli.main([paths.get(word, word) for word in row.argv])
    captured = capsys.readouterr()
    assert code == row.code, captured.err
    out = row.out
    if out == DUMPS:
        out = json.dumps(json.loads(captured.out), indent=2) + "\n"
    # compared to a bool first: pytest's diff of two megabyte outputs runs for minutes
    same = out is None or captured.out == out
    assert same, f"stdout differs from {row.out!r}"
    if row.err is not None:
        expected = row.err
        for name, path in paths.items():
            expected = expected.replace(name, path)
        assert captured.err == expected


def _subcommands(parser):
    """The subcommand parsers of ``parser``, by name; none for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_command_has_a_passing_and_a_refused_row():
    """Every ``run <suite>``, ``cocycle`` and ``gamma`` command has an exit-0
    and an exit-2 row, so a command added later cannot skip the table."""
    commands = [
        (name, sub)
        for name, parser in _subcommands(cli._parser()).items()
        for sub in (_subcommands(parser) or suites.SUITES)
    ]
    assert {("run", "gh"), ("cocycle", "gh"), ("gamma", "verify")} <= set(commands)
    for command in commands:
        codes = {row.code for row in TABLE if tuple(row.argv[:2]) == command}
        assert {0, 2} <= codes, command
