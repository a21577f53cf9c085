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
  for their paths;
* ``marks`` -- pytest marks of the row (``needs_int_limit``).

``refused`` builds an exit-2 row with an empty stdout and one ``error:``
line, ``unrecognized`` one that argparse refuses.  Each row runs
``cli.main`` in process.  An input is a JSON document, raw text or bytes,
or a function that builds the document (the sampled families and the
too-wide numbers), written once per module on first use; every input is
used by some row, and row ids are unique.  A new command or refusal gets a
row here; a library refusal gets a ``CASES`` entry in ``test_refusals.py``.
CI runs only one installed call per top-level command, to test the console
script.
"""

import argparse
import functools
import json
import random
import shlex
import sys
from dataclasses import dataclass

import pytest

from cocycle_lab import cli, suites
from cocycle_lab.sampling import invariant_family
from cocycle_lab.values import INTEGERS, group_from_tag
from test_refusals import DEPTH_RANGE, FLOAT_MEASURES, HALF, HUGE_DEPTHS, VALUE_RECORDS, exact


def _family(depth, tag="rat"):
    """The 3-generator family of ``invariant_family`` at seed 0."""
    return lambda: invariant_family(random.Random(0), depth, 3, group_from_tag(tag)).to_json()


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


def _ints(*values):
    return [{"t": "int", "n": n} for n in values]


def _bernoulli(bases):
    return {"kind": "bernoulli", "bases": list(bases), "weights": [[f"1/{b}"] * b for b in bases]}


def _prime_denominators():
    """A depth-12 rat generator whose entries 1/p have distinct odd prime
    denominators p: tau3 and the cycle sum have over 30,000 digits."""
    primes, k = [], 3
    while len(primes) < 1 << 12:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 2
    return {"bases": [2] * 12, "depth": 12, "group": "rat", "table": _rats(*((1, p) for p in primes))}


def _wide_integer():
    """An int generator whose first entry has one digit more than the interpreter reads."""
    entry = '{"t": "int", "n": ' + "7" * (sys.get_int_max_str_digits() + 1) + "}"
    return '{"bases": [2], "depth": 1, "group": "int", "table": [' + entry + ', {"t": "int", "n": 1}]}'


GEN = {"bases": [2], "depth": 1, "group": "int", "table": _ints(1, -1)}
GEN_D2 = {"bases": [2, 2], "depth": 2, "group": "int", "table": _ints(1, -1, 0, 0)}
# an int family for the malformed-family rows
IFAMILY = {"N": 1, "depth": 2, "group": "int", "tables": [_ints(1, 2)]}
DIRAC = {"kind": "dirac", "bases": [2] * 3, "point": [0] * 3}
MARKOV = {"kind": "markov", "bases": [2] * 3, "initial": HALF, "transitions": [[HALF] * 2] * 2}

# config files that ``run <args>`` refuses, each with its refusal after "bad config: "
CONFIGS = {
    **{
        name: ("density", config, f"{key} must be an integer >= 1, got {value}")
        for name, config, key, value in (
            ("count-0-n-max-0", {"depth": 4, "count": 0, "n_max": 0}, "count", 0),
            ("count-0", {"depth": 4, "count": 0}, "count", 0),
            ("n-max-0", {"depth": 4, "n_max": 0}, "n_max", 0),
            ("count--1", {"depth": 4, "count": -1}, "count", -1),
            ("count-2.5", {"depth": 4, "count": 2.5}, "count", 2.5),
        )
    },
    "seed-x": ("gh --count 2", {"depth": 4, "seed": "x"}, "seed must be an integer, got 'x'"),
    "seed-true": ("gh --count 2", {"depth": 4, "seed": True}, "seed must be an integer, got True"),
    "seed-1.5": ("gh --count 2", {"depth": 4, "seed": 1.5}, "seed must be an integer, got 1.5"),
    **{
        f"horizon-{horizon}": ("gh --count 2", {"depth": 4, "horizon": horizon},
                               f"horizon must be >= 0 and an integer, got {horizon!r}")
        for horizon in ("x", 2.5)
    },
    **{
        f"depth-{name}": ("gh", {"depth": depth, "count": 1}, f"depth must be an integer >= 1, got {depth!r}")
        for name, depth in (("4.7", 4.7), ("str", "3"), ("true", True), ("0", 0), ("-2", -2),
                            ("null", None))
    },
    **{
        f"depth-{name}": ("gh", {"depth": depth, "count": 1}, f"{DEPTH_RANGE}, got {depth}")
        for name, depth in HUGE_DEPTHS.items()
    },
    "eps0-0.25": ("happrox", {"depth": 3, "count": 1, "eps0": 0.25},
                  "cannot interpret 0.25 as an exact rational"),
    **{
        f"{key.replace('_', '-')}-1-0": ("happrox", {"depth": 3, "count": 1, key: "1/0"},
                                         "'1/0' has a zero denominator")
        for key in ("eps0", "epsilon_max")
    },
    **{
        f"bases-{name}": ("gh", {"bases": bases, "count": 1},
                          f"bases entry {at} must be an integer, got {bases[at]!r}")
        for name, bases, at in (
            ("2.7", [2.7, 2, "3"], 0), ("str-entry", [2, "3"], 1), ("true-entry", [2, 2, True], 2),
            ("null-entry", [2, None], 1), ("2.0", [2.0, 2], 0),
        )
    },
    **{
        f"bases-{name}": ("gh", {"bases": bases, "count": 1},
                          f"bases must be a list of integers, got {bases!r}")
        for name, bases in (("null", None), ("5", 5), ("str", "2,2"), ("object", {}))
    },
    **{
        f"group-{name}": ("gh", {"group": group, "depth": 3, "count": 1},
                          f"group must be a string, got {group!r}")
        for name, group in (("5", 5), ("list", ["rat"]), ("true", True), ("object", {"tag": "rat"}))
    },
    "unknown-key": (
        "gh", {"depth": 4, "cuont": 2},
        "unknown key 'cuont'; known: depth, bases, group, seed, eps0, horizon, count, n_max, epsilon_max",
    ),
    "depth-and-bases": ("gh", {"depth": 4, "bases": [2, 2], "count": 1},
                        "give either bases or depth, not both"),
    "bases-empty": ("gh", {"bases": [], "count": 1}, "depth must be >= 1"),
}

INPUTS = {
    "gen.json": GEN,
    "gen-d2.json": GEN_D2,
    "ones.json": {**GEN, "table": _ints(1, 1)},
    "family.json": {"N": 1, "depth": 2, "group": "rat", "tables": [_rats((1, 3), (1, 2))]},
    "family-3.json": {
        "N": 2, "depth": 3, "group": "rat",
        "tables": [_rats((1, 3), (2, 3), (1, 2), (5, 3)), _rats((1, 5), (2, 5))],
    },
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
    "ternary.json": {"bases": [3], "depth": 1, "group": "int", "table": _ints(1, -2, 0)},
    "rgen.json": {"bases": [2, 2], "depth": 2, "group": "real", "table": _reals(0.25, -1.5, 0.1, 2.0)},
    "measures.json": [
        {"kind": "bernoulli", "bases": [2, 2, 2], "weights": [[0.5, 0.5], ["1/2", "1/2"], ["1/2", "1/2"]]},
    ],
    "measures-d4.json": [_bernoulli((2,) * 4)],
    # a model of bases 2^5 and a measure off it
    **{
        f"measures-{''.join(map(str, bases))}.json": [_bernoulli((2,) * 5), _bernoulli(bases)]
        for bases in ((3, 3, 3, 3), (2, 2), (2, 3, 2, 2))
    },
    "measures-1-0.json": [{"kind": "bernoulli", "bases": [2], "weights": [["1/0", "1"]]}],
    "measures-object.json": {},
    "measures-unwrapped.json": _bernoulli((2,) * 3),
    "measures-no-bases.json": [{"kind": "bernoulli", "weights": [HALF]}],
    "measures-component-list.json": [{"kind": "mixture", "components": [[1]], "weights": [1]}],
    "measures-mixture-weights-5.json": [{"kind": "mixture", "components": [DIRAC], "weights": 5}],
    "measures-weights-5.json": [{**_bernoulli((2,) * 3), "weights": 5}],
    "measures-point-5.json": [{**DIRAC, "point": 5}],
    "measures-transitions-entry-5.json": [{**MARKOV, "transitions": [5, 5]}],
    "measures-initial-5.json": [{**MARKOV, "initial": 5}],
    "measures-markov-no-transitions.json": [
        {"kind": "markov", "bases": [2, 2], "initial": HALF, "transitions": []},
    ],
    **{f"measures-float-{name}.json": [record] for name, (record, _) in FLOAT_MEASURES.items()},
    **{f"measures-exact-{name}.json": [exact(record)] for name, (record, _) in FLOAT_MEASURES.items()},
    **{
        f"measures-base-{name}.json": [{"kind": "bernoulli", "bases": [base, 2], "weights": [HALF, HALF]}]
        for name, base in (("2.5", 2.5), ("str", "2"))
    },
    **{
        f"measures-dirac-{name}.json": [{"kind": "dirac", "bases": [2, 2], "point": point}]
        for name, point in (("0.9", [0.9, 1]), ("1.0", [1.0]), ("true", [True]), ("str", ["1"]))
    },
    "empty-list.json": [],
    "list-1.json": [1],
    "list-1-2.json": [1, 2],
    "null.json": "null",
    "string.json": '"x"',
    "three.json": "3",
    "half.json": "0.5",
    "not-json.json": "{not json",
    "empty.json": {"N": 0, "depth": 3, "group": "rat", "tables": []},
    **{
        f"real-{text}.json": {"bases": [2], "depth": 1, "group": "real", "table": _reals(value, -1.0)}
        for text, value in (("NaN", float("nan")), ("Infinity", float("inf")), ("-Infinity", float("-inf")))
    },
    # finite entries whose partial sums pass the float range
    "real-overflow.json": {
        "bases": [2, 2], "depth": 2, "group": "real", "table": _reals(1e308, 1e308, -1e308, -1e308),
    },
    "family-real-NaN.json": {"N": 1, "depth": 2, "group": "real", "tables": [_reals(float("nan"), 0.5)]},
    "group-5.json": {**GEN, "group": 5},
    "no-table.json": {"bases": [2], "depth": 1, "group": "int"},
    "table-5.json": {**GEN, "table": 5},
    "bases-5.json": {**GEN, "bases": 5},
    "int-x.json": {**GEN, "table": [{"t": "int", "n": "x"}, {"t": "int", "n": 1}]},
    "rat-zero-den.json": {**GEN, "group": "rat", "table": _rats((1, 0), (1, 1))},
    "bare-entry.json": {**GEN, "table": [5, {"t": "int", "n": 1}]},
    "rat-bare-entry.json": {**GEN, "group": "rat", "table": [*_rats((1, 3)), "1/3"]},
    **{
        f"gen-d2-base-{name}.json": {**GEN_D2, "bases": [base, 2]}
        for name, base in (("2.5", 2.5), ("str", "2"))
    },
    "family-zero-den.json": {"N": 1, "depth": 2, "group": "rat", "tables": [_rats((1, 0), (1, 1))]},
    "family-int-d4.json": lambda: invariant_family(random.Random(5), 4, 2, INTEGERS).to_json(),
    **{
        f"family-depth-{name}.json": {"N": 1, "depth": depth, "group": "rat", "tables": [_rats((1, 3))]}
        for name, depth in (("true", True), ("2.0", 2.0), ("str", "2"), ("null", None), *HUGE_DEPTHS.items())
    },
    **{
        f"family-record-{name}.json": {"N": 1, "depth": 1, "group": record["t"], "tables": [[record]]}
        for name, (record, _, _) in VALUE_RECORDS.items()
    },
    "ifamily-bare.json": {**IFAMILY, "tables": [[1, 2]]},
    "ifamily-no-tables.json": {k: v for k, v in IFAMILY.items() if k != "tables"},
    "ifamily-group-5.json": {**IFAMILY, "group": 5},
    "ifamily-N-true.json": {**IFAMILY, "N": True},
    "ifamily-N-1.0.json": {**IFAMILY, "N": 1.0},
    "ifamily-tables-5.json": {**IFAMILY, "tables": 5},
    "ifamily-tables-entry-5.json": {**IFAMILY, "tables": [5]},
    **{f"config-{name}.json": config for name, (_, config, _) in CONFIGS.items()},
    "config-horizon-2^40.json": {"depth": 3, "count": 10, "horizon": 1 << 40},
    "deep.json": "[" * 200000 + "]" * 200000,
    "not-utf8.json": b'\xff{"depth": 3}',
    "wide-rat.json": _prime_denominators,
    "wide-int.json": _wide_integer,
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
    marks: tuple = ()

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)


def refused(id, command, message, **options):
    """An exit-2 row: nothing on stdout, ``error: message`` on stderr."""
    return Row(id, command, 2, out="", err=f"error: {message}\n", **options)


def _subcommands(parser):
    """The subcommand parsers of ``parser``, by name; none for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def unrecognized(id, command, words):
    """An exit-2 row whose trailing ``words`` argparse does not know: the
    usage of the subcommand that the leading words name, then the words."""
    parser = cli._parser()
    for word in shlex.split(command):
        parser = _subcommands(parser).get(word, parser)
    error = f"{parser.prog}: error: unrecognized arguments: {words}"
    return Row(id, command, 2, out="", err=f"{parser.format_usage()}{error}\n")


# CPython limits int <-> decimal text conversion since 3.10.7 and 3.11
needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
TOO_WIDE = (
    f"an exact value exceeds the interpreter's {getattr(sys, 'get_int_max_str_digits', int)()}-digit "
    "limit for an integer's text"
)
NOT_UTF8 = "not-utf8.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
DEPTH_ONE = "the density rows need depth >= 2, got depth 1"
EMPTY_BASES = "--bases needs comma-separated integers, got ''"
NOT_FINITE = "real group needs a finite float, got"
HORIZON_2_40 = f"horizon {1 << 40} needs {(1 << 41) + 9} running sums, more than the limit 16777216"
DENSITY = "cocycle density --input gen.json --depth 3 --measures"

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
    # F_n equals f bit-exactly off the tower tops, so no float noise enters tau3
    *(
        Row(f"run-density-real-d6-seed-{seed}",
            f"run density --depth 6 --count 2 --group real --seed {seed}")
        for seed in range(3)
    ),
    Row(
        "run-density-csv", "run density --depth 4 --seed 1 --count 2 --format csv",
        out="generator,n,tau3,bound,certified\n0,1,305/672,1/2,1\n0,2,25/128,1/4,1\n0,3,1/8,1/8,1\n"
        "1,1,2719/6720,1/2,1\n1,2,61/384,1/4,1\n1,3,739/6720,1/8,1\n",
    ),
    # on real the tau3 cells are floats, written as their repr
    Row(
        "run-density-real-csv", "run density --depth 4 --count 2 --group real --format csv",
        out="generator,n,tau3,bound,certified\n0,1,0.4726210421643148,1/2,1\n"
        "0,2,0.19082017393272288,1/4,1\n0,3,0.125,1/8,1\n1,1,0.4600381264770468,1/2,1\n"
        "1,2,0.25,1/4,1\n1,3,0.125,1/8,1\n",
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
    # the default n_max is depth - 1 = 0: no approximant, an empty table
    Row("cocycle-density-depth-one-json", "cocycle density --input gen.json --format json",
        out="[]\n", err=""),
    # measures with exact weights, the twins of the float-weight refusals below
    *(
        Row(f"cocycle-density-exact-{name}",
            f"cocycle density --input gen-d2.json --measures measures-exact-{name}.json")
        for name in FLOAT_MEASURES
    ),
    Row("cocycle-solve-mod:7", "cocycle solve --input mod.json --depth 3"),
    Row("cocycle-gh-mod:7", "cocycle gh --input mod.json --depth 3"),
    Row("cocycle-gh-vec:2", "cocycle gh --input vgen.json --depth 4"),
    Row("cocycle-gh-bases-33", "cocycle gh --input ternary.json --bases 3,3"),
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
    # the commands that read no --format, run without it
    Row("cocycle-eval-j1", "cocycle eval --input gen.json --j 1 --x 0"),
    Row("cocycle-solve-no-depth", "cocycle solve --input gen.json"),
    Row("cocycle-gh-no-depth", "cocycle gh --input gen.json"),
    *(
        Row(f"gamma-{op}-family-3", f"gamma {op} --input family-3.json")
        for op in ("verify", "roundtrip", "happrox")
    ),
    # model flags replace both model keys of a config file
    Row("run-gh-config-depth-and-bases-depth-flag", "run gh --config config-depth-and-bases.json --depth 3"),
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
    # with eps allowed above 1 the tau3 constant genuinely fails
    Row(
        "run-topology-clipped-constant", "run topology --bases 2,2 --seed 0 --count 60 --epsilon-max 4", 1,
        err="FAIL case19-tau3-constant: tau3=40/49 eps=3/2 delta=5/8 mu(exceed)=36/49\n",
    ),
    # exit 2: refusals
    # scans past the value group limits: Q^20 spread bounds need 8 * 20 * 2^19
    # signed terms at N = 8; a depth-11 non-coboundary on Z/1000003 keeps 2048
    # windows of up to 8193 residues
    refused(
        "run-density-vec:20", "run density --depth 3 --count 1 --group vec:20",
        "Q^20 projections of 8 values need 83886080 signed terms, more than the limit 16777216",
    ),
    refused(
        "cocycle-gh-mod-d11", "cocycle gh --input mod-d11.json --depth 11",
        f"horizon 8192 needs {2048 * 8193} window residues on mod:1000003, more than the limit 16777216",
    ),
    refused("cocycle-gh-horizon-2^40", f"cocycle gh --input ones.json --depth 3 --horizon {1 << 40}",
            HORIZON_2_40),
    # a coboundary case scans radii below N only; the first non-coboundary is refused
    refused("run-gh-config-horizon-2^40", "run gh --config config-horizon-2^40.json", HORIZON_2_40),
    # exact values past CPython's 4,300 digits: at depth 12 tau3 and the cycle
    # sum have over 30,000; gh refuses the cycle sum before its scan, which
    # would run for minutes
    *(
        refused(f"cocycle-{name}-too-wide", f"cocycle {command} --input wide-rat.json", TOO_WIDE,
                marks=(needs_int_limit,))
        for name, command in (
            ("density", "density"), ("density-json", "density --format json"), ("solve", "solve"), ("gh", "gh"),
        )
    ),
    refused("cocycle-solve-integer-too-wide", "cocycle solve --input wide-int.json",
            f"wide-int.json: {TOO_WIDE}", marks=(needs_int_limit,)),
    *(
        refused(f"density-depth-one-{i}", command, DEPTH_ONE)
        for i, command in enumerate((
            "run density --depth 1",
            "run density --bases 2",
            "run density --depth 1 --n-max 1",
            "cocycle density --input gen.json --n-max 1",
            "cocycle density --input gen.json --n-max 1 --format json",
            "cocycle density --input gen.json --depth 1 --n-max 1",
        ))
    ),
    *(
        refused(f"cocycle-density-n-max-{n_max}",
                f"cocycle density --input gen.json --depth 4 --n-max {n_max}",
                f"--n-max must lie in 1..3, got {n_max}")
        for n_max in (4, 9)
    ),
    *(
        refused(f"run-{args.split()[0]}-config-{name}", f"run {args} --config config-{name}.json",
                f"bad config: {message}")
        for name, (args, _, message) in CONFIGS.items()
    ),
    refused("gamma-happrox-eps0-1-0", "gamma happrox --input family-3.json --eps0 1/0",
            "'1/0' has a zero denominator"),
    # a refused run flag is named; a --config value is a "bad config"
    refused("run-happrox-eps0-1-0", "run happrox --depth 3 --count 1 --eps0 1/0",
            "--eps0: '1/0' has a zero denominator"),
    refused("run-topology-epsilon-max-1-0", "run topology --depth 3 --count 1 --epsilon-max 1/0",
            "--epsilon-max: '1/0' has a zero denominator"),
    refused("run-topology-group-foo", "run topology --depth 3 --count 1 --group foo",
            "--group: unknown group tag 'foo'"),
    refused("run-gh-config-seed-x-horizon-flag", "run gh --count 2 --config config-seed-x.json --horizon 3",
            "bad config: seed must be an integer, got 'x'"),
    refused("run-gh-config-seed-x-horizon-flag--1",
            "run gh --count 2 --config config-seed-x.json --horizon -1",
            "--horizon: horizon must be >= 0 and an integer, got -1"),
    # a flag replaces the file's value unchecked
    Row("run-gh-config-horizon-x-horizon-flag", "run gh --count 2 --config config-horizon-x.json --horizon 3"),
    *(
        refused(f"run-{suite}-{flag[2:]}-1e400{fmt.replace(' --format ', '-')}",
                f"run {suite} --depth 3 --count 1 {flag} 1e400{fmt}",
                f"{flag}: {name} must lie within the float range, got '1e400'")
        for suite, flag, name in (("happrox", "--eps0", "eps0"), ("topology", "--epsilon-max", "epsilon_max"))
        for fmt in ("", " --format json", " --format csv")
    ),
    refused("run-gh-horizon--1", "run gh --depth 3 --count 2 --horizon -1",
            "--horizon: horizon must be >= 0 and an integer, got -1"),
    refused("cocycle-gh-horizon--3", "cocycle gh --depth 3 --horizon -3 --input gen.json",
            "--horizon: horizon must be >= 0, got -3"),
    *(
        refused(f"count-flag-{i}", command, f"{flag} must be >= 1, got {value}")
        for i, (command, flag, value) in enumerate((
            ("run density --depth 0", "--depth", 0),
            ("run gh --depth 3 --count 0", "--count", 0),
            ("run density --depth 3 --n-max 0", "--n-max", 0),
            ("cocycle solve --depth 0 --input gen.json", "--depth", 0),
            ("cocycle density --depth 3 --n-max 0 --input gen.json", "--n-max", 0),
            ("cocycle density --depth 3 --n-max -2 --input gen.json", "--n-max", -2),
        ))
    ),
    *(
        refused(f"integer-list-flag-{i}", command.format(shlex.quote(text)),
                f"{flag} needs comma-separated integers, got {text!r}")
        for i, (command, flag, text) in enumerate((
            ("run gh --bases {}", "--bases", "2,x"),
            ("run gh --bases {}", "--bases", "2,2.5"),
            ("cocycle solve --bases {} --input gen.json", "--bases", "2,,2"),
            ("cocycle eval --j 1 --x {} --input gen.json", "--x", "0,a,0"),
            ("cocycle eval --j 1 --x {} --input gen.json", "--x", "0, 1.0"),
        ))
    ),
    # an empty --bases is refused, not read as no --bases
    refused("run-gh-empty-bases", 'run gh --bases "" --count 1', EMPTY_BASES),
    refused("run-odometer-empty-bases", 'run odometer --bases "" --count 1', EMPTY_BASES),
    refused("cocycle-gh-empty-bases", 'cocycle gh --input gen.json --bases ""', EMPTY_BASES),
    refused("cocycle-eval-empty-bases", 'cocycle eval --input gen.json --bases "" --j 1 --x 0', EMPTY_BASES),
    refused("cocycle-solve-model-short-of-table", "cocycle solve --input gen.json --bases 3,2",
            "model bases (3, 2) do not extend the table's bases (2,)"),
    *(
        refused(f"run-gh-depth-{name}", f"run gh --depth {depth}", f"{DEPTH_RANGE}, got {depth}")
        for name, depth in HUGE_DEPTHS.items()
    ),
    *(
        refused(f"run-{suite}-bases-{bases}", f"run {suite} --bases {bases}",
                "involution cocycles need the 2-odometer")
        for suite, bases in (("odometer", "3,2,2"), ("happrox", "2,3"))
    ),
    refused("run-density-n-max-9", "run density --depth 4 --n-max 9", "n_max must lie in 1..3"),
    refused("run-nosuch", "run nosuch",
            "unknown suite 'nosuch'; available: density, gh, happrox, odometer, topology"),
    # a word before the subcommand is refused under the root usage, one after it under its own
    Row("bogus-before-run", "--bogus run gh --depth 3", 2, out="",
        err="usage: cocycle-lab [-h] {run,cocycle,gamma} ...\n"
            "cocycle-lab: error: unrecognized arguments: --bogus\n"),
    unrecognized("run-gh-bogus", "run gh --depth 3 --bogus", "--bogus"),
    # no suite reads measures, so `run` has no --measures flag
    unrecognized("run-density-measures",
                 "run density --depth 4 --seed 2 --count 2 --measures measures-d4.json",
                 "--measures measures-d4.json"),
    # --format is refused where nothing reads it
    *(
        unrecognized(f"{command.replace(' ', '-')}-format-csv", f"{command} --input {name} --format csv",
                     "--format csv")
        for command, name in (
            ("cocycle eval", "gen.json --j 1 --x 0"), ("cocycle solve", "gen.json"),
            ("cocycle gh", "gen.json"), ("gamma verify", "family-3.json"),
            ("gamma roundtrip", "family-3.json"), ("gamma happrox", "family-3.json"),
        )
    ),
    refused("gamma-happrox-int-family", "gamma happrox --input family-int-d4.json",
            "dyadic approximation needs a rational or dyadic family, got group 'int'"),
    *(
        refused(f"gamma-{op}-empty", f"gamma {op} --input empty.json",
                "empty.json: family needs at least one generator")
        for op in ("verify", "roundtrip", "happrox")
    ),
    # Python's json reads NaN and Infinity, which no JSON output may hold
    *(
        refused(f"cocycle-{op}-{text}", f"cocycle {op} --input real-{text}.json{extra}",
                f"real-{text}.json: {NOT_FINITE} {shown}")
        for text, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"))
        for op, extra in (("gh", ""), ("solve", ""), ("eval", " --j 1 --x 0"), ("density", ""))
    ),
    # finite entries whose partial sums pass the float range: no Infinity is printed
    *(
        refused(f"cocycle-{op}-real-overflow", f"cocycle {op} --input real-overflow.json",
                f"{NOT_FINITE} inf")
        for op in ("gh", "solve")
    ),
    *(
        refused(f"gamma-{op}-real-NaN", f"gamma {op} --input family-real-NaN.json",
                f"family-real-NaN.json: {NOT_FINITE} nan")
        for op in ("verify", "roundtrip", "happrox")
    ),
    # a malformed file is named, with what is wrong in words
    *(
        refused(f"{command.replace(' ', '-')}-{name.removesuffix('.json')}", f"{command} --input {name}",
                f"{name}: {message}")
        for command, name, message in (
            ("cocycle solve", "int-x.json", "integer group needs int, got 'x'"),
            ("cocycle solve", "rat-zero-den.json", "value record 1/0 has a zero denominator"),
            ("cocycle gh", "bare-entry.json", "a value record must be a JSON object, got int"),
            ("cocycle solve", "rat-bare-entry.json", "a value record must be a JSON object, got str"),
            ("cocycle gh", "no-table.json", "missing key 'table'"),
            ("cocycle gh", "group-5.json", "a group tag must be a string, got 5"),
            ("cocycle solve", "group-5.json", "a group tag must be a string, got 5"),
            ("cocycle gh", "list-1-2.json", "a cylinder function must be a JSON object, got list"),
            ("cocycle gh", "null.json", "a cylinder function must be a JSON object, got null"),
            ("cocycle solve", "table-5.json", "table must be a JSON list, got int"),
            ("cocycle gh", "bases-5.json", "bases must be a JSON list, got int"),
            ("gamma verify", "family-zero-den.json", "value record 1/0 has a zero denominator"),
            ("gamma happrox", "list-1-2.json", "a generator family must be a JSON object, got list"),
            ("gamma roundtrip", "ifamily-bare.json", "a value record must be a JSON object, got int"),
            ("gamma roundtrip", "ifamily-no-tables.json", "missing key 'tables'"),
            ("gamma verify", "ifamily-group-5.json", "a group tag must be a string, got 5"),
            ("gamma verify", "empty-list.json", "a generator family must be a JSON object, got list"),
            ("gamma happrox", "null.json", "a generator family must be a JSON object, got null"),
            ("gamma verify", "ifamily-N-true.json", "N must be an integer, got True"),
            ("gamma verify", "ifamily-N-1.0.json", "N must be an integer, got 1.0"),
            ("gamma verify", "ifamily-tables-5.json", "tables must be a JSON list, got int"),
            ("gamma verify", "ifamily-tables-entry-5.json", "an entry of tables must be a JSON list, got int"),
            ("gamma verify", "deep.json", "JSON nested deeper than the interpreter allows"),
            ("cocycle solve", "not-json.json",
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("cocycle solve", "gen-d2-base-2.5.json", "every base must be an integer >= 2, got (2.5, 2)"),
            ("cocycle solve", "gen-d2-base-str.json", "every base must be an integer >= 2, got ('2', 2)"),
            *(("gamma verify", f"family-depth-{name}.json", f"depth must be an integer, got {depth!r}")
              for name, depth in (("true", True), ("2.0", 2.0), ("str", "2"), ("null", None))),
            *(("gamma verify", f"family-depth-{name}.json", f"{DEPTH_RANGE}, got {depth}")
              for name, depth in HUGE_DEPTHS.items()),
            *(("gamma verify", f"family-record-{name}.json", message)
              for name, (_, _, message) in VALUE_RECORDS.items()),
        )
    ),
    refused("cocycle-eval-list-1-2", "cocycle eval --j 1 --x 0 --input list-1-2.json",
            "list-1-2.json: a cylinder function must be a JSON object, got list"),
    *(
        refused(f"run-gh-config-{name.removesuffix('.json')}", f"run gh --config {name}",
                f"{name}: a config must be a JSON object, got {kind}")
        for name, kind in (
            ("list-1.json", "list"), ("string.json", "str"), ("three.json", "int"), ("half.json", "float"),
            ("null.json", "null"),
        )
    ),
    refused("run-gh-config-list-1-2", "run gh --count 1 --config list-1-2.json",
            "list-1-2.json: a config must be a JSON object, got list"),
    # a file that is not UTF-8 is named like any other malformed file
    refused("cocycle-gh-not-utf8", "cocycle gh --input not-utf8.json", NOT_UTF8),
    refused("gamma-happrox-not-utf8", "gamma happrox --input not-utf8.json", NOT_UTF8),
    refused("run-gh-config-not-utf8", "run gh --config not-utf8.json", NOT_UTF8),
    refused("cocycle-density-measures-not-utf8", "cocycle density --input gen.json --measures not-utf8.json",
            NOT_UTF8),
    # measures: a non-empty JSON list of exact records on the model
    refused("cocycle-density-float-weight", f"{DENSITY} measures.json",
            "measures.json: cannot interpret 0.5 as an exact rational"),
    *(
        refused(f"cocycle-density-{name.removesuffix('.json')}{fmt.replace(' --format ', '-')}",
                f"{DENSITY} {name}{fmt}", f"{name}: --measures needs a non-empty JSON list of measure records")
        for name in ("empty-list.json", "measures-object.json", "measures-unwrapped.json", "list-1.json")
        for fmt in ("", " --format json", " --format csv")
    ),
    *(
        refused(f"cocycle-density-{name.removesuffix('.json')}", f"{DENSITY} {name}", f"{name}: {message}")
        for name, message in (
            ("measures-component-list.json", "a measure must be a JSON object, got list"),
            ("measures-mixture-weights-5.json", "mixture weights must be a JSON list, got int"),
            ("measures-weights-5.json", "weights must be a JSON list, got int"),
            ("measures-point-5.json", "point must be a JSON list, got int"),
            ("measures-transitions-entry-5.json", "a transition matrix must be a JSON list, got int"),
            ("measures-initial-5.json", "initial distribution must be a JSON list, got int"),
            ("measures-no-bases.json", "missing key 'bases'"),
        )
    ),
    *(
        refused(f"cocycle-density-default-depth-{name.removesuffix('.json')}",
                f"cocycle density --input gen.json --measures {name}", f"{name}: {message}")
        for name, message in (
            ("list-1-2.json", "--measures needs a non-empty JSON list of measure records"),
            ("measures-1-0.json", "'1/0' has a zero denominator"),
        )
    ),
    *(
        refused(f"cocycle-density-measures-{name}",
                f"cocycle density --input gen.json --depth 4 --measures measures-{name}.json",
                f"measure 1 has bases {bases}, which do not extend the model's bases (2, 2, 2, 2)")
        for name, bases in (("3333", (3, 3, 3, 3)), ("22", (2, 2)), ("2322", (2, 3, 2, 2)))
    ),
    *(
        refused(f"cocycle-density-{name.removesuffix('.json')}",
                f"cocycle density --input gen-d2.json --measures {name}", f"{name}: {message}")
        for name, message in (
            *((f"measures-float-{name}.json", message) for name, (_, message) in FLOAT_MEASURES.items()),
            ("measures-markov-no-transitions.json", "need 1 transition matrices"),
            ("measures-base-2.5.json", "every base must be an integer >= 2, got (2.5, 2)"),
            ("measures-base-str.json", "every base must be an integer >= 2, got ('2', 2)"),
            *((f"measures-dirac-{name}.json", f"digit {digit!r} at coordinate 1 out of range [0,2)")
              for name, digit in (("0.9", 0.9), ("1.0", 1.0), ("true", True), ("str", "1"))),
        )
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


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id, marks=row.marks) for row in TABLE])
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


def test_row_ids_are_unique():
    """pytest would run a repeated id under a silent suffix."""
    ids = [row.id for row in TABLE]
    assert len(set(ids)) == len(ids), sorted({i for i in ids if ids.count(i) > 1})


def test_every_input_is_used():
    """A deleted row leaves no input behind."""
    used = {word for row in TABLE for word in row.argv}
    assert set(INPUTS) <= used, sorted(set(INPUTS) - used)


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
