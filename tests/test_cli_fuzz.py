"""Fuzzing the command line with mutated input documents.

Every JSON document the CLI reads -- generator tables (int and real),
generator families, measure lists and run configs -- is mutated at depth
<= 4: a value is replaced by one of a few wrong-typed, out-of-range or
non-finite (NaN, Infinity, -Infinity) values, a key or list
entry is dropped, a value is nested in up to about a thousand lists or
objects (past the recursion limit of CPython up to 3.11), or the whole document is
wrapped in a list.  Whatever the mutation, ``cli.main`` must return 0, 1 or
2 and never print a traceback.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab.cli import main

#: Enough examples to reach crashes two mutations deep, in a few seconds.
#: A mutation that drops ``count`` runs a suite at its default count (up to
#: about 0.06 s at the default depth on a 2-vCPU host), so the deadline is
#: 5 s: far above any run at a default count on a slow host, but finite, so
#: a mutation that starts an unbounded scan still fails.
FUZZ = settings(max_examples=300, deadline=5000)

REPLACEMENTS = (-1, 0, 2.5, "3", True, None, [], {}, float("nan"), float("inf"), float("-inf"))

GENERATOR = {
    "bases": [2, 2],
    "depth": 2,
    "group": "int",
    "table": [{"t": "int", "n": 1}, {"t": "int", "n": -1}, {"t": "int", "n": 0}, {"t": "int", "n": 2}],
}
REAL_GENERATOR = {
    "bases": [2, 2],
    "depth": 2,
    "group": "real",
    "table": [{"t": "real", "v": 0.5}, {"t": "real", "v": -1.25}, {"t": "real", "v": 0.0}, {"t": "real", "v": 2.0}],
}
FAMILY = {
    "N": 2,
    "depth": 2,
    "group": "rat",
    "tables": [
        [{"t": "rat", "n": 1, "d": 3}, {"t": "rat", "n": 1, "d": 2}],
        [{"t": "rat", "n": -5, "d": 2}],
    ],
}
MEASURES = [
    {"kind": "bernoulli", "bases": [2, 2], "weights": [["1/3", "2/3"], ["1/2", "1/2"]]},
    {
        "kind": "markov",
        "bases": [2, 2],
        "initial": ["1/4", "3/4"],
        "transitions": [[["1", "0"], ["1/5", "4/5"]]],
    },
    {"kind": "dirac", "bases": [2, 2], "point": [1, 0]},
    {
        "kind": "mixture",
        "weights": ["1/2", "1/2"],
        "components": [
            {"kind": "dirac", "bases": [2, 2], "point": [0]},
            {"kind": "bernoulli", "bases": [2, 2], "weights": [["1/2", "1/2"], ["1", "0"]]},
        ],
    },
]
CONFIG = {
    "bases": [2, 2, 2],
    "group": "rat",
    "seed": 3,
    "eps0": "1/4",
    "horizon": 4,
    "count": 1,
    "n_max": 2,
    "epsilon_max": "1/2",
}


@dataclass
class Nested:
    """``value`` inside ``levels`` lists (kind "list") or one-key objects,
    written as text, since ``json.dumps`` itself stops at the recursion limit."""

    value: object
    levels: int
    kind: str = "list"

    def text(self) -> str:
        opener, closer = ("[", "]") if self.kind == "list" else ('{"k": ', "}")
        return opener * self.levels + _text(self.value) + closer * self.levels


def _text(doc) -> str:
    """The JSON text of ``doc``, with each ``Nested`` value spliced in."""
    nested = []

    def token(o):
        nested.append(o)
        return f"nested-{len(nested) - 1}"

    text = json.dumps(doc, default=token)
    for i, o in enumerate(nested):
        text = text.replace(json.dumps(f"nested-{i}"), o.text(), 1)
    return text


LEVELS = st.one_of(st.integers(1, 20), st.integers(900, 1100))


def _paths(doc, depth=4, path=()):
    """Every path of at most ``depth`` keys or indices into ``doc``."""
    yield path
    if depth == 0:
        return
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, depth - 1, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(("replace", "drop", "wrap", "nest")))
        if action == "wrap" or (action == "drop" and not path):
            doc = [doc]
            continue
        if action == "nest":
            parent = doc
            for key in path:
                parent = parent[key]
            kind = draw(st.sampled_from(("list", "dict")))
            replacement = Nested(copy.deepcopy(parent), draw(LEVELS), kind)
        else:
            replacement = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if not path:
            doc = replacement
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
    return doc


def _run_with_errors(argv, files) -> tuple[int, str]:
    """Run ``main`` on ``argv`` with each named document written to a file
    standing for its name; the exit code must be 0, 1 or 2 with no traceback.
    Returns the code and the error text, each file named by its own name."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(_text(doc))
        argv = [paths.get(arg, arg) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, files)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue().replace(tmp + "/", "")


def _run(argv, files) -> int:
    return _run_with_errors(argv, files)[0]


@FUZZ
@given(
    st.sampled_from((GENERATOR, REAL_GENERATOR)).flatmap(mutated),
    st.sampled_from(
        (
            ["eval", "--j", "3", "--x", "1,0"],
            ["solve"],
            ["density", "--depth", "3"],
            ["gh", "--depth", "3"],
        )
    ),
)
def test_mutated_generator_table(doc, command):
    _run(["cocycle", command[0], "--input", "gen", *command[1:]], {"gen": doc})


@FUZZ
@given(mutated(FAMILY), st.sampled_from(("verify", "roundtrip", "happrox")))
def test_mutated_generator_family(doc, command):
    _run(["gamma", command, "--input", "family"], {"family": doc})


@FUZZ
@given(mutated(MEASURES))
def test_mutated_measure_list(doc):
    _run(
        ["cocycle", "density", "--input", "gen", "--measures", "measures", "--format", "json"],
        {"gen": GENERATOR, "measures": doc},
    )


@FUZZ
@given(mutated(CONFIG), st.sampled_from(("density", "topology", "odometer", "happrox", "gh")))
def test_mutated_run_config(doc, suite):
    _run(["run", suite, "--config", "config"], {"config": doc})


def test_unmutated_documents_run():
    """The seed documents themselves run, so each mutation starts from valid input."""
    for command in (["eval", "--j", "3", "--x", "1,0"], ["solve"], ["density"], ["gh"]):
        argv = ["cocycle", command[0], "--input", "gen", *command[1:]]
        assert _run(argv, {"gen": GENERATOR}) == 0
        assert _run(argv, {"gen": REAL_GENERATOR}) == 0
    for command in ("verify", "roundtrip", "happrox"):
        assert _run(["gamma", command, "--input", "family"], {"family": FAMILY}) == 0
    measures = ["cocycle", "density", "--input", "gen", "--measures", "measures"]
    assert _run(measures, {"gen": GENERATOR, "measures": MEASURES}) == 0
    for suite in ("density", "topology", "odometer", "happrox", "gh"):
        assert _run(["run", suite, "--config", "config"], {"config": CONFIG}) == 0


#: Each flag that reads a JSON file, with the documents of a valid command.
FLAGS = {
    "cocycle --input": (["cocycle", "solve", "--input", "gen"], {"gen": GENERATOR}, "gen"),
    "gamma --input": (["gamma", "verify", "--input", "family"], {"family": FAMILY}, "family"),
    "run --config": (["run", "gh", "--config", "config"], {"config": CONFIG}, "config"),
    "cocycle --measures": (
        ["cocycle", "density", "--input", "gen", "--measures", "measures"],
        {"gen": GENERATOR, "measures": MEASURES},
        "measures",
    ),
}


@functools.cache
def least_refused_nesting(kind: str) -> int:
    """The least nesting of ``kind`` at which ``json.loads`` raises
    ``RecursionError`` here, probed.  Up to CPython 3.11 it follows
    ``sys.getrecursionlimit()`` less the frames on the stack; since 3.12 it
    does not (a 1,200-deep list parses there), and moves by the few C calls
    on the stack, such as this function's cache."""

    def refused(levels):
        try:
            json.loads(Nested(0, levels, kind).text())
        except RecursionError:
            return True
        return False

    accepted, least = 0, 1000  # refused(least), and not refused(accepted)
    while not refused(least):
        accepted, least = least, 2 * least
        assert least < 1 << 24, "json.loads never refused a nesting"
    while least - accepted > 1:
        mid = (accepted + least) // 2
        accepted, least = (accepted, mid) if refused(mid) else (mid, least)
    return least


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("levels, kind", [("least", "dict"), (200_000, "list"), ("least", "list")])
def test_nesting_past_the_recursion_limit_is_a_usage_error_naming_the_file(flag, levels, kind):
    argv, files, name = FLAGS[flag]
    if levels == "least":  # past the probe by more than the stack between it and main
        levels = least_refused_nesting(kind) + 100
    files = {**files, name: Nested(files[name], levels, kind)}
    code, err = _run_with_errors(argv, files)
    assert code == 2
    assert err == f"error: {name}.json: JSON nested deeper than the interpreter allows\n"


@pytest.mark.parametrize("flag", FLAGS)
def test_nesting_just_inside_the_recursion_limit_is_a_usage_error(flag):
    # the document parses, and its nested top level is refused like any wrong type
    argv, files, name = FLAGS[flag]
    levels = least_refused_nesting("list") - 200
    code, err = _run_with_errors(argv, {**files, name: Nested(files[name], levels)})
    assert code == 2
    assert "recursion" not in err
