"""Fuzzing the command line with mutated input documents.

Every JSON document the CLI reads -- generator tables, generator families,
measure lists and run configs -- is mutated at depth <= 4: a value is
replaced by one of a few wrong-typed or out-of-range values, a key or list
entry is dropped, or the whole document is wrapped in a list.  Whatever the
mutation, ``cli.main`` must return 0, 1 or 2 and never print a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cocycle_lab.cli import main

#: Enough examples to reach crashes two mutations deep, in a few seconds.
#: A mutation that drops ``count`` runs a suite at its default count (up to
#: about 0.06 s at the default depth on a 2-vCPU host), so the deadline is
#: 5 s: far above any run at a default count on a slow host, but finite, so
#: a mutation that starts an unbounded scan still fails.
FUZZ = settings(max_examples=300, deadline=5000)

REPLACEMENTS = (-1, 0, 2.5, "3", True, None, [], {})

GENERATOR = {
    "bases": [2, 2],
    "depth": 2,
    "group": "int",
    "table": [{"t": "int", "n": 1}, {"t": "int", "n": -1}, {"t": "int", "n": 0}, {"t": "int", "n": 2}],
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
        action = draw(st.sampled_from(("replace", "drop", "wrap")))
        if action == "wrap" or (action == "drop" and not path):
            doc = [doc]
            continue
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


def _run(argv, files) -> int:
    """Run ``main`` on ``argv`` with each named document written to a file
    standing for its name; the exit code must be 0, 1 or 2 with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        argv = [paths.get(arg, arg) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, files)
    assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(
    mutated(GENERATOR),
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
    for command in ("verify", "roundtrip", "happrox"):
        assert _run(["gamma", command, "--input", "family"], {"family": FAMILY}) == 0
    measures = ["cocycle", "density", "--input", "gen", "--measures", "measures"]
    assert _run(measures, {"gen": GENERATOR, "measures": MEASURES}) == 0
    for suite in ("density", "topology", "odometer", "happrox", "gh"):
        assert _run(["run", suite, "--config", "config"], {"config": CONFIG}) == 0
