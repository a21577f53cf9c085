"""Command-line driver ``cocycle-lab``.

Subcommands:

* ``run <suite>``        -- density | topology | odometer | happrox | gh
* ``cocycle eval``       -- evaluate a cocycle a(j, x) from a generator table
* ``cocycle solve``      -- decide the coboundary equation, emit a certificate
* ``cocycle density``    -- per-n approximant table (n, tau3)
* ``cocycle gh``         -- bounded-orbit-sums report
* ``gamma verify``       -- defining identities of a generator family
* ``gamma roundtrip``    -- recovery of a family from its own cocycle
* ``gamma happrox``      -- dyadic-valued cohomologous cocycle

Each subcommand declares only the flags it reads and names its handler;
only ``run`` and ``cocycle density`` take ``--format``.  JSON output is
``json.dumps(obj, indent=2)`` byte for byte, plus a newline, written by
``suites.render_json``.

Exit codes: 0 when every assertion passes, 1 on an assertion failure (the
witness is printed; a failed kernel self-check prints ``error:`` and its
message, as happrox does when the tables of its one walk of the rounding
error differ from the coboundary of that walk's potential; a recovery
that fails in ``gamma roundtrip`` prints ``{"ok": false}`` and, on
stderr, ``error:`` and its message), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .dynamics import MarkerSequence, Odometer
from .involution_cocycles import (
    GeneratorFamily,
    InvolutionCocycle,
    h_approximate,
    verify_identities,
)
from .space import (
    BernoulliMeasure,
    CylinderFunction,
    binary_bases,
    measure_from_json,
)
from .suites import (
    CONFIG_FIELDS,
    ExperimentConfig,
    UsageError,
    _round_trip,
    render_json,
    run as run_suite,
)
from .values import NeighborhoodChain, UnsupportedValueError, _require_object, as_fraction
from .zcocycles import ZCocycle, _horizon, coboundary_solve, density_table, gh_check


def _message(exc: Exception) -> str:
    """An error's text, naming a missing key and the interpreter's int digit
    limit (kept: past it int <-> text is quadratic) in the CLI's words."""
    if isinstance(exc, KeyError) and exc.args:
        return f"missing key {exc.args[0]!r}"
    if "integer string conversion" not in str(exc):
        return str(exc)
    limit = sys.get_int_max_str_digits()
    return f"an exact value exceeds the interpreter's {limit}-digit limit for an integer's text"


def _decode(path: str, parse):
    """``parse`` of a UTF-8 JSON input file; malformed content, text that is
    not UTF-8 and nesting too deep for the interpreter's recursion limit
    included, is a usage error naming the file (an unreadable file stays an
    OSError)."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError as exc:
        raise UsageError(f"{path}: JSON nested deeper than the interpreter allows") from exc
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: {_message(exc)}") from exc


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers of a flag's text."""
    try:
        return tuple(int(d) for d in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _flag(parse, value, flag: str):
    """``parse(value)`` for a flag's value; a refusal names the flag."""
    try:
        return parse(value)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _flag_bases(args) -> tuple[int, ...] | None:
    """The model named by --bases or else --depth; None when neither is given
    (an empty --bases is given, and refused)."""
    if args.bases is not None:
        return _int_list(args.bases, "--bases")
    if args.depth is not None:
        return binary_bases(args.depth)
    return None


def _model_bases(args, function_bases) -> tuple[int, ...]:
    bases = _flag_bases(args)
    if bases is None:
        return tuple(function_bases)
    if bases[: len(function_bases)] != tuple(function_bases):
        raise UsageError(
            f"model bases {bases} do not extend the table's bases {function_bases}"
        )
    return bases


def _check_counts(args) -> None:
    """Reject a zero or negative --depth, --n-max or --count up front."""
    for name in ("depth", "n_max", "count"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be >= 1, got {value}")


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    _emit(render_json(obj) + "\n", args)


def _config_object(obj) -> dict:
    """A copy of a config file's JSON object; any other JSON value is refused."""
    _require_object(obj, "a config")
    return {**obj}


def _cmd_run(args) -> int:
    obj = _decode(args.config, _config_object) if args.config else {}
    flags = {key: getattr(args, key) for key in CONFIG_FIELDS if key != "bases"}
    flags = {key: value for key, value in flags.items() if value is not None}
    obj.update(flags)
    bases = _flag_bases(args)
    if bases is not None:  # a model flag replaces the file's model
        obj.pop("depth", None)
        obj["bases"] = bases
    try:
        config = ExperimentConfig.from_json(obj)
    except UsageError:  # name a flag that is refused alone (_flag_bases checked the model's)
        for key, value in flags.items():
            flag = "--" + key.replace("_", "-")
            if key in ("eps0", "epsilon_max"):  # named by the flag, not by the config key
                _flag(as_fraction, value, flag)
            ExperimentConfig.from_json({key: value}, flag)
        raise
    report = run_suite(config, args.suite)
    _emit(report.render(args.format), args)
    for failure in report.failures()[:5]:
        print(f"FAIL {failure['name']}: {failure['witness']}", file=sys.stderr)
    return 0 if report.passed else 1


def _load_cocycle(args) -> ZCocycle:
    f = _decode(args.input, CylinderFunction.from_json)
    model = Odometer(_model_bases(args, f.bases))
    return ZCocycle(model, f)


def _cmd_eval(args) -> int:
    a = _load_cocycle(args)
    x = _int_list(args.x, "--x")
    _emit_json({"j": args.j, "x": list(x), "value": a.evaluate(args.j, x).to_json()}, args)
    return 0


def _cmd_solve(args) -> int:
    a = _load_cocycle(args)
    certificate = coboundary_solve(a)
    out = {"coboundary": certificate is not None, "cycle_sum": a.cycle_sum.to_json()}
    if certificate is not None:
        out["certificate"] = certificate.to_json()
    _emit_json(out, args)
    return 0


def _measures(obj) -> list:
    if not (isinstance(obj, list) and obj and all(isinstance(m, dict) for m in obj)):
        raise ValueError("--measures needs a non-empty JSON list of measure records")
    return [measure_from_json(m) for m in obj]


def _cmd_density(args) -> int:
    a = _load_cocycle(args)
    markers = MarkerSequence(a.model)
    n_max = args.n_max if args.n_max is not None else markers.max_index
    if n_max > markers.max_index:
        if markers.max_index < 1:
            raise UsageError(f"the density rows need depth >= 2, got depth {a.model.depth}")
        raise UsageError(f"--n-max must lie in 1..{markers.max_index}, got {n_max}")
    measures = [BernoulliMeasure.uniform(a.model.bases)]
    if args.measures:
        measures = _decode(args.measures, _measures)
    rows = density_table(a, markers, n_max, measures)
    if args.format == "json":
        _emit_json([{k: str(v) for k, v in row.items()} for row in rows], args)
    else:
        _emit("n,tau3\n" + "".join(f"{row['n']},{row['tau3_0']}\n" for row in rows), args)
    return 0


def _cmd_gh(args) -> int:
    a = _load_cocycle(args)
    # the report prints the cycle sum: one past the int digit limit is
    # refused (int-to-text's ValueError) before the scan, not after it
    render_json(a.cycle_sum.to_json())
    _flag(lambda horizon: _horizon(horizon, 0), args.horizon, "--horizon")
    _emit_json(gh_check(a, horizon=args.horizon).to_json(), args)
    return 0


def _cmd_verify(args) -> int:
    family = _decode(args.input, GeneratorFamily.from_json)
    check = verify_identities(InvolutionCocycle(family))
    _emit_json({"ok": check.ok, "witness": None if check.ok else str(check.witness)}, args)
    return 0 if check.ok else 1


def _cmd_roundtrip(args) -> int:
    family = _decode(args.input, GeneratorFamily.from_json)
    ok, error = _round_trip(InvolutionCocycle(family))
    _emit_json({"ok": ok}, args)
    if error:
        print(f"error: {error}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_happrox(args) -> int:
    family = _decode(args.input, GeneratorFamily.from_json)
    chain = _flag(NeighborhoodChain, args.eps0, "--eps0")
    try:
        result = h_approximate(family, chain)
    except UnsupportedValueError as exc:  # a family outside Q
        raise UsageError(str(exc)) from exc
    _emit_json(result.to_json(), args)
    return 0


def _command(sub, name: str, handler, help: str, input_help: str | None = None):
    """A subcommand that runs ``handler``; with ``input_help`` it reads an
    --input file."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler, usage_error=parser.error)
    if input_help:
        parser.add_argument("--input", required=True, help=input_help)
    parser.add_argument("--out", help="write the result to this path")
    return parser


def _cocycle_command(sub, name: str, handler, help: str):
    parser = _command(sub, name, handler, help, "generator table JSON")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--bases", help="comma-separated base vector, e.g. 2,2,2")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="exact cocycle and coboundary computations on finite odometer quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = _command(sub, "run", _cmd_run, "run a named experiment suite")
    runp.add_argument("suite")
    runp.add_argument("--config", help="JSON config file")
    runp.add_argument("--depth", type=int)
    runp.add_argument("--bases", help="comma-separated base vector, e.g. 2,2,2")
    runp.add_argument(
        "--group",
        help="value group tag (int, rat, dy, mod:m, vec:d, or real: inexact floats)",
    )
    runp.add_argument("--seed", type=int)
    runp.add_argument("--eps0", help="base radius for the neighborhood chain")
    runp.add_argument("--horizon", type=int)
    runp.add_argument("--count", type=int, help="number of sampled instances")
    runp.add_argument("--n-max", type=int, dest="n_max")
    runp.add_argument("--epsilon-max", dest="epsilon_max")
    runp.add_argument("--format", choices=("csv", "json"), default="json", help="report format")

    csub = sub.add_parser("cocycle", help="operations on odometer cocycles").add_subparsers(
        dest="subcommand", required=True
    )
    evalp = _cocycle_command(csub, "eval", _cmd_eval, "evaluate a(j, x)")
    evalp.add_argument("--j", type=int, required=True)
    evalp.add_argument("--x", required=True, help="comma-separated digits, x_1 first")
    _cocycle_command(csub, "solve", _cmd_solve, "decide the coboundary equation")
    densp = _cocycle_command(csub, "density", _cmd_density, "coboundary approximant table")
    densp.add_argument("--n-max", type=int, dest="n_max")
    densp.add_argument("--measures")
    densp.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    ghp = _cocycle_command(csub, "gh", _cmd_gh, "bounded two-sided orbit sums report")
    ghp.add_argument("--horizon", type=int)

    gsub = sub.add_parser("gamma", help="operations on involution-group cocycles").add_subparsers(
        dest="subcommand", required=True
    )
    family = "generator family JSON"
    _command(gsub, "verify", _cmd_verify, "check the defining identities", family)
    _command(gsub, "roundtrip", _cmd_roundtrip, "recover a family from its cocycle", family)
    hap = _command(gsub, "happrox", _cmd_happrox, "dyadic-valued cohomologous cocycle", family)
    hap.add_argument("--eps0", default="1/4")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # refused under the usage of the parser that met the first of them
            before = set(argv[: argv.index(args.command)])  # words the root parser met
            error = parser.error if before & set(unknown) else args.usage_error
            error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:  # --help exits 0, a refused flag 2, each with argparse's text
        return exc.code
    try:
        _check_counts(args)
        return args.handler(args)
    except (OSError, KeyError, ValueError) as exc:  # UsageError is a ValueError
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a kernel self-check failed; the message is the witness
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
