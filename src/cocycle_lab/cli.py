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

Exit codes: 0 when every assertion passes, 1 on an assertion failure (the
witness is printed), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dynamics import MarkerSequence, Odometer
from .involution_cocycles import (
    GeneratorFamily,
    InvolutionCocycle,
    h_approximate,
    recover_generators,
    verify_identities,
)
from .space import BernoulliMeasure, CylinderFunction, measure_from_json
from .suites import ExperimentConfig, Report, UsageError, run as run_suite
from .values import NeighborhoodChain, UnsupportedValueError, as_fraction
from .zcocycles import ZCocycle, coboundary_solve, density_table, gh_check


def _decode(path: str, parse):
    """``parse`` of a JSON input file; malformed content is a usage error
    naming the file (an unreadable file stays an OSError)."""
    text = Path(path).read_text()
    try:
        return parse(json.loads(text))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_prefix(text: str) -> tuple[int, ...]:
    return tuple(int(d) for d in text.replace(" ", "").split(","))


def _model_bases(args, function_bases) -> tuple[int, ...]:
    if getattr(args, "bases", None):
        bases = tuple(int(b) for b in args.bases.split(","))
    elif getattr(args, "depth", None) is not None:
        bases = (2,) * args.depth
    else:
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
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: Report, args) -> int:
    _emit(report.render(getattr(args, "format", "json") or "json"), args)
    if not report.passed:
        for failure in report.failures()[:5]:
            print(
                f"FAIL {failure['name']}: {failure['witness']}",
                file=sys.stderr,
            )
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the result to this path")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="exact cocycle and coboundary computations on finite odometer quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a named experiment suite")
    runp.add_argument("suite")
    runp.add_argument("--config", help="JSON config file")
    runp.add_argument("--depth", type=int)
    runp.add_argument("--bases", help="comma-separated base vector, e.g. 2,2,2")
    runp.add_argument("--group", help="value group tag (int, rat, dy, mod:m, vec:d)")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--eps0", help="base radius for the neighborhood chain")
    runp.add_argument("--horizon", type=int)
    runp.add_argument("--count", type=int, help="number of sampled instances")
    runp.add_argument("--n-max", type=int, dest="n_max")
    runp.add_argument("--epsilon-max", dest="epsilon_max")
    _add_common(runp)

    coc = sub.add_parser("cocycle", help="operations on odometer cocycles")
    csub = coc.add_subparsers(dest="subcommand", required=True)

    evalp = csub.add_parser("eval", help="evaluate a(j, x)")
    evalp.add_argument("--input", required=True, help="generator table JSON")
    evalp.add_argument("--j", type=int, required=True)
    evalp.add_argument("--x", required=True, help="comma-separated digits, x_1 first")
    evalp.add_argument("--depth", type=int)
    evalp.add_argument("--bases")
    _add_common(evalp)

    solvep = csub.add_parser("solve", help="decide the coboundary equation")
    solvep.add_argument("--input", required=True)
    solvep.add_argument("--depth", type=int)
    solvep.add_argument("--bases")
    _add_common(solvep)

    densp = csub.add_parser("density", help="coboundary approximant table")
    densp.add_argument("--input", required=True)
    densp.add_argument("--n-max", type=int, dest="n_max")
    densp.add_argument("--measures")
    densp.add_argument("--depth", type=int)
    densp.add_argument("--bases")
    _add_common(densp)

    ghp = csub.add_parser("gh", help="bounded two-sided orbit sums report")
    ghp.add_argument("--input", required=True)
    ghp.add_argument("--horizon", type=int)
    ghp.add_argument("--depth", type=int)
    ghp.add_argument("--bases")
    _add_common(ghp)

    gam = sub.add_parser("gamma", help="operations on involution-group cocycles")
    gsub = gam.add_subparsers(dest="subcommand", required=True)

    verp = gsub.add_parser("verify", help="check the defining identities")
    verp.add_argument("--input", required=True, help="generator family JSON")
    _add_common(verp)

    rtp = gsub.add_parser("roundtrip", help="recover a family from its cocycle")
    rtp.add_argument("--input", required=True)
    _add_common(rtp)

    hap = gsub.add_parser("happrox", help="dyadic-valued cohomologous cocycle")
    hap.add_argument("--input", required=True)
    hap.add_argument("--eps0", default="1/4")
    _add_common(hap)

    return parser


def _cmd_run(args) -> int:
    # a config file must hold a JSON object; {**x} is a TypeError otherwise
    obj = _decode(args.config, lambda x: {**x}) if args.config else {}
    for key in ("group", "seed", "horizon", "count", "n_max", "eps0", "epsilon_max"):
        value = getattr(args, key, None)
        if value is not None:
            obj[key] = value
    if args.bases:
        obj["bases"] = [int(b) for b in args.bases.split(",")]
    elif args.depth is not None:
        obj["depth"] = args.depth
    config = ExperimentConfig.from_json(obj)
    report = run_suite(config, args.suite)
    return _emit_report(report, args)


def _load_cocycle(args) -> ZCocycle:
    f = _decode(args.input, CylinderFunction.from_json)
    model = Odometer(_model_bases(args, f.bases))
    return ZCocycle(model, f)


def _cmd_cocycle(args) -> int:
    if args.subcommand == "eval":
        a = _load_cocycle(args)
        value = a.evaluate(args.j, _parse_prefix(args.x))
        _emit(json.dumps({"j": args.j, "x": list(_parse_prefix(args.x)), "value": value.to_json()}, indent=2) + "\n", args)
        return 0
    if args.subcommand == "solve":
        a = _load_cocycle(args)
        certificate = coboundary_solve(a)
        out = {
            "coboundary": certificate is not None,
            "cycle_sum": a.cycle_sum.to_json(),
        }
        if certificate is not None:
            out["certificate"] = certificate.to_json()
        _emit(json.dumps(out, indent=2) + "\n", args)
        return 0
    if args.subcommand == "density":
        a = _load_cocycle(args)
        markers = MarkerSequence(a.model)
        n_max = args.n_max if args.n_max is not None else markers.max_index
        if n_max > markers.max_index:
            raise UsageError(f"--n-max must lie in 1..{markers.max_index}, got {n_max}")
        measures = (
            _decode(args.measures, lambda ms: [measure_from_json(m) for m in ms])
            if args.measures
            else [BernoulliMeasure.uniform(a.model.bases)]
        )
        rows = density_table(a, markers, n_max, measures)
        if (args.format or "csv") == "csv":
            lines = ["n,tau3"]
            for row in rows:
                lines.append(f"{row['n']},{row['tau3_0']}")
            _emit("\n".join(lines) + "\n", args)
        else:
            _emit(
                json.dumps(
                    [
                        {k: str(v) for k, v in row.items()}
                        for row in rows
                    ],
                    indent=2,
                )
                + "\n",
                args,
            )
        return 0
    if args.subcommand == "gh":
        a = _load_cocycle(args)
        report = gh_check(a, horizon=args.horizon)
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args)
        return 0
    raise UsageError(f"unknown cocycle subcommand {args.subcommand!r}")


def _cmd_gamma(args) -> int:
    family = _decode(args.input, GeneratorFamily.from_json)
    if args.subcommand == "verify":
        check = verify_identities(InvolutionCocycle(family))
        _emit(
            json.dumps(
                {"ok": check.ok, "witness": None if check.ok else str(check.witness)},
                indent=2,
            )
            + "\n",
            args,
        )
        return 0 if check.ok else 1
    if args.subcommand == "roundtrip":
        cocycle = InvolutionCocycle(family)
        recovered = recover_generators(cocycle, family.count, family.bases, family.group)
        ok = recovered.tables == family.tables
        _emit(json.dumps({"ok": ok}, indent=2) + "\n", args)
        return 0 if ok else 1
    if args.subcommand == "happrox":
        chain = NeighborhoodChain(as_fraction(args.eps0))
        try:
            result = h_approximate(family, chain, verify=True)
        except UnsupportedValueError as exc:  # a family outside Q
            raise UsageError(str(exc)) from exc
        _emit(json.dumps(result.to_json(), indent=2) + "\n", args)
        return 0
    raise UsageError(f"unknown gamma subcommand {args.subcommand!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cocycle":
            return _cmd_cocycle(args)
        if args.command == "gamma":
            return _cmd_gamma(args)
    except (OSError, KeyError, ValueError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
