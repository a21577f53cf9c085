"""End-to-end and per-layer benchmark of the cocycle-lab command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

A single client calls ``cocycle_lab.cli.main(argv)`` in this process on
inputs generated from the seed, and issues the next command only after the
previous one returned (closed loop, one thread).  Each command is one
operation; one pass runs the workload's operation list once, and passes
repeat until ``--seconds`` is used up (at least four, unless four would
take over five times ``--seconds``).  Times are reference
seconds (see ``calibrated``).  Every output is checked against the digest
recorded from the seed code (see content.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one untraced and one traced pass (spans.py, values_loops.py).  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import content

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("density", "orbit-sums", "involution", "topology")

INPUT_SETS = 32  # seeds map onto this many input sets with recorded answers
MIN_PASSES = 4
SETUP_REPEATS = 7
TAIL_BEYOND = 10
CALIBRATION_LOOPS = 60_000
CALIBRATION_REF_S = 0.005

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import cocycle_lab"


def load_package():
    """Import cocycle_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "cocycle_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no cocycle_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cocycle_lab
    import cocycle_lab.cli

    if Path(cocycle_lab.__file__).resolve().parent != (SRC / "cocycle_lab").resolve():
        raise SystemExit(f"error: imported cocycle_lab from {cocycle_lab.__file__}")
    return cocycle_lab


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with TAIL_BEYOND operations beyond it in
    MIN_PASSES passes; fixed per workload so that it names the same
    operation rank whatever the number of passes a run fits in."""
    return int(100 * (1 - TAIL_BEYOND / (ops_per_pass * MIN_PASSES)))


def load_reference(name: str, seed: int):
    """The input set a seed selects, and the digests recorded for it."""
    input_seed = seed % INPUT_SETS
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return ref.get(name, {}).get(str(input_seed)), input_seed


def build_inputs(name: str, input_seed: int):
    import workloads

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.build(name, input_seed, workdir)


def calibrate() -> float:
    """Seconds a fixed pure-Python integer loop takes right now."""
    start = perf_counter()
    acc = 0
    for k in range(CALIBRATION_LOOPS):
        acc += k * k % 7
    return perf_counter() - start


def calibrated(fn, *args):
    """(reference seconds, raw seconds, result) of fn(*args).

    The call is bracketed by two calibration loops, and its raw time is
    scaled by CALIBRATION_REF_S over the faster of the two: the time it
    would take on a machine that runs the loop in exactly CALIBRATION_REF_S.
    On a shared host the interpreter's speed swings by 10-20% from one
    second to the next, and no affordable run length averages that out; the
    scaling cancels the part of the swing that the loop sees as well.  The
    faster loop is used so that a burst hitting only one of them is ignored.
    The loop allocates no container, so it never triggers the cyclic garbage
    collector and cannot absorb a slowdown that the program's heap causes.
    """
    before = calibrate()
    start = perf_counter()
    result = fn(*args)
    raw = perf_counter() - start
    after = calibrate()
    return raw * CALIBRATION_REF_S / min(before, after), raw, result


def setup_once(name: str, input_seed: int):
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, check=True)
    return build_inputs(name, input_seed)


def measure_setup(name: str, input_seed: int):
    """Median over repeats of a fresh-interpreter import plus input generation."""
    runs = [calibrated(setup_once, name, input_seed) for _ in range(SETUP_REPEATS)]
    ops, info = runs[-1][2]
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs),
            ops, info)


def run_op(cli, argv):
    """One closed-loop operation: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Checker:
    """Compares each operation's content digest with the recorded one."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.memo = {}
        self.failed = 0
        self.attempted = 0
        self.messages = []

    def digest(self, index: int, code, text: str) -> str:
        kind = self.ops[index][0]
        key = (kind, code, hashlib.sha256(text.encode()).digest())
        if key not in self.memo:
            self.memo[key] = content.digest(kind, code, text)
        return self.memo[key]

    def check(self, index: int, code, text: str) -> None:
        self.attempted += 1
        got = self.digest(index, code, text)
        want = self.reference[index] if self.reference and index < len(self.reference) else None
        if got != want:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(
                    f"operation {index} ({' '.join(self.ops[index][1][:3])}): exit {code}, "
                    f"content {got}, expected {want}"
                )


def run_pass(cli, ops, checker=None):
    """Run every operation once: (reference latencies, raw latencies, outputs)."""
    timed = [calibrated(run_op, cli, argv) for kind, argv in ops]
    outputs = [result for _, _, result in timed]
    if checker is not None:
        for index, (code, text) in enumerate(outputs):
            checker.check(index, code, text)
    return [t[0] for t in timed], [t[1] for t in timed], outputs


def coboundary_share(ops, outputs):
    decisions = []
    for (kind, _), (_, text) in zip(ops, outputs):
        decisions += content.coboundary_decisions(kind, text)
    return (sum(decisions) / len(decisions), len(decisions)) if decisions else (None, 0)


def describe(name, seed, input_seed, info, ops, outputs):
    share, count = coboundary_share(ops, outputs)
    groups = ", ".join(info["groups"])
    sizes = ", ".join(f"2^{n.bit_length() - 1}" for n in info["N"])
    line = (f"# workload {name}, seed {seed} (input set {input_seed}): {len(ops)} operations "
            f"per pass; N = {sizes}; groups {groups}")
    if count:
        line += f"; coboundary share of gh inputs {share:.3f} ({count} inputs)"
    print(line)


def result_line(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_workload(package, name: str, seed: int, seconds: float) -> int:
    reference, input_seed = load_reference(name, seed)
    setup_s, setup_raw, ops, info = measure_setup(name, input_seed)
    checker = Checker(ops, reference)
    walls, raw_walls, latencies, raw_latencies, outputs = [], [], [], [], None
    start = perf_counter()
    while True:
        lat, raw, outputs = run_pass(package.cli, ops, checker)
        walls.append(sum(lat))
        raw_walls.append(sum(raw))
        latencies += lat
        raw_latencies += raw
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (1 + 1 / len(walls)) > seconds:
            break
        if elapsed > 5 * seconds:
            break
    q = tail_percentile(len(ops))

    def tail(values):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    describe(name, seed, input_seed, info, ops, outputs)
    beyond = sum(1 for t in latencies if t > metrics["op_tail_s"])
    notes = {
        "wall_s": f"median of {len(walls)} passes; raw {statistics.median(raw_walls):.6f} s",
        "op_p50_s": f"median of {len(latencies)} operations; raw "
                    f"{statistics.median(raw_latencies):.6f} s",
        "op_tail_s": f"p{q} of {len(latencies)} operations, {beyond} beyond; raw "
                     f"{tail(raw_latencies):.6f} s",
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {setup_raw:.6f} s",
        "peak_rss_mb": "peak resident set of this process",
    }
    print(f"# times in reference seconds (calibration loop = {CALIBRATION_REF_S} s)")
    for key, value in metrics.items():
        print(f"{key:<14} {value:12.6f} {END_TO_END[key]:<5} {notes[key]}")
    ratio = checker.failed / checker.attempted
    print(f"{'failed_ratio':<14} {ratio:12.6f} {'1':<5} "
          f"{checker.failed} of {checker.attempted} operations")
    for message in checker.messages:
        print(f"# mismatch: {message}")
    result_line(checker.failed == 0, checker.attempted, checker.failed, metrics, END_TO_END)
    return 0


def run_traced(package, name: str, seed: int) -> int:
    import spans
    import values_loops

    reference, input_seed = load_reference(name, seed)
    ops, info = build_inputs(name, input_seed)
    checker = Checker(ops, reference)
    cli = package.cli
    _, untraced_raw, untraced = run_pass(cli, ops, checker)
    recorder = spans.Recorder()
    restore = spans.instrument(package, recorder)
    try:
        _, traced_raw, traced = run_pass(cli, ops, checker)
    finally:
        restore()
    differ = [i for i, (a, b) in enumerate(zip(untraced, traced)) if a != b]
    recorder.write_jsonl(WORK / f"{name}-spans.jsonl")
    metrics, units = layer_metrics(spans.summarize(recorder), sum(untraced_raw), sum(traced_raw))
    values_ns = values_loops.measure(package.values, random.Random(f"values:{input_seed}"))
    for key, value in values_ns.items():
        metrics[key], units[key] = value, "ns"
    describe(name, seed, input_seed, info, ops, untraced)
    print(f"# {len(recorder.spans)} spans in {WORK / f'{name}-spans.jsonl'}; values loops "
          f"time {values_loops.CALLS} calls, median of {values_loops.REPEATS} repeats")
    for key in sorted(metrics):
        print(f"{key:<48} {metrics[key]:16.6f} {units[key]}")
    for message in checker.messages:
        print(f"# mismatch: {message}")
    if differ:
        print(f"# traced output differs from untraced output in operations {differ}")
    failed = checker.failed + len(differ)
    result_line(failed == 0, checker.attempted, failed, metrics, units)
    return 0


LAYER_FIELDS = (
    ("space.cylinder_function", ("calls", "busy_s", "entries")),
    ("space.tau3", ("calls", "busy_s", "self_s")),
    ("space.mass", ("calls", "busy_s", "distinct")),
    ("space.tau4", ("calls", "busy_s")),
    ("space.measure_of_cylinder_set", ("calls", "busy_s")),
    ("dynamics.towers_from_marker", ("calls", "busy_s")),
    ("dynamics.periodic_approx", ("calls", "busy_s")),
    ("zcocycles.density_table", ("calls", "busy_s", "self_s")),
    ("zcocycles.density_sequence", ("calls", "busy_s", "self_s")),
    ("zcocycles.periodic_coboundary", ("calls", "busy_s")),
    ("zcocycles.coboundary_solve", ("calls", "busy_s")),
    ("zcocycles.gh_check", ("calls", "busy_s", "self_s", "pairs")),
    ("involution_cocycles.generator_family", ("calls", "busy_s")),
    ("involution_cocycles.verify_identities", ("calls", "busy_s")),
    ("involution_cocycles.recover_generators", ("calls", "busy_s")),
    ("involution_cocycles.h_approximate", ("calls", "busy_s")),
    ("suites.render", ("calls", "busy_s", "bytes")),
)


def layer_metrics(summary, untraced_wall, traced_wall):
    names, layers = summary["names"], summary["layers"]
    metrics, units = {}, {}

    def put(key, value, unit):
        metrics[key], units[key] = value, unit

    for name, fields in LAYER_FIELDS:
        stat = names.get(name, {})
        for field in fields:
            put(f"{name}.{field}", stat.get(field, 0), "s" if field.endswith("_s") else "count")
    mass = names["space.mass"]
    put("space.mass.repeat_ratio", mass["calls"] / mass["distinct"] if mass["distinct"] else 0, "1")
    put("suites.self_s", names.get("suites.run", {}).get("self_s", 0), "s")
    put("sampling.busy_s", layers.get("sampling", {}).get("busy_s", 0), "s")
    put("cli.self_s", names.get("cli.main", {}).get("self_s", 0), "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_ratio", traced_wall / untraced_wall, "1")
    return metrics, units


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one table of the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = list(END_TO_END) + ["failed_ratio"]
    print(f"{'workload':<12}" + "".join(f"{k:>16}" for k in keys))
    print(f"{'(unit)':<12}" + "".join(f"{u:>16}" for u in list(END_TO_END.values()) + ["1"]))
    metrics, units = {}, {}
    for name, res in results.items():
        row = [res["metrics"][k]["value"] for k in END_TO_END] + [res["failed"] / res["attempted"]]
        print(f"{name:<12}" + "".join(f"{v:16.6f}" for v in row))
        for key in END_TO_END:
            metrics[f"{name}.{key}"] = res["metrics"][key]["value"]
            units[f"{name}.{key}"] = END_TO_END[key]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    result_line(all(r["correct"] for r in results.values()), attempted, failed, metrics, units)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")
    package = load_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        return run_traced(package, args.workload, args.seed)
    return run_workload(package, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
