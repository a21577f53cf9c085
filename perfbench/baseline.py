"""Measure a baseline: several seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 0] [--seconds 20] [--out FILE]

Every run is a fresh ``run.py`` process; seeds are the outer loop, so each
workload's runs spread over the whole measurement.
For each workload and end-to-end metric it prints the median and the spread
(the distance between the first and third quartile of
``statistics.quantiles(values, n=4)``, as a share of the median) next to
the metric's bound in BENCHMARK.json, then checks the workload design
against the traced runs: which layers must stay silent on which workload,
that gh_check covers most of orbit-sums, and that the measure masses are
reused more on density than on topology.  With ``--out`` it writes all of
it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

SILENT = {
    "density": ("zcocycles.gh_check.calls", "involution_cocycles.generator_family.calls",
                "involution_cocycles.verify_identities.calls",
                "involution_cocycles.recover_generators.calls",
                "involution_cocycles.h_approximate.calls"),
    "orbit-sums": ("space.mass.calls", "dynamics.towers_from_marker.calls",
                   "dynamics.periodic_approx.calls"),
    "involution": ("space.mass.calls", "dynamics.towers_from_marker.calls",
                   "dynamics.periodic_approx.calls"),
}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def design_checks(traced: dict) -> dict:
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    checks = {}
    for workload, names in SILENT.items():
        for name in names:
            checks[f"{workload}: {name} == 0"] = value(workload, name) == 0
    share = value("orbit-sums", "zcocycles.gh_check.busy_s") / value("orbit-sums", "trace.wall_s")
    checks[f"orbit-sums: gh_check share of traced wall {share:.2f} > 0.5"] = share > 0.5
    dens = value("density", "space.mass.repeat_ratio")
    topo = value("topology", "space.mass.repeat_ratio")
    checks[f"mass repeat ratio density {dens:.2f} > topology {topo:.2f}"] = dens > topo
    return checks


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_one(workload, seed, args.seconds, 0))
    traced = {w: run_one(w, args.first_seed, args.seconds, 1) for w in workloads}
    summary = {}
    for workload in workloads:
        results = runs[workload]
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in results) + traced[workload]["attempted"],
            "failed": sum(r["failed"] for r in results) + traced[workload]["failed"],
            "metrics": {m: spread([r["metrics"][m]["value"] for r in results]) for m in bounds},
            "traced": {k: v["value"] for k, v in traced[workload]["metrics"].items()},
        }
        print(f"{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} operations failed")
        for metric, stat in summary[workload]["metrics"].items():
            flag = "" if stat["spread"] <= bounds[metric] / 3 else "  (above a third of the bound)"
            print(f"  {metric:<12} median {stat['median']:.6f}  spread {stat['spread']:.3f}"
                  f"  bound {bounds[metric]}{flag}")
    checks = design_checks(traced)
    for text, ok in checks.items():
        print(f"design {'ok  ' if ok else 'FAIL'} {text}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"{platform.system()} {platform.release()}",
            "seeds": list(seeds),
            "run_seconds": args.seconds,
            "workloads": summary,
            "design_checks": checks,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
