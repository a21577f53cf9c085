"""Record the reference digests that run.py checks every output against.

    python3 perfbench/record_reference.py                  # every workload
    python3 perfbench/record_reference.py --workload topology

For each workload and each input set 0 .. run.INPUT_SETS-1 it runs one
pass and stores the content digest of every operation (content.py) in
reference.json, merged with the workloads already there.  A run with
``--seed s`` uses input set ``s % run.INPUT_SETS``.  Record only from code
whose outputs are known to be right (the references in the repository come
from the seed code); an operation that exits non-zero stops the recording,
because every workload is built so that nothing fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record(package, name: str) -> dict:
    by_seed = {}
    for seed in range(run.INPUT_SETS):
        ops, _ = run.build_inputs(name, seed)
        checker = run.Checker(ops, None)
        _, _, outputs = run.run_pass(package.cli, ops)
        for index, (code, text) in enumerate(outputs):
            if code != 0:
                raise SystemExit(f"error: {name} input set {seed} operation {index} exited {code}")
        by_seed[str(seed)] = [checker.digest(i, *output) for i, output in enumerate(outputs)]
        print(f"{name} input set {seed}: {len(ops)} operations", file=sys.stderr, flush=True)
    return by_seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    package = run.load_package()
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for name in args.workload or run.WORKLOAD_NAMES:
        ref[name] = record(package, name)
        run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
