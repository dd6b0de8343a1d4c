"""Record the reference digests that `run.py` compares every round against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py --seeds 0..20

For each workload and seed this runs one round, refuses to record it if an
invariant fails, and writes the digest to perfbench/reference.json, keeping
entries for other seeds.  A change that alters trajectories on purpose must
say so and record the digests again.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0..1", help="half-open range a..b")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    reference = checks.load_reference() if checks.REFERENCE_PATH.exists() else {}
    workdir = root / ".bench_work" / "reference"
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(lo, hi):
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                result = workload.run_round(workload.setup(seed, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.errors or result.cells_failed:
                print(f"{name} seed {seed}: not recorded: {result.errors[:5]}",
                      file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = result.digest
            print(f"{name} seed {seed}: {result.digest}", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
