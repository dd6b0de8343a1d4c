"""Time one workload set-up in a fresh interpreter and print the seconds and
two speed probes (speed.py) timed right after it, as JSON.

The clock starts before the package (and numpy/scipy) is imported, so the
figure covers import, config parse, game generation and, for the directly
driven workloads, `init_state`.  The probes need numpy, so they run after
the set-up, not before it.  `run.py` starts this several times per run and
reports the median, scaled to reference speed, as `setup_s`.

    python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = time.perf_counter()
    import workloads   # imports numpy, through speed.py
    workloads.WORKLOADS[args.workload].setup(args.seed, Path(args.workdir))
    setup_s = time.perf_counter() - t0
    import speed
    print(json.dumps({"setup_s": setup_s,
                      "probes": [speed.probe(), speed.probe()]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
