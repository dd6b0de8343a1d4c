"""metagame-forge benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload is repeated in rounds for about S seconds (see workloads.py).
Every round's outputs are checked (checks.py).  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the line before it holds the environment block and per-round
detail.  With `--trace 0` the metrics are the end-to-end ones, measured with
tracing off; their times are scaled to the machine's reference speed by the
speed probes timed beside them (speed.py), and the raw times are in the
detail line.  With `--trace 1` untraced and traced rounds alternate; the
traced ones (tracing.py) give the per-layer metrics, per round.  Every
round's digest must be the same, and the difference of the median scaled
`wall_s` of traced and untraced rounds is reported as the tracing overhead.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
OUTPUT_SPANS = ("harness.write_metrics", "harness.aggregate_rows",
                "harness.write_summary", "harness.write_plot_data")


def parse_args(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(run_round, seconds: float, min_rounds: int = 1) -> list:
    """Repeat `run_round()` while the next round is expected to end in time,
    and at least `min_rounds` times."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(run_round())
        last = time.perf_counter() - t0
        if (len(results) >= min_rounds
                and time.perf_counter() - start + last > seconds):
            return results


def probe_setup(name: str, seed: int, workdir: Path) -> list:
    """Set-up times, with the speed probes beside each, from SETUP_SAMPLES
    fresh interpreters, one at a time."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name,
           "--seed", str(seed), "--workdir", str(probe_dir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children
    (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Environment block

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path):
    """HEAD of the checkout if it is a git repository, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, jobs: int) -> dict:
    import numpy
    import scipy
    import workloads
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "nproc": workloads.nproc(),
        "jobs": jobs,
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _scaled_wall(r) -> float:
    """A round's wall time at reference speed, by its own probes."""
    return r.wall_s * speed.scale(r.probes)


def end_to_end(rounds: list, setup_samples: list, rss_mb: float) -> dict:
    """Medians of times at reference speed: every round and every set-up
    sample is scaled by the speed probes timed beside it (speed.py)."""
    wall = [_scaled_wall(r) for r in rounds]
    setup = [s["setup_s"] * speed.scale(s["probes"]) for s in setup_samples]
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median(wall), "s"),
        "iters_per_s": (_median([r.iterations / w for r, w in zip(rounds, wall)]), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced: list, untraced: list, jobs: int, build_s: float,
              grid: bool) -> dict:
    """Per-round values of the traced rounds."""
    n = len(traced)
    t = tracer
    fp_calls = t.calls("solvers.fictitious_play")
    updates = t.calls("engine.population_update")
    cell_s = t.durations.get("harness.run_cell", [])
    wall = sum(r.wall_s for r in traced)
    games_s = t.busy("games.build") / n if grid else build_s
    return {
        "solvers.advantage_many.calls": (t.calls("solvers.advantage_many") / n, "count"),
        "solvers.advantage_many.busy_s": (t.busy("solvers.advantage_many") / n, "s"),
        "solvers.advantage_many.rows": (t.counts["advantage_many.rows"] / n, "count"),
        "solvers.advantage_many.gflop_computed":
            (t.counts["advantage_many.flop"] / n / 1e9, "GFLOP"),
        "solvers.advantage_many.mb_computed":
            (t.counts["advantage_many.bytes"] / n / 1e6, "MB"),
        "solvers.ec_of_gram.calls": (t.calls("solvers.ec_of_gram") / n, "count"),
        "solvers.ec_of_gram.busy_s": (t.busy("solvers.ec_of_gram") / n, "s"),
        "solvers.fictitious_play.calls": (fp_calls / n, "count"),
        "solvers.fictitious_play.busy_s": (t.busy("solvers.fictitious_play") / n, "s"),
        "solvers.fictitious_play.iters_mean":
            (t.counts["fictitious_play.iters"] / fp_calls if fp_calls else 0.0, "count"),
        "solvers.fictitious_play.capped_ratio":
            (t.counts["fictitious_play.capped"] / fp_calls if fp_calls else 0.0, "ratio"),
        "solvers.exploitability.busy_s": (t.busy("solvers.exploitability") / n, "s"),
        "engine.run_iteration.busy_s": (t.busy("engine.run_iteration") / n, "s"),
        "engine.run_iteration.self_s": (t.self_time("engine.run_iteration") / n, "s"),
        "engine.refresh_confirming.calls": (t.calls("engine.refresh_confirming") / n, "count"),
        "engine.refresh_confirming.busy_s": (t.busy("engine.refresh_confirming") / n, "s"),
        "engine.refresh_confirming.entries":
            (t.counts["refresh_confirming.entries"] / n, "count"),
        "engine.invalidate.busy_s": (t.busy("engine.invalidate") / n, "s"),
        "engine.build_empirical.busy_s": (t.busy("engine.build_empirical") / n, "s"),
        "engine.meta_nash.busy_s": (t.busy("engine.meta_nash") / n, "s"),
        "engine.population_update.calls": (updates / n, "count"),
        "engine.population_update.busy_s": (t.busy("engine.population_update") / n, "s"),
        "engine.population_update.accept_ratio":
            (t.counts["population_update.accepted"] / updates if updates else 0.0, "ratio"),
        "engine.diversity_argmax.busy_s": (t.busy("engine.diversity_argmax") / n, "s"),
        "engine.lookahead_step.busy_s": (t.busy("engine.lookahead_step") / n, "s"),
        "engine.br_oracle.busy_s": (t.busy("engine.br_oracle") / n, "s"),
        "engine.pop_size_final": (statistics.mean(traced[0].pop_final)
                                  if traced[0].pop_final else 0.0, "count"),
        "harness.run_cell.busy_s_p50": (_median(cell_s), "s"),
        "harness.run_cell.busy_s_p90": (_p90(cell_s), "s"),
        "harness.parallel_eff": (sum(cell_s) / (jobs * wall) if grid else 0.0, "ratio"),
        "harness.output_s": (sum(t.busy(s) for s in OUTPUT_SPANS) / n, "s"),
        "harness.output_bytes": (_median([r.output_bytes for r in traced]), "bytes"),
        "harness.cells_failed": (sum(r.cells_failed for r in traced) / n, "count"),
        "games.build_s": (games_s, "s"),
        "cli.overhead_s":
            ((t.busy("cli.main") - t.busy("harness.run_experiment")) / n, "s"),
        "trace.overhead_s":
            (_median([_scaled_wall(r) for r in traced])
             - _median([_scaled_wall(r) for r in untraced]), "s"),
    }


# ---------------------------------------------------------------------------
# Correctness

def check_rounds(rounds: list, expected_digest) -> tuple:
    """(failed cells, problems).  Every cell of a round that breaks an
    invariant or whose digest differs from the expected one counts as
    failed; without a committed reference the first round sets the digest
    the others must repeat."""
    expected = expected_digest or rounds[0].digest
    failed, problems = 0, []
    for i, r in enumerate(rounds):
        round_problems = list(r.errors)
        if r.digest != expected:
            round_problems.append(f"digest {r.digest[:16]} != expected {expected[:16]}")
        if round_problems:
            failed += r.cells
            problems += [f"round {i}: {p}" for p in round_problems]
        else:
            failed += r.cells_failed
    return failed, problems


def measure(workload, args, root: Path, workdir: Path) -> tuple:
    import checks
    from tracing import Tracer
    reference = checks.reference_digest(checks.load_reference(),
                                        workload.name, args.seed)
    detail = {"workload": workload.name, "trace": args.trace,
              "reference_digest": reference}
    if not args.trace:
        ctx = workload.setup(args.seed, workdir)
        rounds = run_rounds(lambda: workload.run_round(ctx), args.seconds)
        rss = peak_rss_mb()
        setup_samples = probe_setup(workload.name, args.seed, workdir)
        metrics = end_to_end(rounds, setup_samples, rss)
        iter_ms = [ms for r in rounds for ms in r.iter_ms]
        detail.update({"setup_samples_raw_s": [s["setup_s"] for s in setup_samples],
                       "setup_probes_s": [s["probes"] for s in setup_samples],
                       "iter_ms_p50": _median(iter_ms),
                       "iter_ms_p90": _p90(iter_ms),
                       "iterations_timed": len(iter_ms)})
    else:
        spill = workdir / "spans"
        spill.mkdir()
        tracer = Tracer(spill)
        tracer.install()
        ctx = workload.setup(args.seed, workdir)
        build_s = tracer.busy("games.build")
        tracer.uninstall()
        tracer.reset()
        traced_turn = itertools.cycle((False, True))

        def one_round():
            if not next(traced_turn):
                return False, workload.run_round(ctx)
            tracer.install()
            try:
                return True, workload.run_round(ctx)
            finally:
                tracer.uninstall()

        pairs = run_rounds(one_round, args.seconds, min_rounds=2)
        tracer.absorb_spills()
        rounds = [r for _, r in pairs]
        traced = [r for is_traced, r in pairs if is_traced]
        untraced = [r for is_traced, r in pairs if not is_traced]
        metrics = per_layer(tracer, traced, untraced, _effective_jobs(ctx),
                            build_s, workload.grid)
        detail["round_traced"] = [is_traced for is_traced, _ in pairs]
    failed, problems = check_rounds(rounds, reference)
    detail.update({
        "env": environment(root, args.seed, _effective_jobs(ctx)),
        "rounds": len(rounds),
        "round_raw_wall_s": [r.wall_s for r in rounds],
        "round_probe_mean_s": [statistics.fmean(r.probes) for r in rounds],
        "digest": rounds[0].digest,
        "digest_checked_against": "reference" if reference else "first round",
        "problems": problems[:20],
    })
    attempted = sum(r.cells for r in rounds)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def _effective_jobs(ctx) -> int:
    """Pool size of a grid round (the harness lets METAGAME_FORGE_THREADS
    override --jobs); 1 for the directly driven workloads."""
    if not hasattr(ctx, "jobs"):
        return 1
    env = os.environ.get("METAGAME_FORGE_THREADS")
    return max(1, int(env)) if env else ctx.jobs


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "metagame_forge" / "__init__.py").is_file():
        print("error: run from the root of a metagame-forge checkout "
              "(src/metagame_forge not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, detail = measure(workload, args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
