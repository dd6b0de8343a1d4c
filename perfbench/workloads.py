"""The benchmark's workloads.

A workload seed s derives every input: games use generator seed 7 + s and the
k run seeds of a round are k*s .. k*s + k - 1, so s = 0 reproduces the
shipped configs (game seed 7, run seeds 0...).  One round is a fixed unit of
work; a benchmark run repeats the same round, so per-round counts repeat
exactly and every round's output digest must match.

* grid_zs100      - the fig3 desk grid at dim 100 for one run seed (12 cells,
                    50 iterations), through `cli.main(["run", ...])` with
                    jobs = 1: the only path through cli, harness and the
                    metrics.csv / summary / TSV writers.
* cell_gs1000     - the criterion-8 cell: general-sum(1000), sc_psro,
                    prosocial, lr=1e9, clip_fraction=0.4, 30 iterations,
                    driven through engine.init_state / engine.run_iteration.
                    Large-n candidate scoring dominates it.
* vanilla_elo100  - vanilla_psro on elo(100, noise 1.0), fp_max_iters=50,
                    150 iterations for each of 6 run seeds, driven directly.
                    It never scores candidates.

Set-up (timed separately, as `setup_s`) is package import, config parse,
game generation and, for the direct workloads, `init_state` of the round's
cells.  Every round also times the speed probe (speed.py) between the steps
it times, so that run.py can scale its times to reference speed.  The
program is run in its default environment: nothing here pins BLAS threads.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import speed

GAME_SEED = 7

FIG3_ALGORITHMS = [
    {"name": "sc_psro_no_clipping",
     "overrides": {"lambda_d": 0.2, "im": -0.05, "lr": 0.3, "fp_max_iters": 50}},
    {"name": "vanilla_psro", "overrides": {"fp_max_iters": 50}},
    {"name": "sc_psro_no_lookahead",
     "overrides": {"clipping_enabled": False, "im": -0.05, "lr": 0.3,
                   "fp_max_iters": 50}},
    {"name": "sc_psro_no_diversity",
     "overrides": {"clipping_enabled": False, "im": -0.05, "lr": 0.3,
                   "fp_max_iters": 50}},
]
GRID_GAMES = [
    {"kind": "elo", "dim": 100, "noise": 1.0},
    {"kind": "transitive", "dim": 100},
    {"kind": "symmetric_zero_sum", "dim": 100},
]
GRID_SEEDS_PER_ROUND = 1
# At jobs = nproc on a 2-core machine the pool's 2 workers each run 2 OpenBLAS
# threads, and a round takes 5.3 s or 11.5 s by chance: too unsteady to bound
# (README.md).  jobs = 1 takes execute_grid's pool-free path.
GRID_JOBS = 1
GRID_ITERATIONS = 50


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_seeds(seed: int, per_round: int) -> list:
    return list(range(per_round * seed, per_round * seed + per_round))


@dataclass
class RoundResult:
    wall_s: float            # first call into the program to its last result
    iterations: int          # engine iterations completed (cells x iterations)
    iter_ms: list            # per-iteration times
    cells: int
    cells_failed: int
    digest: str
    errors: list             # invariant violations
    pop_final: list          # final population size per cell and player
    probes: list             # speed probes timed during the round (speed.py)
    output_bytes: int = 0


# ---------------------------------------------------------------------------
# grid_zs100

@dataclass
class GridContext:
    config_path: Path
    out_dir: Path
    jobs: int
    cells: int


def grid_setup(seed: int, workdir: Path) -> GridContext:
    from metagame_forge import harness
    doc = {
        "games": [dict(g, seed=GAME_SEED + seed) for g in GRID_GAMES],
        "algorithms": FIG3_ALGORITHMS,
        "mode": "self_play",
        "seeds": run_seeds(seed, GRID_SEEDS_PER_ROUND),
        "max_iterations": GRID_ITERATIONS,
        "output_dir": str(workdir / "grid_out"),
        "jobs": 1,
    }
    path = workdir / "grid_config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    config = harness.load_experiment(path)
    cells = len(config.games) * len(config.algorithms) * len(config.seeds)
    return GridContext(path, Path(config.output_dir), GRID_JOBS, cells)


def grid_round(ctx: GridContext) -> RoundResult:
    from metagame_forge import cli, harness
    shutil.rmtree(ctx.out_dir, ignore_errors=True)
    # The speed probe runs before every cell, from a wrapper around
    # harness.run_cell (execute_grid looks it up at each call), and after
    # the grid.  The probes' own time is taken out of the round's time.
    probes, probe_s = [], 0.0
    run_cell = harness.run_cell

    def probed_run_cell(*args, **kwargs):
        nonlocal probe_s
        t0 = time.perf_counter()
        probes.append(speed.probe())
        probe_s += time.perf_counter() - t0
        return run_cell(*args, **kwargs)

    harness.run_cell = probed_run_cell
    try:
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", str(ctx.config_path),
                       "--jobs", str(ctx.jobs), "--out", str(ctx.out_dir)])
        wall = time.perf_counter() - t0 - probe_s
    finally:
        harness.run_cell = run_cell
    probes.append(speed.probe())

    header, rows = checks.read_metrics_csv(ctx.out_dir / "metrics.csv")
    errors = checks.metrics_errors(header, rows, harness.METRICS_COLUMNS,
                                   ctx.cells, GRID_ITERATIONS)
    if rc != 0:
        errors.append(f"cli.main returned {rc}")
    if header != harness.METRICS_COLUMNS:
        return RoundResult(wall, 0, [], ctx.cells, ctx.cells, "", errors, [],
                           probes)
    col = {name: j for j, name in enumerate(header)}
    finals = [r for r in rows if int(r[col["iteration"]]) == GRID_ITERATIONS - 1]
    return RoundResult(
        wall_s=wall,
        iterations=len(rows),
        iter_ms=[float(r[col["wall_ms"]]) for r in rows],
        cells=ctx.cells,
        cells_failed=ctx.cells - len(finals),
        digest=checks.metrics_digest(header, rows),
        errors=errors,
        pop_final=[int(r[col[c]]) for r in finals
                   for c in ("pop_size_row", "pop_size_col")],
        probes=probes,
        output_bytes=sum(p.stat().st_size for p in ctx.out_dir.iterdir()),
    )


# ---------------------------------------------------------------------------
# Directly driven cells: cell_gs1000 and vanilla_elo100

@dataclass(frozen=True)
class DirectSpec:
    game: dict
    preset: str
    overrides: dict
    mode: str
    iterations: int
    seeds_per_round: int


@dataclass
class DirectContext:
    spec: DirectSpec
    game: object
    configs: list


def direct_setup(spec: DirectSpec, seed: int, workdir: Path) -> DirectContext:
    from metagame_forge import engine, games, harness
    game = games.GameGenSpec(seed=GAME_SEED + seed, **spec.game).build()
    configs = [harness.make_config(spec.preset, seed=s,
                                   max_iterations=spec.iterations,
                                   **spec.overrides)
               for s in run_seeds(seed, spec.seeds_per_round)]
    for cfg in configs:
        engine.init_state(game, cfg, spec.mode)
    return DirectContext(spec, game, configs)


def direct_round(ctx: DirectContext) -> RoundResult:
    from metagame_forge import engine
    spec = ctx.spec
    cells, iter_ms, failed = [], [], 0
    clock = speed.Clock()
    for cfg in ctx.configs:
        state = engine.init_state(ctx.game, cfg, spec.mode)   # set-up, untimed
        reports = []
        try:
            for _ in range(spec.iterations):
                t0 = time.perf_counter()
                reports.append(engine.run_iteration(state))
                dt = time.perf_counter() - t0
                clock.add(dt)
                iter_ms.append(dt * 1000.0)
        except Exception:   # a failed cell is counted, the round goes on
            failed += 1
            print(f"cell seed {cfg.seed} failed:", file=sys.stderr)
            traceback.print_exc()
        else:
            cells.append(reports)
    clock.close()
    errors = checks.reports_errors(cells, spec.iterations)
    if failed:
        errors.append(f"{failed} cells raised")
    return RoundResult(
        wall_s=clock.raw_s,
        iterations=sum(len(c) for c in cells),
        iter_ms=iter_ms,
        cells=len(ctx.configs),
        cells_failed=failed,
        digest=checks.reports_digest(cells),
        errors=errors,
        pop_final=[n for c in cells for n in c[-1].pop_sizes],
        probes=clock.probes,
    )


CELL_GS1000 = DirectSpec(
    game={"kind": "general_sum_random", "dim": 1000},
    preset="sc_psro", overrides={"lr": 1e9, "clip_fraction": 0.4},
    mode="prosocial", iterations=30, seeds_per_round=1)

VANILLA_ELO100 = DirectSpec(
    game={"kind": "elo", "dim": 100, "noise": 1.0},
    preset="vanilla_psro", overrides={"fp_max_iters": 50},
    mode="self_play", iterations=150, seeds_per_round=6)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object      # (seed, workdir) -> context
    run_round: object  # context -> RoundResult
    grid: bool = False


WORKLOADS = {
    "grid_zs100": Workload("grid_zs100", grid_setup, grid_round, grid=True),
    "cell_gs1000": Workload(
        "cell_gs1000",
        lambda seed, workdir: direct_setup(CELL_GS1000, seed, workdir),
        direct_round),
    "vanilla_elo100": Workload(
        "vanilla_elo100",
        lambda seed, workdir: direct_setup(VANILLA_ELO100, seed, workdir),
        direct_round),
}
