"""Experiment harness: preset algorithm configs, (algorithm x game x seed)
grids, per-iteration CSV metrics, cross-seed aggregation, and plot-ready TSV
emission.  Outputs are deterministic: rows are sorted before writing and the
wall-clock column is the only thing that varies between reruns.
"""
from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import logging
import os
import traceback
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .engine import MODES, AlgorithmConfig, run
from .games import BimatrixGame, GameError, GameGenSpec, check_value, load_game

# Failed cells' tracebacks; with no handler configured, they go to stderr.
logger = logging.getLogger(__name__)

METRICS_COLUMNS = [
    "run_id", "algorithm", "game", "seed", "iteration", "exploitability",
    "reward_row", "reward_col", "joint_reward", "pop_size_row", "pop_size_col",
    "clipped_row", "clipped_col", "wall_ms",
]

PLOT_METRICS = ("exploitability", "reward_row", "reward_col", "joint_reward")

# Ablations toggle exactly one lever of the full algorithm.
PRESETS = {
    "vanilla_psro": {"variant": "vanilla_psro"},
    "diversity_psro": {"variant": "diversity_psro", "lambda_1": 0.0},
    "sc_psro": {"variant": "sc_psro"},
    "sc_psro_no_diversity": {"variant": "sc_psro", "lambda_d": 0.0},
    "sc_psro_no_lookahead": {"variant": "sc_psro", "lambda_d": 1.0},
    "sc_psro_no_clipping": {"variant": "sc_psro", "clipping_enabled": False},
}


def make_config(preset: str, **overrides) -> AlgorithmConfig:
    if not isinstance(preset, str) or preset not in PRESETS:
        raise GameError(f"unknown algorithm preset {preset!r}")
    unknown = sorted(set(overrides) - {f.name for f in fields(AlgorithmConfig)})
    if unknown:
        raise GameError(f"unknown algorithm field {unknown[0]!r}")
    if "variant" in overrides:
        raise GameError(f"{preset}: 'variant' is set by the preset name")
    values = dict(PRESETS[preset])
    values.update(overrides)
    cfg = AlgorithmConfig(**values)
    cfg.validate()   # float fields as floats: numpy takes no int past int64
    return replace(cfg, **{f.name: float(getattr(cfg, f.name))
                           for f in fields(cfg) if f.type == "float"})


@dataclass
class ExperimentConfig:
    games: list                      # list of GameGenSpec or file-path strings
    algorithms: list                 # list of (preset-name, overrides-dict)
    mode: str = "self_play"
    seeds: list = field(default_factory=list)
    max_iterations: int = 50
    output_dir: str = "out"
    jobs: int = 1

    def validate(self) -> None:
        if not self.games or not self.algorithms or not self.seeds:
            raise GameError("games, algorithms and seeds must be nonempty")
        for name, value in (("max_iterations", self.max_iterations),
                            ("jobs", self.jobs), *(("seed", s) for s in self.seeds)):
            check_value(name, value, "int")
        if not 1 <= self.max_iterations <= 100_000 or self.jobs < 1 or min(self.seeds) < 0:
            raise GameError("max_iterations must be in [1, 100000], jobs >= 1, seeds >= 0")
        if self.mode not in MODES:
            raise GameError(f"unknown mode {self.mode!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)) or self.output_dir == "":
            raise GameError(f"output_dir must be a nonempty path, got {self.output_dir!r}")
        for game in self.games:
            if not isinstance(game, str):
                game.validate()
        for name, overrides in self.algorithms:
            if {"seed", "max_iterations"} & set(overrides):
                raise GameError(f"{name}: 'seed' and 'max_iterations' are set "
                                "by the grid, not per algorithm")
            make_config(name, **overrides)
        # Rows and summaries are keyed by these, so a repeat would merge runs.
        for what, keys in (("seed", self.seeds),
                           ("algorithm", [name for name, _ in self.algorithms]),
                           ("game", [_game_key(g) for g in self.games])):
            twice = [key for key, count in Counter(keys).items() if count > 1]
            if twice:
                raise GameError(f"{what} {twice[0]!r} appears twice in the grid")


def seed_range(start: int, stop: int) -> list:
    """The seeds of the half-open range [start, stop)."""
    check_value("seeds start", start, "int")
    check_value("seeds stop", stop, "int")
    if stop - start > 100_000:   # a typo, too long to build
        raise GameError(f"seed range of {stop - start} exceeds 100000")
    return list(range(start, stop))


def algorithm_entry(name, overrides=()) -> tuple:
    """An algorithm of the grid: (preset name, overrides dict)."""
    return name, dict(overrides)


def parse_experiment(doc: dict, **overrides) -> ExperimentConfig:
    """The grid ``doc`` describes, updated by ``overrides``; no game file is
    read.  Each object in it holds only keyword arguments of what it builds:
    `ExperimentConfig` (whose defaults fill the rest), `GameGenSpec`,
    `algorithm_entry` or `seed_range`."""
    try:
        doc = {**doc, **overrides}
        for key, kinds, what in (("games", list, "a list"), ("algorithms", list, "a list"),
                                 ("seeds", (list, dict), "a list or {start, stop}")):
            if not isinstance(doc[key], kinds):   # a string iterates by character
                raise GameError(f"{key} must be {what}, got {doc[key]!r}")
        cfg = ExperimentConfig(**{
            **doc,
            "games": [g if isinstance(g, str) else GameGenSpec(**g)
                      for g in doc["games"]],
            "algorithms": [algorithm_entry(a) if isinstance(a, str)
                           else algorithm_entry(**a) for a in doc["algorithms"]],
            "seeds": (seed_range(**doc["seeds"]) if isinstance(doc["seeds"], dict)
                      else list(doc["seeds"]))})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GameError(f"invalid experiment config: {exc}") from exc
    cfg.validate()
    return cfg


def load_experiment(path, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GameError(f"malformed experiment config: {exc}") from exc
    return parse_experiment(doc, **overrides)


# ---------------------------------------------------------------------------
# Grid execution

def _game_key(game_spec) -> str:
    if isinstance(game_spec, str):
        return Path(game_spec).stem
    if game_spec.kind == "builtin":
        return game_spec.builtin_name
    parts = [game_spec.kind, f"d{game_spec.dim}"]
    if game_spec.kind == "elo":
        parts.append(f"n{game_spec.noise:g}")
    parts.append(f"g{game_spec.seed}")
    return "_".join(parts)


def run_id_for(game_spec, algo_name: str, overrides: dict, seed: int) -> str:
    """Stable identity for one grid cell, for cross-run joins."""
    doc = json.dumps(
        {"game": game_spec if isinstance(game_spec, str) else game_spec.__dict__,
         "algorithm": algo_name, "overrides": overrides, "seed": seed},
        sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def run_cell(game_spec, game: BimatrixGame, algo_name: str, overrides: dict,
             seed: int, mode: str, max_iterations: int) -> list:
    """Execute one engine run on ``game`` and return its metric rows."""
    cfg = make_config(algo_name, seed=seed, max_iterations=max_iterations,
                      **overrides)
    rid = run_id_for(game_spec, algo_name, overrides, seed)
    gkey = _game_key(game_spec)
    rows = []
    for rep in run(game, cfg, mode):
        rows.append({
            "run_id": rid,
            "algorithm": algo_name,
            "game": gkey,
            "seed": seed,
            "iteration": rep.iteration,
            "exploitability": rep.exploitability,
            "reward_row": rep.reward_row,
            "reward_col": rep.reward_col,
            "joint_reward": rep.reward_row + rep.reward_col,
            "pop_size_row": rep.pop_sizes[0],
            "pop_size_col": rep.pop_sizes[1],
            "clipped_row": rep.clipped_sizes[0],
            "clipped_col": rep.clipped_sizes[1],
            "wall_ms": rep.wall_ms,
        })
    return rows


# A pool worker's games, set once by the pool's initializer.
_GAMES: tuple = ()


def _install_games(games: tuple) -> None:
    global _GAMES
    _GAMES = games


def _cell_worker(cell, games: tuple = None):
    """``run_cell`` on ``cell``, whose game is an index into ``games`` (by
    default the worker's), returned with the cell's identity (game spec,
    algorithm, overrides, seed)."""
    game_spec, index, name, overrides, seed = cell[:5]
    identity = (game_spec, name, overrides, seed)
    game = (_GAMES if games is None else games)[index]
    try:
        return ("ok", identity, run_cell(game_spec, game, *cell[2:]))
    except Exception:
        return ("error", identity, traceback.format_exc())


def execute_grid(config: ExperimentConfig) -> tuple[list, int]:
    """Run the full grid; returns (rows, n_failed).  Each game is built or
    loaded once, then the output directory made, before any cell runs; each
    pool worker gets the games once (inherited by a fork, pickled by a spawn).
    A failing cell is logged and skipped, the rest of the grid still runs."""
    config.validate()
    games = tuple(load_game(g) if isinstance(g, str) else g.build()
                  for g in config.games)
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    cells = [(spec, index, name, overrides, seed, config.mode,
              config.max_iterations)
             for index, spec in enumerate(config.games)
             for (name, overrides) in config.algorithms
             for seed in config.seeds]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)   # the CPUs this process may run on
    jobs = min(config.jobs, len(cells), cpus)  # all start at once
    if jobs == 1:
        results = [_cell_worker(cell, games) for cell in cells]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_install_games,
                initargs=(games,)) as pool:
            results = list(pool.map(_cell_worker, cells))
    rows, failed = [], 0
    for status, cell, outcome in results:
        if status == "ok":
            rows.extend(outcome)
        else:
            failed += 1
            logger.error("run failed for cell %s:\n%s", cell, outcome)
    rows.sort(key=lambda r: (r["run_id"], r["iteration"]))
    return rows, failed


# ---------------------------------------------------------------------------
# CSV / TSV emission and aggregation

def write_metrics(rows: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_metrics(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_COLUMNS:
            raise GameError(f"unexpected metrics.csv header in {path}")
        rows = []
        for raw in reader:
            row = dict(raw)
            try:   # a short row holds None, a long one a None key
                if None in row:
                    raise ValueError("more fields than the header")
                for key in ("seed", "iteration", "pop_size_row", "pop_size_col",
                            "clipped_row", "clipped_col"):
                    row[key] = int(row[key])
                for key in ("exploitability", "reward_row", "reward_col",
                            "joint_reward", "wall_ms"):
                    row[key] = float(row[key])
            except (TypeError, ValueError) as exc:
                raise GameError(f"malformed row in {path}, line "
                                f"{reader.line_num}: {exc}") from None
            rows.append(row)
    return rows


def aggregate_rows(rows: list) -> list:
    """Mean/std (population) per (algorithm, game, iteration) across seeds.

    Iterations missing from some runs are aggregated over the runs that have
    them; the count column records the support.
    """
    groups: dict = {}
    for row in rows:
        key = (row["algorithm"], row["game"], row["iteration"])
        groups.setdefault(key, []).append([row[m] for m in PLOT_METRICS])
    out = []
    for (algo, gkey, it) in sorted(groups):
        # One contiguous row per metric, summed pairwise as a 1-D array is, so
        # the bits are a per-metric reduction's (axis 0 sums sequentially).
        values = np.array(groups[(algo, gkey, it)], dtype=float).T.copy()
        rec = {"algorithm": algo, "game": gkey, "iteration": it,
               "count": values.shape[1]}
        stats = zip(values.mean(axis=1).tolist(), values.std(axis=1).tolist())
        for metric, (mean, std) in zip(PLOT_METRICS, stats):
            rec[f"{metric}_mean"], rec[f"{metric}_std"] = mean, std
        out.append(rec)
    return out


SUMMARY_COLUMNS = ["algorithm", "game", "iteration", "count"] + [
    f"{m}_{s}" for m in PLOT_METRICS for s in ("mean", "std")]


def write_summary(summary: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary)


def write_plot_data(summary: list, out_dir) -> None:
    """One gnuplot-friendly TSV per (metric, game, algorithm)."""
    out_dir = Path(out_dir)
    by_file: dict = {}
    for rec in summary:
        for metric in PLOT_METRICS:
            name = f"{metric}__{rec['game']}__{rec['algorithm']}.tsv"
            by_file.setdefault(name, []).append(
                (rec["iteration"], rec[f"{metric}_mean"], rec[f"{metric}_std"],
                 rec["count"]))
    for name, entries in sorted(by_file.items()):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.write("iteration\tmean\tstd\tcount\n")
            for it, mean, std, count in sorted(entries):
                fh.write(f"{it}\t{mean}\t{std}\t{count}\n")


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the grid and write metrics.csv, summary.csv and plot TSVs to
    the output directory.  Returns the number of failed cells."""
    out_dir = Path(config.output_dir)
    rows, failed = execute_grid(config)
    write_metrics(rows, out_dir / "metrics.csv")
    summary = aggregate_rows(rows)
    write_summary(summary, out_dir / "summary.csv")
    write_plot_data(summary, out_dir)
    return failed
