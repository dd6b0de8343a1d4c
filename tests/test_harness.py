"""Harness: presets, experiment grids, CSV/TSV outputs, aggregation, CLI."""
import concurrent.futures
import csv
import functools
import json
import math
import multiprocessing
import os
import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagame_forge import harness
from metagame_forge.cli import main
from metagame_forge.engine import MODES, AlgorithmConfig
from metagame_forge.games import (BUILTINS, GAME_KINDS, GameError, GameGenSpec,
                                  builtin, save_game)
from metagame_forge.harness import (METRICS_COLUMNS, PLOT_METRICS, PRESETS,
                                    ExperimentConfig, aggregate_rows,
                                    execute_grid, load_experiment, make_config,
                                    parse_experiment, read_metrics,
                                    run_experiment, write_metrics,
                                    write_summary)
from test_games import JSON, JSON_SCALARS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Presets

def test_preset_mapping():
    assert make_config("vanilla_psro").variant == "vanilla_psro"
    assert make_config("vanilla_psro").clipping_enabled is False
    assert make_config("diversity_psro").lambda_1 == 0.0
    assert make_config("sc_psro").clipping_enabled is True
    assert make_config("sc_psro_no_diversity").lambda_d == 0.0
    assert make_config("sc_psro_no_lookahead").lambda_d == 1.0
    assert make_config("sc_psro_no_clipping").clipping_enabled is False

def test_preset_overrides_and_errors():
    cfg = make_config("sc_psro", lr=0.25, seed=42)
    assert cfg.lr == 0.25 and cfg.seed == 42
    with pytest.raises(GameError):
        make_config("unknown_algorithm")
    with pytest.raises(GameError):
        make_config("sc_psro", lambda_d=2.0)


# ---------------------------------------------------------------------------
# Experiment configs

def small_experiment(tmp_path, jobs=1, seeds=(0, 1, 2)):
    return ExperimentConfig(
        games=[GameGenSpec("builtin", builtin_name="rps")],
        algorithms=[("vanilla_psro", {}), ("sc_psro_no_clipping", {})],
        mode="self_play",
        seeds=list(seeds),
        max_iterations=10,
        output_dir=str(tmp_path / "out"),
        jobs=jobs,
    )

def test_experiment_validation():
    cfg = ExperimentConfig(games=[], algorithms=[("sc_psro", {})], seeds=[0])
    with pytest.raises(GameError):
        cfg.validate()
    cfg = ExperimentConfig(games=[GameGenSpec("builtin", builtin_name="rps")],
                           algorithms=[("sc_psro", {})], seeds=[])
    with pytest.raises(GameError):
        cfg.validate()

def test_parse_experiment_formats():
    cfg = parse_experiment({
        "games": [{"kind": "elo", "dim": 4, "noise": 0.5, "seed": 1}],
        "algorithms": ["vanilla_psro",
                       {"name": "sc_psro", "overrides": {"lr": 0.1}}],
        "seeds": {"start": 0, "stop": 3},
        "max_iterations": 5,
    })
    assert cfg.seeds == [0, 1, 2]
    assert cfg.algorithms[1] == ("sc_psro", {"lr": 0.1})
    with pytest.raises(GameError):
        parse_experiment({"games": [], "algorithms": [], "seeds": []})

RPS_GRID = {"games": [{"kind": "builtin", "builtin_name": "rps"}],
            "algorithms": ["vanilla_psro"], "seeds": [0]}

@pytest.mark.parametrize("changes, key", [
    ({"max_iteration": 7}, "max_iteration"),
    ({"ouput_dir": "elsewhere"}, "ouput_dir"),
    ({"algorithms": [{"name": "sc_psro", "overide": {"lr": 0.1}}]}, "overide"),
    ({"seeds": {"start": 0, "stop": 3, "step": 2}}, "step"),
    ({"games": [{"kind": "builtin", "builtin_name": "rps", "dimm": 3}]}, "dimm"),
])
def test_parse_experiment_rejects_unknown_keys(changes, key):
    # All but the last once parsed with the key dropped: the default lr, 50
    # iterations, output to "out" and seeds 0, 1, 2 ran instead.
    with pytest.raises(GameError, match=key):
        parse_experiment(dict(RPS_GRID, **changes))

@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_parse_and_validate(path):
    load_experiment(path)   # parses, then validates

SMALL_INTS = st.integers(-2, 12)
OVERRIDES = st.dictionaries(
    st.sampled_from([f.name for f in fields(AlgorithmConfig)]) | st.text(max_size=6),
    JSON_SCALARS | SMALL_INTS | st.floats(0.0, 1.0), max_size=3)
ALGORITHMS = (st.sampled_from(sorted(PRESETS))
              | st.fixed_dictionaries({"name": st.sampled_from(sorted(PRESETS)) | JSON},
                                      optional={"overrides": OVERRIDES | JSON})
              | JSON)
GAMES = (st.fixed_dictionaries(
             {"kind": st.sampled_from(GAME_KINDS + ("nope",)) | JSON},
             optional={"dim": SMALL_INTS | JSON, "noise": st.floats() | JSON,
                       "seed": SMALL_INTS | JSON,
                       "builtin_name": st.sampled_from(sorted(BUILTINS)) | JSON})
         | JSON)
NUMBERS = SMALL_INTS | st.floats(-2, 12) | st.booleans()
SEEDS = (st.fixed_dictionaries({"start": NUMBERS | JSON,
                                "stop": NUMBERS | st.integers() | JSON})
         | st.lists(NUMBERS | JSON, max_size=3) | JSON)
EXPERIMENTS = JSON | st.fixed_dictionaries(
    {"games": st.lists(GAMES, max_size=3) | JSON,
     "algorithms": st.lists(ALGORITHMS, max_size=3) | JSON,
     "seeds": SEEDS},
    optional={"mode": st.sampled_from(MODES) | JSON,
              "max_iterations": NUMBERS | JSON,
              "output_dir": st.just("out") | JSON,
              "jobs": NUMBERS | JSON})
# Valid games and algorithms, so that the grid numbers decide the outcome.
GRIDS = st.fixed_dictionaries(
    {"games": st.just([{"kind": "builtin", "builtin_name": "rps"}]),
     "algorithms": st.just(["vanilla_psro"]), "seeds": SEEDS},
    optional={"max_iterations": NUMBERS, "jobs": NUMBERS})

@settings(max_examples=400, deadline=None)
@given(doc=EXPERIMENTS | GRIDS)
def test_parse_experiment_raises_only_game_error(doc):
    try:
        cfg = parse_experiment(doc)
    except GameError:
        return
    cfg.validate()
    # Only integers parse, so none was truncated and no bool read as 0 or 1.
    seeds = (doc["seeds"] if isinstance(doc["seeds"], list)
             else (doc["seeds"]["start"], doc["seeds"]["stop"]))
    for value in (doc.get("max_iterations", 50), doc.get("jobs", 1), *seeds):
        assert type(value) is int and value >= 0
    for name, overrides in cfg.algorithms:
        make_config(name, seed=0, max_iterations=1, **overrides)
    for game in cfg.games:
        if isinstance(game, GameGenSpec) and game.dim <= 12:
            game.build()   # a spec that passed validation builds


# ---------------------------------------------------------------------------
# Grid execution and outputs

def test_grid_row_count_and_schema(tmp_path):
    cfg = small_experiment(tmp_path)
    failed = run_experiment(cfg, log=lambda *_: None)
    assert failed == 0
    out = tmp_path / "out"
    with open(out / "metrics.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == METRICS_COLUMNS
    assert len(rows) == 2 * 1 * 3 * 10   # algorithms x games x seeds x iters

def _strip_wall(path):
    rows = read_metrics(path)
    for r in rows:
        r.pop("wall_ms")
    return rows

def test_rerun_is_deterministic(tmp_path):
    cfg_a = small_experiment(tmp_path / "a")
    cfg_b = small_experiment(tmp_path / "b")
    run_experiment(cfg_a, log=lambda *_: None)
    run_experiment(cfg_b, log=lambda *_: None)
    assert _strip_wall(tmp_path / "a" / "out" / "metrics.csv") == \
           _strip_wall(tmp_path / "b" / "out" / "metrics.csv")

def test_jobs_do_not_affect_output(tmp_path):
    cfg_a = small_experiment(tmp_path / "a", jobs=1, seeds=(0, 1))
    cfg_b = small_experiment(tmp_path / "b", jobs=2, seeds=(0, 1))
    run_experiment(cfg_a, log=lambda *_: None)
    run_experiment(cfg_b, log=lambda *_: None)
    assert _strip_wall(tmp_path / "a" / "out" / "metrics.csv") == \
           _strip_wall(tmp_path / "b" / "out" / "metrics.csv")

def test_failing_cell_is_logged_and_skipped(tmp_path, monkeypatch):
    # A game file that loads, and whose cells fail when they run.
    path = tmp_path / "failing_game.json"
    save_game(builtin("rps"), path)
    cfg = small_experiment(tmp_path, seeds=(0,))
    cfg.games.append(str(path))
    run_cell = harness.run_cell

    def failing(game_spec, *args):
        if game_spec == str(path):
            raise RuntimeError("cell failed")
        return run_cell(game_spec, *args)

    monkeypatch.setattr(harness, "run_cell", failing)
    logs = []
    rows, failed = execute_grid(cfg, log=logs.append)
    assert failed == 2                   # both algorithms on the bad game
    assert len(rows) == 2 * 10           # the good game still ran
    assert logs and "failing_game" in logs[0]
    # The log names the cell by its spec, never by its game's payoffs.
    assert not any("BimatrixGame" in line or "array(" in line for line in logs)

def _game_loads(tmp_path, monkeypatch):
    """Record, in a file a forked worker appends to as well, the pid of every
    game file load and game build."""
    record = tmp_path / "loads.txt"

    def spy(fn):
        def wrapped(*args):
            with open(record, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args)
        return wrapped

    monkeypatch.setattr(harness, "load_game", spy(harness.load_game))
    monkeypatch.setattr(GameGenSpec, "build", spy(GameGenSpec.build))
    return lambda: [int(pid) for pid in record.read_text().split()] \
        if record.exists() else []

def test_cli_grid_loads_a_game_file_independently_of_its_cell_count(
        tmp_path, monkeypatch):
    # Validation loads the file (the CLI validates three times), and the
    # grid loads it once more; no cell loads it again.
    path = tmp_path / "rps_file.json"
    save_game(builtin("rps"), path)
    loads = _game_loads(tmp_path, monkeypatch)
    counts = []
    for n_seeds in (2, 8):
        before = len(loads())
        config = {"games": [str(path)], "algorithms": ["vanilla_psro"],
                  "seeds": list(range(n_seeds)), "max_iterations": 2,
                  "output_dir": str(tmp_path / f"out{n_seeds}")}
        cpath = tmp_path / f"exp{n_seeds}.json"
        cpath.write_text(json.dumps(config))
        assert main(["run", "--config", str(cpath)]) == 0
        counts.append(len(loads()) - before)
    assert counts[0] == counts[1]

def test_fork_pool_workers_receive_their_games(tmp_path, monkeypatch):
    # Workers of a real fork-started pool run the cells on the games the
    # parent built and loaded; none builds or loads one itself.
    path = tmp_path / "pennies.json"
    save_game(builtin("matching_pennies"), path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)   # a pool even on one CPU
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor,
                          mp_context=multiprocessing.get_context("fork")))
    loads = _game_loads(tmp_path, monkeypatch)
    config = {"games": [{"kind": "builtin", "builtin_name": "rps"}, str(path)],
              "algorithms": ["vanilla_psro", "sc_psro"], "seeds": [0, 1],
              "max_iterations": 4}
    for jobs in (1, 2):
        cpath = tmp_path / f"exp{jobs}.json"
        cpath.write_text(json.dumps(dict(config, jobs=jobs,
                                         output_dir=str(tmp_path / f"out{jobs}"))))
        assert main(["run", "--config", str(cpath)]) == 0
    assert set(loads()) == {os.getpid()}
    assert _strip_wall(tmp_path / "out1" / "metrics.csv") == \
           _strip_wall(tmp_path / "out2" / "metrics.csv")

def _pool_sizes(tmp_path, monkeypatch):
    """The worker counts `execute_grid` asks of a pool for a three-cell grid
    at an unbounded ``jobs``."""
    asked = []

    def pool(max_workers, initializer=None, initargs=()):
        asked.append(max_workers)   # threads, so no worker process starts
        return concurrent.futures.ThreadPoolExecutor(
            max_workers, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(harness, "_GAMES", ())   # the threads install them
    monkeypatch.setattr(harness, "run_cell", lambda *args: [])
    cfg = parse_experiment({"games": [{"kind": "builtin", "builtin_name": "rps"}],
                            "algorithms": ["vanilla_psro"], "seeds": [0, 1, 2],
                            "jobs": 10**9, "output_dir": str(tmp_path / "out")})
    assert execute_grid(cfg) == ([], 0)
    return asked

def test_pool_cells_carry_no_game(tmp_path, monkeypatch):
    # Each cell sent to a pool names its game by index; the workers get the
    # games once, from the pool's initializer.  A dim-200 game's payoffs
    # pickle to 640 KB.
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, cells):
            cells = list(cells)
            sizes.extend(len(pickle.dumps(cell)) for cell in cells)
            return super().map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness, "_GAMES", ())   # the threads install them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    cfg = parse_experiment({
        "games": [{"kind": "general_sum_random", "dim": 200},
                  {"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"], "seeds": [0, 1], "max_iterations": 2,
        "jobs": 2, "output_dir": str(tmp_path / "out")})
    rows, failed = execute_grid(cfg)
    assert failed == 0 and len(rows) == 2 * 2 * 2
    assert len(sizes) == 4 and max(sizes) < 4096

# The CPUs are the affinity set where the platform has one.  Without it, an
# unknown CPU count (None) runs the cells serially, with no pool.
@pytest.mark.parametrize("cpus, sizes", [(64, [3]), (2, [2]), (None, [])])
def test_grid_pool_is_capped_by_cells_and_cpus(tmp_path, monkeypatch, cpus,
                                               sizes):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    assert _pool_sizes(tmp_path, monkeypatch) == sizes

@pytest.mark.parametrize("allowed, sizes", [({0}, []), ({2, 5}, [2])])
def test_grid_pool_is_capped_by_cpu_affinity(tmp_path, monkeypatch, allowed,
                                             sizes):
    # Under a cpuset or `taskset`, the process may run on fewer CPUs than the
    # machine has.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed,
                        raising=False)
    assert _pool_sizes(tmp_path, monkeypatch) == sizes

def test_plot_data_files(tmp_path):
    cfg = small_experiment(tmp_path, seeds=(0, 1))
    run_experiment(cfg, log=lambda *_: None)
    out = tmp_path / "out"
    tsv = out / "exploitability__rps__vanilla_psro.tsv"
    assert tsv.exists()
    lines = tsv.read_text().splitlines()
    assert lines[0] == "iteration\tmean\tstd\tcount"
    assert len(lines) == 11

def test_read_metrics_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(GameError):
        read_metrics(path)

def test_read_metrics_names_file_and_line_of_malformed_row(tmp_path):
    cfg = small_experiment(tmp_path, seeds=(0,))
    run_experiment(cfg, log=lambda *_: None)
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    cells = lines[3].split(",")
    # A short row, a long row, and a seed that is not a number.
    for row in (cells[:-1], cells + ["7"], cells[:3] + ["x"] + cells[4:]):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
        with pytest.raises(GameError, match="line 4") as info:
            read_metrics(path)
        assert str(path) in str(info.value)
        assert main(["aggregate", "--in", str(path), "--out",
                     str(tmp_path / "s.csv")]) == 2


# ---------------------------------------------------------------------------
# Aggregation

def _row(**kw):
    base = {c: 0 for c in METRICS_COLUMNS}
    base.update({"algorithm": "a", "game": "g", "iteration": 0,
                 "exploitability": 0.0, "reward_row": 0.0, "reward_col": 0.0,
                 "joint_reward": 0.0})
    base.update(kw)
    return base

def test_aggregate_single_run():
    out = aggregate_rows([_row(exploitability=2.5)])
    assert out[0]["exploitability_mean"] == 2.5
    assert out[0]["exploitability_std"] == 0.0
    assert out[0]["count"] == 1

def test_aggregate_mean_and_population_std():
    rows = [_row(seed=0, exploitability=1.0), _row(seed=1, exploitability=3.0)]
    out = aggregate_rows(rows)
    assert out[0]["exploitability_mean"] == 2.0
    assert out[0]["exploitability_std"] == 1.0

def test_aggregate_missing_iteration_support():
    rows = [_row(seed=0, iteration=0), _row(seed=1, iteration=0),
            _row(seed=0, iteration=1)]
    out = aggregate_rows(rows)
    counts = {rec["iteration"]: rec["count"] for rec in out}
    assert counts == {0: 2, 1: 1}

@pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 300])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_aggregate_bits_match_one_metric_reduction(size, seed):
    # The summary of each metric has the bits of a 1-D mean and std over
    # that metric alone, at group sizes around numpy's pairwise blocks.
    rng = np.random.default_rng(seed)
    values = (rng.choice([-1.0, 1.0], (size, len(PLOT_METRICS)))
              * 10.0 ** rng.uniform(-9, 9, (size, len(PLOT_METRICS))))
    rows = [_row(seed=s, **dict(zip(PLOT_METRICS, v)))
            for s, v in enumerate(values.tolist())]
    (rec,) = aggregate_rows(rows)
    assert rec["count"] == size
    for j, metric in enumerate(PLOT_METRICS):
        ref = np.asarray([row[metric] for row in rows])
        assert rec[f"{metric}_mean"].hex() == float(ref.mean()).hex()
        assert rec[f"{metric}_std"].hex() == float(ref.std()).hex()


# ---------------------------------------------------------------------------
# CLI

def test_cli_gen_game_builtin(tmp_path):
    out = tmp_path / "stag.json"
    code = main(["gen-game", "--kind", "builtin", "--builtin-name",
                 "stag_hunt_table2", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["U_row"] == [[30.0, -10.0], [-10.0, 20.0]]

def test_cli_gen_game_elo(tmp_path):
    out = tmp_path / "elo.json"
    code = main(["gen-game", "--kind", "elo", "--dim", "10", "--noise", "1.0",
                 "--seed", "3", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_rows"] == 10 and "symmetric_zero_sum" not in doc

def test_cli_gen_game_rejects_dim_one(tmp_path):
    code = main(["gen-game", "--kind", "elo", "--dim", "1", "-o",
                 str(tmp_path / "x.json")])
    assert code == 2

def test_cli_eval_exploitability_and_advantage(tmp_path, capsys):
    gpath = tmp_path / "rps.json"
    save_game(builtin("rps"), gpath)
    u = tmp_path / "uniform.json"
    u.write_text(json.dumps([1 / 3, 1 / 3, 1 / 3]))
    code = main(["eval", "--game", str(gpath), "--row", str(u), "--col",
                 str(u), "--metric", "exploitability"])
    assert code == 0
    assert abs(float(capsys.readouterr().out)) <= 1e-9

    t1 = tmp_path / "t1.json"
    save_game(builtin("stackelberg_table1"), t1)
    near = tmp_path / "near.json"
    near.write_text(json.dumps([1 / 3 + 1e-6, 2 / 3 - 1e-6]))
    col = tmp_path / "col.json"
    col.write_text(json.dumps([1.0, 0.0]))
    code = main(["eval", "--game", str(t1), "--row", str(near), "--col",
                 str(col), "--metric", "advantage_row"])
    assert code == 0
    assert abs(float(capsys.readouterr().out) - 11.0 / 3.0) <= 1e-5

def test_cli_eval_payoff_prints_both(tmp_path, capsys):
    gpath = tmp_path / "t1.json"
    save_game(builtin("stackelberg_table1"), gpath)
    row = tmp_path / "row.json"
    row.write_text(json.dumps([0.0, 1.0]))
    col = tmp_path / "col.json"
    col.write_text(json.dumps([1.0, 0.0]))
    code = main(["eval", "--game", str(gpath), "--row", str(row), "--col",
                 str(col), "--metric", "payoff"])
    assert code == 0
    assert capsys.readouterr().out.split() == ["2", "1"]

@pytest.mark.parametrize("entries", ["[NaN, NaN, NaN]", "[0.5, null, 0.5]",
                                     "[Infinity, 0, 0]", '{"a": 1}', '"abc"',
                                     "[[1], [1, 2]]", "[1e400, 0, 0]"])
def test_cli_eval_rejects_bad_strategy_file(tmp_path, capsys, entries):
    gpath = tmp_path / "rps.json"
    save_game(builtin("rps"), gpath)
    bad = tmp_path / "bad.json"
    bad.write_text(entries)
    good = tmp_path / "good.json"
    good.write_text(json.dumps([1 / 3, 1 / 3, 1 / 3]))
    for row, col in ((bad, good), (good, bad)):
        code = main(["eval", "--game", str(gpath), "--row", str(row), "--col",
                     str(col), "--metric", "payoff"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

def test_cli_run_and_aggregate(tmp_path):
    config = {
        "games": [{"kind": "builtin", "builtin_name": "matching_pennies"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [0, 1],
        "max_iterations": 5,
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath)]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert main(["aggregate", "--in", str(tmp_path / "out" / "metrics.csv"),
                 "--out", str(tmp_path / "summary2.csv")]) == 0
    assert (tmp_path / "summary2.csv").exists()

def test_cli_run_empty_seeds_exits_2(tmp_path):
    config = {
        "games": [{"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [],
        "max_iterations": 5,
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath)]) == 2

def test_cli_non_integer_thread_count_exits_2(tmp_path, capsys):
    config = {
        "games": [{"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [0],
        "jobs": "two",
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath)]) == 2
    assert "'two'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:   # argparse rejects it
        main(["run", "--config", str(cpath), "--jobs", "two"])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()

def test_cli_run_jobs_zero_exits_2(tmp_path, capsys):
    config = {
        "games": [{"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [0],
        "max_iterations": 2,
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

def test_cli_bad_override_exits_2(tmp_path, capsys):
    cases = (({"bogus": 1}, "bogus"), ({"lr": "x"}, "lr"),
             ({"clipping_enabled": 1}, "clipping_enabled"),
             ({"fp_max_iters": 50.0}, "fp_max_iters"), ({"seed": 3}, "seed"),
             # Integers no float holds, which once failed every cell.
             *(({name: 10**400}, name) for name in ("lr", "lambda_1", "im")))
    for i, (overrides, field_name) in enumerate(cases):
        config = {
            "games": [{"kind": "builtin", "builtin_name": "rps"}],
            "algorithms": [{"name": "sc_psro", "overrides": overrides}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cpath = tmp_path / f"exp{i}.json"
        cpath.write_text(json.dumps(config))
        assert main(["run", "--config", str(cpath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field_name in err

def test_integer_float_override_runs_as_a_float():
    # An integer beyond int64 in `lr` failed every diversity step.
    cfg = make_config("sc_psro", lr=10**19, im=0)
    assert type(cfg.lr) is float and type(cfg.im) is float
    spec = GameGenSpec("general_sum_random", dim=6, seed=1)
    rows = harness.run_cell(spec, spec.build(), "sc_psro_no_lookahead",
                            {"lr": 10**19}, 0, "self_play", 3)
    assert len(rows) == 3

def _die(*args, **kwargs):
    os._exit(3)

def test_cli_dead_pool_worker_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_cell", _die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)   # a pool even on one CPU
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor,
                          mp_context=multiprocessing.get_context("fork")))
    config = {
        "games": [{"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [0, 1],
        "max_iterations": 2,
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a grid worker process died")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "metrics.csv").exists()

def test_cli_bad_game_spec_exits_2(tmp_path, capsys):
    cases = (({"kind": "elo", "dim": "x"}, "dim"), ({"kind": "nope"}, "nope"),
             ({"kind": "transitive", "dim": 1}, "dim"),
             ({"kind": "elo", "dim": 4, "noise": math.nan}, "noise"),
             ({"kind": "elo", "dim": 4, "noise": -0.5}, "noise"),
             ({"kind": "elo", "dim": 4, "seed": -1}, "seed"),
             ({"kind": "builtin", "builtin_name": "chess"}, "chess"))
    # Game files: missing, unreadable (a directory, bytes that are not
    # UTF-8) and malformed ones, named in the error.
    files = {"bytes.json": b"\xff\xfe", "broken.json": b"{",
             "list.json": b"[1, 2]", "short.json": b'{"name": "g"}',
             "ragged.json": json.dumps({"name": "g", "n_rows": 1, "n_cols": 2,
                                        "U_row": [[1, "a"]],
                                        "U_col": [[0, 0]]}).encode()}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    cases += tuple((str(tmp_path / name), str(tmp_path / name))
                   for name in ("missing.json", "", *files))
    for i, (spec, word) in enumerate(cases):
        config = {"games": [spec], "algorithms": ["vanilla_psro"], "seeds": [0],
                  "output_dir": str(tmp_path / "out")}
        cpath = tmp_path / f"exp{i}.json"
        cpath.write_text(json.dumps(config))
        assert main(["run", "--config", str(cpath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize("field, value", [("dim", 10**6), ("noise", 1e308)])
def test_cli_unbuildable_game_exits_2_at_parse_time(tmp_path, capsys, field,
                                                    value):
    # Such a game would not fit in memory (dim) or not be finite (noise).
    config = {"games": [{"kind": "elo", "dim": 4, field: value}],
              "algorithms": ["vanilla_psro"], "seeds": [0],
              "output_dir": str(tmp_path / "out")}
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath)]) == 2
    assert not (tmp_path / "out").exists()
    out = tmp_path / "game.json"
    assert main(["gen-game", "--kind", "elo", "--dim", "4", f"--{field}",
                 str(value), "-o", str(out)]) == 2
    assert not out.exists()
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2
    assert all(e.startswith("error: ") and field in e for e in errs)

def _forbidden(*args, **kwargs):
    raise AssertionError("an invalid grid reached run_experiment")

@pytest.mark.parametrize("changes, argv, word", [
    ({"seeds": [-1]}, [], "seed"),
    ({"seeds": [0.9, 1.5]}, [], "seed"),
    ({"seeds": [True]}, [], "seed"),
    ({"seeds": {"start": 0.5, "stop": 2}}, [], "start"),
    ({"seeds": {"start": -1, "stop": 2}}, [], "seeds"),
    ({"max_iterations": 2.9}, [], "max_iterations"),
    ({"max_iterations": True}, [], "max_iterations"),
    ({"jobs": 1.7}, [], "jobs"),
    ({"jobs": True}, [], "jobs"),
    ({}, ["--seeds", "0..100000000"], "100000"),
    ({}, ["--seeds=-1..2"], "seeds"),
    ({"max_iterations": 10**12}, [], "max_iterations"),
    ({"seeds": [0, 0]}, [], "seed 0"),
    ({"algorithms": [{"name": "sc_psro", "overrides": {"lr": 0.1}},
                     {"name": "sc_psro", "overrides": {"lr": 0.2}}]}, [],
     "algorithm 'sc_psro'"),
    ({"games": [{"kind": "builtin", "builtin_name": "rps"}, "rps.json"]}, [],
     "game 'rps'"),
    ({"max_iteration": 7}, [], "max_iteration"),
    ({"algorithms": [{"name": "sc_psro", "overide": {"lr": 0.1}}]}, [],
     "overide"),
    ({"seeds": {"start": 0, "stop": 3, "step": 2}}, [], "step"),
])
def test_cli_run_rejects_bad_grid_settings(tmp_path, monkeypatch, capsys,
                                           changes, argv, word):
    # Each of these once ran: truncated by int(), a bool read as 1, a negative
    # seed failing every cell, a 10^8-seed range built past the cap, 10^12
    # iterations a cell, repeated seeds, algorithms or games whose rows
    # merged in metrics.csv and summary.csv, or an unknown key dropped.
    monkeypatch.setattr(harness, "run_experiment", _forbidden)
    config = dict({"games": [{"kind": "builtin", "builtin_name": "rps"}],
                   "algorithms": ["vanilla_psro"], "seeds": [0],
                   "output_dir": str(tmp_path / "out")}, **changes)
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err

def test_cli_invalid_config_exits_2(tmp_path):
    cpath = tmp_path / "broken.json"
    cpath.write_text("{not json")
    assert main(["run", "--config", str(cpath)]) == 2

@pytest.mark.parametrize("command", ["run", "eval", "gen-game"])
def test_cli_directory_path_exits_2(tmp_path, capsys, command):
    # A path that names a directory cannot be opened as a file.
    folder = tmp_path / "folder"
    folder.mkdir()
    strategy = tmp_path / "uniform.json"
    strategy.write_text(json.dumps([0.5, 0.5]))
    argv = {"run": ["run", "--config", str(folder)],
            "eval": ["eval", "--game", str(folder), "--row", str(strategy),
                     "--col", str(strategy), "--metric", "payoff"],
            "gen-game": ["gen-game", "--kind", "elo", "--dim", "4",
                         "-o", str(folder)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
