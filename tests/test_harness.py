"""Harness: presets, experiment grids, CSV/TSV outputs, aggregation, CLI."""
import csv
import json
import os

import numpy as np
import pytest

from metagame_forge.cli import main
from metagame_forge.games import GameError, GameGenSpec, builtin, save_game
from metagame_forge.harness import (METRICS_COLUMNS, ExperimentConfig,
                                    aggregate_rows, execute_grid,
                                    load_experiment, make_config,
                                    parse_experiment, read_metrics,
                                    run_experiment, write_metrics,
                                    write_summary)


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

def test_env_var_overrides_jobs(tmp_path, monkeypatch):
    monkeypatch.setenv("METAGAME_FORGE_THREADS", "2")
    cfg = small_experiment(tmp_path, jobs=1, seeds=(0,))
    rows, failed = execute_grid(cfg, log=lambda *_: None)
    assert failed == 0 and len(rows) == 2 * 10

def test_failing_cell_is_logged_and_skipped(tmp_path):
    cfg = small_experiment(tmp_path, seeds=(0,))
    cfg.games.append(str(tmp_path / "missing_game.json"))
    logs = []
    rows, failed = execute_grid(cfg, log=logs.append)
    assert failed == 2                   # both algorithms on the bad game
    assert len(rows) == 2 * 10           # the good game still ran
    assert logs and "missing_game" in logs[0]

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
    assert doc["n_rows"] == 10 and doc["symmetric_zero_sum"] is True

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

def test_cli_non_integer_thread_count_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("METAGAME_FORGE_THREADS", "two")
    config = {
        "games": [{"kind": "builtin", "builtin_name": "rps"}],
        "algorithms": ["vanilla_psro"],
        "seeds": [0],
        "max_iterations": 2,
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    assert main(["run", "--config", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert "METAGAME_FORGE_THREADS" in err and "'two'" in err

def test_cli_invalid_config_exits_2(tmp_path):
    cpath = tmp_path / "broken.json"
    cpath.write_text("{not json")
    assert main(["run", "--config", str(cpath)]) == 2
