"""The benchmark's contract with the package.

`perfbench/tracing.py` wraps package functions by (module, name) and reads
their arguments by position; `perfbench/workloads.py` drives the package
through `make_config`, `init_state`, `run_iteration`, `GameGenSpec.build`
and `cli.main`.  A rename or a reordered argument there breaks the traced
benchmark run, so this test runs a tiny traced round of each kind.
"""
import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_rounds_reach_every_hooked_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # workloads imports checks, speed
    tracing = _load_tracing()
    workloads = importlib.import_module("workloads")
    import metagame_forge
    from metagame_forge import cli, engine, solvers

    # The tracer reads fictitious play's `tol` from its 4th positional
    # argument to count capped calls, so every call must pass it there.
    tols = []
    fictitious_play = solvers.fictitious_play

    def recording(*args, **kwargs):
        tols.append(args[3:4])
        return fictitious_play(*args, **kwargs)

    for module in (metagame_forge, engine, solvers):
        monkeypatch.setattr(module, "fictitious_play", recording)

    spec = workloads.DirectSpec(
        game={"kind": "general_sum_random", "dim": 6}, preset="sc_psro",
        overrides={"lr": 1e9, "clip_fraction": 0.4}, mode="prosocial",
        iterations=3, seeds_per_round=1)
    config = {"games": [{"kind": "builtin", "builtin_name": "rps"}],
              "algorithms": ["sc_psro", "vanilla_psro"], "seeds": [0],
              "max_iterations": 3}
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(config))
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    tracer = tracing.Tracer(spill_dir)
    tracer.install()
    try:
        result = workloads.direct_round(workloads.direct_setup(spec, 0, tmp_path))
        rc = cli.main(["run", "--config", str(config_path), "--jobs", "1",
                       "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert result.errors == [] and result.cells_failed == 0
    assert result.iterations == 3
    assert rc == 0
    # Every span with per-layer metrics must be reached, so that inlining a
    # wrapped function cannot zero its metrics unnoticed; vanilla_psro is
    # the grid's only caller of br_oracle.
    for name in ("engine.refresh_confirming", "engine.invalidate",
                 "engine.population_update", "harness.run_cell",
                 "solvers.fictitious_play", "solvers.exploitability",
                 "engine.br_oracle", "engine.diversity_argmax",
                 "engine.lookahead_step", "engine.build_empirical",
                 "engine.meta_nash", "solvers.advantage_many",
                 "solvers.ec_of_gram"):
        assert tracer.calls(name) > 0, name
    assert tracer.counts["refresh_confirming.entries"] > 0
    assert tols and set(tols) == {(engine.FP_TOL,)}
