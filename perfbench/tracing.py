"""Span tracing for the traced benchmark run, applied from outside the package.

`Tracer.install` wraps the package's public functions at each layer boundary
(games -> engine -> solvers, cli -> harness -> engine).  A function is
replaced in every module namespace that binds it, because `engine` imports
the solver functions by name: wrapping only `solvers.fictitious_play` would
leave `engine.fictitious_play` untouched and its spans would read zero.

Spans are aggregated by name when they end (calls, busy time, self time), so
memory stays flat however many short calls a run makes; self time is the
span's duration minus the time covered by its child spans.  Pool workers are
forked with the wrappers in place but exit without running `atexit`, so a
worker writes its aggregates to a spill file at the end of every grid cell
and the parent merges the files once the grid returns.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("harness.run_cell",)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counters recorded at the same boundaries as the spans.  `before` hooks see
# the arguments on entry, `after` hooks the arguments and the result.

def _count_advantage(tracer, args, kwargs, result, _):
    # k candidates (k x n) against the n x m payoff matrices, twice:
    # `P @ m_opp.T` and `P @ m_self`.  Computed from shapes, not measured.
    game, player, strategies = args[:3]
    shape = getattr(strategies, "shape", ())
    k, n = (shape[0], shape[1]) if len(shape) == 2 else (1, game.dims(player))
    m = game.dims(1 - player)
    tracer.counts["advantage_many.rows"] += k
    tracer.counts["advantage_many.flop"] += 2 * (2.0 * k * n * m)
    tracer.counts["advantage_many.bytes"] += 2 * 8.0 * (k * n + n * m + k * m)


def _count_fictitious_play(tracer, args, kwargs, result, _):
    max_iters = _arg(args, kwargs, 2, "max_iters", 2000)
    tol = _arg(args, kwargs, 3, "tol", 1e-8)
    tracer.counts["fictitious_play.iters"] += result.iterations_used
    if result.iterations_used >= max_iters and result.residual > tol:
        tracer.counts["fictitious_play.capped"] += 1


def _stale_on_entry(tracer, args, kwargs):
    tracer.counts["refresh_confirming.entries"] += sum(bool(s) for s in args[0].stale)


def _pop_size_before(tracer, args, kwargs):
    _, player, state = args[:3]
    return len(state.pop(player))


def _count_accept(tracer, args, kwargs, result, size_before):
    _, player, state = args[:3]
    if len(state.pop(player)) == size_before:
        tracer.counts["population_update.accepted"] += 1


def _spill_if_worker(tracer, args, kwargs, result, _):
    if os.getpid() != tracer.main_pid:
        tracer.spill()


# (module, function) -> (span name, before hook, after hook)
SPANS = {
    ("cli", "main"): ("cli.main", None, None),
    ("harness", "run_experiment"): ("harness.run_experiment", None, None),
    ("harness", "run_cell"): ("harness.run_cell", None, _spill_if_worker),
    ("harness", "write_metrics"): ("harness.write_metrics", None, None),
    ("harness", "aggregate_rows"): ("harness.aggregate_rows", None, None),
    ("harness", "write_summary"): ("harness.write_summary", None, None),
    ("harness", "write_plot_data"): ("harness.write_plot_data", None, None),
    ("engine", "run_iteration"): ("engine.run_iteration", None, None),
    ("engine", "refresh_confirming"): ("engine.refresh_confirming",
                                       _stale_on_entry, None),
    ("engine", "_invalidate_for_change"): ("engine.invalidate", None, None),
    ("engine", "build_empirical"): ("engine.build_empirical", None, None),
    ("engine", "meta_nash"): ("engine.meta_nash", None, None),
    ("engine", "population_update"): ("engine.population_update",
                                      _pop_size_before, _count_accept),
    ("engine", "_diversity_argmax"): ("engine.diversity_argmax", None, None),
    ("engine", "lookahead_step"): ("engine.lookahead_step", None, None),
    ("engine", "br_oracle"): ("engine.br_oracle", None, None),
    ("solvers", "advantage_many"): ("solvers.advantage_many", None,
                                    _count_advantage),
    ("solvers", "ec_of_gram"): ("solvers.ec_of_gram", None, None),
    ("solvers", "fictitious_play"): ("solvers.fictitious_play", None,
                                     _count_fictitious_play),
    ("solvers", "exploitability"): ("solvers.exploitability", None, None),
    ("games", "gen_symmetric_zero_sum"): ("games.build", None, None),
    ("games", "gen_transitive"): ("games.build", None, None),
    ("games", "gen_elo"): ("games.build", None, None),
    ("games", "gen_general_sum"): ("games.build", None, None),
}


class Tracer:
    """Aggregated spans and counters for one benchmark process and the pool
    workers it forks."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self._owner_pid = self.main_pid
        self._patched = []
        self._spills = 0
        self.reset()

    def reset(self) -> None:
        self.spans = {}                      # name -> [calls, busy_s, self_s]
        self.durations = defaultdict(list)   # name -> [duration_s, ...]
        self.counts = defaultdict(float)
        self._stack = []                     # open spans: [start, child_s]

    def _wrap(self, name, fn, before, after):
        tracer = self
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._owner_pid:
                # First call in a forked worker: drop the parent's copy.
                tracer._owner_pid = os.getpid()
                tracer.reset()
            token = before(tracer, args, kwargs) if before else None
            stack = tracer._stack
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if keep:
                    tracer.durations[name].append(duration)
            if after:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS in each package namespace binding it."""
        import metagame_forge
        from metagame_forge import cli, engine, games, harness, solvers
        modules = {"cli": cli, "harness": harness, "engine": engine,
                   "solvers": solvers, "games": games}
        wrappers = {}
        for (mod, attr), (name, before, after) in SPANS.items():
            fn = getattr(modules[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, before, after))
        for module in (*modules.values(), metagame_forge):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spill(self) -> None:
        """Write this worker's aggregates to a file and start afresh."""
        self._spills += 1
        path = self.spill_dir / f"{os.getpid()}-{self._spills}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "durations": self.durations,
                       "counts": self.counts}, fh)
        self.reset()

    def absorb_spills(self) -> None:
        """Merge and delete the spill files written by pool workers."""
        for path in sorted(self.spill_dir.glob("*.json")):
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            path.unlink()
            for name, (calls, busy, self_s) in doc["spans"].items():
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += self_s
            for name, values in doc["durations"].items():
                self.durations[name].extend(values)
            for name, value in doc["counts"].items():
                self.counts[name] += value

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]
