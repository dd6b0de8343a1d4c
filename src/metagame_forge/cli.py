"""Command-line front end.

Subcommands::

    run        execute an experiment grid from a JSON config
    gen-game   write a generated or builtin game to a JSON file
    eval       print a metric for a (game, row strategy, col strategy) triple
    aggregate  recompute summary.csv from an existing metrics.csv

``run --seeds a..b``, ``--jobs`` and ``--out`` replace the config's
``seeds``, ``jobs`` and ``output_dir`` keys before its one parse. Exit
codes: 0 success, 1 at least one grid cell failed or a grid worker process
died (for example, killed for running out of memory; no metrics are then
written), 2 invalid input (including ``--jobs 0``, an unknown config key, an
unknown or mistyped algorithm override, and a path that cannot be read or
written, such as a directory).
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from . import harness, solvers
from .games import (GAME_KINDS, GameError, GameGenSpec, StrategyError,
                    load_game, payoff, save_game, validate_strategy)


def _load_strategy(path, n: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        p = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StrategyError(f"strategy file {path} does not hold numbers: {exc}") from None
    return validate_strategy(p, n)


def _cmd_run(args) -> int:
    overrides = {"jobs": args.jobs, "output_dir": args.out}
    if args.seeds is not None:
        try:
            start, stop = map(int, args.seeds.split(".."))
        except ValueError:
            raise GameError("--seeds takes a half-open range a..b of two "
                            f"integers, got {args.seeds!r}") from None
        overrides["seeds"] = {"start": start, "stop": stop}
    config = harness.load_experiment(args.config, **{
        key: value for key, value in overrides.items() if value is not None})
    return 1 if harness.run_experiment(config) else 0


def _cmd_gen_game(args) -> int:
    spec = GameGenSpec(kind=args.kind, dim=args.dim, noise=args.noise,
                       seed=args.seed, builtin_name=args.builtin_name or "")
    game = spec.build()
    save_game(game, args.output)
    return 0


def _cmd_eval(args) -> int:
    game = load_game(args.game)
    pi_row = _load_strategy(args.row, game.n_rows)
    pi_col = _load_strategy(args.col, game.n_cols)
    if args.metric == "exploitability":
        print(f"{solvers.exploitability(game, pi_row, pi_col)[0]:.12g}")
    elif args.metric == "advantage_row":
        # Pessimistic at follower ties: on a tie boundary this prints the
        # minimum over the tied replies, not the one-sided limit.
        print(f"{solvers.advantage(game, 0, pi_row):.12g}")
    elif args.metric == "advantage_col":
        print(f"{solvers.advantage(game, 1, pi_col):.12g}")
    else:  # payoff
        r, c = payoff(game, pi_row, pi_col)
        print(f"{r:.12g} {c:.12g}")
    return 0


def _cmd_aggregate(args) -> int:
    rows = harness.read_metrics(args.input)
    summary = harness.aggregate_rows(rows)
    harness.write_summary(summary, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metagame-forge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="half-open range a..b overriding the config")
    p_run.add_argument("--jobs", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-game", help="generate a game file")
    p_gen.add_argument("--kind", required=True, choices=GAME_KINDS)
    p_gen.add_argument("--dim", type=int, default=2)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--builtin-name", dest="builtin_name")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen_game)

    p_eval = sub.add_parser("eval", help="evaluate a metric on strategy files")
    p_eval.add_argument("--game", required=True)
    p_eval.add_argument("--row", required=True)
    p_eval.add_argument("--col", required=True)
    p_eval.add_argument("--metric", required=True,
                        choices=["exploitability", "advantage_row",
                                 "advantage_col", "payoff"])
    p_eval.set_defaults(func=_cmd_eval)

    p_agg = sub.add_parser("aggregate", help="summarize a metrics.csv")
    p_agg.add_argument("--in", dest="input", required=True)
    p_agg.add_argument("--out", dest="output", required=True)
    p_agg.set_defaults(func=_cmd_aggregate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:   # GameError, StrategyError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenExecutor:   # BrokenProcessPool: a pool worker died
        print("error: a grid worker process died (for example, killed for "
              "running out of memory); no metrics were written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
