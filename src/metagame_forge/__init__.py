"""Open-ended learning for two-player normal-form games.

Population-based equilibrium search with diversity- and lookahead-driven
strategy generation for zero-sum games and confirming-based population
clipping for equilibrium selection in general-sum games, plus the exact
solvers and experiment harness backing them.
"""
from .games import (BimatrixGame, GameError, GameGenSpec, StrategyError,
                    builtin, gen_elo, gen_general_sum, gen_symmetric_zero_sum,
                    gen_transitive, load_game, new_game, payoff, save_game)
from .solvers import (MetaSolution, advantage, exploitability,
                      fictitious_play)
from .engine import (AlgorithmConfig, EmpiricalGame, EngineState,
                     IterationReport, Population, aggregate, br_oracle,
                     build_empirical, init_state, lookahead_step, meta_nash,
                     population_update, refresh_confirming, run,
                     run_iteration)
from .harness import ExperimentConfig, make_config, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
