"""Open-ended learning engine.

Populations of mixed strategies per player, empirical meta-games, meta-Nash
via fictitious play, and the population-update rules for the three variants:

* ``vanilla_psro``   - append the exact best response to the opponent's
                       aggregated meta-Nash strategy.
* ``diversity_psro`` - append the expected-cardinality argmax (diversity
                       baseline; the advantage term is off by default).
* ``sc_psro``        - the full update: a diversity branch taken with
                       probability ``lambda_d`` (expected cardinality plus a
                       weighted advantage term, replace-then-score), otherwise
                       a lookahead branch hill-climbing the advantage with a
                       randomly drawn step size.  The updated strategy
                       replaces the population's last member; a fresh random
                       member is appended only when the improvement ratio
                       against the opponent's aggregate falls short of ``im``.

In runs that clip, each member carries a confirming cache: the opponent
member best-responding to it (its expected response) and the payoff against
that member (the self-confirming advantage), which drives the clipping.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .games import BimatrixGame, GameError, check_fields, freeze, payoff
from .solvers import (TIE_ATOL, MetaSolution, advantage, advantage_many,
                      best_response, ec_bordered, ec_of_gram,
                      exploitability, fictitious_play, own_matrix)

VARIANTS = ("vanilla_psro", "diversity_psro", "sc_psro")
MODES = ("self_play", "stackelberg_player", "prosocial")

# Below this magnitude the improvement-ratio denominator is degenerate (or
# negative, which inverts the inequality) and an additive test is used.
DEN_ATOL = 1e-9


class EngineError(RuntimeError):
    pass


@dataclass
class AlgorithmConfig:
    variant: str = "sc_psro"
    lambda_d: float = 0.5          # probability of the diversity branch
    lambda_1: float = 1.0          # advantage weight inside the diversity score
    lr: float = 0.5                # base simplex step size
    im: float = 0.03               # relative improvement bound
    clip_fraction: float = 0.8     # fraction of the population retained (s)
    clipping_enabled: bool = True
    keep_old_on_reject: bool = False
    fp_max_iters: int = 2000
    fp_tol: float = 1e-3
    max_iterations: int = 100
    init_pop_size: int = 1
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        if self.variant not in VARIANTS:
            raise GameError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.lambda_d <= 1.0:
            raise GameError("lambda_d must be in [0, 1]")
        if not 0.0 <= self.clip_fraction <= 1.0:
            raise GameError("clip_fraction must be in [0, 1]")
        if self.lr <= 0 or self.lambda_1 < 0:
            raise GameError("lr must be > 0 and lambda_1 >= 0")
        if not -1.0 <= self.im:
            # im < 0 tolerates bounded regressions, keeping a refinement run
            # alive; im <= -1 would accept arbitrary losses.
            raise GameError("im must be >= -1")
        if self.init_pop_size < 1 or self.max_iterations < 0:
            raise GameError("init_pop_size >= 1 and max_iterations >= 0 required")
        if self.fp_max_iters < 1 or self.fp_tol < 0:
            raise GameError("fp_max_iters >= 1 and fp_tol >= 0 required")


# Confirming-cache arrays of a Population: the value a new member starts
# with, and the dtype.  No reply reaches a fresh member's infinite mu_value.
CACHES = {"mu_index": (-1, int), "mu_value": (math.inf, float),
          "sc_advantage": (math.nan, float), "stale": (True, bool)}


@dataclass
class Population:
    """Strategies as the rows of one owned, read-only array (k x dim), plus
    per-member confirming caches as arrays of length k.

    ``append`` and ``replace`` build a new ``members`` array and never write
    the old one, so a caller may keep it, or a row of it, as a snapshot.

    ``mu_index[i]`` is the opponent population member best-responding to
    member i; ties are resolved pessimistically (the tied response minimizing
    member i's own payoff, lowest index among those).  ``mu_value`` keeps the
    opponent's payoff at that response so cache invalidation can test whether
    a changed opponent member could enter the tie set.  Only runs that clip
    fill the caches (lazily, in `build_empirical`).
    """

    members: np.ndarray
    mu_index: np.ndarray = None
    mu_value: np.ndarray = None
    sc_advantage: np.ndarray = None
    stale: np.ndarray = None

    def __post_init__(self) -> None:
        self.members = freeze(np.array(self.members, dtype=float))  # a copy
        for name, (fill, dtype) in CACHES.items():
            value = getattr(self, name)
            setattr(self, name, np.array([fill] * len(self) if value is None
                                         else value, dtype))

    def __len__(self) -> int:
        return self.members.shape[0]

    def append(self, strategy: np.ndarray) -> None:
        self.members = freeze(np.vstack([self.members, strategy]))
        for name, (fill, _) in CACHES.items():
            setattr(self, name, np.append(getattr(self, name), fill))

    def replace(self, index: int, strategy: np.ndarray) -> None:
        members = self.members.copy()
        members[index] = strategy
        self.members = freeze(members)
        self.stale[index] = True


@dataclass
class EmpiricalGame:
    m_row: np.ndarray
    m_col: np.ndarray
    row_index_map: np.ndarray  # empirical index -> population index
    col_index_map: np.ndarray


@dataclass
class IterationReport:
    iteration: int
    theta: MetaSolution
    exploitability: float
    reward_row: float
    reward_col: float
    pop_sizes: tuple
    clipped_sizes: tuple
    oracle_branch_taken: tuple
    wall_ms: float


@dataclass
class EngineState:
    game: BimatrixGame
    config: AlgorithmConfig
    mode: str
    pop_row: Population
    pop_col: Population
    rng: np.random.Generator
    iteration: int = 0

    def pop(self, player: int) -> Population:
        return self.pop_row if player == 0 else self.pop_col

    @property
    def clips(self) -> bool:
        """Whether the run clips, and so keeps confirming caches."""
        return self.config.clipping_enabled and self.config.variant == "sc_psro"


# ---------------------------------------------------------------------------
# Construction

def init_state(game: BimatrixGame, config: AlgorithmConfig,
               mode: str = "self_play") -> EngineState:
    config.validate()
    if mode not in MODES:
        raise GameError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(config.seed)
    rows, cols = [], []
    for _ in range(config.init_pop_size):
        rows.append(rng.dirichlet(np.ones(game.n_rows)))
        cols.append(rng.dirichlet(np.ones(game.n_cols)))
    if mode == "stackelberg_player":
        # The column side is a pure best responder, not a learner: its
        # "population" is the set of pure replies met so far, seeded with the
        # reply to the leader's initial members.
        cols = [br_oracle(game, 1, np.mean(rows, axis=0))]
    return EngineState(game, config, mode, Population(rows), Population(cols), rng)


# ---------------------------------------------------------------------------
# Confirming caches

def refresh_confirming(pop: Population, opponent_pop: Population,
                       game: BimatrixGame, player: int) -> None:
    """Recompute the expected response and self-confirming advantage of every
    stale member.  Idempotent once all flags are clear."""
    if len(opponent_pop) == 0:
        raise EngineError("cannot confirm against an empty opponent population")
    m_self = own_matrix(game, player)
    m_opp = own_matrix(game, 1 - player)
    O = opponent_pop.members
    for i in np.flatnonzero(pop.stale):
        p = pop.members[i]
        opp_vals = O @ (m_opp @ p)       # opponent payoff per opponent member
        self_vals = O @ (m_self.T @ p)   # own payoff per opponent member
        best = opp_vals.max()
        tied = np.flatnonzero(opp_vals >= best - TIE_ATOL)
        j = int(tied[int(np.argmin(self_vals[tied]))])
        pop.mu_index[i] = j
        pop.mu_value[i] = float(best)
        pop.sc_advantage[i] = float(self_vals[j])
        pop.stale[i] = False


def _invalidate_for_change(own_pop: Population, opp_pop: Population,
                           game: BimatrixGame, player: int,
                           changed: list, old_reply_values: dict) -> None:
    """Mark opponent-side confirming caches stale after members of
    ``own_pop`` (owned by ``player``) at indices ``changed`` were replaced or
    appended.

    An opponent entry can only be affected if the changed member was its
    cached response, sat in (or near) its tie set before the change, or the
    new strategy reaches the tie set now.  ``old_reply_values`` maps a
    replaced index to the opponent-side payoff vector of the old strategy.
    """
    # Cached mu_value of an opponent entry is the best payoff achievable by
    # members of own_pop responding to it, so reply values use player's matrix.
    m_player = own_matrix(game, player)
    tie_floor = opp_pop.mu_value - TIE_ATOL
    affected = np.isin(opp_pop.mu_index, changed)
    for c in changed:
        new_vals = opp_pop.members @ (m_player.T @ own_pop.members[c])
        affected |= new_vals >= tie_floor
        if c in old_reply_values:
            affected |= old_reply_values[c] >= tie_floor
    opp_pop.stale[affected] = True


# ---------------------------------------------------------------------------
# Empirical game and meta-Nash

def _retained_indices(pop: Population, clip: bool, s: float) -> np.ndarray:
    n = len(pop)
    if not clip:
        return np.arange(n)
    k = min(max(math.ceil(s * n), 2), n)   # at least two where possible
    return np.sort(np.argsort(-pop.sc_advantage, kind="stable")[:k])


def build_empirical(game: BimatrixGame, pop_row: Population, pop_col: Population,
                    clip: bool = False, s: float = 1.0) -> EmpiricalGame:
    """Payoff matrices over the (optionally clipped) populations.

    Clipping refreshes stale confirming caches, then keeps each population's
    top ceil(s*n) members by self-confirming advantage (ties by lower index,
    at least two members where possible), never changing the populations.
    """
    if len(pop_row) == 0 or len(pop_col) == 0:
        raise EngineError("populations must be nonempty")
    if clip:
        refresh_confirming(pop_row, pop_col, game, 0)
        refresh_confirming(pop_col, pop_row, game, 1)
    ri = _retained_indices(pop_row, clip, s)
    ci = _retained_indices(pop_col, clip, s)
    R = pop_row.members[ri]
    C = pop_col.members[ci]
    return EmpiricalGame(R @ game.u_row @ C.T, R @ game.u_col @ C.T, ri, ci)


def meta_nash(empirical: EmpiricalGame, pop_row_size: int, pop_col_size: int,
              fp_max_iters: int, fp_tol: float) -> MetaSolution:
    """Meta-Nash of the empirical game by fictitious play, with the weights
    lifted back from clipped empirical indices to population indices."""
    sol = fictitious_play(empirical.m_row, empirical.m_col, fp_max_iters, fp_tol)
    theta_row = np.zeros(pop_row_size)
    theta_row[empirical.row_index_map] = sol.theta_row
    theta_col = np.zeros(pop_col_size)
    theta_col[empirical.col_index_map] = sol.theta_col
    return MetaSolution(theta_row, theta_col, sol.residual, sol.iterations_used)


def aggregate(pop: Population, theta: np.ndarray) -> np.ndarray:
    """Game-level mixed strategy induced by meta-weights over the population."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != len(pop):
        raise GameError("meta-weight length does not match population size")
    return theta @ pop.members


def br_oracle(game: BimatrixGame, player: int, opponent_aggregate) -> np.ndarray:
    """Exact pure best response to the opponent's aggregate, as a one-hot."""
    res = best_response(game, player, opponent_aggregate)
    out = np.zeros(game.dims(player))
    out[res.index] = 1.0
    return out


# ---------------------------------------------------------------------------
# New-strategy steps

def _candidates(pi_t: np.ndarray, step: float) -> np.ndarray:
    """One candidate per signed pure direction: |pi_t +/- step * e_a|,
    normalized.  Negative directions shift mass away from a coordinate, which
    the absolute-value normalization keeps on the simplex; without them the
    hill climb can only concentrate mass, never refine a mixture."""
    n = pi_t.shape[0]
    V = np.tile(pi_t, (2 * n, 1))
    diag = np.arange(n)
    V[diag, diag] += step
    V[n + diag, diag] -= step
    np.abs(V, out=V)
    sums = V.sum(axis=1, keepdims=True)
    np.maximum(sums, 1e-15, out=sums)
    V /= sums
    return V


def _ec_scores(G: np.ndarray, cross: np.ndarray, cand_rows: np.ndarray,
               index: np.ndarray) -> np.ndarray:
    """Expected cardinality of the meta-matrix made of the k fixed rows (Gram
    block ``G``) plus candidate row i, for each i in ``index``: one Cholesky
    of the candidate's own bordered Gram matrix each.

    Each score depends only on its candidate's bordered matrix, so it carries
    the same bits whichever other candidates are scored alongside it.
    """
    k = G.shape[0]
    L = np.empty((k + 1, k + 1))
    L[:k, :k] = G
    scores = np.empty(len(index))
    for j, i in enumerate(index):
        L[:k, k] = cross[i]
        L[k, :k] = cross[i]
        L[k, k] = cand_rows[i] @ cand_rows[i]
        scores[j] = ec_of_gram(L)
    return scores


def _diversity_argmax(game: BimatrixGame, player: int, pi_t: np.ndarray,
                      fixed_members: np.ndarray, opp_members: np.ndarray,
                      lr: float, lambda_1: float) -> np.ndarray:
    """Replace-then-score diversity update: among the pure-direction steps
    from ``pi_t``, the candidate maximizing the expected cardinality of the
    meta-matrix of ``fixed_members`` (k x n, k >= 0) plus the candidate
    against ``opp_members``, plus ``lambda_1`` times the candidate's
    advantage.  Ties go to the lowest candidate index.

    The result is the argmax of the exact per-candidate scores (`_ec_scores`
    for every candidate), certified from a cheaper pass.  `ec_bordered`
    scores all candidates in closed form, differing from the exact EC by at
    most ``bound`` each.  The advantage term is the same array in both, and
    rounding the sum adds at most ``2 eps |score|`` per side.  So every
    exact total lies within ``margin`` of its approximation, and the exact
    argmax is among the candidates whose approximate total is within
    ``2 * margin`` of the approximate maximum.  Only those are scored
    exactly; on a non-finite approximation all of them are.
    """
    m_self = own_matrix(game, player)
    C = _candidates(pi_t, lr)
    meta = m_self @ opp_members.T
    cand_rows = C @ meta
    fixed_rows = fixed_members @ meta
    G = fixed_rows @ fixed_rows.T
    cross = cand_rows @ fixed_rows.T
    approx, bound = ec_bordered(G, cross, np.einsum("ij,ij->i", cand_rows, cand_rows))
    weighted = (lambda_1 * advantage_many(game, player, C) if lambda_1 > 0
                else np.zeros(C.shape[0]))
    approx = approx + weighted
    if np.isfinite(approx).all():
        margin = bound + 2.0 * np.finfo(float).eps * np.abs(approx).max()
        keep = np.flatnonzero(approx >= approx.max() - 2.0 * margin)
    else:
        keep = np.arange(C.shape[0])
    scores = _ec_scores(G, cross, cand_rows, keep) + weighted[keep]
    return C[keep[int(np.argmax(scores))]]


def lookahead_step(game: BimatrixGame, player: int, pi_t: np.ndarray,
                   theta_self: np.ndarray, lr_base: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Advantage hill-climb: sample a step size bounded by the max-norm of the
    player's own meta-weights, enumerate pure-direction candidates, and return
    the one with the highest advantage."""
    bound = min(lr_base, float(np.abs(theta_self).max()))
    step = rng.uniform(0.0, bound)
    C = _candidates(pi_t, step)
    return C[int(np.argmax(advantage_many(game, player, C)))]


# ---------------------------------------------------------------------------
# Population update (the sc_psro rule)

def population_update(game: BimatrixGame, player: int, state: EngineState,
                      theta: MetaSolution, opp_members: np.ndarray) -> str:
    """One update of ``player``'s population: pick the diversity or lookahead
    branch at random, replace the last member with the branch's argmax, and
    append a fresh random member when the improvement ratio against the
    opponent's aggregate stays below the bound.  The branches play against
    ``opp_members``, the opponent population matrix at the iteration's
    start.  Returns the branch taken."""
    cfg = state.config
    pop = state.pop(player)
    opp_pop = state.pop(1 - player)
    theta_self = theta.theta_row if player == 0 else theta.theta_col
    theta_opp = theta.theta_col if player == 0 else theta.theta_row
    pi_t = pop.members[-1]
    last = len(pop) - 1

    if state.rng.uniform() <= cfg.lambda_d:
        branch = "diversity"
        pi_star = _diversity_argmax(game, player, pi_t, pop.members[:-1],
                                    opp_members, cfg.lr, cfg.lambda_1)
    else:
        branch = "lookahead"
        pi_star = lookahead_step(game, player, pi_t, theta_self, cfg.lr,
                                 state.rng)

    m_self = own_matrix(game, player)
    agg_opp = np.asarray(theta_opp) @ opp_members
    num = float(pi_star @ m_self @ agg_opp)
    den = float(pi_t @ m_self @ agg_opp)
    if den < DEN_ATOL:
        # Ratio test is ill-posed at zero or negative baselines; fall back to
        # an additive test scaled by the payoff range.
        scale = float(np.abs(m_self).max()) or 1.0
        improved = (num - den) >= cfg.im * scale
    else:
        improved = (num / den - 1.0) >= cfg.im

    changed = []
    if improved or not cfg.keep_old_on_reject:
        pop.replace(last, pi_star)
        changed.append(last)
    if not improved:
        pop.append(state.rng.dirichlet(np.ones(game.dims(player))))
        changed.append(len(pop) - 1)
    if state.clips:
        old_vals = {last: opp_pop.members @ (m_self.T @ pi_t)}
        _invalidate_for_change(pop, opp_pop, game, player, changed, old_vals)
    return branch


# ---------------------------------------------------------------------------
# Iteration and run loop

def _append_member(game: BimatrixGame, player: int, state: EngineState,
                   strategy: np.ndarray, dedupe: bool = False) -> None:
    pop = state.pop(player)
    if dedupe and (pop.members == strategy).all(axis=1).any():
        return
    pop.append(strategy)
    if state.clips:
        _invalidate_for_change(pop, state.pop(1 - player), game, player,
                               [len(pop) - 1], {})


def run_iteration(state: EngineState) -> IterationReport:
    """One full engine iteration: build the (clipped) empirical game, solve
    the meta-Nash, apply each learner's new-strategy step, and measure
    full-game metrics at the aggregates."""
    t0 = time.perf_counter()
    game, cfg, mode = state.game, state.config, state.mode
    emp = build_empirical(game, state.pop_row, state.pop_col, state.clips,
                          cfg.clip_fraction)
    theta = meta_nash(emp, len(state.pop_row), len(state.pop_col),
                      cfg.fp_max_iters, cfg.fp_tol)
    agg_row = aggregate(state.pop_row, theta.theta_row)
    agg_col = aggregate(state.pop_col, theta.theta_col)

    snapshot = (state.pop_row.members, state.pop_col.members)
    learners = (0,) if mode == "stackelberg_player" else (0, 1)
    branches = ["best_response", "best_response"]
    for player in learners:
        opp_members = snapshot[1 - player]
        if cfg.variant == "vanilla_psro":
            agg_opp = agg_col if player == 0 else agg_row
            _append_member(game, player, state, br_oracle(game, player, agg_opp))
        elif cfg.variant == "diversity_psro":
            pop = state.pop(player)
            cand = _diversity_argmax(game, player, pop.members[-1], pop.members,
                                     opp_members, cfg.lr, cfg.lambda_1)
            branches[player] = "diversity"
            _append_member(game, player, state, cand)
        else:
            branches[player] = population_update(game, player, state, theta,
                                                 opp_members)

    if mode == "stackelberg_player":
        # The follower is an exact best responder; remember each pure reply
        # it has used so the meta-game can mix over them.
        follower_play = br_oracle(game, 1, agg_row)
        _append_member(game, 1, state, follower_play, dedupe=True)
        expl = exploitability(game, agg_row, follower_play)
        reward_row = advantage(game, 0, agg_row)
        reward_col = payoff(game, agg_row, follower_play)[1]
    else:
        expl = exploitability(game, agg_row, agg_col)
        reward_row, reward_col = payoff(game, agg_row, agg_col)

    report = IterationReport(
        iteration=state.iteration,
        theta=theta,
        exploitability=expl,
        reward_row=reward_row,
        reward_col=reward_col,
        pop_sizes=(len(state.pop_row), len(state.pop_col)),
        clipped_sizes=(len(emp.row_index_map), len(emp.col_index_map)),
        oracle_branch_taken=tuple(branches),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    state.iteration += 1
    return report


def run(game: BimatrixGame, config: AlgorithmConfig,
        mode: str = "self_play") -> list:
    """Execute ``config.max_iterations`` iterations and return the full
    trajectory of per-iteration reports.  Deterministic in the config seed."""
    state = init_state(game, config, mode)
    return [run_iteration(state) for _ in range(config.max_iterations)]
