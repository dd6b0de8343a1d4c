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
from dataclasses import dataclass, field

import numpy as np

from .games import BimatrixGame, GameError, check_fields, freeze, payoff
from .solvers import (ONE_THREAD_MNK, TIE_ATOL, MetaSolution, advantage,
                      advantage_many, best_response, blas_threads, ec_of_gram,
                      ec_rank_one, exploitability, fictitious_play, own_matrix,
                      rows_keep_block_bits)

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
    fp_max_iters: int = 2000
    fp_tol: float = 1e-3
    max_iterations: int = 100
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
        if self.max_iterations < 0:
            raise GameError("max_iterations must be >= 0")
        if self.fp_max_iters < 1 or self.fp_tol < 0:
            raise GameError("fp_max_iters >= 1 and fp_tol >= 0 required")


# Confirming-cache arrays of a Population: a new member's value, and dtype.
CACHES = {"mu_index": (-1, int), "sc_advantage": (math.nan, float),
          "stale": (True, bool)}


@dataclass
class Population:
    """Strategies as the rows of one owned, read-only array (k x dim), plus
    per-member confirming caches as arrays of length k.

    ``append`` and ``replace`` build a new ``members`` array and never write
    the old one, so a caller may keep it, or a row of it, as a snapshot.

    ``mu_index[i]`` is the opponent population member best-responding to
    member i; ties are resolved pessimistically (the tied response minimizing
    member i's own payoff, lowest index among those).  ``stale[i]`` marks an
    entry to recompute: a replaced or appended member's own, and every entry
    once the opponent population changes.  ``replies[i]`` memoises the two
    rows of member i that depend on its strategy alone, so one population is
    confirmed against one (game, player).  Only runs that clip fill the
    caches (lazily, in `build_empirical`).
    """

    members: np.ndarray
    mu_index: np.ndarray = None
    sc_advantage: np.ndarray = None
    stale: np.ndarray = None
    replies: dict = field(default_factory=dict)

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
        self.replies.pop(index, None)


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
    row = rng.dirichlet(np.ones(game.n_rows))
    col = rng.dirichlet(np.ones(game.n_cols))
    if mode == "stackelberg_player":
        # The column side is a pure best responder, not a learner: its
        # "population" is the set of pure replies met so far, seeded with the
        # reply to the leader's initial member.  Its random member is still
        # drawn, so every mode continues the same rng stream.
        col = br_oracle(game, 1, row)
    return EngineState(game, config, mode, Population([row]), Population([col]),
                       rng)


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
    for i in map(int, np.flatnonzero(pop.stale)):
        if i not in pop.replies:
            pop.replies[i] = (m_opp @ pop.members[i], m_self.T @ pop.members[i])
        r_opp, r_self = pop.replies[i]
        opp_vals = O @ r_opp     # opponent payoff per opponent member
        self_vals = O @ r_self   # own payoff per opponent member
        tied = np.flatnonzero(opp_vals >= opp_vals.max() - TIE_ATOL)
        j = int(tied[int(np.argmin(self_vals[tied]))])
        pop.mu_index[i] = j
        pop.sc_advantage[i] = float(self_vals[j])
        pop.stale[i] = False


def _invalidate_for_change(opp_pop: Population) -> None:
    """Mark every opponent-side confirming cache stale after a member of the
    population it is confirmed against was replaced or appended."""
    opp_pop.stale[:] = True


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
    m_row = R @ game.u_row @ C.T
    # Negation is exact and rounding symmetric, so in an exactly zero-sum
    # game this equals the column product entry for entry; only an exact
    # zero may differ in sign, which no comparison in the meta-solver sees.
    m_col = -m_row if game.exact_zero_sum else R @ game.u_col @ C.T
    return EmpiricalGame(m_row, m_col, ri, ci)


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

def _candidates(pi_t: np.ndarray, step: float, rows=None) -> np.ndarray:
    """One candidate per signed pure direction: |pi_t +/- step * e_a|,
    normalized; row a moves coordinate a up and row n + a moves it down.
    Negative directions shift mass away from a coordinate, which the
    absolute-value normalization keeps on the simplex; without them the hill
    climb can only concentrate mass, never refine a mixture.  ``rows``
    builds only those candidates (all 2n by default), each with the bits it
    has in the full block."""
    n = pi_t.shape[0]
    rows = np.arange(2 * n) if rows is None else np.asarray(rows)
    V = np.tile(pi_t, (rows.shape[0], 1))
    V[np.arange(rows.shape[0]), rows % n] += np.where(rows < n, step, -step)
    np.abs(V, out=V)
    sums = V.sum(axis=1, keepdims=True)
    np.maximum(sums, 1e-15, out=sums)
    V /= sums
    return V


def _advantage_bounds(game: BimatrixGame, player: int, pi_t: np.ndarray,
                      step: float):
    """Bounds ``(lo, hi)`` on the advantage that `advantage_many` gives each
    row of ``_candidates(pi_t, step)`` (pi_t on the simplex), found without
    the dense products, whatever rows share their block and on any thread
    count; ``(-inf, inf)`` on rows where the bounds would be loose, and None
    where every row is.

    Candidate i moves coordinate a of pi_t by ``delta[i]`` and divides by
    ``sums[i]``, so its payoffs against the pure replies are
    ``(pi_t @ M + delta[i] * M[a]) / sums[i]``: elementwise work in row
    chunks.  Each payoff that ``advantage_many`` computes lies within
    ``rho[i] / sums[i]`` of this value, rho being M's entry of ``rhos``.
    gamma_n bounds the dense dot products, ``pi_t @ M`` and the sums; the
    factor 16 covers them, and the few other roundings, more than twice
    over.  A reply whose tie-set membership these errors could flip counts
    for the lower bound of the advantage and not for the upper one.  A
    bound past TIE_ATOL / 4, as from payoffs past about 70 at dim 1000, or
    a row whose sum is near 0, could settle no tie set and makes the row
    loose; within it, the sums also stay clear of the clamp in
    `_candidates`.  An exactly zero-sum game, where ``advantage_many``
    takes the minimum over all replies, needs no other path: the reply at
    the player's minimum is, up to rounding, the opponent's best, so the
    bounds hold it as they hold a tie set.

    Two shortcuts form fewer opponent payoffs, each as the full pass forms
    it, so the bits are the same.  A "-" row n + a differs from its "+"
    twin a by a multiple of M[a], so its payoffs are formed only within
    ``reach`` below the twin's best.  And a row whose step times the margin
    of the opponent's best reply (`BimatrixGame.reply_margins`) outweighs
    the rest has that reply as its whole tie set; a chunk of such rows
    skips the pass.
    """
    n = pi_t.shape[0]
    p = np.abs(pi_t)
    delta = np.abs(np.concatenate([pi_t + step, pi_t - step])) - np.tile(p, 2)
    total = p.sum()
    sums = total + delta
    eps = np.finfo(float).eps / 2
    scale = 16.0 * n * eps / (1.0 - n * eps) * (sums + total + np.abs(delta))
    mats = [own_matrix(game, player), own_matrix(game, 1 - player).T]
    scales, replies = game.reply_margins
    bases = [p @ M for M in mats]
    rhos = [scale * max(scales[q], TIE_ATOL) for q in (player, 1 - player)]
    tight = np.logical_and(*(rho <= sums * (TIE_ATOL / 4) for rho in rhos))
    if not tight.any():
        return None
    # Both the reply and the best one may be off by rho; the rest of the
    # band covers the rounding of the threshold itself.
    band = 3.0 * rhos[1]
    # Dominant steps: with delta > 0, every other reply's payoff trails that
    # of the best reply j by delta times j's margin, less how far the
    # largest base exceeds j's, each off by at most rho.  Where that lead is
    # twice the tie width, the band and both errors, j alone ties.  Every
    # row gets j's values; the pass overwrites the rows of its chunks.
    own = np.tile(np.arange(n), 2)
    best, margin = replies[player]
    j = best[own]
    gain = np.zeros(2 * n)
    np.multiply(delta, margin[own], out=gain, where=delta > 0)
    settled = gain > 2.0 * (bases[1].max() - bases[1][j] + sums * TIE_ATOL
                            + 5.0 * rhos[1])
    x = mats[1][own, j] * delta + bases[1][j]
    lo = bases[0][j] + delta * mats[0][own, j]
    hi = np.where(x >= x - sums * TIE_ATOL + band, lo, np.inf)
    open_rows = (tight & ~settled).reshape(2, n).any(axis=0)
    # Row n + a's payoffs lie within |delta[n + a] - delta[a]| times the
    # scale of row a's, so its tie set lies within twice that, its tie
    # width, band and both errors below row a's best, doubled for rounding.
    reach = 2.0 * (2.0 * np.abs(delta[n:] - delta[:n]) * scales[1 - player]
                   + sums[n:] * TIE_ATOL + band[n:]
                   + 2.0 * (rhos[1][:n] + rhos[1][n:]))
    m = mats[0].shape[1]
    X = np.empty((max(1, 65536 // m), m))
    for start in range(0, n, X.shape[0]):
        a = slice(start, min(start + X.shape[0], n))
        if not open_rows[a].any():
            continue
        rows = mats[1][a]     # the values that pick the replies
        x = np.multiply(rows, delta[a, None], out=X[:rows.shape[0]])
        x += bases[1]
        top = x.max(axis=1)
        # Each row's own maximum passes, so every row starts a run in r.
        r, c = np.divmod(np.flatnonzero(x >= np.minimum(
            top - sums[a] * TIE_ATOL - band[a], top - reach[a])[:, None]), m)
        runs = np.flatnonzero(np.diff(r, prepend=-1))
        twins = slice(n + a.start, n + a.stop)
        for i, xs in ((a, x[r, c]),
                      (twins, rows[r, c] * delta[twins][r] + bases[1][c])):
            thr = np.maximum.reduceat(xs, runs) - sums[i] * TIE_ATOL
            near = xs >= (thr - band[i])[r]
            rn, cn = r[near], c[near]
            y = bases[0][cn] + delta[i][rn] * mats[0][start + rn, cn]
            starts = np.flatnonzero(np.diff(rn, prepend=-1))
            lo[i] = np.minimum.reduceat(y, starts)
            hi[i] = np.minimum.reduceat(
                np.where(xs[near] >= (thr + band[i])[rn], y, np.inf), starts)
    # Loose rows are left out of the division: their sums may be 0.
    return (np.divide(lo - rhos[0], sums, out=np.full(2 * n, -np.inf),
                      where=tight),
            np.divide(hi + rhos[0], sums, out=np.full(2 * n, np.inf),
                      where=tight))


def _ec_scores(fixed_rows: np.ndarray, cand_rows: np.ndarray,
               index: np.ndarray) -> np.ndarray:
    """Expected cardinality of the meta-matrix made of the k fixed rows plus
    candidate row i, for each i in ``index``: one Cholesky of the candidate's
    own bordered Gram matrix each.

    Each score depends only on its candidate's bordered matrix, so it carries
    the same bits whichever other candidates are scored alongside it.
    """
    k = fixed_rows.shape[0]
    cross = cand_rows @ fixed_rows.T
    L = np.empty((k + 1, k + 1))
    L[:k, :k] = fixed_rows @ fixed_rows.T
    scores = np.empty(len(index))
    for j, i in enumerate(index):
        L[:k, k] = cross[i]
        L[k, :k] = cross[i]
        L[k, k] = cand_rows[i] @ cand_rows[i]
        scores[j] = ec_of_gram(L)
    return scores


def _best_candidate(game: BimatrixGame, player: int, pi_t: np.ndarray,
                    step: float, weight: float, ec=None, C=None) -> np.ndarray:
    """The candidate of ``_candidates(pi_t, step)`` (``C``, where the caller
    has built it) with the highest score: ``weight`` times its advantage
    plus, where ``ec = (approx, bound, exact)`` is given, its expected
    cardinality, within ``bound`` of ``approx`` and ``exact(rows)`` for the
    given rows.  Ties go to the lowest candidate index.

    For blocks of at least ONE_THREAD_MNK multiply-adds (the threading
    cutoff of `run_iteration`; the bounds were timed only at dims 100,
    where they cost more than they saved, and 1000) the advantage lies
    within the bounds of `_advantage_bounds`, infinite on loose rows; where
    every row is loose it is the full block's dense advantage.  A candidate
    survives if its highest possible score reaches the best lowest one,
    ``slack`` covering the rounding of the weighted terms and sums; on a
    non-finite approximation all of them do.  Survivors that are one row are
    that row; else they are scored exactly, with the dense advantage of the
    survivors alone where they keep the block's bits
    (`rows_keep_block_bits`), else of the full block.
    """
    n = pi_t.shape[0]
    approx, bound, exact = ec or (0.0, 0.0, lambda rows: 0.0)
    bounds = dense = None
    if weight > 0 and 2 * n * n * game.dims(1 - player) >= ONE_THREAD_MNK:
        bounds = _advantage_bounds(game, player, pi_t, step)
    if bounds is None:
        C = _candidates(pi_t, step) if C is None else C
        dense = (advantage_many(game, player, C) if weight > 0
                 else np.zeros(2 * n))
        if ec is None:   # every score is exact: no survivor rule is needed
            return C[int(np.argmax(dense))]
        bounds = dense, dense
    lo, hi = bounds
    # Rounding the weighted advantage, an exact total and the sums below
    # moves a total by at most 6 unit roundoffs of its terms' magnitudes;
    # the slack allows 16.
    slack = 8.0 * np.finfo(float).eps * (
        np.abs(approx) + bound + weight * np.maximum(np.abs(lo), np.abs(hi)))
    low = approx - bound + weight * lo - slack
    high = approx + bound + weight * hi + slack
    # A weight so large that the sums overflow to NaN keeps them all.
    keep = (np.flatnonzero(~(high < low.max())) if np.isfinite(approx).all()
            else np.arange(2 * n))
    rows = _candidates(pi_t, step, keep) if C is None else C[keep]
    if (rows == rows[0]).all():
        return rows[0]
    if dense is None and not rows_keep_block_bits(game, player):
        C = _candidates(pi_t, step) if C is None else C
        dense = advantage_many(game, player, C)
    adv = (dense[keep] if dense is not None
           else advantage_many(game, player, rows, picked=True))
    return rows[int(np.argmax(exact(keep) + weight * adv))]


def _diversity_argmax(game: BimatrixGame, player: int, pi_t: np.ndarray,
                      fixed_members: np.ndarray, opp_members: np.ndarray,
                      lr: float, lambda_1: float) -> np.ndarray:
    """Replace-then-score diversity update: among the pure-direction steps
    from ``pi_t``, the candidate maximizing the expected cardinality of the
    meta-matrix of ``fixed_members`` (k x n, k >= 0) plus the candidate
    against ``opp_members``, plus ``lambda_1`` times the candidate's
    advantage (`_best_candidate`).  `ec_rank_one` scores all candidates from
    one factorization, each within ``bound`` of its exact EC at every payoff
    scale, and only the candidates it cannot rule out get `_ec_scores`."""
    m_self = own_matrix(game, player)
    C = _candidates(pi_t, lr)
    meta = m_self @ opp_members.T
    cand_rows = C @ meta
    fixed_rows = fixed_members @ meta
    approx, bound = ec_rank_one(fixed_rows, cand_rows)
    return _best_candidate(
        game, player, pi_t, lr, lambda_1,
        (approx, bound, lambda keep: _ec_scores(fixed_rows, cand_rows, keep)),
        C)


def lookahead_step(game: BimatrixGame, player: int, pi_t: np.ndarray,
                   theta_self: np.ndarray, lr_base: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Advantage hill-climb: sample a step size bounded by the max-norm of the
    player's own meta-weights, enumerate pure-direction candidates, and return
    the one with the highest advantage (`_best_candidate`; the lowest index
    among ties)."""
    bound = min(lr_base, float(np.abs(theta_self).max()))
    return _best_candidate(game, player, pi_t, rng.uniform(0.0, bound), 1.0)


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

    pop.replace(last, pi_star)
    if not improved:
        pop.append(state.rng.dirichlet(np.ones(game.dims(player))))
    if state.clips:
        _invalidate_for_change(state.pop(1 - player))
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
        _invalidate_for_change(state.pop(1 - player))


def run_iteration(state: EngineState) -> IterationReport:
    """One full engine iteration: build the (clipped) empirical game, solve
    the meta-Nash, apply each learner's new-strategy step, and measure
    full-game metrics at the aggregates.

    The iteration runs on one BLAS thread where the larger candidate block
    has fewer than ONE_THREAD_MNK multiply-adds, else on the process's
    thread count."""
    t0 = time.perf_counter()
    game, cfg, mode = state.game, state.config, state.mode
    n, m = game.n_rows, game.n_cols
    with blas_threads(1 if 2 * n * m * max(n, m) < ONE_THREAD_MNK else None):
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
                _append_member(game, player, state,
                               br_oracle(game, player, agg_opp))
            elif cfg.variant == "diversity_psro":
                pop = state.pop(player)
                cand = _diversity_argmax(game, player, pop.members[-1],
                                         pop.members, opp_members, cfg.lr,
                                         cfg.lambda_1)
                branches[player] = "diversity"
                _append_member(game, player, state, cand)
            else:
                branches[player] = population_update(game, player, state,
                                                     theta, opp_members)

        if mode == "stackelberg_player":
            # The follower is an exact best responder; remember each pure
            # reply it has used so the meta-game can mix over them.
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
