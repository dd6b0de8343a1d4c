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
                       With no other member, a candidate's meta-row x has EC
                       ``|x|^2 / (1 + |x|^2)``: a one-member population's
                       diversity branch scores payoff magnitude.

Each member keeps both players' payoffs per opponent action against it
(`Population.reply`) and a confirming cache: its self-confirming advantage,
which drives the clipping, and a stale flag.  `run_iteration` marks the
opponent's entries stale on every population change; clipping refreshes them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .games import (BimatrixGame, GameError, check_fields, freeze,
                    validate_strategy)
from .solvers import (PICKED_ROWS, TIE_ATOL, MetaSolution, above_gate,
                      advantage, advantage_many, blas_threads, ec_of_gram,
                      ec_rank_one, exploitability, fictitious_play, own_matrix,
                      rows_keep_block_bits, zero_block)

VARIANTS = ("vanilla_psro", "diversity_psro", "sc_psro")
MODES = ("self_play", "stackelberg_player", "prosocial")

# Below this magnitude the improvement-ratio denominator is degenerate (or
# negative, which inverts the inequality) and an additive test is used.
DEN_ATOL = 1e-9

# Fictitious play on the empirical game stops once its residual is at most
# this, or after `AlgorithmConfig.fp_max_iters` steps.
FP_TOL = 1e-3


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
        if self.fp_max_iters < 1:
            raise GameError("fp_max_iters must be >= 1")


@dataclass
class Population:
    """``player``'s strategies in ``game`` as the rows of one owned, read-only
    array (k x dim, k >= 1), plus a per-member confirming cache.

    ``append`` and ``replace`` build a new ``members`` array and never write
    the old one, so a caller may keep it, or a row of it, as a snapshot.
    Neither shrinks the population, so it is never empty.

    ``sc_advantage[i]`` is member i's self-confirming advantage: its payoff
    against the opponent population members best-responding to it, the
    least one where several tie (pessimistic).  ``stale[i]`` marks an entry
    to recompute: a replaced or appended member's own, and every entry once
    `run_iteration` changes the opponent population.  Only runs that clip
    fill the entries (lazily, in `build_empirical`).  ``replies[i]`` holds
    member i's two payoff vectors (`reply`), in every run; candidate scoring
    reads the last member's.  Both multiply ``mats``: the own and opponent
    matrices, each (own actions) x (opponent actions).
    """

    members: np.ndarray
    game: BimatrixGame
    player: int
    mats: tuple = field(init=False)
    sc_advantage: np.ndarray = field(init=False)
    stale: np.ndarray = field(init=False)
    replies: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.members = freeze(np.array(self.members, dtype=float))  # a copy
        if self.members.ndim != 2 or self.members.size == 0:
            raise GameError("members must be a k x dim array, k, dim >= 1")
        if self.members.shape[1] != self.game.dims(self.player):
            raise GameError("members do not match the player's action count")
        self.mats = (own_matrix(self.game, self.player),
                     own_matrix(self.game, 1 - self.player).T)
        self.sc_advantage = np.full(len(self), math.nan)
        self.stale = np.ones(len(self), dtype=bool)

    def __len__(self) -> int:
        return self.members.shape[0]

    def append(self, strategy: np.ndarray) -> None:
        self.members = freeze(np.vstack([self.members, strategy]))
        self.sc_advantage = np.append(self.sc_advantage, math.nan)
        self.stale = np.append(self.stale, True)

    def replace(self, index: int, strategy: np.ndarray) -> None:
        members = self.members.copy()
        members[index] = strategy
        self.members = freeze(members)
        self.stale[index] = True
        self.replies.pop(index, None)

    def reply(self, i: int, side: int):
        """Member i's payoffs per opponent action, formed once: its own
        (side 0) or the opponent's (side 1), ``members[i] @ mats[side]``."""
        vectors = self.replies.setdefault(i, [None, None])
        if vectors[side] is None:
            vectors[side] = self.members[i] @ self.mats[side]
        return vectors[side]


@dataclass
class EmpiricalGame:
    m_row: np.ndarray
    m_col: np.ndarray
    # Empirical -> population: the kept indices, or a slice of every member.
    row_index_map: np.ndarray | slice
    col_index_map: np.ndarray | slice


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
        """Whether the run clips, and so refreshes confirming caches."""
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
    return EngineState(game, config, mode, Population([row], game, 0),
                       Population([col], game, 1), rng)


# ---------------------------------------------------------------------------
# Confirming caches

def refresh_confirming(pop: Population, opponent_pop: Population) -> None:
    """Recompute the self-confirming advantage of every stale member.
    Idempotent once all flags are clear."""
    O = opponent_pop.members
    for i in map(int, np.flatnonzero(pop.stale)):
        opp_vals = O @ pop.reply(i, 1)
        self_vals = O @ pop.reply(i, 0)
        tied = opp_vals >= opp_vals.max() - TIE_ATOL
        pop.sc_advantage[i] = float(self_vals[tied].min())
        pop.stale[i] = False


def _invalidate_for_change(opp_pop: Population) -> None:
    """Mark every opponent-side confirming cache stale after a member of the
    population it is confirmed against was replaced or appended, in every
    run; only runs that clip read the flags."""
    opp_pop.stale[:] = True


# ---------------------------------------------------------------------------
# Empirical game and meta-Nash

def _retained_indices(pop: Population, clip: bool,
                      s: float) -> np.ndarray | slice:
    if not clip:
        return slice(None)
    n = len(pop)
    k = min(max(math.ceil(s * n), 2), n)   # at least two where possible
    return np.sort(np.argsort(-pop.sc_advantage, kind="stable")[:k])


def build_empirical(pop_row: Population, pop_col: Population,
                    clip: bool = False, s: float = 1.0) -> EmpiricalGame:
    """Payoff matrices over one game's (optionally clipped) populations.

    Clipping refreshes stale confirming caches, then keeps each population's
    top ceil(s*n) members by self-confirming advantage (ties by lower index,
    at least two members where possible), never changing the populations.
    Unclipped, the products run on the populations' own arrays, uncopied.
    """
    game = pop_row.game
    if (pop_row.player, pop_col.player) != (0, 1) or pop_col.game is not game:
        raise GameError("populations must be the row and column of one game")
    if clip:
        refresh_confirming(pop_row, pop_col)
        refresh_confirming(pop_col, pop_row)
    ri = _retained_indices(pop_row, clip, s)
    ci = _retained_indices(pop_col, clip, s)
    R, C = pop_row.members[ri], pop_col.members[ci]
    m_row = R @ game.u_row @ C.T
    # Negation is exact and rounding symmetric, so in an exactly zero-sum
    # game this equals the column product entry for entry; only an exact
    # zero may differ in sign, which no comparison in the meta-solver sees.
    m_col = -m_row if game.exact_zero_sum else R @ game.u_col @ C.T
    return EmpiricalGame(m_row, m_col, ri, ci)


def meta_nash(empirical: EmpiricalGame, pop_row_size: int, pop_col_size: int,
              fp_max_iters: int) -> MetaSolution:
    """Meta-Nash of the empirical game by fictitious play to FP_TOL, with the
    weights lifted back from clipped empirical indices to population
    indices."""
    sol = fictitious_play(empirical.m_row, empirical.m_col, fp_max_iters, FP_TOL)
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
    """Exact pure best response to the opponent's aggregate, as a one-hot
    (the lowest index within TIE_ATOL of the best)."""
    q = validate_strategy(opponent_aggregate, game.dims(1 - player))
    values = own_matrix(game, player) @ q
    out = np.zeros(game.dims(player))
    out[np.argmax(values >= values.max() - TIE_ATOL)] = 1.0
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


def _steps(pi_t: np.ndarray, step: float):
    """``(|pi_t|, delta, sums, scale)`` of ``C = _candidates(pi_t, step)``:
    row i of ``C @ X`` is ``(|pi_t| @ X + delta[i] * X[a]) / sums[i]`` up to
    ``scale[i] * max |X[:, j]| / sums[i]`` in column j where ``4 * scale[i]
    <= sums[i]`` (gamma_n bounds the dense dot products, ``|pi_t| @ X`` and
    the sums; the factor 16 covers them and the other roundings more than
    twice over; the sums stay clear of the clamp in `_candidates`)."""
    nu = pi_t.shape[0] * np.finfo(float).eps / 2   # n unit roundoffs
    p = np.abs(pi_t)
    delta = np.abs(np.concatenate([pi_t + step, pi_t - step])) - np.tile(p, 2)
    total = p.sum()
    sums = total + delta
    scale = 16.0 * nu / (1.0 - nu) * (sums + total + np.abs(delta))
    return p, delta, sums, scale


def _ec_rows(pi_t: np.ndarray, step: float, meta: np.ndarray):
    """The rows of ``_candidates(pi_t, step) @ meta`` in the rank-one form
    (`_steps`), 0 where the mass is near 0, and bounds on their errors in
    2-norm, infinite there.  The EC of ``[F; x]`` is a constant plus
    f(x) = |Px|^2 / (1 + x.Px), P = (I + F^T F)^-1 <= I, whose gradient is
    at most 1.58 in norm: an error e in x moves it by less than 2e."""
    p, delta, sums, scale = _steps(pi_t, step)
    tight = 4.0 * scale <= sums
    sums = np.where(tight, sums, np.inf)   # loose rows divide to 0
    x = (p @ meta + delta[:, None] * np.tile(meta, (2, 1))) / sums[:, None]
    err = np.linalg.norm(np.abs(meta).max(axis=0)) * scale / sums
    return x, np.where(tight, err, np.inf)


def _advantage_bounds(pop: Population, step: float):
    """Bounds ``(lo, hi)`` on the advantage that `advantage_many` gives each
    row of ``_candidates(pi_t, step)``, pi_t being ``pop``'s last member,
    found without the dense products, whatever rows share their block and on
    any thread count; ``(-inf, inf)`` on rows where the bounds would be
    loose, and None where every row is.  The bases, pi_t's `Population.reply`
    vectors, are ``|pi_t| @ mats[q]`` bit for bit (members are non-negative).

    Each payoff that ``advantage_many`` computes lies within ``rho[i] /
    sums[i]`` of its rank-one form (`_steps`), formed elementwise, rho being
    M's entry of ``rhos``; the near replies are picked in row chunks and
    reduced to bounds once, over all chunks.  A reply whose tie-set
    membership these errors could flip counts for the lower bound of the
    advantage and not for the upper one.  A bound past TIE_ATOL / 4, as from
    payoffs past about 70 at dim 1000, or a row whose sum is near 0, could
    settle no tie set and makes the row loose.  An exactly zero-sum game,
    where ``advantage_many`` takes the minimum over all replies, needs no
    other path: the reply at the player's minimum is, up to rounding, the
    opponent's best, so the bounds hold it as they hold a tie set.

    Two shortcuts form fewer opponent payoffs, each as the full pass forms
    it, so the bits are the same.  A "-" row n + a differs from its "+"
    twin a by a multiple of M[a], so its payoffs are formed only within
    ``reach`` below the twin's best.  And a row whose step times the margin
    of the opponent's best reply (`BimatrixGame.reply_margins`) outweighs
    the rest has that reply as its whole tie set; a chunk of such rows
    skips the pass.
    """
    n, player, mats = pop.members.shape[1], pop.player, pop.mats
    _, delta, sums, scale = _steps(pop.members[-1], step)
    scales, replies = pop.game.payoff_scales, pop.game.reply_margins
    bases = [pop.reply(len(pop) - 1, q) for q in (0, 1)]
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
    pairs = []     # (rows, columns, "+" payoffs) of each chunk's near replies
    for start in range(0, n, X.shape[0]):
        a = slice(start, min(start + X.shape[0], n))
        if not open_rows[a].any():
            continue
        x = np.multiply(mats[1][a], delta[a, None], out=X[:a.stop - start])
        x += bases[1]
        top = x.max(axis=1)
        r, c = np.divmod(np.flatnonzero(x >= np.minimum(
            top - sums[a] * TIE_ATOL - band[a], top - reach[a])[:, None]), m)
        pairs.append((start + r, c, x[r, c]))
    if pairs:
        r, c, x = map(np.concatenate, zip(*pairs))
        # Each row's own maximum passes, so every row starts a run in r.
        new_row = np.diff(r, prepend=-1) != 0
        runs, run = np.flatnonzero(new_row), np.cumsum(new_row) - 1
        twins = mats[1][r, c] * delta[n + r] + bases[1][c]
        for i, xs in ((r[runs], x), (n + r[runs], twins)):
            thr = np.maximum.reduceat(xs, runs) - sums[i] * TIE_ATOL
            near = xs >= (thr - band[i])[run]
            rn, cn, kn = r[near], c[near], run[near]
            y = bases[0][cn] + delta[i][kn] * mats[0][rn, cn]
            starts = np.flatnonzero(np.diff(rn, prepend=-1))
            lo[i] = np.minimum.reduceat(y, starts)
            hi[i] = np.minimum.reduceat(
                np.where(xs[near] >= (thr + band[i])[kn], y, np.inf), starts)
    # Loose rows are left out of the division: their sums may be 0.
    return (np.divide(lo - rhos[0], sums, out=np.full(2 * n, -np.inf),
                      where=tight),
            np.divide(hi + rhos[0], sums, out=np.full(2 * n, np.inf),
                      where=tight))


def _ec_scores(fixed_rows: np.ndarray, rows: np.ndarray, index: np.ndarray,
               meta: np.ndarray) -> np.ndarray:
    """Expected cardinality of the meta-matrix made of the k fixed rows plus
    candidate i's row of ``C @ meta`` (C the full 2n-row block) for each i
    in ``index``, ``rows`` being those candidates: one inverse of its own
    bordered Gram matrix each (`ec_of_gram`).

    The rows of ``C @ meta`` come from the zero block (`zero_block`) holding
    each candidate in its place.  BLAS kernels do not branch on the values
    in other rows, so each score has the bits the full block gives it.
    """
    Z = zero_block(rows.shape[1])
    Z[index] = rows
    try:
        cand_rows = Z @ meta
    finally:
        Z[index] = 0.0
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


def _best_candidate(pop: Population, step: float, weight: float,
                    fixed_rows=None, meta=None) -> np.ndarray:
    """The candidate of ``_candidates(pi_t, step)``, pi_t being ``pop``'s
    last member, with the highest score: ``weight`` times its advantage plus,
    where ``meta`` is given, the EC of the meta-matrix of ``fixed_rows`` and
    its row of ``C @ meta``, C being the full block.  Ties go to the lowest
    index.

    Each term first comes as an interval: the advantage from
    `_advantage_bounds` at ONE_THREAD_MNK multiply-adds or more
    (`above_gate`; at dim 100 they cost more than they saved), and the EC,
    at every size, from `ec_rank_one` on rows from `_ec_rows`, its bound
    widened by twice their error.  Below the gate, or where every row is
    loose, the block is built and its dense advantage is the advantage.  A
    candidate survives if its highest possible score reaches the best lowest
    one (``slack`` covers the rounding of the sums, finite as
    `games.MAX_MAGNITUDE` bounds every input).  One-row survivors are the
    pick.  Else they are built alone and scored exactly: EC by `_ec_scores`,
    and the dense advantage of the survivors alone, in calls of PICKED_ROWS
    rows, where they keep the block's bits (`rows_keep_block_bits`), else of
    the block.
    """
    game, player, pi_t = pop.game, pop.player, pop.members[-1]
    n = pi_t.shape[0]
    bounds = None
    if weight > 0 and above_gate(n, game.dims(1 - player)):
        bounds = _advantage_bounds(pop, step)
    dense = None
    if weight > 0 and bounds is None:   # the block's advantage is scored
        C = _candidates(pi_t, step)
        dense = advantage_many(game, player, C)
        if meta is None:   # every score is exact: no survivor rule is needed
            return C[int(np.argmax(dense))]
    elif bounds is None:
        dense = np.zeros(2 * n)
    approx = bound = 0.0
    if meta is not None:
        rows, err = _ec_rows(pi_t, step, meta)
        approx, bound = ec_rank_one(fixed_rows, rows)
        bound = bound + 2.0 * err
    lo, hi = (dense, dense) if bounds is None else bounds
    # Rounding the weighted advantage, an exact total and the sums below
    # moves a total by at most 6 unit roundoffs of its terms' magnitudes;
    # the slack allows 16.
    slack = 8.0 * np.finfo(float).eps * (
        np.abs(approx) + bound + weight * np.maximum(np.abs(lo), np.abs(hi)))
    low = approx - bound + weight * lo - slack
    high = approx + bound + weight * hi + slack
    keep = np.flatnonzero(~(high < low.max()))
    rows = _candidates(pi_t, step, keep)
    if (rows == rows[0]).all():
        return rows[0]
    exact = 0.0 if meta is None else _ec_scores(fixed_rows, rows, keep, meta)
    if dense is None and not rows_keep_block_bits(game, player):
        dense = advantage_many(game, player, _candidates(pi_t, step))
    if dense is not None:
        adv = dense[keep]
    else:   # the last call's rows filled up with repeated ones
        k = len(keep)
        P = np.resize(rows, (-(-k // PICKED_ROWS) * PICKED_ROWS, n))
        adv = np.concatenate([advantage_many(game, player, P[s:s + PICKED_ROWS])
                              for s in range(0, k, PICKED_ROWS)])[:k]
    return rows[int(np.argmax(exact + weight * adv))]


def _diversity_argmax(pop: Population, fixed_members: np.ndarray,
                      opp_members: np.ndarray, lr: float,
                      lambda_1: float) -> np.ndarray:
    """Replace-then-score diversity update: among the pure-direction steps
    from ``pop``'s last member, the candidate maximizing the expected
    cardinality of the meta-matrix of ``fixed_members`` (k x n, k >= 0) plus
    the candidate against ``opp_members``, plus ``lambda_1`` times its
    advantage, as `_best_candidate` scores them."""
    meta = pop.mats[0] @ opp_members.T
    return _best_candidate(pop, lr, lambda_1, fixed_members @ meta, meta)


def lookahead_step(pop: Population, theta_self: np.ndarray, lr_base: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Advantage hill-climb from ``pop``'s last member: sample a step size
    bounded by the max-norm of the player's own meta-weights, enumerate
    pure-direction candidates, and return the one with the highest
    advantage (`_best_candidate`; the lowest index among ties)."""
    step = rng.uniform(0.0, min(lr_base, float(np.abs(theta_self).max())))
    return _best_candidate(pop, step, 1.0)


# ---------------------------------------------------------------------------
# Population update (the sc_psro rule)


def population_update(game: BimatrixGame, player: int, state: EngineState,
                      theta: MetaSolution, opp_members: np.ndarray,
                      agg_opp: np.ndarray) -> str:
    """One update of ``player``'s population: pick the diversity or lookahead
    branch at random, replace the last member with the branch's argmax, and
    append a fresh random member when the improvement ratio against
    ``agg_opp``, the opponent's aggregate, stays below the bound.  The
    branches play against ``opp_members``, the opponent population matrix
    at the iteration's start.  Returns the branch taken."""
    cfg = state.config
    pop = state.pop(player)
    theta_self = theta.theta_row if player == 0 else theta.theta_col
    last = len(pop) - 1

    if state.rng.uniform() <= cfg.lambda_d:
        branch = "diversity"
        pi_star = _diversity_argmax(pop, pop.members[:-1], opp_members,
                                    cfg.lr, cfg.lambda_1)
    else:
        branch = "lookahead"
        pi_star = lookahead_step(pop, theta_self, cfg.lr, state.rng)

    den = float(pop.reply(last, 0) @ agg_opp)
    pop.replace(last, pi_star)   # the new member's own payoffs are kept
    num = float(pop.reply(last, 0) @ agg_opp)
    if den < DEN_ATOL:
        # Ratio test is ill-posed at zero or negative baselines; fall back to
        # an additive test scaled by the payoff range.
        improved = (num - den) >= cfg.im * (game.payoff_scales[player] or 1.0)
    else:
        improved = (num / den - 1.0) >= cfg.im

    if not improved:
        pop.append(state.rng.dirichlet(np.ones(game.dims(player))))
    return branch


# ---------------------------------------------------------------------------
# Iteration and run loop

def run_iteration(state: EngineState) -> IterationReport:
    """One full engine iteration: build the (clipped) empirical game, solve
    the meta-Nash, apply each learner's new-strategy step, and measure
    full-game metrics at the aggregates.  Populations change only here;
    after each learner's step and each follower reply, the opponent's
    confirming entries go stale.

    The iteration runs on one BLAS thread where the larger candidate block
    has fewer than ONE_THREAD_MNK multiply-adds, else on the process's
    thread count."""
    t0 = time.perf_counter()
    game, cfg, mode = state.game, state.config, state.mode
    n, m = game.n_rows, game.n_cols
    with blas_threads(None if above_gate(n, m) or above_gate(m, n) else 1):
        emp = build_empirical(state.pop_row, state.pop_col, state.clips,
                              cfg.clip_fraction)
        theta = meta_nash(emp, len(state.pop_row), len(state.pop_col),
                          cfg.fp_max_iters)
        agg_row = aggregate(state.pop_row, theta.theta_row)
        agg_col = aggregate(state.pop_col, theta.theta_col)

        snapshot = (state.pop_row.members, state.pop_col.members)
        learners = (0,) if mode == "stackelberg_player" else (0, 1)
        branches = ["best_response", "best_response"]
        for player in learners:
            opp_members = snapshot[1 - player]
            agg_opp = agg_col if player == 0 else agg_row
            pop = state.pop(player)
            if cfg.variant == "vanilla_psro":
                pop.append(br_oracle(game, player, agg_opp))
            elif cfg.variant == "diversity_psro":
                pop.append(_diversity_argmax(pop, pop.members, opp_members,
                                             cfg.lr, cfg.lambda_1))
                branches[player] = "diversity"
            else:
                branches[player] = population_update(game, player, state,
                                                     theta, opp_members,
                                                     agg_opp)
            _invalidate_for_change(state.pop(1 - player))

        if mode == "stackelberg_player":
            # The follower plays its exact pure best reply; remember each
            # reply it has used so the meta-game can mix over them.
            agg_col = br_oracle(game, 1, agg_row)
            if not (state.pop_col.members == agg_col).all(axis=1).any():
                state.pop_col.append(agg_col)
                _invalidate_for_change(state.pop_row)
        expl, reward_row, reward_col = exploitability(game, agg_row, agg_col)
        if mode == "stackelberg_player":
            reward_row = advantage(game, 0, agg_row)   # the leader's value

    report = IterationReport(
        iteration=state.iteration,
        theta=theta,
        exploitability=expl,
        reward_row=reward_row,
        reward_col=reward_col,
        pop_sizes=(len(state.pop_row), len(state.pop_col)),
        clipped_sizes=emp.m_row.shape,
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
