"""Exact game-theoretic primitives.

Best response, exploitability, the advantage (Stackelberg-value) function,
fictitious play over empirical matrices, the expected-cardinality diversity
score, and two desk-scale oracles (simplex grid search for Stackelberg
strategies, support enumeration for Nash equilibria).  Everything here is a
pure function of its inputs.
"""
from __future__ import annotations

import contextlib
import ctypes
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .games import BimatrixGame, GameError, StrategyError, validate_strategy

# Absolute tolerance for forming best-response tie sets; ties are broken by
# lowest index everywhere for determinism.
TIE_ATOL = 1e-9

ROW, COL = 0, 1

# Matrix products with fewer multiply-adds than this run on one BLAS thread.
# At dim 100 the candidate block of `advantage_many` (200 x 100 x 100) took
# 0.15 ms a call on two OpenBLAS threads with both cores of a 2-core machine
# free, but 0.75 ms with a second process busy on the other core, as the
# worker thread waits for its turn; on one thread it took 0.15 ms either way.
# A desk grid round was then 2.2x slower.  Products past a millisecond of
# work still gain from threads (1.7x on the dim-1000 cell), so they keep them.
ONE_THREAD_MNK = 1e7


def _openblas_threads():
    """(get, set) of the number of threads of numpy's bundled OpenBLAS, or
    None where numpy has none (another BLAS, or a system build)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                ("64_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


_OPENBLAS_THREADS = _openblas_threads()


@contextlib.contextmanager
def _blas_threads_for(mnk: float):
    """Run the products in the block on one BLAS thread if they are smaller
    than ONE_THREAD_MNK multiply-adds.  At these sizes one thread gave the
    same bits as two (every benchmark reference digest is unchanged), but
    that is not so for large products, so the bound must stay small."""
    if _OPENBLAS_THREADS is None or mnk >= ONE_THREAD_MNK:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def own_matrix(game: BimatrixGame, player: int) -> np.ndarray:
    """Player's payoff matrix oriented (own actions) x (opponent actions)."""
    return game.u_row if player == ROW else game.u_col.T


@dataclass(frozen=True)
class BestResponseResult:
    index: int
    value: float
    tied_indices: tuple[int, ...]
    responder_opponent_value: float


@dataclass
class MetaSolution:
    """Fictitious-play output: averaged weights over the two strategy sets."""

    theta_row: np.ndarray
    theta_col: np.ndarray
    residual: float
    iterations_used: int


def best_response(game: BimatrixGame, responder: int, opponent_mixed,
                  restriction=None) -> BestResponseResult:
    """Pure best response of `responder` to an opponent mixed strategy.

    `restriction`, when given, limits the allowed pure responses to an index
    subset.  Ties within TIE_ATOL are reported; the winning index is the
    lowest tied one.
    """
    m_self = own_matrix(game, responder)
    m_opp = own_matrix(game, 1 - responder)
    q = validate_strategy(opponent_mixed, game.dims(1 - responder))
    values = m_self @ q
    if restriction is not None:
        allowed = np.asarray(sorted(set(int(i) for i in restriction)), dtype=int)
        if allowed.size == 0:
            raise GameError("empty best-response restriction")
        if allowed.min() < 0 or allowed.max() >= values.shape[0]:
            raise GameError("restriction index out of range")
    else:
        allowed = np.arange(values.shape[0])
    best = values[allowed].max()
    tied = tuple(int(i) for i in allowed[values[allowed] >= best - TIE_ATOL])
    index = tied[0]
    # Opponent's expected payoff when the responder commits to `index`.
    opp_value = float(q @ m_opp[:, index])
    return BestResponseResult(index, float(best), tied, opp_value)


def exploitability(game: BimatrixGame, pi_row, pi_col) -> float:
    """NashConv: total gain available from unilateral pure deviations."""
    p = validate_strategy(pi_row, game.n_rows)
    q = validate_strategy(pi_col, game.n_cols)
    row_gap = (game.u_row @ q).max() - p @ game.u_row @ q
    col_gap = (p @ game.u_col).max() - p @ game.u_col @ q
    return float(row_gap + col_gap)


def advantage_many(game: BimatrixGame, player: int, strategies: np.ndarray) -> np.ndarray:
    """Advantage of each row of `strategies` (k x own-dim) for `player`.

    The opponent's best-response tie set is formed to TIE_ATOL and the
    pessimistic minimum of the player's payoff over that set is returned,
    one value per strategy.

    In an exactly zero-sum game the opponent's payoffs are the player's,
    negated bit for bit (rounding is symmetric), so its tie set holds the
    player's row minimum and larger values only: one product suffices.
    """
    m_self = own_matrix(game, player)
    P = np.atleast_2d(np.asarray(strategies, dtype=float))
    with _blas_threads_for(P.shape[0] * P.shape[1] * m_self.shape[1]):
        self_vals = P @ m_self       # (k, opp-dim): player payoff per pure reply
        if game.exact_zero_sum:
            return self_vals.min(axis=1)
        opp_vals = P @ own_matrix(game, 1 - player).T  # opponent payoff per reply
    best = opp_vals.max(axis=1, keepdims=True)
    np.putmask(self_vals, ~(opp_vals >= best - TIE_ATOL), np.inf)
    return self_vals.min(axis=1)


def advantage(game: BimatrixGame, player: int, pi) -> float:
    """Payoff of `pi` against the opponent's best response to it, taking the
    minimum over best-response ties (the pessimistic Stackelberg value)."""
    p = validate_strategy(pi, game.dims(player))
    return float(advantage_many(game, player, p[None, :])[0])


# ---------------------------------------------------------------------------
# Fictitious play

def fictitious_play(m_row, m_col, max_iters: int = 2000,
                    tol: float = 1e-8) -> MetaSolution:
    """Simultaneous fictitious play on a bimatrix, returning average strategies.

    Both players best-respond to the opponent's running average each step,
    starting from the uniform averages.  Runs of constant best responses are
    batched: payoffs are linear along the segment the averages traverse, so
    if the argmax agrees at both endpoints of a k-step jump it agrees
    throughout and the jump is exact.

    The reply payoffs at the averages give both the residual and the next
    best responses, so each accepted step computes them once.  A batch that
    fails on the row side never forms the row candidate.
    """
    m_row = np.asarray(m_row, dtype=float)
    m_col = np.asarray(m_col, dtype=float)
    if m_row.size == 0 or m_row.shape != m_col.shape:
        raise GameError("fictitious play needs two nonempty same-shape matrices")
    if max_iters < 1 or tol < 0:
        raise GameError("max_iters must be >= 1 and tol >= 0")
    n, m = m_row.shape
    avg_r = np.full(n, 1.0 / n)
    avg_c = np.full(m, 1.0 / m)
    ry = m_row @ avg_c
    xc = avg_r @ m_col
    cand_r, cand_c, cand_ry, cand_xc = (np.empty_like(a) for a in (avg_r, avg_c, ry, xc))

    steps = 0
    weight = 1.0
    br_r, br_c = int(ry.argmax()), int(xc.argmax())   # ry[br_r] == ry.max()
    residual = float((ry[br_r] - avg_r @ ry) + (xc[br_c] - xc @ avg_c))
    jump = 1
    while steps < max_iters and residual > tol:
        k = min(jump, max_iters - steps)
        w2 = weight + k
        np.divide(np.multiply(weight, avg_c, out=cand_c), w2, out=cand_c)
        cand_c[br_c] += k / w2
        np.matmul(m_row, cand_c, out=cand_ry)
        next_r = int(cand_ry.argmax())
        # Accept a batch only if both best responses are unchanged at the
        # endpoint (linearity makes them constant on the interior).
        if k > 1 and next_r != br_r:
            jump = max(1, jump // 2)
            continue
        np.divide(np.multiply(weight, avg_r, out=cand_r), w2, out=cand_r)
        cand_r[br_r] += k / w2
        np.matmul(cand_r, m_col, out=cand_xc)
        next_c = int(cand_xc.argmax())
        if k > 1 and next_c != br_c:
            jump = max(1, jump // 2)
            continue
        jump = jump * 2 if k > 1 else max(2, jump)
        avg_r, cand_r, avg_c, cand_c = cand_r, avg_r, cand_c, avg_c
        ry, cand_ry, xc, cand_xc = cand_ry, ry, cand_xc, xc
        br_r, br_c = next_r, next_c
        weight = w2
        steps += k
        residual = float((ry[br_r] - avg_r @ ry) + (xc[br_c] - xc @ avg_c))
    return MetaSolution(avg_r, avg_c, max(residual, 0.0), steps)


# ---------------------------------------------------------------------------
# Expected cardinality (determinantal diversity score)

def expected_cardinality(M) -> float:
    """EC = Tr(I - (L+I)^-1) with L = M M^T, computed via SPD solves."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        raise GameError("expected_cardinality needs a nonempty matrix")
    if not np.isfinite(M).all():
        raise GameError("expected_cardinality needs finite entries")
    return ec_of_gram(M @ M.T)


def ec_of_gram(L: np.ndarray) -> float:
    """Expected cardinality from a precomputed Gram matrix L = M M^T."""
    t = L.shape[0]
    c = cho_factor(L + np.eye(t), lower=True)
    return float(t - np.trace(cho_solve(c, np.eye(t))))


# Relative rounding bound of `ec_bordered` against `ec_of_gram`, per unit of
# (k+1)(1 + largest Gram entry).  Measured differences are near 1e-16 per
# unit, so the bound is loose by several orders of magnitude.
EC_RTOL = 1e-8


def ec_bordered(G: np.ndarray, cross: np.ndarray,
                rr: np.ndarray) -> tuple[np.ndarray, float]:
    """Expected cardinality of every bordered Gram matrix
    ``[[G, c_i], [c_i^T, rr_i]]`` (c_i the i-th row of ``cross``), in closed
    form from the k x k inverse of ``A = G + I`` (one Cholesky factorization).

    With ``w = A^-1 c`` and the Schur complement ``s = rr + 1 - c.w`` (which
    is at least 1), the bordered inverse has trace
    ``tr(A^-1) + (1 + |w|^2) / s``, so EC = (k+1) minus that.  Returns the
    scores and a bound on their difference from ``ec_of_gram`` of each
    bordered matrix.  k = 0 (empty ``G``) gives ``1 - 1/(1 + rr)``.
    """
    k = G.shape[0]
    # G is PSD and |c_ij| <= sqrt(G_jj rr_i), so this is the largest entry.
    big = max(rr.max(initial=0.0), G.diagonal().max(initial=0.0))
    bound = EC_RTOL * (k + 1) * (1.0 + big)
    if k == 0:
        return 1.0 - 1.0 / (1.0 + rr), bound
    # W = A^-1 cross^T through the explicit inverse, not a triangular solve
    # with all candidates as right-hand sides: OpenBLAS threads that solve,
    # and on 2 cores it then took milliseconds a call instead of microseconds
    # and slowed the BLAS calls after it, for some game seeds only.
    A_inv = cho_solve(cho_factor(G + np.eye(k), lower=True), np.eye(k))
    with _blas_threads_for(k * k * cross.shape[0]):
        W = A_inv @ cross.T
    s = rr + 1.0 - np.einsum("ij,ji->i", cross, W)
    return ((k + 1) - np.trace(A_inv)
            - (1.0 + np.einsum("ij,ij->j", W, W)) / s), bound


# ---------------------------------------------------------------------------
# Desk-scale oracles

def _simplex_grid(n: int, resolution: int) -> np.ndarray:
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        t = np.linspace(0.0, 1.0, resolution + 1)
        return np.column_stack([t, 1.0 - t])
    if n == 3:
        if resolution > 400:
            raise GameError("resolution too large for a 3-action grid")
        pts = [(i, j, resolution - i - j)
               for i in range(resolution + 1)
               for j in range(resolution + 1 - i)]
        return np.asarray(pts, dtype=float) / resolution
    raise GameError("grid oracle supports at most 3 leader actions")


def stackelberg_grid_value(game: BimatrixGame, leader: int,
                           resolution: int) -> tuple[np.ndarray, float]:
    """Grid-search the leader's simplex for the maximal advantage value.

    Pessimistic at follower ties, so values at tie boundaries are approached
    from the favorable side rather than attained exactly.  Oracle use only.
    """
    n = game.dims(leader)
    grid = _simplex_grid(n, resolution)
    vals = advantage_many(game, leader, grid)
    best = int(np.argmax(vals))
    return grid[best], float(vals[best])


def nash_support_enumeration(game: BimatrixGame,
                             tol: float = TIE_ATOL) -> list[tuple[np.ndarray, np.ndarray]]:
    """All Nash equilibria of a small bimatrix game via equal-size support
    enumeration.  Degenerate continua are reported by representative points;
    singular indifference systems are skipped."""
    n, m = game.n_rows, game.n_cols
    if n > 5 or m > 5:
        raise GameError("support enumeration limited to 5x5 games")
    A, B = game.u_row, game.u_col
    found: list[tuple[np.ndarray, np.ndarray]] = []
    seen: set[tuple] = set()
    for k in range(1, min(n, m) + 1):
        for sr in itertools.combinations(range(n), k):
            for sc in itertools.combinations(range(m), k):
                sr_a = np.asarray(sr)
                sc_a = np.asarray(sc)
                # Column weights y making every row in sr indifferent (value v),
                # and row weights x making every column in sc indifferent (w).
                My = np.zeros((k + 1, k + 1))
                My[:k, :k] = A[np.ix_(sr_a, sc_a)]
                My[:k, k] = -1.0
                My[k, :k] = 1.0
                by = np.zeros(k + 1)
                by[k] = 1.0
                Mx = np.zeros((k + 1, k + 1))
                Mx[:k, :k] = B[np.ix_(sr_a, sc_a)].T
                Mx[:k, k] = -1.0
                Mx[k, :k] = 1.0
                try:
                    ysol = np.linalg.solve(My, by)
                    xsol = np.linalg.solve(Mx, by)
                except np.linalg.LinAlgError:
                    continue
                y_s, v = ysol[:k], ysol[k]
                x_s, w = xsol[:k], xsol[k]
                if (y_s < -tol).any() or (x_s < -tol).any():
                    continue
                x = np.zeros(n)
                x[sr_a] = np.clip(x_s, 0.0, None)
                x /= x.sum()
                y = np.zeros(m)
                y[sc_a] = np.clip(y_s, 0.0, None)
                y /= y.sum()
                # Best-response verification against all pure deviations.
                if (A @ y).max() > v + tol or (x @ B).max() > w + tol:
                    continue
                if exploitability(game, x, y) > tol:
                    continue
                key = tuple(np.round(np.concatenate([x, y]), 8))
                if key in seen:
                    continue
                seen.add(key)
                found.append((x, y))
    return found
