"""Exact game-theoretic primitives.

Best response, exploitability, the advantage (Stackelberg-value) function,
fictitious play over empirical matrices and the expected-cardinality
diversity score.  Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import contextlib
import ctypes
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .games import BimatrixGame, GameError, validate_strategy

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

# Rows that `advantage_many` scores apart from their candidate block go
# through products of this many rows (see `rows_keep_block_bits`).
PICKED_ROWS = 16


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
    than ONE_THREAD_MNK multiply-adds, and yield the thread count they run
    on (None where numpy has no bundled OpenBLAS).  At these sizes one
    thread gave the same bits as two (every benchmark reference digest is
    unchanged), but that is not so for large products, so the bound must
    stay small."""
    get, set_ = _OPENBLAS_THREADS or (lambda: None, None)
    threads = get()
    if threads is None or mnk >= ONE_THREAD_MNK:
        yield threads
        return
    set_(1)
    try:
        yield 1
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


@dataclass
class MetaSolution:
    """Fictitious-play output: averaged weights over the two strategy sets."""

    theta_row: np.ndarray
    theta_col: np.ndarray
    residual: float
    iterations_used: int


def best_response(game: BimatrixGame, responder: int,
                  opponent_mixed) -> BestResponseResult:
    """Pure best response of `responder` to an opponent mixed strategy.

    Ties within TIE_ATOL are reported; the winning index is the lowest tied
    one.
    """
    q = validate_strategy(opponent_mixed, game.dims(1 - responder))
    values = own_matrix(game, responder) @ q
    best = values.max()
    tied = tuple(int(i) for i in np.flatnonzero(values >= best - TIE_ATOL))
    return BestResponseResult(tied[0], float(best), tied)


def exploitability(game: BimatrixGame, pi_row, pi_col) -> float:
    """NashConv: total gain available from unilateral pure deviations."""
    p = validate_strategy(pi_row, game.n_rows)
    q = validate_strategy(pi_col, game.n_cols)
    row_gap = (game.u_row @ q).max() - p @ game.u_row @ q
    col_gap = (p @ game.u_col).max() - p @ game.u_col @ q
    return float(row_gap + col_gap)


def _rows_product(P: np.ndarray, M: np.ndarray, picked: bool) -> np.ndarray:
    """``P @ M``, in chunks of PICKED_ROWS rows where ``picked``."""
    if not picked:
        return P @ M
    return np.concatenate([P[i:i + PICKED_ROWS] @ M
                           for i in range(0, P.shape[0], PICKED_ROWS)])


def advantage_many(game: BimatrixGame, player: int, strategies: np.ndarray,
                   picked: bool = False) -> np.ndarray:
    """Advantage of each row of `strategies` (k x own-dim) for `player`.

    The opponent's best-response tie set is formed to TIE_ATOL and the
    pessimistic minimum of the player's payoff over that set is returned,
    one value per strategy.

    In an exactly zero-sum game the opponent's payoffs are the player's,
    negated bit for bit (rounding is symmetric), so its tie set holds the
    player's row minimum and larger values only: one product suffices.

    ``picked`` scores the strategies as rows picked from a candidate block
    of 2 x own-dim rows: the products run on the BLAS thread count of the
    whole block, in chunks of PICKED_ROWS rows, the last one filled up with
    repeated rows (a one-row product would take another BLAS routine,
    gemv).  Where `rows_keep_block_bits` holds, the rows then carry the bits
    the whole block gives them.
    """
    m_self = own_matrix(game, player)
    P = np.atleast_2d(np.asarray(strategies, dtype=float))
    k, n = P.shape
    if picked:
        P = np.resize(P, (-(-k // PICKED_ROWS) * PICKED_ROWS, n))
    with _blas_threads_for((2 * n if picked else k) * n * m_self.shape[1]):
        self_vals = _rows_product(P, m_self, picked)  # player payoff per reply
        if game.exact_zero_sum:
            return self_vals.min(axis=1)[:k]
        opp_vals = _rows_product(P, own_matrix(game, 1 - player).T, picked)
    best = opp_vals.max(axis=1, keepdims=True)
    np.putmask(self_vals, ~(opp_vals >= best - TIE_ATOL), np.inf)
    return self_vals.min(axis=1)[:k]


# Answers of `rows_keep_block_bits`, by product shapes, layouts and threads.
_BLOCK_BITS: dict = {}


def rows_keep_block_bits(game: BimatrixGame, player: int) -> bool:
    """Whether `advantage_many(..., picked=True)` gives rows picked from
    ``player``'s 2n-row candidate block the bits the whole block gives them.

    This depends on the BLAS at the products' shapes, layouts and thread
    count.  With OpenBLAS 0.3.31 (SkylakeX kernels) it held at dim 1000
    against 1000 opponent actions, and failed at dim 220 against 140, at
    dims 500 and 700, and against 999 opponent actions: the smaller products
    gave other bits in the last columns or in all of them, and some rows
    changed bits with their position in the block.  So random rows are
    checked: chunks of PICKED_ROWS rows from both ends of a random block and
    at random must match the full block entry for entry.  The answer is kept
    per shape, layout and thread count.  Below ONE_THREAD_MNK, where no
    caller asks, the answer is no: with one opponent action the products go
    through gemv, whose last rows agree with the block's or not depending
    on the values.
    """
    mats = [own_matrix(game, player)]
    if not game.exact_zero_sum:
        mats.append(own_matrix(game, 1 - player).T)
    n, m = mats[0].shape
    if 2 * n * n * m < ONE_THREAD_MNK:
        return False
    with _blas_threads_for(2 * n * n * m) as threads:
        key = (threads, tuple((M.shape, M.strides) for M in mats))
        if key not in _BLOCK_BITS:
            rng = np.random.default_rng(0)
            P = rng.random((2 * n, n))
            picks = [np.arange(PICKED_ROWS) % (2 * n),
                     -1 - np.arange(PICKED_ROWS) % (2 * n)]
            picks += [rng.integers(0, 2 * n, size=PICKED_ROWS)
                      for _ in range(3)]
            _BLOCK_BITS[key] = all(
                np.array_equal([P[rows] @ M for rows in picks],
                               (P @ M)[np.stack(picks)]) for M in mats)
    return _BLOCK_BITS[key]


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

def ec_of_gram(L: np.ndarray) -> float:
    """Expected cardinality EC = Tr(I - (L+I)^-1) of the meta-matrix M with
    Gram matrix L = M M^T, via one Cholesky factorization."""
    t = L.shape[0]
    c = cho_factor(L + np.eye(t), lower=True)
    return float(t - np.trace(cho_solve(c, np.eye(t))))


# Relative rounding bound of `ec_rank_one` against `ec_of_gram`, per unit of
# (k+1)(1 + largest Gram entry), which bounds the condition number of what
# both factor.  Neither cancels large candidate-dependent values, so each errs
# by a few eps times that condition number, first order in the Gram scale: at
# entries 1e2 to 1e12 the error stayed below 4e-8 of the bound.
EC_RTOL = 1e-8


def ec_rank_one(fixed_rows: np.ndarray,
                cand_rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Expected cardinality of the meta-matrix ``[F; x]`` for each row x of
    ``cand_rows``, F being ``fixed_rows`` (k x m, k >= 0), and a bound on
    its difference from ``ec_of_gram`` of each bordered Gram matrix.

    With ``P = (I + F^T F)^-1`` (one Cholesky factorization), EC(F) is
    m - tr(P), and the row x is a rank-one update of ``I + F^T F`` that by
    Sherman-Morrison adds ``|P x|^2 / (1 + x.P x)``, a sum of squares over
    one plus a positive definite form: no two large values cancel.
    """
    k, m = fixed_rows.shape
    # The largest squared row norm is the largest Gram entry (Cauchy-Schwarz).
    big = max(np.einsum("ij,ij->i", cand_rows, cand_rows).max(),
              np.einsum("ij,ij->i", fixed_rows, fixed_rows).max(initial=0.0))
    bound = EC_RTOL * (k + 1) * (1.0 + big)
    # P x through the explicit inverse: OpenBLAS threads a triangular solve
    # with all candidates as right-hand sides, which on 2 cores then took
    # milliseconds a call instead of microseconds, for some game seeds.
    P = cho_solve(cho_factor(fixed_rows.T @ fixed_rows + np.eye(m), lower=True),
                  np.eye(m))
    with _blas_threads_for(m * m * cand_rows.shape[0]):
        PX = cand_rows @ P
    return ((m - np.trace(P)) + np.einsum("ij,ij->i", PX, PX)
            / (1.0 + np.einsum("ij,ij->i", cand_rows, PX))), bound
