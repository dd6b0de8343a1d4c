"""Exact game-theoretic primitives.

Exploitability, the advantage (Stackelberg-value) function, fictitious play
over empirical matrices and the expected-cardinality diversity score.
Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .games import BimatrixGame, GameError, validate_strategy

# Absolute tolerance for forming best-response tie sets; ties are broken by
# lowest index everywhere for determinism.
TIE_ATOL = 1e-9

ROW, COL = 0, 1

# Engine iterations on games whose larger candidate block (2n x n x m, see
# `engine.run_iteration`) has fewer multiply-adds than this run on one BLAS
# thread.  At dim 100 that block took 0.15 ms a call on two OpenBLAS threads
# with both cores of a 2-core machine free, but 0.75 ms with a second process
# busy on the other core, as the worker thread waits for its turn; on one
# thread it took 0.15 ms either way, and a desk grid round was 2.2x slower on
# two.  Larger games keep the process's threads: the 30-iteration dim-1000
# cell took 0.35-0.53 s a round on two threads and 0.48-0.64 s on one.
ONE_THREAD_MNK = 1e7

# Candidate scoring gives rows picked from their candidate block to
# `advantage_many` this many at a time, the last call filled up with repeated
# rows (one row would take another BLAS routine, gemv; see
# `rows_keep_block_bits`).
PICKED_ROWS = 16


def above_gate(n: int, m: int) -> bool:
    """Whether 2n x n x m multiply-adds reach ONE_THREAD_MNK (the gate)."""
    return 2 * n * n * m >= ONE_THREAD_MNK


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
def blas_threads(threads):
    """Run the block on ``threads`` threads of numpy's bundled OpenBLAS (None,
    or where numpy has none: on the count already set)."""
    if threads is None or _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    before = get()
    set_(threads)
    try:
        yield
    finally:
        set_(before)


def own_matrix(game: BimatrixGame, player: int) -> np.ndarray:
    """Player's payoff matrix oriented (own actions) x (opponent actions)."""
    return game.u_row if player == ROW else game.u_col.T


@dataclass
class MetaSolution:
    """Fictitious-play output: averaged weights over the two strategy sets."""

    theta_row: np.ndarray
    theta_col: np.ndarray
    residual: float
    iterations_used: int


def exploitability(game: BimatrixGame, pi_row, pi_col) -> tuple:
    """NashConv, the total gain available from unilateral pure deviations,
    then the profile's two payoffs, bit for bit as `games.payoff` has them."""
    p = validate_strategy(pi_row, game.n_rows)
    q = validate_strategy(pi_col, game.n_cols)
    pu_col = p @ game.u_col
    row_value, col_value = float(p @ game.u_row @ q), float(pu_col @ q)
    return (float(((game.u_row @ q).max() - row_value)
                  + (pu_col.max() - col_value)), row_value, col_value)


def advantage_many(game: BimatrixGame, player: int,
                   strategies: np.ndarray) -> np.ndarray:
    """Advantage of each row of `strategies` (k x own-dim) for `player`.

    The opponent's best-response tie set is formed to TIE_ATOL and the
    pessimistic minimum of the player's payoff over that set is returned,
    one value per strategy.

    In an exactly zero-sum game the opponent's payoffs are the player's,
    negated bit for bit (rounding is symmetric), so its tie set holds the
    player's row minimum and larger values only: one product suffices.
    Otherwise the opponent's tie mask comes first: one product at a time.
    """
    m_self = own_matrix(game, player)
    P = np.atleast_2d(np.asarray(strategies, dtype=float))
    if game.exact_zero_sum:
        return (P @ m_self).min(axis=1)
    opp_vals = P @ own_matrix(game, 1 - player).T
    untied = ~(opp_vals >= opp_vals.max(axis=1, keepdims=True) - TIE_ATOL)
    del opp_vals
    self_vals = P @ m_self   # player payoff per reply
    np.putmask(self_vals, untied, np.inf)
    return self_vals.min(axis=1)


# Answers of `rows_keep_block_bits`, by product shapes, layouts and threads.
_BLOCK_BITS: dict = {}


@functools.cache
def zero_block(n: int) -> np.ndarray:
    """The process's one 2n x n block of zeros, for one thread at a time.
    Callers write rows into it and zeros back, on an exception too."""
    return np.zeros((2 * n, n))


def rows_keep_block_bits(game: BimatrixGame, player: int) -> bool:
    """Whether `advantage_many` on PICKED_ROWS rows picked from ``player``'s
    2n-row candidate block gives them the bits the whole block gives them.

    This depends on the BLAS at the products' shapes, layouts and thread
    count.  With OpenBLAS 0.3.31 (SkylakeX kernels) it held at dim 1000
    against 1000 opponent actions, and failed at dim 220 against 140, at
    dims 500 and 700, and against 999 opponent actions: the smaller products
    gave other bits in the last columns or in all of them, and some rows
    changed bits with their position in the block.  So random rows are
    checked: chunks of PICKED_ROWS rows from both ends of `zero_block` and
    at random, random there alone (BLAS kernels do not branch on the values
    in other rows), must match the full block entry for entry.  The answer
    is kept per shape, layout and the thread count set when it is asked.
    Below ONE_THREAD_MNK, where no caller asks, the answer is no: with one
    opponent action the products go through gemv, whose last rows agree
    with the block's or not depending on the values.
    """
    mats = [own_matrix(game, player)]
    if not game.exact_zero_sum:
        mats.append(own_matrix(game, 1 - player).T)
    n, m = mats[0].shape
    if not above_gate(n, m):
        return False
    threads = _OPENBLAS_THREADS and _OPENBLAS_THREADS[0]()
    key = (threads, tuple((M.shape, M.strides) for M in mats))
    if key not in _BLOCK_BITS:
        rng = np.random.default_rng(0)
        picks = [np.arange(PICKED_ROWS) % (2 * n),
                 -1 - np.arange(PICKED_ROWS) % (2 * n)]
        picks += [rng.integers(0, 2 * n, size=PICKED_ROWS) for _ in range(3)]
        picks = np.stack(picks)
        P = zero_block(n)
        try:
            P[picks] = rng.random((*picks.shape, n))
            _BLOCK_BITS[key] = all(np.array_equal(P[picks] @ M, (P @ M)[picks])
                                   for M in mats)
        finally:
            P[picks] = 0.0
    return _BLOCK_BITS[key]


def advantage(game: BimatrixGame, player: int, pi) -> float:
    """Payoff of `pi` against the opponent's best response to it, taking the
    minimum over best-response ties (the pessimistic Stackelberg value)."""
    p = validate_strategy(pi, game.dims(player))
    return float(advantage_many(game, player, p[None, :])[0])


# ---------------------------------------------------------------------------
# Fictitious play

def fictitious_play(m_row, m_col, max_iters: int, tol: float) -> MetaSolution:
    """Simultaneous fictitious play on a bimatrix, returning average strategies.

    Both players best-respond to the opponent's running average each step,
    starting from the uniform averages.  Runs of constant best responses are
    batched: payoffs are linear along the segment the averages traverse, so
    if the argmax agrees at both endpoints of a k-step jump it agrees
    throughout and the jump is exact.  The jump doubles after an accepted
    batch and halves after a rejected one; that schedule sets the weights of
    every average, so it fixes their bits.

    Both averages share one buffer, so a candidate is scaled with one
    multiply and one divide, the row half also when the batch fails on the
    row side.  Each accepted step forms the reply payoffs at the averages
    once, with `dot` (the BLAS call of `@` at less overhead), for both the
    residual and the next best responses.
    """
    m_row = np.asarray(m_row, dtype=float)
    m_col = np.asarray(m_col, dtype=float)
    if m_row.size == 0 or m_row.shape != m_col.shape:
        raise GameError("fictitious play needs two nonempty same-shape matrices")
    if max_iters < 1 or tol < 0:
        raise GameError("max_iters must be >= 1 and tol >= 0")
    n, m = m_row.shape
    avg = np.concatenate((np.full(n, 1.0 / n), np.full(m, 1.0 / m)))
    cand = np.empty_like(avg)
    avg_r, avg_c, cand_r, cand_c = avg[:n], avg[n:], cand[:n], cand[n:]
    ry = m_row @ avg_c
    xc = avg_r @ m_col
    cand_ry, cand_xc = np.empty_like(ry), np.empty_like(xc)

    steps, weight, jump = 0, 1.0, 1
    br_r, br_c = int(ry.argmax()), int(xc.argmax())   # ry[br_r] == ry.max()
    residual = ((ry.item(br_r) - float(avg_r.dot(ry)))
                + (xc.item(br_c) - float(xc.dot(avg_c))))
    while steps < max_iters and residual > tol:
        k = min(jump, max_iters - steps)
        w2 = weight + k
        np.divide(np.multiply(weight, avg, out=cand), w2, out=cand)
        cand_c[br_c] += k / w2
        m_row.dot(cand_c, out=cand_ry)
        next_r = int(cand_ry.argmax())
        # Accept a batch only if both best responses are unchanged at the
        # endpoint (linearity makes them constant on the interior).
        if k > 1 and next_r != br_r:
            jump = max(1, jump // 2)
            continue
        cand_r[br_r] += k / w2
        cand_r.dot(m_col, out=cand_xc)
        next_c = int(cand_xc.argmax())
        if k > 1 and next_c != br_c:
            jump = max(1, jump // 2)
            continue
        jump = jump * 2 if k > 1 else max(2, jump)
        avg, avg_r, avg_c, cand, cand_r, cand_c = cand, cand_r, cand_c, avg, avg_r, avg_c
        ry, cand_ry, xc, cand_xc = cand_ry, ry, cand_xc, xc
        br_r, br_c = next_r, next_c
        weight = w2
        steps += k
        residual = ((ry.item(br_r) - float(avg_r.dot(ry)))
                    + (xc.item(br_c) - float(xc.dot(avg_c))))
    return MetaSolution(avg_r.copy(), avg_c.copy(), max(residual, 0.0), steps)


# ---------------------------------------------------------------------------
# Expected cardinality (determinantal diversity score)

def ec_of_gram(L: np.ndarray) -> float:
    """Expected cardinality EC = Tr(I - (L+I)^-1) of the meta-matrix M with
    Gram matrix L = M M^T, via one inverse; a non-finite L is a GameError.
    Where large entries absorb the identity and the inverse fails, EC is the
    same trace from L's eigenvalues: sum(lam / (1 + lam))."""
    if not np.isfinite(L).all():
        raise GameError("Gram matrix has a non-finite entry")
    t = L.shape[0]
    try:
        return float(t - np.trace(np.linalg.inv(L + np.eye(t))))
    except np.linalg.LinAlgError:
        lam = np.maximum(np.linalg.eigvalsh(L), 0.0)
        return float((lam / (1.0 + lam)).sum())


# Relative rounding bound of `ec_rank_one` against `ec_of_gram`, per unit of
# (k+1)(1 + largest Gram entry), which bounds the condition number of what
# both invert.  Neither cancels large candidate-dependent values, so each errs
# by a few eps times that condition number, first order in the Gram scale: at
# entries 1e2 to 1e12 the error stayed below 5e-8 of the bound.
EC_RTOL = 1e-8


def ec_rank_one(fixed_rows: np.ndarray,
                cand_rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Expected cardinality of the meta-matrix ``[F; x]`` for each row x of
    ``cand_rows``, F being ``fixed_rows`` (k x m, k >= 0), and a bound on
    its difference from ``ec_of_gram`` of each bordered Gram matrix.

    With ``P = (I + F^T F)^-1`` (one inverse), EC(F) is
    m - tr(P), and the row x is a rank-one update of ``I + F^T F`` that by
    Sherman-Morrison adds ``|P x|^2 / (1 + x.P x)``, a sum of squares over
    one plus a positive definite form: no two large values cancel.  Where
    the inverse fails, P is ``V diag(1 / (1 + w)) V^T`` from the eigenvalues
    w and eigenvectors V of ``F^T F``.
    """
    k, m = fixed_rows.shape
    # The largest squared row norm is the largest Gram entry (Cauchy-Schwarz).
    big = max(np.einsum("ij,ij->i", cand_rows, cand_rows).max(),
              np.einsum("ij,ij->i", fixed_rows, fixed_rows).max(initial=0.0))
    bound = EC_RTOL * (k + 1) * (1.0 + big)
    # One inverse serves every candidate: each P x is one row of a product.
    G = fixed_rows.T @ fixed_rows
    try:
        P = np.linalg.inv(G + np.eye(m))
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(G)
        P = (V / (1.0 + np.maximum(w, 0.0))) @ V.T
    PX = cand_rows @ P
    return ((m - np.trace(P)) + np.einsum("ij,ij->i", PX, PX)
            / (1.0 + np.einsum("ij,ij->i", cand_rows, PX))), bound
