"""Oracles that only the tests use: pure and uniform strategies, small-integer
games, the index of a pure best response, a simplex grid search for
Stackelberg strategies, support enumeration for Nash equilibria, all at desk
scale, and the plain full pass of the certified advantage bounds."""
import itertools

import numpy as np

from metagame_forge.games import BimatrixGame, GameError, new_game
from metagame_forge.solvers import (TIE_ATOL, advantage_many, exploitability,
                                    own_matrix)


def pure(n: int, index: int) -> np.ndarray:
    p = np.zeros(n)
    p[index] = 1.0
    return p


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def small_integer_case(seed: int, n: int, m: int, zero_sum: bool):
    """An n x m game with payoffs in -2..2 and a row and a column strategy
    whose weights are small integers over their sum: replies to them tie
    exactly, or within rounding of TIE_ATOL, often."""
    rng = np.random.default_rng(seed)
    u_row = rng.integers(-2, 3, size=(n, m)).astype(float)
    u_col = -u_row if zero_sum else rng.integers(-2, 3, size=(n, m)).astype(float)

    def mixed(k):
        w = rng.integers(0, 3, size=k).astype(float)
        w[rng.integers(k)] += 1.0   # a nonzero sum
        return w / w.sum()

    return new_game(u_row, u_col), mixed(n), mixed(m)


def best_response_index(game: BimatrixGame, responder: int,
                        opponent_mixed) -> int:
    """Lowest-index pure best response of `responder` to an opponent mixed
    strategy, ties formed within TIE_ATOL of the best value."""
    values = own_matrix(game, responder) @ np.asarray(opponent_mixed, float)
    tied = [i for i, v in enumerate(values) if v >= values.max() - TIE_ATOL]
    return tied[0]


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


def reference_advantage_bounds(game: BimatrixGame, player: int,
                               pi_t: np.ndarray, step: float,
                               rowwise: bool = False):
    """`engine._advantage_bounds` as one plain pass over every candidate row,
    both opponent payoff rows of each own action formed in full: None where
    any row's bounds would be loose, or with ``rowwise``, ``(-inf, inf)`` on
    the loose rows (None where every row is)."""
    n = pi_t.shape[0]
    p = np.abs(pi_t)
    delta = np.abs(np.concatenate([pi_t + step, pi_t - step])) - np.tile(p, 2)
    total = p.sum()
    sums = total + delta
    eps = np.finfo(float).eps / 2
    scale = 16.0 * n * eps / (1.0 - n * eps) * (sums + total + np.abs(delta))
    mats = [own_matrix(game, player), own_matrix(game, 1 - player).T]
    bases = [p @ M for M in mats]
    rhos = [scale * max(M.max(), -M.min(), TIE_ATOL) for M in mats]
    tight = np.logical_and(*(rho <= sums * (TIE_ATOL / 4) for rho in rhos))
    if not (tight.all() or rowwise and tight.any()):
        return None
    lo = np.empty(2 * n)
    hi = np.empty(2 * n)
    m = mats[0].shape[1]
    X = np.empty((max(1, 65536 // m), m))
    for start in range(0, n, X.shape[0]):
        a = slice(start, min(start + X.shape[0], n))
        rows = mats[1][a]     # the values that pick the replies
        for i in (slice(a.start, a.stop), slice(n + a.start, n + a.stop)):
            x = np.multiply(rows, delta[i, None], out=X[:rows.shape[0]])
            x += bases[1]
            thr = x.max(axis=1) - sums[i] * TIE_ATOL
            # Both the reply and the best one may be off by rho; the rest of
            # the band covers the rounding of the threshold itself.
            band = 3.0 * rhos[1][i]
            # Each row's own maximum is a possible reply, so every row starts
            # a run in r; the player's payoffs are formed only at these.
            r, c = np.divmod(np.flatnonzero(x >= (thr - band)[:, None]), m)
            y = bases[0][c] + delta[i][r] * mats[0][start + r, c]
            runs = np.flatnonzero(np.diff(r, prepend=-1))
            lo[i] = np.minimum.reduceat(y, runs)
            hi[i] = np.minimum.reduceat(
                np.where(x[r, c] >= (thr + band)[r], y, np.inf), runs)
    out = np.full(2 * n, -np.inf), np.full(2 * n, np.inf)
    out[0][tight] = (lo[tight] - rhos[0][tight]) / sums[tight]
    out[1][tight] = (hi[tight] + rhos[0][tight]) / sums[tight]
    return out
