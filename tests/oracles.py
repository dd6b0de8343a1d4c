"""Oracles that only the tests use: pure and uniform strategies, a simplex
grid search for Stackelberg strategies and support enumeration for Nash
equilibria, all at desk scale."""
import itertools

import numpy as np

from metagame_forge.games import BimatrixGame, GameError
from metagame_forge.solvers import TIE_ATOL, advantage_many, exploitability


def pure(n: int, index: int) -> np.ndarray:
    p = np.zeros(n)
    p[index] = 1.0
    return p


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


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
