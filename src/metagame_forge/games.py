"""Bimatrix games: types, benchmark generators, serialization.

Games are immutable after construction and safe to share between workers.
All generators are pure functions of their parameters: the same (dim, noise,
seed) always produces bit-identical matrices.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

class GameError(ValueError):
    """Malformed game data: shape mismatch, non-finite entries, bad schema."""


class StrategyError(ValueError):
    """A vector that is not a valid mixed strategy for the given game."""


# Field annotations `check_value` knows.  A float field takes an integer that
# a float holds, as JSON writes 1.0 as 1, but only a bool field takes a bool.
FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
               "bool": bool}


def check_value(name: str, value, type_name: str) -> None:
    """Raise GameError unless ``value`` is a ``type_name`` value, and a
    float one finite and at most MAX_MAGNITUDE in magnitude."""
    kind = FIELD_TYPES[type_name]
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise GameError(f"{name} must be a {type_name}, got {value!r}")
    try:   # an integer too large for a float field overflows here
        bounded = kind is not numbers.Real or abs(float(value)) <= MAX_MAGNITUDE
    except OverflowError:
        bounded = False
    if not bounded:   # NaN fails the comparison
        raise GameError(f"{name} must be finite and within ±{MAX_MAGNITUDE:g}")


def check_fields(obj) -> None:
    """`check_value` on every field of the dataclass ``obj``."""
    for f in fields(obj):
        check_value(f.name, getattr(obj, f.name), f.type)


def freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a contiguous read-only float array, copied only if needed."""
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player normal-form game with one payoff matrix per player.

    u_row[i, j] is the row player's payoff when row plays pure strategy i and
    column plays pure strategy j; u_col[i, j] is the column player's payoff at
    the same profile.
    """

    u_row: np.ndarray
    u_col: np.ndarray
    name: str = "game"

    @property
    def n_rows(self) -> int:
        return self.u_row.shape[0]

    @property
    def n_cols(self) -> int:
        return self.u_row.shape[1]

    def dims(self, player: int) -> int:
        return self.n_rows if player == 0 else self.n_cols

    @cached_property
    def exact_zero_sum(self) -> bool:
        """u_col == -u_row entry for entry."""
        return bool(np.array_equal(self.u_col, -self.u_row))

    @cached_property
    def payoff_scales(self) -> tuple:
        """Each player's payoff scale ``max |u|`` (u_row, then u_col)."""
        return tuple(max(u.max(), -u.min()) for u in (self.u_row, self.u_col))

    @cached_property
    def reply_margins(self) -> tuple:
        """For each player p, a pair of arrays over p's pure actions: the
        opponent's best pure reply to each (the lowest index among ties), and
        its payoff's margin over the opponent's second best (0 at a tie, inf
        with one reply), from one partial sort of each row."""
        return _best_replies(self.u_col), _best_replies(self.u_row.T)


def _best_replies(B: np.ndarray) -> tuple:
    """Each row's argmax (lowest index among ties) and its margin over the
    row's second largest entry (inf for one column)."""
    if B.shape[1] == 1:
        return B.argmax(axis=1), np.full(B.shape[0], np.inf)
    top_two = np.partition(B, -2, axis=1)[:, -2:]
    return B.argmax(axis=1), top_two[:, 1] - top_two[:, 0]


def new_game(u_row, u_col, name: str = "game") -> BimatrixGame:
    """Validate payoff matrices and build a game: every payoff must be
    finite and at most MAX_MAGNITUDE in magnitude."""
    try:
        u_row = np.asarray(u_row, dtype=float)
        u_col = np.asarray(u_col, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameError(f"payoffs must be numeric matrices: {exc}") from exc
    if u_row.ndim != 2 or u_row.size == 0:
        raise GameError("u_row must be a nonempty 2-D matrix")
    if u_row.shape != u_col.shape:
        raise GameError(f"payoff shape mismatch: {u_row.shape} vs {u_col.shape}")
    game = BimatrixGame(freeze(u_row), freeze(u_col), name)
    if not all(scale <= MAX_MAGNITUDE for scale in game.payoff_scales):
        raise GameError(f"payoffs must be finite and within ±{MAX_MAGNITUDE:g}")
    return game


# ---------------------------------------------------------------------------
# Mixed strategies (plain 1-D probability vectors)

def validate_strategy(p, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] != n:
        raise StrategyError(f"strategy length {p.shape} does not match {n} actions")
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9):   # NaN fails both
        raise StrategyError("strategy is not a finite point of the probability simplex")
    return p


def payoff(game: BimatrixGame, pi_row, pi_col) -> tuple[float, float]:
    """Expected utilities (row_value, col_value) of a mixed-strategy profile."""
    p = validate_strategy(pi_row, game.n_rows)
    q = validate_strategy(pi_col, game.n_cols)
    return float(p @ game.u_row @ q), float(p @ game.u_col @ q)


# ---------------------------------------------------------------------------
# Generators

# At dim 5,000 the payoffs and one 2n x n candidate block with one product
# and its masks take 1.3 GB; far larger noise overflows `gen_elo`'s payoffs.
# A product of two accepted magnitudes (payoffs, steps, weights) summed over
# MAX_DIM terms stays near 5e203: arithmetic on valid inputs cannot overflow.
MAX_DIM, MAX_NOISE, MAX_MAGNITUDE = 5_000, 1e6, 1e100


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_DIM:
        raise GameError(f"dim must be in [2, {MAX_DIM}], got {dim}")

def gen_symmetric_zero_sum(dim: int, seed: int) -> BimatrixGame:
    """Random symmetric zero-sum game: U = A - A^T, A with iid N(0,1) entries."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    u = a - a.T
    return new_game(u, -u, f"symzs_d{dim}_s{seed}")


def gen_transitive(dim: int, seed: int) -> BimatrixGame:
    """Purely transitive game: sorted strengths f, U[i,j] = tanh(f_i - f_j).

    tanh keeps payoffs bounded and odd in the strength difference, so the
    beat relation follows the strength order exactly.  The explicit
    antisymmetrization only cancels rounding noise.
    """
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    f = np.sort(rng.standard_normal(dim))
    b = np.tanh(f[:, None] - f[None, :])
    u = (b - b.T) / 2.0
    return new_game(u, -u, f"transitive_d{dim}_s{seed}")


def gen_elo(dim: int, noise: float, seed: int) -> BimatrixGame:
    """Elo-style game: win-probability payoffs plus Gaussian noise.

    Base payoff 2*sigmoid(r_i - r_j) - 1 from iid N(0,1) ratings; the noisy
    matrix is antisymmetrized so the zero-sum contract survives the noise.
    """
    _check_dim(dim)
    if noise < 0:
        raise GameError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(dim)
    d = r[:, None] - r[None, :]
    b = 2.0 / (1.0 + np.exp(-d)) - 1.0
    if noise > 0:
        b = b + rng.normal(0.0, noise, size=(dim, dim))
    u = (b - b.T) / 2.0
    return new_game(u, -u, f"elo_d{dim}_n{noise:g}_s{seed}")


def gen_general_sum(dim: int, seed: int) -> BimatrixGame:
    """Random general-sum game, both matrices iid uniform on [0, 10]."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    u_row = rng.uniform(0.0, 10.0, size=(dim, dim))
    u_col = rng.uniform(0.0, 10.0, size=(dim, dim))
    return new_game(u_row, u_col, f"gensum_d{dim}_s{seed}")


_RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Small named games used throughout the tests and experiments: (u_row, u_col).
BUILTINS = {"stackelberg_table1": ([[1.0, 3.0], [2.0, 4.0]], [[0.0, 2.0], [1.0, 0.0]]),
            "stag_hunt_table2": ([[30.0, -10.0], [-10.0, 20.0]],) * 2,
            "rps": (_RPS, -_RPS), "matching_pennies": (_PENNIES, -_PENNIES)}


def builtin(name: str) -> BimatrixGame:
    if name not in BUILTINS:
        raise GameError(f"unknown builtin game {name!r}")
    return new_game(*BUILTINS[name], name)


GAME_KINDS = ("symmetric_zero_sum", "transitive", "elo", "general_sum_random",
              "builtin")


@dataclass(frozen=True)
class GameGenSpec:
    """Parametrization of a generated (or builtin / file-loaded) game."""

    kind: str  # one of GAME_KINDS
    dim: int = 0
    noise: float = 0.0
    seed: int = 0
    builtin_name: str = ""

    def validate(self) -> None:
        """Check the spec without building the game."""
        check_fields(self)
        if self.kind not in GAME_KINDS:
            raise GameError(f"unknown game kind {self.kind!r}")
        if self.kind == "builtin" and self.builtin_name not in BUILTINS:
            raise GameError(f"unknown builtin game {self.builtin_name!r}")
        if self.kind != "builtin":
            _check_dim(self.dim)
        if not 0 <= self.noise <= MAX_NOISE:
            raise GameError(f"noise must be in [0, {MAX_NOISE:g}], got {self.noise!r}")
        if self.seed < 0:
            raise GameError("seed must be >= 0")

    def build(self) -> BimatrixGame:
        self.validate()
        if self.kind == "symmetric_zero_sum":
            return gen_symmetric_zero_sum(self.dim, self.seed)
        if self.kind == "transitive":
            return gen_transitive(self.dim, self.seed)
        if self.kind == "elo":
            return gen_elo(self.dim, self.noise, self.seed)
        if self.kind == "general_sum_random":
            return gen_general_sum(self.dim, self.seed)
        return builtin(self.builtin_name)


# ---------------------------------------------------------------------------
# Serialization (JSON, row-major nested arrays, full-precision floats)

def save_game(game: BimatrixGame, path) -> None:
    doc = {
        "name": game.name,
        "n_rows": game.n_rows,
        "n_cols": game.n_cols,
        "U_row": game.u_row.tolist(),
        "U_col": game.u_col.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_game(path) -> BimatrixGame:
    try:   # every error, from a missing file to a bad matrix, names the file
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise GameError("does not hold a JSON object")
        for key in ("name", "n_rows", "n_cols", "U_row", "U_col"):
            if key not in doc:
                raise GameError(f"missing field {key!r}")
        game = new_game(doc["U_row"], doc["U_col"], str(doc["name"]))
        if game.n_rows != doc["n_rows"] or game.n_cols != doc["n_cols"]:
            raise GameError("declared shape does not match matrices")
    except (OSError, ValueError) as exc:
        raise GameError(f"game file {path}: {exc}") from exc
    return game
