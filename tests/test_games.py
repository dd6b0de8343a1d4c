"""Game types, generators, strategies and serialization."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metagame_forge.games import (BUILTINS, MAX_DIM, MAX_MAGNITUDE,
                                  MAX_NOISE, BimatrixGame, GameError,
                                  GameGenSpec, StrategyError, builtin, gen_elo,
                                  gen_general_sum, gen_symmetric_zero_sum,
                                  gen_transitive, load_game, new_game, payoff,
                                  save_game, validate_strategy)
from oracles import pure, uniform


# ---------------------------------------------------------------------------
# Construction and validation

def test_new_game_shapes_and_flag():
    g = new_game([[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])
    assert g.n_rows == 2 and g.n_cols == 2
    assert g.exact_zero_sum

def test_new_game_zero_sum_needs_no_antisymmetry():
    # Zero-sum but not antisymmetric, or not even square: still exact.
    assert new_game([[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]).exact_zero_sum
    assert new_game([[1.0, -2.0, 0.5]], [[-1.0, 2.0, -0.5]]).exact_zero_sum
    assert not new_game([[1.0, 0.0]], [[-1.0, 1e-300]]).exact_zero_sum

def test_exact_zero_sum_needs_no_whole_matrix_temporary():
    # A row at a time, the answer of one whole-matrix comparison on every
    # generator and builtin, and on a zero-sum game with one entry of its
    # last row changed.  On a dim-1000 general-sum game the first row
    # settles it: a whole -u_row would take 8 MB.
    games = [gen(d, 3) for d in (2, 50) for gen in (
        gen_symmetric_zero_sum, gen_transitive, gen_general_sum,
        lambda d, s: gen_elo(d, 0.0, s), lambda d, s: gen_elo(d, 1.0, s))]
    games += [builtin(name) for name in BUILTINS]
    u = gen_symmetric_zero_sum(50, 3).u_row
    off = -u
    off[-1, 7] = np.nextafter(off[-1, 7], np.inf)
    games.append(new_game(u, off))
    for g in games:
        assert g.exact_zero_sum == np.array_equal(g.u_col, -g.u_row), g.name
    assert not games[-1].exact_zero_sum
    g = gen_general_sum(1000, 0)
    tracemalloc.start()
    try:
        assert not g.exact_zero_sum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6

def test_new_game_rejects_bad_input():
    with pytest.raises(GameError):
        new_game([[1.0]], [[1.0, 2.0]])
    with pytest.raises(GameError):
        new_game([[np.inf]], [[0.0]])
    with pytest.raises(GameError):
        new_game(np.zeros((0, 2)), np.zeros((0, 2)))

PAST_BOUND = np.nextafter(MAX_MAGNITUDE, np.inf)

@settings(max_examples=100, deadline=None)
@given(value=st.sampled_from([MAX_MAGNITUDE, -MAX_MAGNITUDE, PAST_BOUND,
                              -PAST_BOUND, np.nan, np.inf, -np.inf]),
       matrix=st.integers(0, 1), n=st.integers(1, 4), m=st.integers(1, 4),
       data=st.data())
def test_new_game_bounds_every_payoff(value, matrix, n, m, data):
    # One payoff anywhere in either matrix decides; the rest are small.
    mats = [np.zeros((n, m)), np.ones((n, m))]
    at = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)))
    mats[matrix][at] = value
    if abs(value) <= MAX_MAGNITUDE:
        assert new_game(*mats).payoff_scales[matrix] == MAX_MAGNITUDE
    else:
        with pytest.raises(GameError, match="finite"):
            new_game(*mats)

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 70),
       m=st.one_of(st.integers(1, 70), st.integers(1000, 1100)),
       kind=st.sampled_from(["normal", "integer", "zero"]))
def test_reply_margins_match_a_full_sort(seed, n, m, kind):
    # One partial sort per row, at up to 1100 columns; integer payoffs tie
    # at the top, where the margin is 0 and the lowest index is best.
    # The payoff scales come without the margins; all-zero payoffs give
    # scale 0, where the population update falls back to scale 1.
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda: rng.normal(size=(n, m)),
            "integer": lambda: rng.integers(-2, 3, size=(n, m)).astype(float),
            "zero": lambda: np.zeros((n, m))}[kind]
    g = new_game(draw(), draw())
    assert g.payoff_scales == (np.abs(g.u_row).max(), np.abs(g.u_col).max())
    assert "reply_margins" not in vars(g)
    for (best, margin), B in zip(g.reply_margins, (g.u_col, g.u_row.T)):
        assert np.array_equal(best, B.argmax(axis=1))
        top_two = -np.sort(-B, axis=1)[:, :2]
        expected = (top_two[:, 0] - top_two[:, 1] if B.shape[1] > 1
                    else np.full(B.shape[0], np.inf))
        assert np.array_equal(margin, expected)

def test_matrices_are_immutable():
    g = builtin("rps")
    with pytest.raises(ValueError):
        g.u_row[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Strategies and payoffs

def test_strategy_helpers():
    assert np.array_equal(pure(3, 1), [0.0, 1.0, 0.0])
    assert np.allclose(uniform(4), 0.25)
    with pytest.raises(StrategyError):
        validate_strategy([0.5, 0.6], 2)
    with pytest.raises(StrategyError):
        validate_strategy([1.0], 2)

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
def test_validate_strategy_rejects_non_finite(seed, n, data):
    p = np.random.default_rng(seed).dirichlet(np.ones(n))
    validate_strategy(p, n)   # the finite point passes
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1)):
        p[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(StrategyError):
        validate_strategy(p, n)

def test_payoff_builtin_values():
    t1 = builtin("stackelberg_table1")
    assert payoff(t1, pure(2, 1), pure(2, 0)) == (2.0, 1.0)
    t2 = builtin("stag_hunt_table2")
    assert payoff(t2, pure(2, 0), pure(2, 0)) == (30.0, 30.0)

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
def test_payoff_bilinearity(seed, alpha):
    rng = np.random.default_rng(seed)
    g = gen_general_sum(4, seed % 1000)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    r = rng.dirichlet(np.ones(4))
    mix = alpha * p + (1 - alpha) * q
    lhs = payoff(g, mix, r)[0]
    rhs = alpha * payoff(g, p, r)[0] + (1 - alpha) * payoff(g, q, r)[0]
    assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Builtins

def test_builtin_table1_matrices():
    g = builtin("stackelberg_table1")
    assert np.array_equal(g.u_row, [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(g.u_col, [[0.0, 2.0], [1.0, 0.0]])

def test_builtin_table2_matrices():
    g = builtin("stag_hunt_table2")
    expected = [[30.0, -10.0], [-10.0, 20.0]]
    assert np.array_equal(g.u_row, expected)
    assert np.array_equal(g.u_col, expected)

def test_builtin_rps_is_symmetric_zero_sum():
    g = builtin("rps")
    assert g.exact_zero_sum
    assert np.array_equal(g.u_row, -g.u_row.T)

def test_builtin_unknown_name():
    with pytest.raises(GameError):
        builtin("chess")


# ---------------------------------------------------------------------------
# Generators

def test_generator_determinism():
    for make in (lambda: gen_symmetric_zero_sum(8, 3),
                 lambda: gen_transitive(8, 3),
                 lambda: gen_elo(8, 1.0, 3),
                 lambda: gen_general_sum(8, 3)):
        a, b = make(), make()
        assert np.array_equal(a.u_row, b.u_row)
        assert np.array_equal(a.u_col, b.u_col)

def test_zero_sum_generators_antisymmetric_exactly():
    for g in (gen_symmetric_zero_sum(20, 0), gen_transitive(20, 0),
              gen_elo(20, 1.0, 0)):
        assert np.abs(g.u_row + g.u_row.T).max() == 0.0
        assert np.abs(g.u_row + g.u_col).max() == 0.0
        assert g.exact_zero_sum

def test_general_sum_support():
    g = gen_general_sum(100, 0)
    assert g.u_row.min() >= 0.0 and g.u_row.max() <= 10.0
    assert g.u_col.min() >= 0.0 and g.u_col.max() <= 10.0
    assert not g.exact_zero_sum

def test_transitive_strengths_are_ordered():
    g = gen_transitive(10, 5)
    # Higher-indexed strategies beat all lower-indexed ones.
    for i in range(10):
        for j in range(i):
            assert g.u_row[i, j] > 0

def test_generators_reject_small_dim():
    for fn in (lambda: gen_symmetric_zero_sum(1, 0),
               lambda: gen_transitive(1, 0),
               lambda: gen_elo(1, 0.0, 0),
               lambda: gen_general_sum(1, 0)):
        with pytest.raises(GameError):
            fn()
    with pytest.raises(GameError):
        gen_elo(4, -0.5, 0)

def test_zero_sum_generators_reject_non_finite_payoffs():
    # Noise this large overflows the antisymmetrized payoffs to +-inf.
    with pytest.raises(GameError, match="finite"):
        gen_elo(4, 1e308, 0)

def test_gamegenspec_bounds_dim_and_noise():
    GameGenSpec("elo", dim=MAX_DIM, noise=MAX_NOISE).validate()
    for spec, word in ((GameGenSpec("elo", dim=MAX_DIM + 1), "dim"),
                       (GameGenSpec("elo", dim=4, noise=MAX_NOISE * 2), "noise"),
                       (GameGenSpec("elo", dim=4, noise=1e308), "noise")):
        with pytest.raises(GameError, match=word):
            spec.validate()

def test_gamegenspec_dispatch():
    assert GameGenSpec("elo", dim=6, noise=0.5, seed=2).build().n_rows == 6
    assert GameGenSpec("builtin", builtin_name="rps").build().n_rows == 3
    with pytest.raises(GameError):
        GameGenSpec("nonsense", dim=4).build()


# ---------------------------------------------------------------------------
# Serialization

def test_save_load_round_trip(tmp_path):
    g = builtin("stackelberg_table1")
    path = tmp_path / "g.json"
    save_game(g, path)
    back = load_game(path)
    assert np.array_equal(back.u_row, g.u_row)
    assert np.array_equal(back.u_col, g.u_col)
    assert back.name == g.name

def test_save_load_round_trip_is_bit_exact(tmp_path):
    g = gen_elo(12, 1.0, 9)
    path = tmp_path / "g.json"
    save_game(g, path)
    back = load_game(path)
    assert np.array_equal(back.u_row, g.u_row)
    assert back.exact_zero_sum
    assert "symmetric_zero_sum" not in json.loads(path.read_text())

def test_load_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "n_rows": 1, "n_cols": 1, "U_row": [[0.0]]}')
    with pytest.raises(GameError):
        load_game(path)

def test_load_declared_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "n_rows": 3, "n_cols": 3, '
                    '"U_row": [[0.0]], "U_col": [[0.0]], '
                    '"symmetric_zero_sum": false}')
    with pytest.raises(GameError):
        load_game(path)

def test_load_external_empirical_matrix(tmp_path):
    # A schema-conformant file produced outside the package loads fine.
    path = tmp_path / "meta.json"
    path.write_text('{"name": "empirical", "n_rows": 2, "n_cols": 3, '
                    '"U_row": [[0.5, -0.25, 1.0], [0.0, 0.125, -1.5]], '
                    '"U_col": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}')
    g = load_game(path)
    assert g.n_rows == 2 and g.n_cols == 3
    assert g.u_row[1, 1] == 0.125

def test_load_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GameError):
        load_game(path)


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
                | st.floats() | st.text(max_size=6))
JSON = st.recursive(JSON_SCALARS,
                    lambda c: st.lists(c, max_size=3)
                    | st.dictionaries(st.text(max_size=6), c, max_size=3),
                    max_leaves=12)
MATRICES = st.lists(st.lists(st.integers(-3, 3) | JSON_SCALARS, max_size=3),
                    max_size=3) | JSON
GAME_DOCS = JSON | st.fixed_dictionaries(
    {"name": JSON, "n_rows": st.integers(0, 3) | JSON,
     "n_cols": st.integers(0, 3) | JSON, "U_row": MATRICES, "U_col": MATRICES},
    optional={"symmetric_zero_sum": JSON})

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=GAME_DOCS)
def test_load_game_raises_only_game_error(tmp_path, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    try:
        game = load_game(path)
    except GameError:
        return
    finally:
        path.unlink()   # some file systems flush when a file is truncated
    assert game.u_row.shape == (doc["n_rows"], doc["n_cols"])
