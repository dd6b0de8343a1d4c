"""Exact solvers: best response, exploitability, advantage, fictitious play,
expected cardinality, and the two desk-scale oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagame_forge.games import (GameError, builtin, gen_general_sum,
                                  gen_symmetric_zero_sum, gen_transitive,
                                  new_game, pure, uniform)
from metagame_forge import solvers
from metagame_forge.solvers import (advantage, advantage_many, best_response,
                                    ec_of_gram, expected_cardinality,
                                    exploitability, fictitious_play,
                                    nash_support_enumeration,
                                    stackelberg_grid_value)

RPS = builtin("rps")
T1 = builtin("stackelberg_table1")
T2 = builtin("stag_hunt_table2")
MP = builtin("matching_pennies")


# ---------------------------------------------------------------------------
# Best response

def test_br_rps_to_rock():
    res = best_response(RPS, 1, pure(3, 0))
    assert res.index == 1 and res.value == 1.0
    assert res.responder_opponent_value == -1.0

def test_br_rps_to_uniform_all_tied():
    res = best_response(RPS, 1, uniform(3))
    assert res.tied_indices == (0, 1, 2)
    assert res.index == 0
    assert abs(res.value) <= 1e-12

def test_br_table1_column_tie_at_stackelberg_point():
    res = best_response(T1, 1, np.array([1.0 / 3.0, 2.0 / 3.0]))
    assert res.tied_indices == (0, 1)
    assert res.index == 0
    assert abs(res.value - 2.0 / 3.0) <= 1e-12

def test_br_value_is_max_and_index_is_lowest_tie():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = gen_general_sum(5, rng.integers(1000))
        q = rng.dirichlet(np.ones(5))
        res = best_response(g, 0, q)
        vals = g.u_row @ q
        assert abs(res.value - vals.max()) <= 1e-12
        assert res.index == min(res.tied_indices)

def test_br_restriction():
    res = best_response(RPS, 1, pure(3, 0), restriction=[0, 2])
    assert res.index == 0  # Paper excluded; Rock ties itself at 0 vs Scissors' -1
    with pytest.raises(GameError):
        best_response(RPS, 1, pure(3, 0), restriction=[])
    with pytest.raises(GameError):
        best_response(RPS, 1, pure(3, 0), restriction=[5])


# ---------------------------------------------------------------------------
# Exploitability

def test_exploitability_rps():
    assert abs(exploitability(RPS, uniform(3), uniform(3))) <= 1e-12
    assert abs(exploitability(RPS, pure(3, 0), pure(3, 0)) - 2.0) <= 1e-12

def test_exploitability_table1_nash():
    assert abs(exploitability(T1, pure(2, 1), pure(2, 0))) <= 1e-12

def test_exploitability_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = gen_general_sum(4, rng.integers(1000))
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert exploitability(g, p, q) >= -1e-12


# ---------------------------------------------------------------------------
# Advantage

def test_advantage_rps():
    assert advantage(RPS, 0, pure(3, 0)) == -1.0
    assert abs(advantage(RPS, 0, uniform(3))) <= 1e-12

def test_advantage_table1_pure_rows():
    assert advantage(T1, 0, pure(2, 0)) == 3.0
    assert advantage(T1, 0, pure(2, 1)) == 2.0

def test_advantage_pessimistic_at_ties():
    # Duplicate opponent columns force an exact tie with different own payoffs.
    g = new_game([[5.0, 1.0]], [[2.0, 2.0]])
    assert advantage(g, 0, np.array([1.0])) == 1.0

def test_advantage_many_matches_scalar():
    rng = np.random.default_rng(2)
    g = gen_general_sum(6, 3)
    P = rng.dirichlet(np.ones(6), size=10)
    vec = advantage_many(g, 0, P)
    for i in range(10):
        assert abs(vec[i] - advantage(g, 0, P[i])) <= 1e-12


@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
def test_small_products_run_on_one_blas_thread():
    get, set_ = solvers._OPENBLAS_THREADS
    before = get()
    with solvers._blas_threads_for(solvers.ONE_THREAD_MNK - 1):
        assert get() == 1
    assert get() == before
    with solvers._blas_threads_for(solvers.ONE_THREAD_MNK):
        assert get() == before
    with pytest.raises(ValueError):
        with solvers._blas_threads_for(1):
            raise ValueError
    assert get() == before


# ---------------------------------------------------------------------------
# Fictitious play

def test_fp_matching_pennies():
    sol = fictitious_play(MP.u_row, MP.u_col, max_iters=10_000, tol=0.0)
    assert np.abs(sol.theta_row - 0.5).max() <= 0.05
    assert np.abs(sol.theta_col - 0.5).max() <= 0.05

def test_fp_single_action():
    sol = fictitious_play([[3.0]], [[1.0]], max_iters=10, tol=1e-9)
    assert sol.theta_row[0] == 1.0 and sol.theta_col[0] == 1.0
    assert sol.residual == 0.0
    assert sol.iterations_used <= 1

def test_fp_table1_converges_to_nash():
    sol = fictitious_play(T1.u_row, T1.u_col, max_iters=10_000_000, tol=1e-6)
    assert sol.residual <= 1e-6
    assert sol.theta_row[1] > 0.99  # D
    assert sol.theta_col[0] > 0.99  # L

def test_fp_outputs_simplex_valid_and_residual_nonneg():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(size=(4, 5))
        sol = fictitious_play(m, -m, max_iters=500, tol=1e-3)
        for th in (sol.theta_row, sol.theta_col):
            assert (th >= 0).all() and abs(th.sum() - 1.0) <= 1e-12
        assert sol.residual >= 0.0

def test_fp_contract_errors():
    with pytest.raises(GameError):
        fictitious_play(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(GameError):
        fictitious_play([[1.0]], [[1.0, 2.0]])
    with pytest.raises(GameError):
        fictitious_play([[1.0]], [[1.0]], max_iters=0)


# ---------------------------------------------------------------------------
# Expected cardinality

def test_ec_hand_values():
    assert abs(expected_cardinality([[0.0]])) <= 1e-12
    assert abs(expected_cardinality([[1.0]]) - 0.5) <= 1e-12
    assert abs(expected_cardinality(np.eye(3)) - 1.5) <= 1e-12

def test_ec_matches_singular_value_formula():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = rng.normal(size=(rng.integers(1, 10), rng.integers(1, 10)))
        sv = np.linalg.svd(m, compute_uv=False)
        expected = float((sv**2 / (1.0 + sv**2)).sum())
        assert abs(expected_cardinality(m) - expected) <= 1e-9

def test_ec_of_gram_consistency():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 7))
    assert abs(ec_of_gram(m @ m.T) - expected_cardinality(m)) <= 1e-9

def test_ec_range_and_errors():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 5))
    assert 0.0 <= expected_cardinality(m) < 5.0
    with pytest.raises(GameError):
        expected_cardinality(np.zeros((0, 3)))
    with pytest.raises(GameError):
        expected_cardinality([[np.nan]])


# ---------------------------------------------------------------------------
# Stackelberg grid oracle

def test_stackelberg_table1():
    point, value = stackelberg_grid_value(T1, 0, 3000)
    assert abs(value - 11.0 / 3.0) <= 1e-2
    assert abs(point[0] - 1.0 / 3.0) <= 1e-2

def test_stackelberg_stag_hunt():
    point, value = stackelberg_grid_value(T2, 0, 200)
    assert value == 30.0
    assert point[0] == 1.0

def test_stackelberg_single_action_leader():
    g = new_game([[4.0, 0.0]], [[1.0, 2.0]])
    point, value = stackelberg_grid_value(g, 0, 10)
    assert value == advantage(g, 0, np.array([1.0]))

def test_stackelberg_dim_limit():
    with pytest.raises(GameError):
        stackelberg_grid_value(gen_general_sum(4, 0), 0, 10)


# ---------------------------------------------------------------------------
# Support enumeration oracle

def test_enum_matching_pennies():
    nes = nash_support_enumeration(MP)
    assert len(nes) == 1
    x, y = nes[0]
    assert np.abs(x - 0.5).max() <= 1e-9
    assert np.abs(y - 0.5).max() <= 1e-9

def test_enum_stag_hunt():
    nes = nash_support_enumeration(T2)
    assert len(nes) == 3
    profiles = {tuple(np.round(x, 6)) for x, _ in nes}
    assert (1.0, 0.0) in profiles and (0.0, 1.0) in profiles
    mixed = [x for x, _ in nes if 0 < x[0] < 1]
    assert len(mixed) == 1
    assert abs(mixed[0][0] - 3.0 / 7.0) <= 1e-9

def test_enum_table1_sole_nash():
    nes = nash_support_enumeration(T1)
    assert len(nes) == 1
    x, y = nes[0]
    assert x[1] == 1.0 and y[0] == 1.0  # (D, L)

def test_enum_all_results_are_equilibria():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = gen_general_sum(3, rng.integers(10_000))
        for x, y in nash_support_enumeration(g):
            assert exploitability(g, x, y) <= 1e-8

def test_enum_dim_limit():
    with pytest.raises(GameError):
        nash_support_enumeration(gen_general_sum(6, 0))


# ---------------------------------------------------------------------------
# Theorem-backed properties (small versions; the acceptance suite scales up)

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exploitability_advantage_identity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    g = gen_symmetric_zero_sum(dim, seed % 100_000)
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    lhs = exploitability(g, p, q)
    rhs = -(advantage(g, 0, p) + advantage(g, 1, q))
    assert abs(lhs - rhs) <= 1e-9

def test_zero_sum_nash_payoffs_are_zero():
    rng = np.random.default_rng(8)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        g = gen_symmetric_zero_sum(dim, int(rng.integers(100_000)))
        for x, y in nash_support_enumeration(g):
            assert exploitability(g, x, y) <= 1e-9
            assert abs(float(x @ g.u_row @ y)) <= 1e-9
            assert abs(advantage(g, 0, x)) <= 1e-9
            assert abs(advantage(g, 1, y)) <= 1e-9

def test_transitive_advantage_orders_payoffs():
    rng = np.random.default_rng(9)
    g = gen_transitive(12, 4)
    for _ in range(200):
        i, j = rng.integers(0, 12, size=2)
        vi = advantage(g, 0, pure(12, i))
        vj = advantage(g, 1, pure(12, j))
        if vi > vj + 1e-9:
            assert float(pure(12, i) @ g.u_row @ pure(12, j)) > 0

def test_payoff_constant_across_br_ties():
    # Symmetric zero-sum: the player's payoff must not depend on which tied
    # best response the opponent picks.  Duplicated strategies force ties.
    rng = np.random.default_rng(10)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        g = gen_symmetric_zero_sum(dim, int(rng.integers(100_000)))
        p = rng.dirichlet(np.ones(dim))
        opp_vals = p @ g.u_col            # opponent payoff per pure reply
        own_vals = p @ g.u_row            # player payoff per pure reply
        tie = np.flatnonzero(opp_vals >= opp_vals.max() - 1e-9)
        assert own_vals[tie].max() - own_vals[tie].min() <= 1e-9
