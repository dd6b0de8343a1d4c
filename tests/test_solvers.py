"""Exact solvers: the engine's best-response oracle, exploitability,
advantage, fictitious play, expected cardinality, and the two desk-scale
oracles."""
import collections
import inspect
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metagame_forge.games import (GameError, builtin, gen_elo,
                                  gen_general_sum, gen_symmetric_zero_sum,
                                  gen_transitive, new_game, payoff)
from metagame_forge import solvers
from metagame_forge.engine import br_oracle
from metagame_forge.solvers import (COL, ROW, TIE_ATOL, advantage,
                                    advantage_many, ec_of_gram,
                                    ec_rank_one, exploitability,
                                    fictitious_play, own_matrix)
from oracles import (nash_support_enumeration, pure, small_integer_case,
                     stackelberg_grid_value, uniform)

RPS = builtin("rps")
T1 = builtin("stackelberg_table1")
T2 = builtin("stag_hunt_table2")
MP = builtin("matching_pennies")


# ---------------------------------------------------------------------------
# Best response

def test_br_rps_to_rock():
    assert br_oracle(RPS, 1, pure(3, 0)).tolist() == pure(3, 1).tolist()

def test_br_rps_to_uniform_all_tied():
    assert (np.abs(RPS.u_col.T @ uniform(3)) <= TIE_ATOL).all()   # all tie
    assert br_oracle(RPS, 1, uniform(3)).tolist() == pure(3, 0).tolist()

def test_br_table1_column_tie_at_stackelberg_point():
    q = np.array([1.0 / 3.0, 2.0 / 3.0])
    values = T1.u_col.T @ q
    assert abs(values[0] - values[1]) <= TIE_ATOL   # both replies tie
    assert br_oracle(T1, 1, q).tolist() == pure(2, 0).tolist()

def test_br_value_is_max_and_index_is_lowest_tie():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = gen_general_sum(5, rng.integers(1000))
        q = rng.dirichlet(np.ones(5))
        reply = br_oracle(g, 0, q)
        vals = g.u_row @ q
        index = int(np.flatnonzero(reply)[0])
        assert reply.tolist() == pure(5, index).tolist()
        assert vals[index] >= vals.max() - TIE_ATOL
        assert (vals[:index] < vals.max() - TIE_ATOL).all()


# ---------------------------------------------------------------------------
# Exploitability

def test_exploitability_rps():
    assert abs(exploitability(RPS, uniform(3), uniform(3))[0]) <= 1e-12
    assert abs(exploitability(RPS, pure(3, 0), pure(3, 0))[0] - 2.0) <= 1e-12

def test_exploitability_table1_nash():
    assert abs(exploitability(T1, pure(2, 1), pure(2, 0))[0]) <= 1e-12

def test_exploitability_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = gen_general_sum(4, rng.integers(1000))
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert exploitability(g, p, q)[0] >= -1e-12

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12),
       m=st.integers(1, 12), zero_sum=st.booleans())
def test_exploitability_matches_two_product_formula(seed, n, m, zero_sum):
    """`exploitability` forms p @ u_col once; the formula that forms it for
    the best reply and again for the value gives the same bits, and the
    profile's payoffs are `payoff`'s, bit for bit."""
    g, p, q = small_integer_case(seed, n, m, zero_sum)
    want = float(((g.u_row @ q).max() - p @ g.u_row @ q)
                 + ((p @ g.u_col).max() - p @ g.u_col @ q))
    got = exploitability(g, p, q)
    assert [v.hex() for v in got] == [v.hex() for v in (want, *payoff(g, p, q))]


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


def _advantage_many_two_products(game, player, P):
    """Reference: `advantage_many` without the zero-sum shortcut, forming
    the opponent's tie set from its own product and masking the rest."""
    m_self = own_matrix(game, player)
    m_opp = own_matrix(game, 1 - player)
    opp_vals = P @ m_opp.T
    self_vals = P @ m_self
    best = opp_vals.max(axis=1, keepdims=True)
    np.putmask(self_vals, ~(opp_vals >= best - TIE_ATOL), np.inf)
    return self_vals.min(axis=1)

def test_exact_zero_sum_property(monkeypatch):
    # Matching pennies is zero-sum without being symmetric: it is exact too.
    for g in (RPS, MP, gen_symmetric_zero_sum(6, 1), gen_transitive(6, 1),
              gen_elo(6, 1.0, 1)):
        assert g.exact_zero_sum
    u = RPS.u_row
    near = new_game(u, -u + 1e-13)
    for g in (near, T1, gen_general_sum(6, 1)):
        assert not g.exact_zero_sum
    # One payoff matrix, and so one product, only on the exact path.
    used = []
    monkeypatch.setattr(solvers, "own_matrix",
                        lambda g, p: used.append(p) or own_matrix(g, p))
    for g, matrices in ((RPS, 1), (MP, 1), (near, 2), (T1, 2)):
        used.clear()
        advantage_many(g, COL, np.eye(g.n_cols))
        assert len(used) == matrices

@settings(max_examples=80, deadline=None)
@example(seed=1, n=200, player=ROW, offset=False)
@example(seed=2, n=200, player=COL, offset=False)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 200),
       player=st.sampled_from([ROW, COL]), offset=st.booleans())
def test_zero_sum_advantage_matches_two_products_bit_for_bit(seed, n, player,
                                                             offset):
    # Integer payoffs and pure or two-action rows tie often.
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(n, n)).astype(float)
    u = a - a.T
    # u_col off -u_row by 1e-13 is not exactly zero-sum, so it must take the
    # general path.
    game = new_game(u, -u + 1e-13 if offset else -u)
    assert game.exact_zero_sum == (not offset)
    pairs = (np.eye(n) + np.roll(np.eye(n), 1, axis=1)) / 2.0
    mixed = rng.dirichlet(np.ones(n), size=n // 2)
    P = np.vstack([np.eye(n), pairs[: n - n // 2], mixed])
    got = advantage_many(game, player, P)
    want = _advantage_many_two_products(game, player, P)
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros


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
        fictitious_play(np.zeros((0, 2)), np.zeros((0, 2)), 10, 1e-3)
    with pytest.raises(GameError):
        fictitious_play([[1.0]], [[1.0, 2.0]], 10, 1e-3)
    with pytest.raises(GameError):
        fictitious_play([[1.0]], [[1.0]], max_iters=0, tol=1e-3)
    with pytest.raises(GameError):
        fictitious_play([[1.0]], [[1.0]], max_iters=10, tol=-1.0)

def _fp_reference(m_row, m_col, max_iters, tol):
    """Reference: fictitious play recomputing the reply payoffs at every use
    (best responses, batch check, residual), in the same arithmetic order."""
    def meta_exploitability(x, y):
        ry = m_row @ y
        xc = x @ m_col
        return float((ry.max() - x @ ry) + (xc.max() - xc @ y))

    n, m = m_row.shape
    avg_r = np.full(n, 1.0 / n)
    avg_c = np.full(m, 1.0 / m)
    steps = 0
    weight = 1.0
    residual = meta_exploitability(avg_r, avg_c)
    jump = 1
    while steps < max_iters and residual > tol:
        br_r = int(np.argmax(m_row @ avg_c))
        br_c = int(np.argmax(avg_r @ m_col))
        k = min(jump, max_iters - steps)
        w2 = weight + k
        cand_r = (weight * avg_r) / w2
        cand_r[br_r] += k / w2
        cand_c = (weight * avg_c) / w2
        cand_c[br_c] += k / w2
        if k > 1:
            if int(np.argmax(m_row @ cand_c)) != br_r or \
               int(np.argmax(cand_r @ m_col)) != br_c:
                jump = max(1, jump // 2)
                continue
            jump *= 2
        else:
            jump = max(2, jump)
        avg_r, avg_c = cand_r, cand_c
        weight = w2
        steps += k
        residual = meta_exploitability(avg_r, avg_c)
    return avg_r, avg_c, max(residual, 0.0), steps

def _fp_case(seed, n, m, zero_sum, integer, elo):
    rng = np.random.default_rng(seed)
    if integer:
        # Small integer payoffs tie often, so argmax tie-breaks are exercised.
        m_row = rng.integers(-2, 3, size=(n, m)).astype(float)
        m_col = rng.integers(-2, 3, size=(n, m)).astype(float)
    else:
        m_row = rng.normal(size=(n, m))
        m_col = rng.normal(size=(n, m))
    if elo:
        # An empirical game of an Elo game: its first n strategies against
        # its first m, so the two sides reply differently.
        m_row = gen_elo(max(n, m, 2), 1.0, seed).u_row[:n, :m]
    if zero_sum:
        m_col = -m_row
    return m_row, m_col

# Fictitious play on this case rejects batch probes on both sides.
FP_BOTH_SIDES = dict(seed=7, n=60, m=100, zero_sum=True, integer=False,
                     elo=True, max_iters=50, tol=1e-3)

def _fp_layout(M, layout):
    """M as a caller may pass it: C order, Fortran order, a transposed view
    of a C-order array, or nested Python lists (ints where integral)."""
    if layout == "fortran":
        return np.asfortranarray(M)
    if layout == "transposed":
        return np.ascontiguousarray(M.T).T
    if layout == "lists":
        return [[int(v) if v.is_integer() else v for v in row]
                for row in M.tolist()]
    return M

@settings(max_examples=150, deadline=None)
@example(**FP_BOTH_SIDES, layout="C")
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 160),
       m=st.integers(1, 160), zero_sum=st.booleans(),
       integer=st.booleans(), elo=st.booleans(),
       max_iters=st.sampled_from([1, 5, 50, 500]),
       tol=st.sampled_from([0.0, 1e-8, 1e-3]),
       layout=st.sampled_from(["C", "fortran", "transposed", "lists"]))
def test_fp_matches_reference_bit_for_bit(seed, n, m, zero_sum, integer, elo,
                                          max_iters, tol, layout):
    """Bit for bit, zero signs included, against the `@` reference on the
    same matrices in the same layout."""
    m_row, m_col = (_fp_layout(M, layout)
                    for M in _fp_case(seed, n, m, zero_sum, integer, elo))
    sol = fictitious_play(m_row, m_col, max_iters, tol)
    ref_r, ref_c, residual, steps = _fp_reference(
        np.asarray(m_row, dtype=float), np.asarray(m_col, dtype=float),
        max_iters, tol)
    assert sol.theta_row.tobytes() == ref_r.tobytes()
    assert sol.theta_col.tobytes() == ref_c.tobytes()
    assert type(sol.residual) is float and sol.residual.hex() == residual.hex()
    assert sol.iterations_used == steps

def test_fp_weights_share_no_memory():
    """Both running averages are halves of one buffer; the weights returned
    are copies that own their memory."""
    sol = fictitious_play(RPS.u_row, RPS.u_col, max_iters=7, tol=0.0)
    assert sol.theta_row.flags.owndata and sol.theta_col.flags.owndata
    assert not np.shares_memory(sol.theta_row, sol.theta_col)
    theta_col = sol.theta_col.copy()
    sol.theta_row[:] = -1.0
    assert np.array_equal(sol.theta_col, theta_col)

def test_fp_reference_rejects_on_both_sides(monkeypatch):
    """The FP_BOTH_SIDES example makes `_fp_reference` reject batch probes on
    the row side and on the column side.  Each of its argmax calls is told
    apart by the source line that makes it."""
    case = dict(FP_BOTH_SIDES)
    max_iters, tol = case.pop("max_iters"), case.pop("tol")
    m_row, m_col = _fp_case(**case)
    lines, first = inspect.getsourcelines(_fp_reference)
    role = {first + i: key for i, text in enumerate(lines)
            for key in ("m_row @ avg_c", "avg_r @ m_col", "m_row @ cand_c",
                        "cand_r @ m_col") if f"np.argmax({key})" in text}
    calls = []
    argmax = np.argmax

    def spy(a):
        calls.append((role[sys._getframe(1).f_lineno], int(argmax(a))))
        return calls[-1][1]

    monkeypatch.setattr(np, "argmax", spy)
    _fp_reference(m_row, m_col, max_iters, tol)
    monkeypatch.undo()
    last, rejected = {}, collections.Counter()
    for key, index in calls:
        if key == "m_row @ cand_c" and index != last["m_row @ avg_c"]:
            rejected["row"] += 1
        if key == "cand_r @ m_col" and index != last["avg_r @ m_col"]:
            rejected["col"] += 1
        last[key] = index
    assert rejected["row"] > 0 and rejected["col"] > 0


# ---------------------------------------------------------------------------
# Expected cardinality

def test_ec_hand_values():
    assert abs(ec_of_gram(np.zeros((1, 1)))) <= 1e-12
    assert abs(ec_of_gram(np.ones((1, 1))) - 0.5) <= 1e-12
    assert abs(ec_of_gram(np.eye(3)) - 1.5) <= 1e-12

def test_ec_matches_singular_value_formula():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = rng.normal(size=(rng.integers(1, 10), rng.integers(1, 10)))
        sv = np.linalg.svd(m, compute_uv=False)
        expected = float((sv**2 / (1.0 + sv**2)).sum())
        assert abs(ec_of_gram(m @ m.T) - expected) <= 1e-9

def test_ec_of_gram_consistency():
    # M M^T and M^T M share their nonzero eigenvalues, so their EC agrees.
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 7))
    assert abs(ec_of_gram(m @ m.T) - ec_of_gram(m.T @ m)) <= 1e-9

def test_ec_range_and_errors():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 5))
    assert 0.0 <= ec_of_gram(m @ m.T) < 5.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ec_of_gram(np.array([[bad]]))

def test_ec_rank_one_within_bound_at_every_gram_scale():
    # Near-duplicate fixed rows and candidates near them make every bordered
    # Gram matrix nearly singular, so an error growing faster than the Gram
    # scale leaves the bound within a few decades.  m runs up to full-scale
    # population sizes.
    rng = np.random.default_rng(7)
    for m, k in ((5, 2), (40, 5), (150, 3)):
        base = rng.normal(size=m)
        base /= np.linalg.norm(base)
        for decade in range(2, 13):
            s = 10.0 ** (decade / 2)          # Gram entries near 10**decade
            F = s * base + 1e-3 * rng.normal(size=(k, m))
            X = s * base + np.vstack([1e-3 * rng.normal(size=(8, m)),
                                      rng.normal(size=(8, m))])
            approx, bound = ec_rank_one(F, X)
            for x, a in zip(X, approx):
                M = np.vstack([F, x])
                assert abs(a - ec_of_gram(M @ M.T)) <= bound / 1000, (m, decade)

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(0, 19),
       m=st.integers(1, 49), scale=st.sampled_from([1e-1, 1.0, 1e1, 1e2]))
def test_ec_eigenvalue_fallbacks_agree_with_the_inverse(seed, k, m, scale):
    # Where the inverse fails, both EC forms take eigenvalues instead; where
    # the inverse works, the two agree within ec_rank_one's bound.
    rng = np.random.default_rng(seed)
    F = scale * rng.normal(size=(k, m))
    X = scale * rng.normal(size=(4, m))
    grams = [np.vstack([F, x]) @ np.vstack([F, x]).T for x in X]
    approx, bound = ec_rank_one(F, X)
    exact = [ec_of_gram(L) for L in grams]
    failed = []

    def singular(a):
        failed.append(a.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    with mock.patch.object(np.linalg, "inv", singular):
        approx_eig, bound_eig = ec_rank_one(F, X)
        exact_eig = [ec_of_gram(L) for L in grams]
    assert len(failed) == 1 + len(grams)   # every call took the fallback
    assert bound_eig == bound
    assert np.abs(approx_eig - approx).max() <= bound
    assert np.abs(np.subtract(exact_eig, exact)).max() <= bound


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
            assert exploitability(g, x, y)[0] <= 1e-8

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
    lhs = exploitability(g, p, q)[0]
    rhs = -(advantage(g, 0, p) + advantage(g, 1, q))
    assert abs(lhs - rhs) <= 1e-9

def test_zero_sum_nash_payoffs_are_zero():
    rng = np.random.default_rng(8)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        g = gen_symmetric_zero_sum(dim, int(rng.integers(100_000)))
        for x, y in nash_support_enumeration(g):
            assert exploitability(g, x, y)[0] <= 1e-9
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
