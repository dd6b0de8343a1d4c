"""Engine: populations, confirming caches, clipping, update rules and the run
loop."""
import gc
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metagame_forge import engine, solvers
from metagame_forge.engine import (AlgorithmConfig, Population, aggregate,
                                   br_oracle, build_empirical, _candidates,
                                   _diversity_argmax, init_state,
                                   lookahead_step, meta_nash,
                                   population_update, refresh_confirming, run,
                                   run_iteration)
from metagame_forge.games import (MAX_MAGNITUDE, GameError, builtin,
                                  gen_general_sum, gen_symmetric_zero_sum,
                                  gen_transitive, new_game, payoff)
from metagame_forge.harness import make_config
from metagame_forge.solvers import (advantage, advantage_many, blas_threads,
                                    ec_of_gram, ec_rank_one, exploitability,
                                    fictitious_play, own_matrix)
from oracles import (best_response_index, pure, reference_advantage_bounds,
                     small_integer_case, uniform)

RPS = builtin("rps")
T1 = builtin("stackelberg_table1")


def make_cfg(**kw):
    cfg = AlgorithmConfig(**kw)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Config validation

def test_config_validation_errors():
    for bad in ({"variant": "alpha_rank"}, {"lambda_d": 1.5}, {"lambda_d": -0.1},
                {"clip_fraction": 2.0}, {"lr": 0.0}, {"im": -1.5},
                {"lambda_1": -1.0}, {"max_iterations": -1}, {"fp_max_iters": 0}):
        with pytest.raises(GameError):
            make_cfg(**bad)

def test_config_accepts_negative_im_above_minus_one():
    make_cfg(im=-0.05)

NUMERIC_FIELDS = [f.name for f in fields(AlgorithmConfig)
                  if type(f.default) in (int, float)]

PAST_BOUND = np.nextafter(MAX_MAGNITUDE, math.inf)

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NUMERIC_FIELDS),
       st.sampled_from([math.nan, math.inf, -math.inf, PAST_BOUND,
                        -PAST_BOUND]))
def test_config_rejects_non_finite(name, value):
    with pytest.raises(GameError, match=name):
        make_cfg(**{name: value})

def _assert_finite_reports(reports):
    for r in reports:
        assert np.isfinite([r.exploitability, r.reward_row, r.reward_col]).all()
        assert np.isfinite(r.theta.theta_row).all()
        assert np.isfinite(r.theta.theta_col).all()

@pytest.mark.parametrize("name, preset, dim, kind", [
    *((name, preset, dim, kind) for name in ("lr", "lambda_1")
      for preset in ("sc_psro", "diversity_psro") for dim in (5, 200)
      for kind in ("general_sum", "symmetric_zero_sum")),
    # On a zero-sum game the improvement test is the additive one.
    *(("im", "sc_psro", dim, "symmetric_zero_sum") for dim in (5, 200))])
def test_extreme_finite_step_or_weight_runs_clean(name, preset, dim, kind):
    # Validation accepts lr, lambda_1 and im up to MAX_MAGNITUDE, where
    # candidate scoring's sums and the improvement test stay finite.  The
    # suite turns RuntimeWarnings into errors.
    gen = gen_general_sum if kind == "general_sum" else gen_symmetric_zero_sum
    cfg = make_config(preset, seed=0, max_iterations=4,
                      **{name: MAX_MAGNITUDE})
    _assert_finite_reports(run(gen(dim, 0), cfg))

@pytest.mark.parametrize("mode", ["self_play", "stackelberg_player"])
@pytest.mark.parametrize("dim", [5, 200])
@pytest.mark.parametrize("preset, overrides", [
    ("vanilla_psro", {}),
    ("sc_psro_no_diversity", {"lr": MAX_MAGNITUDE, "im": MAX_MAGNITUDE}),
    ("sc_psro_no_diversity", {"lr": MAX_MAGNITUDE, "im": -1.0})])
def test_payoffs_at_the_bound_run_clean(preset, overrides, dim, mode):
    rng = np.random.default_rng(dim)
    game = new_game(*rng.uniform(-MAX_MAGNITUDE, MAX_MAGNITUDE, (2, dim, dim)))
    cfg = make_config(preset, seed=0, max_iterations=4, **overrides)
    _assert_finite_reports(run(game, cfg, mode))

@pytest.mark.parametrize("scale", [1e10, MAX_MAGNITUDE])
@pytest.mark.parametrize("preset", ["sc_psro", "diversity_psro",
                                    "sc_psro_no_lookahead"])
def test_expected_cardinality_runs_on_large_payoffs(preset, scale):
    # Payoffs this large absorb the identity of EC's Gram inverse, which
    # then fails; EC comes from eigenvalues (`ec_of_gram`, `ec_rank_one`).
    rng = np.random.default_rng(0)
    game = new_game(rng.uniform(-scale, scale, (8, 8)),
                    rng.uniform(-scale, scale, (8, 8)))
    _assert_finite_reports(run(game, make_config(preset, seed=0,
                                                 max_iterations=20)))


# ---------------------------------------------------------------------------
# Initialization

def test_init_state_population_sizes():
    # One Dirichlet member per side, the row side drawn first.
    state = init_state(RPS, make_cfg(seed=0))
    assert len(state.pop_row) == 1 and len(state.pop_col) == 1
    rng = np.random.default_rng(0)
    assert np.array_equal(state.pop_row.members[0], rng.dirichlet(np.ones(3)))
    assert np.array_equal(state.pop_col.members[0], rng.dirichlet(np.ones(3)))
    for m in (*state.pop_row.members, *state.pop_col.members):
        assert (m >= 0).all() and abs(m.sum() - 1.0) <= 1e-12

def test_init_state_stackelberg_follower_is_pure_br():
    state = init_state(T1, make_cfg(seed=0), mode="stackelberg_player")
    assert len(state.pop_col) == 1
    follower = state.pop_col.members[0]
    assert sorted(follower) == [0.0, 1.0]
    assert np.array_equal(follower, br_oracle(T1, 1, state.pop_row.members[0]))
    # The column member is still drawn, so the rng stream matches self-play.
    rng = np.random.default_rng(0)
    rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    assert state.rng.uniform() == rng.uniform()

def test_init_state_rejects_unknown_mode():
    with pytest.raises(GameError):
        init_state(RPS, make_cfg(), mode="tournament")


# ---------------------------------------------------------------------------
# Populations

@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), d=st.integers(1, 6))
def test_population_needs_a_member(k, d):
    # append and replace never shrink a population, so one that builds is
    # never empty: the empirical game and the confirming refresh rely on it.
    # Its members have one weight per action of the side it plays.
    g = new_game(np.zeros((d, d + 1)), np.zeros((d, d + 1)))
    pop = Population(np.full((k, d), 1.0 / d), g, 0)
    assert len(pop) == k and pop.members.shape == (k, d)
    for bad in (np.empty((0, d)), np.full(d, 1.0 / d),
                np.full((1, k, d), 1.0 / d)):
        with pytest.raises(GameError):
            Population(bad, g, 0)
    with pytest.raises(GameError):
        Population(np.full((k, d), 1.0 / d), g, 1)

def test_population_owns_read_only_copies():
    block = np.full((200, 3), 1.0 / 3.0)
    pop = Population(block[:1], RPS, 0)
    pop.append(block[5])
    assert not np.shares_memory(pop.members, block)
    assert not pop.members.flags.writeable
    with pytest.raises(ValueError):
        pop.members[0, 0] = 1.0
    assert pop.stale.tolist() == [True, True]
    assert np.isnan(pop.sc_advantage).all() and pop.replies == {}

def test_population_replace_is_copy_on_write():
    pop = Population([uniform(3), pure(3, 0)], RPS, 0)
    refresh_confirming(pop, Population([uniform(3)], RPS, 1))
    assert sorted(pop.replies) == [0, 1]
    snapshot, last = pop.members, pop.members[-1]
    pop.replace(1, pure(3, 2))
    assert np.array_equal(snapshot, [uniform(3), pure(3, 0)])
    assert np.array_equal(last, pure(3, 0))
    assert np.array_equal(pop.members[1], pure(3, 2))
    assert pop.stale.tolist() == [False, True]
    assert sorted(pop.replies) == [0]   # member 1's rows were of its old strategy

def test_kept_members_hold_no_candidate_block():
    # A kept member is a copy of its candidate row, not a view keeping the
    # whole 2n x n candidate block (1.4 MB at dim 300) alive, so the memory
    # held between iterations grows by the members themselves (2.4 KB each).
    # im = 1e9 rejects every update, so each keeps one more member a player.
    g = gen_general_sum(300, 0)
    state = init_state(g, make_config("sc_psro", seed=0, lr=1e9, im=1e9))
    held = []
    tracemalloc.start()
    try:
        for _ in range(10):
            run_iteration(state)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert len(state.pop_row) == 11
    assert held[9] - held[1] < 1e6

def test_candidate_scoring_holds_one_block_at_a_time(monkeypatch):
    # Above the gate (600 x 300 x 300 multiply-adds) in a general-sum game,
    # where a 2n-row block of doubles takes 1.44 MB.  The diversity call
    # builds no candidate block for its EC rows, and drops the zero block
    # that gives its survivors' exact rows before it scores their
    # advantage, so at most two blocks are alive at once: the block-bits
    # probe's random block and product, asked afresh, or, where picked rows
    # do not keep the block's bits, the block and one product of its dense
    # advantage.  advantage_many reduces the opponent's payoffs to a mask
    # before it forms the player's.
    n = 300
    block = 2 * n * n * 8
    g = gen_general_sum(n, 0)
    monkeypatch.setattr(solvers, "_BLOCK_BITS", {})
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(n))
    F = rng.dirichlet(np.ones(n), size=2)
    opp = rng.dirichlet(np.ones(n), size=5)
    C = _candidates(pi, 0.3)

    def peak_blocks(score):
        gc.collect()
        tracemalloc.start()
        try:
            score()
            return tracemalloc.get_traced_memory()[1] / block
        finally:
            tracemalloc.stop()

    pop = Population([pi], g, 0)
    assert peak_blocks(lambda: _diversity_argmax(pop, F, opp, 1e9, 1.0)) < 2.5
    assert len(solvers._BLOCK_BITS) == 1   # the probe ran inside the call
    assert peak_blocks(lambda: advantage_many(g, 0, C)) < 1.5

@pytest.mark.parametrize("n", [20, 200])
def test_candidate_scoring_reads_the_last_member(n):
    # Below and above the gate (2 n n n multiply-adds): both branches step
    # from the population's last member, and read its payoff vectors, and
    # no other member's, only where the advantage bounds are tried.
    assert solvers.above_gate(n, n) == (n == 200)
    g = gen_general_sum(n, 3)
    rng = np.random.default_rng(n)
    a, b, pi = rng.dirichlet(np.ones(n), size=3)
    F = rng.dirichlet(np.ones(n), size=2)
    opp = rng.dirichlet(np.ones(n), size=4)
    picks = (
        lambda pop: engine.lookahead_step(pop, np.ones(1), 1.0,
                                          _FixedStep(0.3)),
        lambda pop: _diversity_argmax(pop, F, opp, 0.3, 1.0))
    for pick in picks:
        pop = Population([a, b, pi], g, 0)
        assert np.array_equal(pick(pop), pick(Population([pi], g, 0)))
        assert set(pop.replies) == ({2} if n == 200 else set())


# ---------------------------------------------------------------------------
# Confirming caches

def test_confirming_single_opponent_forced():
    pop = Population([pure(3, 0), uniform(3)], RPS, 0)
    opp = Population([pure(3, 1)], RPS, 1)
    refresh_confirming(pop, opp)
    assert pop.sc_advantage[0] == -1.0  # Rock vs Paper

def test_confirming_rps_rock_vs_three_pures():
    pop = Population([pure(3, 0)], RPS, 0)
    opp = Population([pure(3, 0), pure(3, 1), pure(3, 2)], RPS, 1)
    refresh_confirming(pop, opp)
    assert pop.sc_advantage[0] == -1.0   # Paper best-responds to Rock

def test_confirming_takes_least_own_payoff_over_tied_replies():
    # Against (1/3, 2/3) both column replies pay the column player 2/3; the
    # row player gets 11/3 against the first opponent member and 5/3
    # against the second, and the pessimistic tie rule keeps 5/3.
    pop = Population([[1.0 / 3.0, 2.0 / 3.0]], T1, 0)
    refresh_confirming(pop, Population([pure(2, 1), pure(2, 0)], T1, 1))
    assert abs(pop.sc_advantage[0] - 5.0 / 3.0) <= 1e-12

def test_confirming_idempotent():
    pop = Population([uniform(3), pure(3, 2)], RPS, 0)
    opp = Population([pure(3, 0), uniform(3)], RPS, 1)
    refresh_confirming(pop, opp)
    before = list(pop.sc_advantage)
    refresh_confirming(pop, opp)
    assert list(pop.sc_advantage) == before

def test_confirming_empty_opponent_error():
    # The empty opponent is refused when it is built, so the refresh never
    # sees one.
    with pytest.raises(GameError):
        refresh_confirming(Population([uniform(3)], RPS, 0),
                           Population(np.empty((0, 3)), RPS, 1))

def _assert_replies_fresh(pops, game):
    """Every kept payoff vector is its member's, bit for bit, both as
    ``members[i] @ M`` and as ``M.T @ members[i]``."""
    for player, pop in enumerate(pops):
        mats = [own_matrix(game, player), own_matrix(game, 1 - player).T]
        assert set(pop.replies) <= set(range(len(pop)))
        for i, vectors in pop.replies.items():
            for M, v in zip(mats, vectors):
                if v is not None:
                    assert np.array_equal(v, pop.members[i] @ M)
                    assert np.array_equal(v, M.T @ pop.members[i])

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(2, 30), st.integers(150, 420)),
       m=st.one_of(st.integers(2, 30), st.integers(150, 420)),
       ops=st.lists(st.tuples(st.sampled_from(["append", "replace",
                                               "refresh", "reply"]),
                              st.sampled_from([0, 1]), st.integers(0, 99)),
                    max_size=12))
def test_reply_vectors_follow_appends_replaces_and_refreshes(seed, n, m, ops):
    # n != m, so each side's vectors have their own length; the row player's
    # matrices are C-ordered and the column player's, from own_matrix,
    # F-ordered.  A replaced member's vectors are dropped, never reused.
    if n == m:
        m += 1
    rng = np.random.default_rng(seed)
    g = new_game(rng.normal(size=(n, m)), rng.normal(size=(n, m)))
    pops = [Population(rng.dirichlet(np.ones(g.dims(p)), size=1), g, p)
            for p in (0, 1)]
    for op, player, pick in ops:
        pop, opp = pops[player], pops[1 - player]
        strategy = rng.dirichlet(np.ones(g.dims(player)))
        if op == "append":
            pop.append(strategy)
            opp.stale[:] = True
        elif op == "replace":
            pop.replace(pick % len(pop), strategy)
            opp.stale[:] = True
        elif op == "refresh":
            refresh_confirming(pop, opp)
        else:
            pop.reply(pick % len(pop), pick % 2)
        _assert_replies_fresh(pops, g)

@pytest.mark.parametrize("n", [3, 40])
def test_reply_vectors_come_from_the_populations_own_game_and_side(n):
    # The same members play the row side of one game, then its column side,
    # then the row side of a second game.  Each population's vectors are
    # those of its own game and side, bit for bit, whichever formed first.
    rng = np.random.default_rng(n)
    g, h = (new_game(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
            for _ in range(2))
    members = rng.dirichlet(np.ones(n), size=3)
    for pop in (Population(members, g, 0), Population(members, g, 1),
                Population(members, h, 0)):
        game, p = pop.game, pop.player
        for i in range(len(members)):
            assert pop.reply(i, 0).tobytes() == (
                members[i] @ own_matrix(game, p)).tobytes()
            assert pop.reply(i, 1).tobytes() == (
                members[i] @ own_matrix(game, 1 - p).T).tobytes()

def test_each_reply_vector_is_formed_once(monkeypatch):
    # A clipping sc_psro run above the gate (400 x 200 x 200 multiply-adds):
    # each member's own and opponent payoff vectors are formed at most once,
    # the replacing member's own one in the improvement test, and the
    # advantage bounds read the last member's.
    formed, bounds_calls = [], []
    reply, bounds_of, update = (Population.reply, engine._advantage_bounds,
                                engine.population_update)

    def counted_reply(pop, i, side):
        if pop.replies.get(i, [None, None])[side] is None:
            formed.append((pop.player, side, pop.members[i].tobytes()))
        return reply(pop, i, side)

    def counted_bounds(pop, step):
        bounds_calls.append(step)
        return bounds_of(pop, step)

    def checked_update(game, player, state, *args):
        last = len(state.pop(player)) - 1
        branch = update(game, player, state, *args)
        assert state.pop(player).replies[last][0] is not None
        return branch

    monkeypatch.setattr(Population, "reply", counted_reply)
    monkeypatch.setattr(engine, "_advantage_bounds", counted_bounds)
    monkeypatch.setattr(engine, "population_update", checked_update)
    g = gen_general_sum(200, 7)
    state = init_state(g, make_config("sc_psro", seed=0))
    assert state.clips
    for _ in range(5):
        run_iteration(state)
    assert formed and len(set(formed)) == len(formed)
    assert bounds_calls
    _assert_replies_fresh((state.pop_row, state.pop_col), g)

def _brute_confirm(pop, opp, game, player):
    """Reference implementation: full restricted BR with pessimistic ties."""
    m_self = own_matrix(game, player)
    m_opp = own_matrix(game, 1 - player)
    out = []
    for p in pop.members:
        opp_vals = np.array([o @ (m_opp @ p) for o in opp.members])
        self_vals = np.array([o @ (m_self.T @ p) for o in opp.members])
        tied = opp_vals >= opp_vals.max() - 1e-9
        out.append(float(self_vals[tied].min()))
    return out

def test_confirming_matches_brute_force_on_random_pops():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = gen_general_sum(4, int(rng.integers(10_000)))
        pop = Population(rng.dirichlet(np.ones(4), size=3), g, 0)
        opp = Population(rng.dirichlet(np.ones(4), size=4), g, 1)
        refresh_confirming(pop, opp)
        for i, sc in enumerate(_brute_confirm(pop, opp, g, 0)):
            assert abs(pop.sc_advantage[i] - sc) <= 1e-12

def _assert_caches_exact_through_updates(mode, im):
    states = []
    for seed in range(5):
        g = gen_general_sum(5, seed)
        state = init_state(g, make_cfg(seed=seed, im=im), mode)
        for _ in range(12):
            run_iteration(state)
        refresh_confirming(state.pop_row, state.pop_col)
        refresh_confirming(state.pop_col, state.pop_row)
        for pop, opp, player in ((state.pop_row, state.pop_col, 0),
                                 (state.pop_col, state.pop_row, 1)):
            for i, sc in enumerate(_brute_confirm(pop, opp, g, player)):
                assert abs(pop.sc_advantage[i] - sc) <= 1e-9, \
                    f"seed {seed} player {player} member {i}"
        states.append(state)
    return states

def test_cache_invalidation_keeps_caches_exact_through_updates():
    # The gold test: after arbitrary engine updates, incremental caches must
    # equal a from-scratch recomputation.
    _assert_caches_exact_through_updates("self_play", 0.5)

def test_cache_invalidation_exact_after_follower_appends():
    # The Stackelberg follower's population grows only by appended replies.
    _assert_caches_exact_through_updates("stackelberg_player", 0.5)

def test_cache_invalidation_exact_when_every_update_replaces():
    # im = -1 accepts every update: members are replaced, none is appended.
    for state in _assert_caches_exact_through_updates("self_play", -1.0):
        assert len(state.pop_row) == len(state.pop_col) == 1

@pytest.mark.parametrize("preset", ["vanilla_psro", "diversity_psro",
                                    "sc_psro_no_clipping"])
def test_runs_without_clipping_never_touch_confirming_caches(preset, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("confirming cache refreshed without clipping")

    monkeypatch.setattr(engine, "refresh_confirming", forbidden)
    g = gen_general_sum(5, 3)
    for mode in ("self_play", "stackelberg_player"):
        state = init_state(g, make_config(preset, seed=1), mode)
        for _ in range(8):
            run_iteration(state)
        # Populations changed, so their entries went stale; none was filled.
        for pop in (state.pop_row, state.pop_col):
            assert np.isnan(pop.sc_advantage).all()

def _refresh_both(state):
    refresh_confirming(state.pop_row, state.pop_col)
    refresh_confirming(state.pop_col, state.pop_row)

def test_only_run_iteration_marks_the_opponent_stale():
    # population_update changes its own population's flags alone: the
    # replaced member's and the appended one's (im = 1e9 rejects every
    # update).  run_iteration then marks every opponent entry stale after
    # each learner's step, whatever the variant; in Stackelberg mode the
    # follower's after the leader's step.
    g = gen_general_sum(5, 3)
    state = init_state(g, make_config("sc_psro", seed=1, im=1e9))
    for _ in range(3):
        run_iteration(state)
    _refresh_both(state)
    emp = build_empirical(state.pop_row, state.pop_col)
    theta = meta_nash(emp, len(state.pop_row), len(state.pop_col), 50)
    k = len(state.pop_row)
    population_update(g, 0, state, theta, state.pop_col.members,
                      aggregate(state.pop_col, theta.theta_col))
    assert state.pop_row.stale.tolist() == [False] * (k - 1) + [True, True]
    assert not state.pop_col.stale.any()
    for preset in ("vanilla_psro", "diversity_psro", "sc_psro"):
        for mode in ("self_play", "stackelberg_player"):
            state = init_state(g, make_config(preset, seed=1), mode)
            for _ in range(4):
                _refresh_both(state)
                run_iteration(state)
                assert state.pop_col.stale.all(), (preset, mode)
                if mode == "self_play":
                    assert state.pop_row.stale.all(), preset


# ---------------------------------------------------------------------------
# Clipping and the empirical game

def test_clipping_floor_and_count():
    rng = np.random.default_rng(12)
    g = gen_general_sum(4, 0)
    pop = Population(rng.dirichlet(np.ones(4), size=5), g, 0)
    opp = Population(rng.dirichlet(np.ones(4), size=2), g, 1)
    refresh_confirming(pop, opp)
    refresh_confirming(opp, pop)
    emp = build_empirical(pop, opp, clip=True, s=0.4)
    assert len(emp.row_index_map) == 2   # ceil(0.4*5) = 2
    assert len(emp.col_index_map) == 2   # floor: never below 2 when n >= 2
    emp1 = build_empirical(pop, opp, clip=True, s=0.01)
    assert len(emp1.row_index_map) == 2  # floor applies

def test_clipping_keeps_top_sc_advantage():
    rng = np.random.default_rng(13)
    g = gen_general_sum(4, 1)
    pop = Population(rng.dirichlet(np.ones(4), size=6), g, 0)
    opp = Population(rng.dirichlet(np.ones(4), size=3), g, 1)
    refresh_confirming(pop, opp)
    refresh_confirming(opp, pop)
    emp = build_empirical(pop, opp, clip=True, s=0.5)
    kept = set(int(i) for i in emp.row_index_map)
    dropped = set(range(6)) - kept
    lo = min(pop.sc_advantage[i] for i in kept)
    hi = max(pop.sc_advantage[i] for i in dropped)
    assert lo >= hi - 1e-12

def test_clipping_never_mutates_population():
    rng = np.random.default_rng(14)
    g = gen_general_sum(3, 2)
    pop = Population(rng.dirichlet(np.ones(3), size=4), g, 0)
    opp = Population(rng.dirichlet(np.ones(3), size=4), g, 1)
    refresh_confirming(pop, opp)
    refresh_confirming(opp, pop)
    before = [m.copy() for m in pop.members]
    build_empirical(pop, opp, clip=True, s=0.5)
    assert len(pop) == 4
    for a, b in zip(before, pop.members):
        assert np.array_equal(a, b)

def test_clipping_refreshes_stale_caches():
    pop = Population([uniform(3), pure(3, 0), pure(3, 1)], RPS, 0)
    opp = Population([uniform(3), pure(3, 2)], RPS, 1)
    emp = build_empirical(pop, opp, clip=True, s=0.5)
    assert not any(pop.stale) and not any(opp.stale)
    for i, sc in enumerate(_brute_confirm(pop, opp, RPS, 0)):
        assert abs(pop.sc_advantage[i] - sc) <= 1e-12
    assert len(emp.row_index_map) == 2

def test_build_empirical_empty_population_error():
    # The empty population is refused when it is built, so the empirical game
    # never sees one.
    with pytest.raises(GameError):
        build_empirical(Population(np.empty((0, 3)), RPS, 0),
                        Population([uniform(3)], RPS, 1))

def test_meta_nash_lifts_clipped_indices():
    rng = np.random.default_rng(15)
    g = gen_general_sum(4, 3)
    pop = Population(rng.dirichlet(np.ones(4), size=5), g, 0)
    opp = Population(rng.dirichlet(np.ones(4), size=5), g, 1)
    refresh_confirming(pop, opp)
    refresh_confirming(opp, pop)
    emp = build_empirical(pop, opp, clip=True, s=0.4)
    sol = meta_nash(emp, 5, 5, 2000)
    assert sol.theta_row.shape == (5,)
    dropped = set(range(5)) - set(int(i) for i in emp.row_index_map)
    for i in dropped:
        assert sol.theta_row[i] == 0.0
    assert abs(sol.theta_row.sum() - 1.0) <= 1e-12

def test_zero_sum_empirical_column_matrix_is_negated_row_matrix():
    rng = np.random.default_rng(16)
    for g in (RPS, builtin("matching_pennies"), gen_transitive(30, 2),
              gen_symmetric_zero_sum(30, 3)):
        # Pure members meet on zero payoffs, which cancel to exact zeros.
        pop = Population(np.vstack([np.eye(g.n_rows),
                                    rng.dirichlet(np.ones(g.n_rows), size=4)]),
                         g, 0)
        opp = Population(np.vstack([np.eye(g.n_cols)[::-1],
                                    rng.dirichlet(np.ones(g.n_cols), size=3)]),
                         g, 1)
        emp = build_empirical(pop, opp)
        want = pop.members @ g.u_col @ opp.members.T
        assert np.array_equal(emp.m_col, want)
        # Bit for bit, but for the sign of an exact zero.
        bits, want_bits = emp.m_col.view(np.int64), want.view(np.int64)
        assert np.array_equal(bits[want != 0], want_bits[want != 0])
        got = fictitious_play(emp.m_row, emp.m_col, 500, 0.0)
        ref = fictitious_play(emp.m_row, want, 500, 0.0)
        for a, b in zip(vars(got).values(), vars(ref).values()):
            assert np.array_equal(np.asarray(a).view(np.int64),
                                  np.asarray(b).view(np.int64))


# ---------------------------------------------------------------------------
# Aggregation and oracles

def test_aggregate_and_br_oracle():
    pop = Population([pure(3, 0), pure(3, 1)], RPS, 0)
    agg = aggregate(pop, np.array([0.25, 0.75]))
    assert np.allclose(agg, [0.25, 0.75, 0.0])
    with pytest.raises(GameError):
        aggregate(pop, np.array([1.0]))
    reply = br_oracle(RPS, 1, pure(3, 0))
    assert np.array_equal(reply, [0.0, 1.0, 0.0])

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12),
       m=st.integers(1, 12), zero_sum=st.booleans())
def test_br_oracle_is_one_hot_of_best_response_index(seed, n, m, zero_sum):
    g, p, q = small_integer_case(seed, n, m, zero_sum)
    for player, opponent in ((0, q), (1, p)):
        want = pure(g.dims(player), best_response_index(g, player, opponent))
        assert br_oracle(g, player, opponent).tobytes() == want.tobytes()

@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40),
       m=st.integers(1, 40), k_row=st.integers(1, 8), k_col=st.integers(1, 8),
       zero_sum=st.booleans())
def test_unclipped_empirical_game_equals_indexed_products(seed, n, m, k_row,
                                                          k_col, zero_sum):
    """Without clipping the products run on the members themselves; they
    give the bits of the products on fancy-indexed copies."""
    g, _, _ = small_integer_case(seed, n, m, zero_sum)
    rng = np.random.default_rng(seed)

    def members(k, dim):   # small-integer weights, none all zero
        w = rng.integers(0, 3, size=(k, dim)) + pure(dim, 0)
        return w / w.sum(axis=1, keepdims=True)

    pop_row = Population(members(k_row, n), g, 0)
    pop_col = Population(members(k_col, m), g, 1)
    emp = build_empirical(pop_row, pop_col)
    R = pop_row.members[np.arange(k_row)]
    C = pop_col.members[np.arange(k_col)]
    m_row = R @ g.u_row @ C.T
    m_col = -m_row if g.exact_zero_sum else R @ g.u_col @ C.T
    assert emp.m_row.tobytes() == m_row.tobytes()
    assert emp.m_col.tobytes() == m_col.tobytes()
    for pop, index_map in ((pop_row, emp.row_index_map),
                           (pop_col, emp.col_index_map)):
        kept = pop.members[index_map]
        assert np.array_equal(kept, pop.members)
        assert np.shares_memory(kept, pop.members)   # a view, not a copy
    assert emp.m_row.shape == (k_row, k_col)


# ---------------------------------------------------------------------------
# Candidate generation and the two branches

def test_candidates_zero_step_is_identity():
    pi = np.array([0.2, 0.5, 0.3])
    C = _candidates(pi, 0.0)
    assert np.allclose(C, pi)

def test_candidates_are_simplex_valid():
    rng = np.random.default_rng(16)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(5))
        C = _candidates(pi, rng.uniform(0, 2.0))
        assert (C >= 0).all()
        assert np.abs(C.sum(axis=1) - 1.0).max() <= 1e-12

def _reference_candidates(pi_t, step):
    n = pi_t.shape[0]
    V = np.empty((2 * n, n))
    V[:n] = np.abs(pi_t[None, :] + step * np.eye(n))
    V[n:] = np.abs(pi_t[None, :] - step * np.eye(n))
    sums = V.sum(axis=1, keepdims=True)
    np.maximum(sums, 1e-15, out=sums)
    return V / sums

def _reference_advantage_many(game, player, P):
    m_self = own_matrix(game, player)
    m_opp = own_matrix(game, 1 - player)
    opp_vals = P @ m_opp.T
    self_vals = P @ m_self
    tied = opp_vals >= opp_vals.max(axis=1, keepdims=True) - solvers.TIE_ATOL
    return np.where(tied, self_vals, np.inf).min(axis=1)

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 160),
       m=st.integers(1, 160), player=st.sampled_from([0, 1]),
       integer=st.booleans(), step=st.sampled_from([0.0, 1e-3, 0.3, 1e9]),
       pi_kind=st.sampled_from(["uniform", "near_pure", "with_zero", "mixed"]))
def test_candidate_scoring_matches_reference_bit_for_bit(seed, n, m, player,
                                                         integer, step, pi_kind):
    rng = np.random.default_rng(seed)
    shape = (n, m) if player == 0 else (m, n)
    # Integer payoffs make exact ties in the opponent's replies.
    draw = ((lambda: rng.integers(-2, 3, size=shape).astype(float)) if integer
            else (lambda: rng.normal(size=shape)))
    g = new_game(draw(), draw())
    if pi_kind == "uniform":
        pi = uniform(n)
    elif pi_kind == "near_pure":
        pi = np.abs(pure(n, int(rng.integers(n))) + 1e-14 * rng.normal(size=n))
        pi /= pi.sum()
    else:
        pi = rng.dirichlet(np.ones(n))
        if pi_kind == "with_zero":
            pi[int(rng.integers(n))] = 0.0
    C = _candidates(pi, step)
    assert np.array_equal(C, _reference_candidates(pi, step))
    assert np.array_equal(advantage_many(g, player, C),
                          _reference_advantage_many(g, player, C))

class FixedRng:
    """Stand-in RNG yielding a fixed uniform draw."""
    def __init__(self, value):
        self.value = value
    def uniform(self, low=0.0, high=1.0):
        return low + self.value * (high - low)

def test_lookahead_zero_step_returns_pi_t():
    pi = np.array([0.3, 0.7])
    out = lookahead_step(Population([pi], T1, 0), np.array([1.0]), 0.5,
                         FixedRng(0.0))
    assert np.allclose(out, pi)

def test_lookahead_argmax_contract():
    # The returned candidate maximizes the branch's own objective.
    rng = np.random.default_rng(17)
    g = gen_symmetric_zero_sum(6, 1)
    pi = rng.dirichlet(np.ones(6))
    out = lookahead_step(Population([pi], g, 0), np.array([1.0]), 0.4,
                         FixedRng(0.5))
    C = _candidates(pi, 0.5 * 0.4)
    assert advantage(g, 0, out) >= advantage_many(g, 0, C).max() - 1e-12

def test_lookahead_step_bounded_by_theta_norm():
    # theta max-norm 0 forces a zero step regardless of lr.
    pi = np.array([0.6, 0.4])
    out = lookahead_step(Population([pi], T1, 0), np.array([0.0, 0.0]), 10.0,
                         FixedRng(1.0))
    assert np.allclose(out, pi)

def test_lookahead_table1_moves_toward_stackelberg_mix():
    # From pure D a large step lands past the (1/3, 2/3) tie point, where the
    # advantage (approached from above) exceeds the pure-D value of 2.
    out = lookahead_step(Population([pure(2, 1)], T1, 0), np.array([1.0]),
                         0.6, FixedRng(1.0))
    assert advantage(T1, 0, out) > 2.0
    assert out[0] > 1.0 / 3.0

def _draw_certify_case(seed, n, m, player, zero_sum, payoffs, scale,
                       pi_kind, step):
    rng = np.random.default_rng(seed)
    shape = (n, m) if player == 0 else (m, n)
    if payoffs == "integer":    # exact ties among the opponent's replies
        draw = lambda: scale * rng.integers(-2, 3, size=shape).astype(float)
    else:
        draw = lambda: scale * rng.normal(size=shape)
    u_row = draw()
    u_col = -u_row if zero_sum else draw()
    if payoffs == "tie_atol" and not zero_sum and m > 1:
        # Two replies exactly TIE_ATOL apart for the opponent.
        if player == 0:
            u_col[:, 1] = u_col[:, 0] - solvers.TIE_ATOL
        else:
            u_row[1] = u_row[0] - solvers.TIE_ATOL
    g = new_game(u_row, u_col)
    if pi_kind == "near_pure":
        pi = pure(n, int(rng.integers(n))) + 1e-12 * rng.uniform(size=n)
    else:
        pi = rng.dirichlet(np.ones(n))
    if pi_kind == "with_zeros":    # bitwise-identical +/- rows
        pi[rng.permutation(n)[: n // 2]] = 0.0
    pi /= pi.sum()
    if pi_kind == "step_coordinate":    # a "-" row with coordinate a at 0
        step = float(pi[int(rng.integers(n))])
    return g, pi, step

class _FixedStep:
    """Stands in for the generator `lookahead_step` draws its step from."""

    def __init__(self, step):
        self.step = step

    def uniform(self, low, high):
        return self.step

def _dense_argmax_row(g, player, C, threads):
    with blas_threads(threads):
        return C[int(np.argmax(advantage_many(g, player, C)))]

def _settled_index(g, player, pi, step, C):
    """The candidate the advantage bounds settle, or None: the index of the
    best lower bound where every candidate whose upper bound reaches it has
    the same row."""
    bounds = engine._advantage_bounds(Population([pi], g, player), step)
    if bounds is None:
        return None
    lo, hi = bounds
    k = int(np.argmax(lo))
    return k if (C[hi >= lo[k]] == C[k]).all() else None

@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=150, deadline=None)
# Integer payoffs: "+" candidates on equal-payoff actions tie in exact
# arithmetic, and a zero bound picks one that the dense scores do not.
@example(seed=0, n=200, m=1, player=0, zero_sum=False, payoffs="integer",
         scale=1.0, pi_kind="dirichlet", step=0.3)
@given(seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(1, 24), st.integers(200, 240)),
       m=st.one_of(st.integers(1, 40), st.integers(125, 160)),
       player=st.sampled_from([0, 1]),
       zero_sum=st.booleans(),
       payoffs=st.sampled_from(["normal", "integer", "tie_atol"]),
       scale=st.sampled_from([1.0, 10.0, 1e3, 1e6]),
       pi_kind=st.sampled_from(["dirichlet", "near_pure", "with_zeros",
                                "step_coordinate"]),
       step=st.sampled_from([1e-6, 1e-3, 0.3, 0.9]))
def test_certified_advantage_argmax_matches_dense(threads, seed, n, m, player,
                                                  zero_sum, payoffs, scale,
                                                  pi_kind, step):
    # Both sides of the lookahead gate: with n >= 200 and m >= 125 the block
    # has 2 n n m >= 1e7 multiply-adds, so the bounds are tried.  The dense
    # products run on the set thread count, which changes their last bits
    # at the larger sizes.  The bounds hold every dense score, a
    # settled candidate is the dense argmax's row, and so is every lookahead
    # pick, settled or scored from the survivors alone.
    g, pi, step = _draw_certify_case(seed, n, m, player, zero_sum, payoffs,
                                     scale, pi_kind, step)
    C = _candidates(pi, step)
    pop = Population([pi], g, player)
    with blas_threads(threads):
        dense = advantage_many(g, player, C)
        # Settled, scored from survivors or dense: the full block's pick.
        out = engine.lookahead_step(pop, np.ones(1), 1.0,
                                    _FixedStep(step))
    assert np.array_equal(out, C[int(np.argmax(dense))])
    bounds = engine._advantage_bounds(pop, step)
    if bounds is None:
        return
    lo, hi = bounds
    assert (lo <= dense).all() and (dense <= hi).all()
    i = _settled_index(g, player, pi, step, C)
    if i is not None:
        assert np.array_equal(C[i], C[int(np.argmax(dense))])

@pytest.mark.parametrize("n, m", [(60, 50), (220, 130)])
def test_certified_advantage_argmax_settles_most_draws(n, m):
    # Well-conditioned draws: unit-scale continuous payoffs, a Dirichlet
    # pi_t.  Bounds that never settle would leave every pick to dense
    # products, which run on the set thread count.  n = 220, m = 130 is
    # 1.26e7 multiply-adds a block, above the gate.
    threads = (None,) if solvers._OPENBLAS_THREADS is None else (1, 2)
    settled = 0
    for seed in range(20):
        g, pi, step = _draw_certify_case(seed, n, m, seed % 2, seed % 4 == 0,
                                         "normal", 1.0, "dirichlet", 0.3)
        C = _candidates(pi, step)
        i = _settled_index(g, seed % 2, pi, step, C)
        if i is not None:
            settled += 1
            for t in threads:
                assert np.array_equal(C[i],
                                      _dense_argmax_row(g, seed % 2, C, t))
    assert settled >= 16

@settings(max_examples=300, deadline=None)
# Step 1e9: every row's best reply dominates, so no chunk runs the pass.
@example(seed=3, n=230, m=200, player=1, zero_sum=False, payoffs="normal",
         scale=1.0, pi_kind="dirichlet", step=1e9)
# One opponent action: every row with a positive step is settled.
@example(seed=4, n=30, m=1, player=0, zero_sum=False, payoffs="integer",
         scale=1.0, pi_kind="near_pure", step=0.3)
@given(seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(1, 60), st.sampled_from([200, 257])),
       m=st.one_of(st.integers(1, 60), st.sampled_from([200, 231])),
       player=st.sampled_from([0, 1]),
       zero_sum=st.booleans(),
       payoffs=st.sampled_from(["normal", "integer", "tie_atol"]),
       scale=st.sampled_from([1.0, 1e3, 1e6]),
       pi_kind=st.sampled_from(["dirichlet", "near_pure", "with_zeros",
                                "step_coordinate"]),
       step=st.sampled_from([1e-6, 0.3, 0.9, 1.0, 1e9]))
def test_advantage_bounds_keep_the_full_pass_bits(seed, n, m, player,
                                                  zero_sum, payoffs, scale,
                                                  pi_kind, step):
    # The twin window and the dominant steps form fewer payoffs than the
    # full pass and give its bits wherever it gives bounds.  Where it gives
    # none, only the loose rows are (-inf, inf), and the others still hold
    # the dense scores.
    g, pi, step = _draw_certify_case(seed, n, m, player, zero_sum, payoffs,
                                     scale, pi_kind, step)
    # On the last member's payoff vectors as bases, which the reference
    # forms as |pi_t| @ M.
    bounds = engine._advantage_bounds(Population([pi], g, player), step)
    reference = (reference_advantage_bounds(g, player, pi, step)
                 or reference_advantage_bounds(g, player, pi, step,
                                               rowwise=True))
    if reference is None:
        assert bounds is None
        return
    assert np.array_equal(bounds[0], reference[0])
    assert np.array_equal(bounds[1], reference[1])
    dense = advantage_many(g, player, _candidates(pi, step))
    assert (bounds[0] <= dense).all() and (dense <= bounds[1]).all()

def test_advantage_bounds_settle_dominant_steps_without_the_pass(monkeypatch):
    # At step 1e9 each candidate's replies are ordered by one row of the
    # opponent's payoffs, whose best entry leads by far more than the
    # spread of pi_t's payoffs: no chunk runs the pass, which picks its
    # replies with np.flatnonzero.
    picks = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: picks.append(1) or flatnonzero(a))
    g = gen_general_sum(300, 7)
    pi = np.random.default_rng(0).dirichlet(np.ones(300))
    for player in (0, 1):
        for step in (1e9, 0.3):
            picks.clear()
            bounds = engine._advantage_bounds(Population([pi], g, player),
                                              step)
            assert (picks == []) == (step == 1e9)
            reference = reference_advantage_bounds(g, player, pi, step)
            assert np.array_equal(bounds, reference)

def test_one_loose_row_costs_no_dense_block(monkeypatch):
    # A pure pi_t and step 0.95: the "-" row of its action sums to 0.05,
    # too little for payoffs up to 100 at dim 200, so that row alone is
    # loose.  It survives with bounds (-inf, inf) and is scored with the
    # other survivors; the full block never is.
    n = 200
    base = gen_general_sum(n, 7)
    g = new_game(10.0 * base.u_row, 10.0 * base.u_col)
    pi, step = pure(n, 17), 0.95
    assert reference_advantage_bounds(g, 0, pi, step) is None
    pop = Population([pi], g, 0)
    lo, hi = engine._advantage_bounds(pop, step)
    assert np.flatnonzero(np.isinf(lo) | np.isinf(hi)).tolist() == [n + 17]
    # Step 1 takes that row to 0; it is loose, and never divided by its sum.
    lo, hi = engine._advantage_bounds(pop, 1.0)
    assert np.flatnonzero(np.isinf(lo) | np.isinf(hi)).tolist() == [n + 17]
    calls = []
    score = engine.advantage_many

    def counted_score(game, player, P):
        calls.append(P.shape[0])
        return score(game, player, P)

    monkeypatch.setattr(engine, "advantage_many", counted_score)
    out = engine.lookahead_step(pop, np.ones(1), 1.0, _FixedStep(step))
    C = _candidates(pi, step)
    assert np.array_equal(out, _dense_argmax_row(g, 0, C, None))
    if solvers.rows_keep_block_bits(g, 0):
        assert calls and set(calls) == {solvers.PICKED_ROWS}
    else:
        assert calls == [2 * n]

def test_games_below_the_gate_never_compute_reply_margins():
    # Only the advantage bounds read them, and only above ONE_THREAD_MNK.
    g = gen_general_sum(100, 7)
    reports = run(g, make_config("sc_psro", seed=0, max_iterations=4))
    assert {b for r in reports for b in r.oracle_branch_taken} == {
        "lookahead", "diversity"}
    assert "reply_margins" not in vars(g)

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 1200),
       step=st.sampled_from([1e-6, 0.3, 1e9, "pi0"]),
       pi_kind=st.sampled_from(["dirichlet", "near_pure", "with_zeros"]),
       count=st.integers(1, 6), repeat=st.booleans())
def test_candidate_rows_built_alone_match_full_block(seed, n, step, pi_kind,
                                                     count, repeat):
    rng = np.random.default_rng(seed)
    if pi_kind == "near_pure":
        pi = pure(n, int(rng.integers(n))) + 1e-12 * rng.uniform(size=n)
    else:
        pi = rng.dirichlet(np.ones(n))
    if pi_kind == "with_zeros":
        pi[rng.permutation(n)[: n // 2]] = 0.0
    pi /= pi.sum()
    step = float(pi[0]) if step == "pi0" else step
    rows = rng.integers(0, 2 * n, size=count)
    if repeat:
        rows[-1] = rows[0]
    assert np.array_equal(_candidates(pi, step, rows),
                          _reference_candidates(pi, step)[rows])

@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=60, deadline=None)
# Dim 1000 against 1000 opponent actions, the criterion-8 cell's shape.
@example(seed=0, n=1000, m=1000, player=0, zero_sum=False, count=2,
         repeat=False)
@example(seed=1, n=1000, m=1000, player=1, zero_sum=True, count=1,
         repeat=False)
# Dim 400, where one thread gives other bits than two: the chunks must run on
# the thread count of the full block.
@example(seed=2, n=400, m=400, player=0, zero_sum=False, count=3,
         repeat=False)
# One opponent action: gemv, whose row 32 of the 34-row block differs from
# the same row in a 16-row chunk by 4e-17.
@example(seed=2127, n=17, m=1, player=0, zero_sum=True, count=3,
         repeat=False)
@given(seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(1, 30), st.integers(150, 420)),
       m=st.one_of(st.integers(1, 30), st.integers(100, 420)),
       player=st.sampled_from([0, 1]), zero_sum=st.booleans(),
       count=st.integers(1, 40), repeat=st.booleans())
def test_picked_rows_keep_full_block_bits(threads, seed, n, m, player,
                                          zero_sum, count, repeat):
    # Both sides of the gate.  Below it the answer is no.  Above it, where
    # rows_keep_block_bits holds, rows scored apart from their 2n-row
    # candidate block as the engine scores survivors (one advantage_many
    # call per PICKED_ROWS rows, the last filled up with repeated rows; one
    # row, repeated rows, more than one call) carry the bits the full block
    # gives them on the set thread count.  Where it does not, the engine
    # scores the full block.
    rng = np.random.default_rng(seed)
    shape = (n, m) if player == 0 else (m, n)
    u_row = rng.normal(size=shape)
    g = new_game(u_row, -u_row if zero_sum else rng.normal(size=shape))
    C = _candidates(rng.dirichlet(np.ones(n)), 0.3)
    rows = rng.integers(0, 2 * n, size=count)
    if repeat:
        rows[-1] = rows[0]
    with blas_threads(threads):
        keeps = solvers.rows_keep_block_bits(g, player)
        if 2 * n * n * m < solvers.ONE_THREAD_MNK:
            assert not keeps
        elif keeps:
            alone = _advantage_in_slices(g, player, C[rows])
            assert np.array_equal(alone, advantage_many(g, player, C)[rows])

def _advantage_in_slices(game, player, rows):
    """`advantage_many` of ``rows`` as `engine._best_candidate` scores
    survivors: one call per PICKED_ROWS rows of ``np.resize(rows, ...)``."""
    k, chunk = rows.shape[0], solvers.PICKED_ROWS
    P = np.resize(rows, (-(-k // chunk) * chunk, rows.shape[1]))
    return np.concatenate([advantage_many(game, player, P[s:s + chunk])
                           for s in range(0, k, chunk)])[:k]

def test_lookahead_below_gate_keeps_dense_path(monkeypatch):
    # dim 100: 200 x 100 x 100 = 2e6 multiply-adds a block, below the gate;
    # neither branch tries the bounds.
    called = []
    monkeypatch.setattr(engine, "_advantage_bounds",
                        lambda *args: called.append(args))
    reports = run(gen_symmetric_zero_sum(100, 7),
                  make_config("sc_psro", seed=0, max_iterations=4))
    taken = {b for r in reports for b in r.oracle_branch_taken}
    assert taken == {"lookahead", "diversity"}
    assert called == []

def _trajectory(reports):
    """Everything a report holds but its wall time, bit for bit."""
    return [(r.iteration, r.theta.theta_row.tobytes(),
             r.theta.theta_col.tobytes(), r.theta.residual,
             r.theta.iterations_used, r.exploitability, r.reward_row,
             r.reward_col, r.pop_sizes, r.clipped_sizes, r.oracle_branch_taken)
            for r in reports]

@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
def test_iteration_sets_blas_threads_from_game_size(monkeypatch):
    # The larger candidate block decides for the whole iteration: at dim 100
    # (2e6 multiply-adds, below the gate) it runs on one thread, at dim 200
    # (1.6e7) on the count the process has set, here two.  Payoffs of 1e3
    # make the advantage bounds loose at dim 200, so both sizes score dense
    # candidate blocks.
    get = solvers._OPENBLAS_THREADS[0]
    seen = {"fictitious_play": [], "build_empirical": [], "advantage_many": []}

    def spy(name):
        inner = getattr(engine, name)

        def call(*args, **kwargs):
            seen[name].append(get())
            return inner(*args, **kwargs)
        monkeypatch.setattr(engine, name, call)

    for name in seen:
        spy(name)
    big = gen_general_sum(200, 7)
    cfg = make_config("sc_psro", seed=0, max_iterations=4)
    with blas_threads(2):
        for g, threads in ((gen_symmetric_zero_sum(100, 7), 1),
                           (new_game(1e3 * big.u_row, 1e3 * big.u_col), 2)):
            for calls in seen.values():
                calls.clear()
            run(g, cfg)
            assert all(seen.values())
            assert {t for calls in seen.values() for t in calls} == {threads}
        assert get() == 2
        monkeypatch.setattr(engine, "fictitious_play",
                            lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run(gen_symmetric_zero_sum(100, 7), cfg)
        assert get() == 2

@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
def test_trajectory_below_gate_does_not_depend_on_blas_threads():
    # A dim-100 sc_psro run that clips and takes both branches: the
    # iteration runs on one thread whatever the process has set.
    g = gen_general_sum(100, 7)
    cfg = make_config("sc_psro", seed=0, max_iterations=10)
    assert cfg.clipping_enabled
    trajectories = []
    for threads in (1, 2):
        with blas_threads(threads):
            trajectories.append(_trajectory(run(g, cfg)))
    taken = {b for step in trajectories[0] for b in step[-1]}
    assert taken == {"lookahead", "diversity"}
    assert trajectories[0] == trajectories[1]

@pytest.mark.parametrize("lr", [0.3, 1e9])
@pytest.mark.parametrize("shape", [(200, 200), (220, 140)])
def test_bounds_keep_dense_trajectory_above_gate(shape, lr, monkeypatch):
    # Whole runs above the gate: with the advantage bounds, and with the
    # dense scores of every candidate (the bounds never given).  Square
    # dim 200 keeps picked rows' bits; 220 x 140 does not, so there the
    # survivors are scored in the full block.
    if shape == (200, 200):
        g = gen_general_sum(200, 7)
    else:
        rng = np.random.default_rng(5)
        g = new_game(rng.normal(size=shape), rng.normal(size=shape))
    cfg = dict(seed=0, max_iterations=10, lr=lr)
    reports = run(g, make_config("sc_psro", **cfg))
    monkeypatch.setattr(engine, "_advantage_bounds", lambda *args: None)
    assert _trajectory(reports) == _trajectory(
        run(g, make_config("sc_psro", **cfg)))

def test_lookahead_above_gate_skips_dense_products(monkeypatch):
    # dim 200: 400 x 200 x 200 = 1.6e7 multiply-adds a block.  Each record
    # holds one lookahead step's bounds and the rows of each advantage_many
    # call it makes.  The full 2n-row block is scored, in one call, only
    # where the bounds are loose or picked rows would not keep its bits;
    # otherwise only the candidates that can win are, in calls of
    # PICKED_ROWS rows, and none where they are one row.  Every pick is the
    # dense argmax's row.
    n = 200
    records = []
    bounds_of, score, step = (engine._advantage_bounds, engine.advantage_many,
                              engine.lookahead_step)

    def counted_bounds(pop, step_size):
        records[-1]["bounds"] = bounds_of(pop, step_size)
        records[-1]["C"] = _candidates(pop.members[-1], step_size)
        return records[-1]["bounds"]

    def counted_score(game, player, P):
        records[-1]["calls"].append(P.shape[0])
        return score(game, player, P)

    def counted_step(pop, *args):
        records.append({"bounds": None, "calls": [], "game": pop.game,
                        "player": pop.player})
        out = step(pop, *args)
        if records[-1]["bounds"] is not None:
            # Settled or scored from survivors: the full block's dense pick.
            C = records[-1]["C"]
            assert np.array_equal(out, _dense_argmax_row(pop.game, pop.player,
                                                         C, None))
        return out

    monkeypatch.setattr(engine, "_advantage_bounds", counted_bounds)
    monkeypatch.setattr(engine, "advantage_many", counted_score)
    monkeypatch.setattr(engine, "lookahead_step", counted_step)
    run(gen_general_sum(n, 7),
        make_config("sc_psro_no_diversity", seed=0, max_iterations=4))
    assert len(records) == 8
    assert any(r["calls"] == [] for r in records)
    for r in records:
        if r["bounds"] is None or (
                r["calls"] and not solvers.rows_keep_block_bits(
                    r["game"], r["player"])):
            assert r["calls"] == [2 * n]
        else:
            assert set(r["calls"]) <= {solvers.PICKED_ROWS}

def test_diversity_single_direction_returns_pi_t():
    g = new_game([[1.0, 0.0]], [[0.0, 1.0]])  # one row action
    out = _diversity_argmax(Population([[1.0]], g, 0), np.empty((0, 1)),
                            np.array([uniform(2)]), 0.5, 1.0)
    assert np.allclose(out, [1.0])

def test_diversity_huge_lambda1_selects_max_advantage_candidate():
    rng = np.random.default_rng(18)
    pi = rng.dirichlet(np.ones(3))
    out = _diversity_argmax(Population([pi], RPS, 0), np.array([uniform(3)]),
                            np.array([pure(3, 0), uniform(3)]), 0.5, 1e9)
    C = _candidates(pi, 0.5)
    best = advantage_many(RPS, 0, C).max()
    assert advantage(RPS, 0, out) >= best - 1e-9

def test_diversity_against_single_rock_opponent():
    pi = uniform(3)
    # One-column meta-matrix.
    out = _diversity_argmax(Population([pi], RPS, 0), np.array([pure(3, 2)]),
                            np.array([pure(3, 0)]), 0.5, 1.0)
    assert np.isfinite(out).all()
    assert (out >= 0).all() and abs(out.sum() - 1.0) <= 1e-12

def _brute_diversity_scores(game, player, pi_t, fixed_members, opp_members,
                            lr, lambda_1):
    """Reference: one `ec_of_gram` per candidate over its bordered Gram
    matrix, then the dense advantage term.  Returns (candidates, EC, total)."""
    m_self = own_matrix(game, player)
    C = _candidates(pi_t, lr)
    cand_rows = C @ (m_self @ opp_members.T)
    fixed_rows = fixed_members @ (m_self @ opp_members.T)
    k = fixed_rows.shape[0]
    cross = cand_rows @ fixed_rows.T
    L = np.empty((k + 1, k + 1))
    L[:k, :k] = fixed_rows @ fixed_rows.T
    ec = np.empty(C.shape[0])
    for i in range(C.shape[0]):
        L[:k, k] = cross[i]
        L[k, :k] = cross[i]
        L[k, k] = cand_rows[i] @ cand_rows[i]
        ec[i] = ec_of_gram(L)
    total = ec + lambda_1 * advantage_many(game, player, C) if lambda_1 > 0 else ec
    return C, ec, total

@settings(max_examples=300, deadline=None)
# Three identical fixed rows with Gram entries near 5e5, where the pre-pass
# once erred by 1/347 of its bound.
@example(seed=34277, n=1, n_opp=5, player=0, duplicate_actions=False,
         pi_kind="mixed", fixed="random", lr=1e-3, lambda_1=0.0, scale=100.0)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 9),
       n_opp=st.integers(1, 6), player=st.sampled_from([0, 1]),
       duplicate_actions=st.booleans(),
       pi_kind=st.sampled_from(["mixed", "uniform", "near_pure"]),
       fixed=st.sampled_from(["none", "one", "near_duplicate", "near_pi",
                              "random"]),
       lr=st.sampled_from([1e-6, 1e-4, 1e-3, 0.3, 1e9]),
       lambda_1=st.sampled_from([0.0, 1.0, 1e9]),
       scale=st.sampled_from([1.0, 100.0, 1e3, 1e6]))
def test_diversity_argmax_matches_brute_force(seed, n, n_opp, player,
                                              duplicate_actions, pi_kind,
                                              fixed, lr, lambda_1, scale):
    rng = np.random.default_rng(seed)
    u_row = scale * rng.normal(size=(n, n))
    u_col = scale * rng.normal(size=(n, n))
    if duplicate_actions:
        # Actions with equal payoffs give candidates whose scores tie up to
        # rounding, where only the exact scores can pick the winner.
        idx = rng.integers(0, min(n, 2), size=n)
        u_row, u_col = ((u_row[idx], u_col[idx]) if player == 0
                        else (u_row[:, idx], u_col[:, idx]))
    g = new_game(u_row, u_col)
    if pi_kind == "mixed":
        pi = rng.dirichlet(np.ones(n))
    elif pi_kind == "uniform":
        pi = uniform(n)
    else:
        pi = np.abs(pure(n, int(rng.integers(n))) + 1e-14 * rng.normal(size=n))
        pi /= pi.sum()
    opp = rng.dirichlet(np.ones(n), size=n_opp)
    if fixed == "none":
        F = np.empty((0, n))
    elif fixed == "one":
        F = rng.dirichlet(np.ones(n), size=1)
    elif fixed == "near_duplicate":
        base = rng.dirichlet(np.ones(n))
        F = np.vstack([base, base, np.abs(base + 1e-12 * rng.normal(size=n))])
    elif fixed == "near_pi":
        # Members a few tiny steps from pi_t, as a hill climb leaves them.
        F = np.abs(pi + 1e-10 * rng.normal(size=(int(rng.integers(2, 6)), n)))
        F /= F.sum(axis=1, keepdims=True)
    else:
        F = rng.dirichlet(np.ones(n), size=int(rng.integers(2, 12)))
    out = _diversity_argmax(Population([pi], g, player), F, opp, lr, lambda_1)
    C, ec, total = _brute_diversity_scores(g, player, pi, F, opp, lr, lambda_1)
    assert np.array_equal(out, C[int(np.argmax(total))])

    m_self = own_matrix(g, player)
    cand_rows = C @ (m_self @ opp.T)
    fixed_rows = F @ (m_self @ opp.T)
    approx, bound = ec_rank_one(fixed_rows, cand_rows)
    assert 1000.0 * np.abs(approx - ec).max() <= bound


@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [200, 1000])
def test_diversity_argmax_matches_brute_force_above_gate(n, threads,
                                                         monkeypatch):
    # Above the gate the advantage bounds pick the survivors, and only their
    # dense advantage is computed, in calls of PICKED_ROWS rows, where picked
    # rows keep the full block's bits; elsewhere the full block is scored in
    # one call.  Survivors that are one row are returned unscored.  lr = 1e9 makes the +/- twins of criterion 8,
    # whose totals only the dense bits order.  The survivors' EC scores carry
    # the bits that the full block's rows of C @ meta give them.
    scored, survivors = [], []
    score, ec_scores = engine.advantage_many, engine._ec_scores

    def counted_score(game, player, P):
        scored.append(P.shape[0])
        return score(game, player, P)

    def counted_ec(fixed_rows, rows, index, meta):
        exact = ec_scores(fixed_rows, rows, index, meta)
        survivors.append((index, rows.copy(), exact))
        return exact

    monkeypatch.setattr(engine, "advantage_many", counted_score)
    monkeypatch.setattr(engine, "_ec_scores", counted_ec)
    rng = np.random.default_rng(10 + threads)
    u_row = rng.normal(size=(n, n))
    games = (new_game(u_row, rng.normal(size=(n, n))), new_game(u_row, -u_row))
    cases = [(games[0], 1, 0.3, 1.0, 0), (games[0], 0, 1e-3, 1e9, 2)]
    cases += [(games[i % 2], i // 2 % 2, 1e9, 1.0, 1 + i) for i in range(6)]
    for g, player, lr, lambda_1, n_fixed in cases:
        pi = rng.dirichlet(np.ones(n))
        F = rng.dirichlet(np.ones(n), size=n_fixed)
        opp = rng.dirichlet(np.ones(n), size=5)
        scored.clear()
        survivors.clear()
        with blas_threads(threads):
            out = _diversity_argmax(Population([pi], g, player), F, opp, lr,
                                    lambda_1)
            C, ec, total = _brute_diversity_scores(g, player, pi, F, opp, lr,
                                                   lambda_1)
            picked = solvers.rows_keep_block_bits(g, player)
        assert np.array_equal(out, C[int(np.argmax(total))])
        # Dense calls exactly when the survivors hold two or more rows.
        assert bool(scored) == bool(survivors) and len(survivors) <= 1
        if survivors:
            keep, kept_rows, exact = survivors[0]
            assert len(np.unique(C[keep], axis=0)) >= 2
            assert np.array_equal(kept_rows, C[keep])
            assert np.array_equal(exact, ec[keep])
            chunks = -(-len(keep) // solvers.PICKED_ROWS)
            assert scored == ([solvers.PICKED_ROWS] * chunks if picked
                              else [2 * n])

def _recorded_builds(monkeypatch):
    """Patch `engine._candidates` to record the rows of every build."""
    built = []
    candidates = engine._candidates

    def recorded_candidates(pi_t, step, rows=None):
        V = candidates(pi_t, step, rows)
        built.append(np.arange(V.shape[0]) if rows is None else rows)
        return V

    monkeypatch.setattr(engine, "_candidates", recorded_candidates)
    return built

def _full_builds(built, n):
    return sum(len(rows) == 2 * n for rows in built)

def _check_diversity_above_gate(lambda_1, scale, blocks, lr, monkeypatch):
    # Above the gate (400 x 200 x 200 multiply-adds): the pick builds the
    # full 2n-row block `blocks` times and still matches brute force.
    n = 200
    built = _recorded_builds(monkeypatch)
    rng = np.random.default_rng(4)
    g = new_game(scale * rng.normal(size=(n, n)),
                 scale * rng.normal(size=(n, n)))
    pi = rng.dirichlet(np.ones(n))
    F = rng.dirichlet(np.ones(n), size=3)
    opp = rng.dirichlet(np.ones(n), size=5)
    pop = Population([pi], g, 0)
    if lambda_1 > 0:
        assert engine._advantage_bounds(pop, lr) is None
    out = _diversity_argmax(pop, F, opp, lr, lambda_1)
    assert _full_builds(built, n) == blocks
    C, _, total = _brute_diversity_scores(g, 0, pi, F, opp, lr, lambda_1)
    assert np.array_equal(out, C[int(np.argmax(total))])

@pytest.mark.parametrize("lr", [0.3, 1e9])
@pytest.mark.parametrize("lambda_1, scale", [(1.0, 1e6)])
def test_diversity_above_gate_builds_the_block_once(lambda_1, scale, lr,
                                                    monkeypatch):
    # Payoffs of scale 1e6 leave every row loose, so the block's dense
    # advantage is scored and the block is built once for it and its EC rows.
    _check_diversity_above_gate(lambda_1, scale, 1, lr, monkeypatch)

@pytest.mark.parametrize("lr", [0.3, 1e9])
@pytest.mark.parametrize("lambda_1, scale, blocks", [(0.0, 1.0, 0)])
def test_diversity_above_gate_builds_the_block_only_for_its_advantage(
        lambda_1, scale, blocks, lr, monkeypatch):
    # With lambda_1 = 0 no advantage is scored, the EC rows come from the
    # rank-one form, and only the survivors are built: no full block.
    _check_diversity_above_gate(lambda_1, scale, blocks, lr, monkeypatch)

@pytest.mark.parametrize("n", [200, 300])
def test_diversity_without_block_bits_builds_the_block_once(n, monkeypatch):
    # Above the gate, where rows scored apart from the block would get other
    # bits, the survivors' dense advantage comes from the full block, the
    # one 2n-row build of the pick: the EC rows need none.  lr = 1e9 leaves
    # +/- twins that only the exact scores order.
    built = _recorded_builds(monkeypatch)
    monkeypatch.setattr(engine, "rows_keep_block_bits", lambda *args: False)
    rng = np.random.default_rng(n)
    g = new_game(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
    scored = 0
    for n_fixed in (1, 2, 3):
        pi = rng.dirichlet(np.ones(n))
        F = rng.dirichlet(np.ones(n), size=n_fixed)
        opp = rng.dirichlet(np.ones(n), size=5)
        built.clear()
        out = _diversity_argmax(Population([pi], g, 0), F, opp, 1e9, 1.0)
        assert _full_builds(built, n) <= 1
        scored += _full_builds(built, n)
        C, _, total = _brute_diversity_scores(g, 0, pi, F, opp, 1e9, 1.0)
        assert np.array_equal(out, C[int(np.argmax(total))])
    assert scored >= 1   # survivors of two or more rows were scored

# (n, m, k): above the gate and at dim 100, as the diversity branch with
# lambda_1 = 0 meets them, and below it, where its advantage term is dense.
ZERO_BLOCK_SHAPES = (
    [(n, m, k) for n, m in [(100, 100), (200, 200), (1000, 1000), (220, 140)]
     for k in (1, 2, 5, 17, 40)]
    + [(n, n, k) for n in (2, 3, 9, 50) for k in (1, 2, 5)])

@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("n, m, k", ZERO_BLOCK_SHAPES)
def test_survivors_in_a_zero_block_keep_the_block_product_bits(n, m, k,
                                                               threads):
    # Candidate scoring forms the exact EC rows of its survivors as the
    # product of a zero block of the candidate block's shape that holds each
    # survivor in its place (`_ec_scores`).  Each row must carry the bits the
    # full block's product gives it, on the iteration's thread count and
    # with keep sets at both ends of the block; below the gate, each EC
    # score the bits of the brute-force score on the full block.
    rng = np.random.default_rng(n + m + k)
    u = rng.normal(size=(n, m))
    opp = rng.dirichlet(np.ones(m), size=k)
    g = new_game(u, u)
    meta = own_matrix(g, 0) @ opp.T
    F = rng.dirichlet(np.ones(n), size=3)
    for step in (1e-3, 0.3, 1e9):
        pi = rng.dirichlet(np.ones(n))
        C = _candidates(pi, step)
        a = int(rng.integers(n))
        inner = rng.integers(0, 2 * n, size=6)
        keeps = [np.array([0, 2 * n - 1]), np.array([a, n + a]),
                 np.unique(np.r_[0, inner, 2 * n - 1])]
        with blas_threads(threads):
            full = C @ meta
            ec = (None if solvers.above_gate(n, m) else
                  _brute_diversity_scores(g, 0, pi, F, opp, step, 0.0)[1])
            for keep in keeps:
                Z = np.zeros_like(C)
                Z[keep] = C[keep]
                assert np.array_equal((Z @ meta)[keep], full[keep])
                if ec is not None:
                    exact = engine._ec_scores(F @ meta, C[keep], keep, meta)
                    assert np.array_equal(exact, ec[keep])

def test_shared_zero_block_is_zero_after_each_use(monkeypatch):
    # Survivor EC scoring and the block-bits probe write rows into the one
    # 2n x n zero block and write zeros back, on an exception too.  lr = 1e9
    # leaves +/- twins, so survivors of two rows are scored.
    n = 200
    rng = np.random.default_rng(3)
    g = new_game(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
    Z = solvers.zero_block(n)
    monkeypatch.setattr(solvers, "_BLOCK_BITS", {})
    solvers.rows_keep_block_bits(g, 0)
    assert solvers._BLOCK_BITS and not Z.any()
    scored = []
    ec_scores = engine._ec_scores
    monkeypatch.setattr(engine, "_ec_scores",
                        lambda *args: scored.append(1) or ec_scores(*args))
    draws = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n), size=k),
              rng.dirichlet(np.ones(n), size=5)) for k in (1, 2, 3)]
    for pi, F, opp in draws:
        _diversity_argmax(Population([pi], g, 0), F, opp, 1e9, 1.0)
        assert not Z.any()
    assert scored

    class FailingProduct(np.ndarray):
        def __matmul__(self, other):
            assert self.any()   # the survivors are in place
            raise ZeroDivisionError

    monkeypatch.setattr(engine, "zero_block", lambda n: Z.view(FailingProduct))
    with pytest.raises(ZeroDivisionError):
        for pi, F, opp in draws:
            _diversity_argmax(Population([pi], g, 0), F, opp, 1e9, 1.0)
    assert not Z.any()

def _random_block_probe(game, player):
    """`rows_keep_block_bits`' probe on a block random in every row."""
    mats = [own_matrix(game, player)]
    if not game.exact_zero_sum:
        mats.append(own_matrix(game, 1 - player).T)
    n = mats[0].shape[0]
    rng = np.random.default_rng(0)
    P = rng.random((2 * n, n))
    picks = [np.arange(solvers.PICKED_ROWS) % (2 * n),
             -1 - np.arange(solvers.PICKED_ROWS) % (2 * n)]
    picks += [rng.integers(0, 2 * n, size=solvers.PICKED_ROWS)
              for _ in range(3)]
    picks = np.stack(picks)
    return all(np.array_equal(P[picks] @ M, (P @ M)[picks]) for M in mats)

@pytest.mark.skipif(solvers._OPENBLAS_THREADS is None,
                    reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("n, m", [(1000, 1000), (220, 140), (500, 500)])
def test_block_bits_probe_on_the_zero_block_answers_as_on_a_random_one(
        n, m, threads, monkeypatch):
    rng = np.random.default_rng(n + m)
    g = new_game(rng.normal(size=(n, m)), rng.normal(size=(n, m)))
    monkeypatch.setattr(solvers, "_BLOCK_BITS", {})
    with blas_threads(threads):
        assert (solvers.rows_keep_block_bits(g, 0)
                == _random_block_probe(g, 0))
    assert not solvers.zero_block(n).any()

@settings(max_examples=200, deadline=None)
# Steps of pi_t[a] leave "-" row n + a with no mass or almost none: a loose
# row, 0 or not in the block.
@example(seed=0, n=5, k=3, n_fixed=2, pi_kind="pure", step="pi_a",
         scale=1.0, lambda_1=0.0)
@example(seed=0, n=5, k=3, n_fixed=2, pi_kind="nearer_pure", step="pi_a",
         scale=1.0, lambda_1=1.0)
@example(seed=1, n=100, k=5, n_fixed=3, pi_kind="dirichlet", step=1e9,
         scale=1.0, lambda_1=1.0)
@given(seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(1, 40), st.sampled_from([5, 20, 100])),
       k=st.integers(1, 6), n_fixed=st.integers(0, 5),
       pi_kind=st.sampled_from(["dirichlet", "pure", "near_pure",
                                "nearer_pure", "half_zero"]),
       step=st.sampled_from([1e-6, 1e-3, 0.3, 1.0, 1e3, 1e9, "pi_a"]),
       scale=st.sampled_from([1e-2, 1.0, 1e2, 1e6]),
       lambda_1=st.sampled_from([0.0, 1.0]))
def test_rank_one_ec_rows_keep_the_exact_ec_in_the_widened_bound(
        seed, n, k, n_fixed, pi_kind, step, scale, lambda_1):
    # The diversity branch scores EC from rank-one rows at every size, also
    # below the gate, where lambda_1 > 0 builds the candidate block for its
    # dense advantage.  Each row lies within its stated error of the row of
    # C @ meta; the ec_rank_one interval, widened by twice that error, holds
    # ec_of_gram of the exact bordered Gram matrix; and rows of mass near 0,
    # given an infinite bound, survive to be scored exactly: the last build
    # is the survivors'.
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(n))
    if pi_kind == "half_zero":
        pi[rng.permutation(n)[: n // 2]] = 0.0
    elif pi_kind != "dirichlet":
        tiny = {"pure": 0.0, "near_pure": 1e-12, "nearer_pure": 1e-16}[pi_kind]
        pi = np.abs(pure(n, int(rng.integers(n))) + tiny * rng.uniform(size=n))
    pi /= pi.sum()
    step = float(pi.max()) if step == "pi_a" else step
    g = new_game(scale * rng.normal(size=(n, n)), rng.normal(size=(n, n)))
    opp = rng.dirichlet(np.ones(n), size=k)
    members = rng.dirichlet(np.ones(n), size=n_fixed)
    meta = own_matrix(g, 0) @ opp.T
    fixed_rows = members @ meta
    C = _candidates(pi, step)
    rows, err = engine._ec_rows(pi, step, meta)
    exact_rows = C @ meta
    assert (np.linalg.norm(rows - exact_rows, axis=1) <= err).all()

    approx, bound = ec_rank_one(fixed_rows, rows)
    L = np.empty((n_fixed + 1, n_fixed + 1))
    L[:n_fixed, :n_fixed] = fixed_rows @ fixed_rows.T
    for i, x in enumerate(exact_rows):
        L[:n_fixed, n_fixed] = L[n_fixed, :n_fixed] = fixed_rows @ x
        L[n_fixed, n_fixed] = x @ x
        assert abs(approx[i] - ec_of_gram(L)) <= bound + 2.0 * err[i]

    with pytest.MonkeyPatch.context() as mp:
        built = _recorded_builds(mp)
        out = _diversity_argmax(Population([pi], g, 0), members, opp, step,
                                lambda_1)
    assert built and set(np.flatnonzero(np.isinf(err))) <= set(built[-1])
    C, _, total = _brute_diversity_scores(g, 0, pi, members, opp, step,
                                          lambda_1)
    assert np.array_equal(out, C[int(np.argmax(total))])

def test_diversity_one_row_survivors_are_not_scored(monkeypatch):
    # Above the gate (400 x 200 x 200 multiply-adds).  pi_t is 0 at action
    # 0, so its + and - candidates are one row, and they alone can win: the
    # opponents play actions 0-4, pi_t half 1-4, so the candidate near e_0
    # adds the most expected cardinality, and the weighted advantage is too
    # small to change that.
    calls = []
    monkeypatch.setattr(engine, "advantage_many",
                        lambda *args, **kw: calls.append("advantage_many"))
    monkeypatch.setattr(engine, "ec_of_gram",
                        lambda *args: calls.append("ec_of_gram"))
    n = 200
    rng = np.random.default_rng(3)
    g = new_game(np.eye(n), rng.normal(size=(n, n)))
    pi = np.zeros(n)
    pi[1:5] = 0.125
    pi[5:] = 0.5 / (n - 5)
    out = _diversity_argmax(Population([pi], g, 0), pi[None, :], np.eye(n)[:5],
                            1e9, 1e-3)
    assert np.array_equal(out, _candidates(pi, 1e9)[0])
    assert calls == []

# ---------------------------------------------------------------------------
# Population update rule

def test_update_always_accept_keeps_size_constant():
    # Positive payoffs and im = -1 make the ratio test pass every iteration.
    g = gen_general_sum(4, 5)
    cfg = make_cfg(im=-1.0, clipping_enabled=False, seed=0)
    reports = run(g, cfg, "self_play")
    sizes = [r.pop_sizes for r in reports]
    assert all(s == (1, 1) for s in sizes)

def test_update_always_reject_grows_every_iteration():
    g = gen_general_sum(4, 5)
    cfg = make_cfg(im=1e9, clipping_enabled=False, seed=0, max_iterations=6)
    reports = run(g, cfg, "self_play")
    assert [r.pop_sizes for r in reports] == [(k, k) for k in range(2, 8)]

def test_update_on_all_zero_game_uses_unit_scale():
    # Every payoff is 0, so the ratio test's denominator is too, and the
    # additive test runs at the fallback scale 1: no update improves by
    # im = 0.03, and the population grows every iteration.
    g = new_game(np.zeros((3, 4)), np.zeros((3, 4)))
    assert g.payoff_scales == (0.0, 0.0)
    cfg = make_cfg(clipping_enabled=False, seed=0, max_iterations=4)
    assert [r.pop_sizes for r in run(g, cfg)] == [(k, k) for k in range(2, 6)]

def test_update_branch_forced_by_lambda_d():
    g = gen_general_sum(3, 6)
    for lam, expected in ((1.0, "diversity"), (0.0, "lookahead")):
        cfg = make_cfg(lambda_d=lam, seed=1, max_iterations=4,
                       clipping_enabled=False)
        for rep in run(g, cfg, "self_play"):
            assert rep.oracle_branch_taken == (expected, expected)


# ---------------------------------------------------------------------------
# Iteration, variants, and the run loop

def test_vanilla_grows_by_one_and_appends_pure_br():
    reports = run(RPS, make_cfg(variant="vanilla_psro", clipping_enabled=False,
                                seed=0, max_iterations=5))
    assert [r.pop_sizes for r in reports] == [(k, k) for k in range(2, 7)]

def test_vanilla_rps_reaches_low_exploitability():
    reports = run(RPS, make_cfg(variant="vanilla_psro", clipping_enabled=False,
                                seed=0, max_iterations=10,
                                fp_max_iters=200_000))
    assert reports[-1].exploitability <= 0.05

def test_report_exploitability_matches_solver_exactly():
    g = gen_symmetric_zero_sum(5, 9)
    state = init_state(g, make_cfg(seed=3, clipping_enabled=False))
    for _ in range(5):
        # Members are replaced copy-on-write, so the old arrays are snapshots.
        before_row, before_col = state.pop_row.members, state.pop_col.members
        rep = run_iteration(state)
        agg_row = rep.theta.theta_row @ before_row
        agg_col = rep.theta.theta_col @ before_col
        assert rep.exploitability == exploitability(g, agg_row, agg_col)[0]
        assert (rep.reward_row, rep.reward_col) == payoff(g, agg_row, agg_col)

def test_all_stored_members_simplex_valid():
    for variant in ("vanilla_psro", "diversity_psro", "sc_psro"):
        g = gen_general_sum(5, 11)
        state = init_state(g, make_cfg(variant=variant, seed=4))
        for _ in range(8):
            run_iteration(state)
        for m in (*state.pop_row.members, *state.pop_col.members):
            assert (m >= -1e-12).all()
            assert abs(m.sum() - 1.0) <= 1e-12

def test_run_deterministic_in_seed():
    g = gen_symmetric_zero_sum(6, 13)
    cfg = dict(seed=7, max_iterations=10, clipping_enabled=False)
    a = run(g, make_cfg(**cfg))
    b = run(g, make_cfg(**cfg))
    assert [r.exploitability for r in a] == [r.exploitability for r in b]
    assert [r.pop_sizes for r in a] == [r.pop_sizes for r in b]
    c = run(g, make_cfg(**{**cfg, "seed": 8}))
    assert [r.exploitability for r in a] != [r.exploitability for r in c]

def test_stackelberg_mode_reward_is_row_advantage():
    cfg = make_cfg(seed=0, max_iterations=30, clip_fraction=0.4)
    reports = run(T1, cfg, "stackelberg_player")
    rep = reports[-1]
    assert rep.reward_row >= 2.0 - 1e-9   # at least the Nash payoff
    # The follower population only ever holds pure one-hot replies.
    state = init_state(T1, make_cfg(seed=0, max_iterations=5), "stackelberg_player")
    for _ in range(5):
        run_iteration(state)
    for m in state.pop_col.members:
        assert set(np.round(m, 12)) <= {0.0, 1.0}

def test_prosocial_mode_reports_both_rewards():
    g = builtin("stag_hunt_table2")
    reports = run(g, make_cfg(seed=0, max_iterations=10), "prosocial")
    rep = reports[-1]
    assert np.isfinite(rep.reward_row) and np.isfinite(rep.reward_col)
