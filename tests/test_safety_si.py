from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import congame.matrix
import congame.safety_si
from congame import (
    BudgetExceeded,
    ConvergentSafetyRunner,
    GameStructure,
    SafetySIRunner,
    improvement_switches,
    TurnBasedReachRunner,
    tb_reduction,
)
from congame.matrix import (
    MatrixGame,
    _feasible_unrestricted,
    _nonempty_subsets,
    _pruned_pairs,
    one_step_matrix,
    solve_matrix_game,
)
from congame.model import P1, P2, RANDOM, TurnBasedGame, encode_turn_based_as_concurrent
from congame.reach_si import STATUS_CAPPED, STATUS_EXACT

from congame.safety_si import K_UNIFORM_MAX_STEPS

from conftest import ONE, ZERO, random_concurrent_game, random_tb_game, random_valuations
from helpers import (
    fraction_payoff, k_uniform_pairs, opt_sel_count, opt_sel_feasible, record_one_step_matrices,
    reference_k_uniform_pairs, round_to_k_uniform,
)
from oracles import (
    ColdConvergentSafety,
    brute_force_k_uniform_best,
    reduction_switches,
    slack_lp_feasible,
    slack_lp_pruned_pairs,
)

F = Fraction
NOOP = "⊥"


def two_row_game(top, bottom):
    """One decision state whose rows land in two absorbing states with the
    given values (1 for 'hi', 0 for 'lo')."""
    states = ("s", "hi", "lo")
    moves = ("a", "b", "c", "d", NOOP)
    moves1 = {"s": ("a", "b"), "hi": (NOOP,), "lo": (NOOP,)}
    moves2 = {"s": ("c", "d"), "hi": (NOOP,), "lo": (NOOP,)}
    delta = {
        ("s", "a", "c"): {top[0]: ONE},
        ("s", "a", "d"): {top[1]: ONE},
        ("s", "b", "c"): {bottom[0]: ONE},
        ("s", "b", "d"): {bottom[1]: ONE},
        ("hi", NOOP, NOOP): {"hi": ONE},
        ("lo", NOOP, NOOP): {"lo": ONE},
    }
    return GameStructure(states, moves, moves1, moves2, delta)


def test_opt_sel_feasible_equalizer(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    pair = opt_sel_feasible(ex3step1, v, "s0", {"a", "b"}, {"c", "d"})
    assert pair is not None
    assert pair.witness == {"a": F(3, 7), "b": F(4, 7)}
    matrix = one_step_matrix(ex3step1, v, "s0")
    payoff = fraction_payoff(matrix)
    for j, b in enumerate(matrix.cols):
        col = sum(pair.witness[a] * payoff[i][j] for i, a in enumerate(matrix.rows))
        assert col == F(4, 7)


def test_opt_sel_feasible_dominated_support():
    game = two_row_game(("hi", "hi"), ("lo", "lo"))  # payoff rows (1,1) and (0,0)
    v = {"s": ZERO, "hi": ONE, "lo": ZERO}
    assert opt_sel_feasible(game, v, "s", {"b"}, {"c", "d"}) is None
    assert opt_sel_feasible(game, v, "s", {"a", "b"}, {"c", "d"}) is None
    pair = opt_sel_feasible(game, v, "s", {"a"}, {"c", "d"})
    assert pair is not None and pair.witness == {"a": ONE}


def test_opt_sel_feasible_singletons(fig1):
    v = {s: F(1, 2) for s in fig1.states}
    pair = opt_sel_feasible(fig1, v, "s0", {NOOP}, {NOOP})
    assert pair is not None and pair.witness == {NOOP: ONE}


def test_opt_sel_count_fig2_p2_state(fig2):
    v = {"s0": F(1, 3), "s1": F(1, 3), "s2": F(1, 3), "s3": F(2, 3), "s4": ZERO, "s5": ONE}
    pairs = opt_sel_count(fig2, v, "s1")
    assert [(p.A, p.B) for p in pairs] == [((NOOP,), ("to-s0",))]


def test_opt_sel_count_constant_matrix(fig1):
    v = {s: F(1, 2) for s in fig1.states}
    pairs = opt_sel_count(fig1, v, "s3")
    found = {(p.A, p.B) for p in pairs}
    assert found == {
        (("a",), (NOOP,)),
        (("b",), (NOOP,)),
        (("a", "b"), (NOOP,)),
    }


def test_opt_sel_count_ex3_surrogate(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    pairs = {(p.A, p.B) for p in opt_sel_count(ex3step1, v, "s0")}
    assert (("a", "b"), ("c", "d")) in pairs
    assert all(A != ("a",) for A, _ in pairs)


def test_opt_sel_count_k_restricted_subset_of_unrestricted(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    unrestricted = {(p.A, p.B) for p in opt_sel_count(ex3step1, v, "s0")}
    k7 = {(p.A, p.B) for p in opt_sel_count(ex3step1, v, "s0", k=7)}
    # (3/7, 4/7) is 7-uniform, so the equalizing pair appears at k=7
    assert (("a", "b"), ("c", "d")) in k7
    assert k7 <= unrestricted


def test_opt_sel_count_matches_every_pair_lp():
    """Closed forms and complementary-slackness pruning keep exactly the
    pairs the slack LP finds feasible over all pairs, in the same order and
    with the same witnesses, on 600 random states of every shape from 1x1
    to 3x3; half the valuations are constant, so every mixture ties."""
    rng = random.Random(1503)
    shapes = Counter()
    while sum(shapes.values()) < 600:
        game = random_concurrent_game(rng, max_moves=3)
        for v in random_valuations(rng, game.states):
            for s in game.states:
                shapes[(len(game.moves1[s]), len(game.moves2[s]))] += 1
                expected = []
                for A, B in itertools.product(
                    _nonempty_subsets(game.moves1[s]), _nonempty_subsets(game.moves2[s])
                ):
                    pair = opt_sel_feasible(game, v, s, A, B)
                    if pair is not None:
                        expected.append((pair.A, pair.B, list(pair.witness.items())))
                got = [(p.A, p.B, list(p.witness.items())) for p in opt_sel_count(game, v, s)]
                assert got == expected
    assert len(shapes) == 9


def test_feasible_unrestricted_matches_slack_lp():
    """The one-row closed form agrees with the slack LP on random rows with
    ties and negative entries, at targets on and off the row; two-row
    supports run the same LP."""
    rng = random.Random(1901)
    grid = [F(-1), F(-1, 2), ZERO, F(1, 3), F(1, 2), ONE]
    singles = 0
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        payoff = [[rng.choice(grid) for _ in range(n)] for _ in range(m)]
        matrix = MatrixGame.of(tuple(f"r{a}" for a in range(m)), tuple(f"c{b}" for b in range(n)), payoff)
        target = rng.choice(payoff[0] + [rng.choice(grid)])
        for A in _nonempty_subsets(range(m)):
            if len(A) > 2:
                continue
            for B in _nonempty_subsets(range(n)):
                got = _feasible_unrestricted(matrix, target, A, B)
                assert got == slack_lp_feasible(payoff, target, A, B)
                singles += len(A) == 1 and got is not None
    assert singles > 100


def test_k_uniform_pairs_integer_scan_matches_fraction_reference():
    rng = random.Random(43)
    for _ in range(30):
        game = random_concurrent_game(rng, max_moves=3)
        for v in random_valuations(rng, game.states):
            for s in game.states:
                for k in range(1, 7):
                    pairs = k_uniform_pairs(game, v, s, k)
                    reference = reference_k_uniform_pairs(game, v, s, k)
                    assert [(key, list(mix.items())) for key, mix in pairs.items()] == [
                        (key, list(mix.items())) for key, mix in reference.items()
                    ]


def test_tb_reduction_minimal_chain(fig1):
    v = {s: F(1, 2) for s in fig1.states}
    reduction = tb_reduction(fig1, v, set(fig1.states))
    tb = reduction.game
    # state s0 has the single pair ({noop}, {noop}) giving a 3-state chain
    pair_node = f"s0/[{NOOP}]/[{NOOP}]"
    resp_node = f"s0/[{NOOP}]/{NOOP}"
    assert tb.edges["s0"] == (pair_node,)
    assert tb.edges[pair_node] == (resp_node,)
    assert tb.partition["s0"] == P1
    assert tb.partition[pair_node] == P2
    assert tb.partition[resp_node] == RANDOM


def test_tb_reduction_fig2_structure(fig2):
    v = {"s0": F(1, 3), "s1": F(1, 3), "s2": F(1, 3), "s3": F(2, 3), "s4": ZERO, "s5": ONE}
    safe = [s for s in fig2.states if s != "s4"]
    reduction = tb_reduction(fig2, v, safe)
    tb = reduction.game
    s0_pairs = [reduction.back_map[n] for n in tb.edges["s0"]]
    assert ("pair", "s0", ("to-s1",), (NOOP,)) in s0_pairs
    s1_pairs = [reduction.back_map[n] for n in tb.edges["s1"]]
    assert s1_pairs == [("pair", "s1", (NOOP,), ("to-s0",))]
    # unsafe-state derivatives stay out of the safe set
    assert all(not n.startswith("s4/") or n not in reduction.safe_bar for n in tb.states)
    assert "s4" not in reduction.safe_bar and "s5" in reduction.safe_bar


def test_tb_reduction_random_node_uniform(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    reduction = tb_reduction(ex3step1, v, {"s0", "s1"})
    tb = reduction.game
    node = "s0/[a+b]/c"
    assert node in tb.states
    # dest(s0, a, c) = {s1}, dest(s0, b, c) = {s0, s2}: three successors
    assert set(tb.edges[node]) == {"s0", "s1", "s2"}
    assert tb.prob[node] == {"s0": F(1, 3), "s1": F(1, 3), "s2": F(1, 3)}


def test_tb_reduction_witness_pattern_random():
    rng = random.Random(51)
    from congame.matrix import solve_matrix_game

    for _ in range(10):
        game = random_concurrent_game(rng, n_states=3)
        v = {s: F(rng.randint(0, 4), 4) for s in game.states}
        reduction = tb_reduction(game, v, set(game.states))
        for (s, A, B), witness in reduction.witness_store.items():
            matrix = one_step_matrix(game, v, s)
            target = solve_matrix_game(matrix).value
            cols = {}
            for j, b in enumerate(matrix.cols):
                cols[b] = sum(
                    witness.get(a, ZERO) * fraction_payoff(matrix)[i][j]
                    for i, a in enumerate(matrix.rows)
                )
            assert tuple(a for a in matrix.rows if witness.get(a, ZERO) > 0) == A
            for b in matrix.cols:
                if b in B:
                    assert cols[b] == target
                else:
                    assert cols[b] > target


def test_safety_si_fig2(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    result = SafetySIRunner(fig2, safe).run(5)
    assert result.status == STATUS_EXACT
    assert result.iterations <= 5
    assert result.values == {
        "s0": F(2, 3), "s1": F(2, 3), "s2": F(1, 3), "s3": F(2, 3), "s4": ZERO, "s5": ONE
    }
    assert result.fired_nonlocal
    assert result.selector.choice["s0"] == {"to-s1": ONE}


def test_safety_si_ex3full_never_fires(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    result = SafetySIRunner(ex3full, safe).run(50)
    assert result.status == STATUS_CAPPED
    assert not result.fired_nonlocal
    assert all(v["s3"] < F(3, 5) for v in result.valuations)
    at_s0 = [v["s0"] for v in result.valuations]
    for earlier, later in zip(at_s0, at_s0[1:]):
        assert later >= earlier


def test_safety_si_all_absorbing_safe():
    rng = random.Random(52)
    game = random_concurrent_game(rng, n_states=3)
    from helpers import make_absorbing

    frozen = make_absorbing(game, game.states)
    result = SafetySIRunner(frozen, frozen.states).run(3)
    assert result.status == STATUS_EXACT
    assert all(result.values[s] == 1 for s in frozen.states)


def test_round_to_k_uniform_already_uniform():
    k, rounded = round_to_k_uniform({"x": F(1, 2), "y": F(1, 2)}, ONE)
    assert rounded == {"x": F(1, 2), "y": F(1, 2)}


def test_round_to_k_uniform_sqrt2_truncation():
    dist = {"x": F(408, 985), "y": F(577, 985)}
    eta = F(1, 10)
    k, rounded = round_to_k_uniform(dist, eta)
    assert sum(rounded.values()) == 1
    assert set(rounded) == set(dist)
    for key in dist:
        assert dist[key] / rounded[key] <= 1 + eta
        assert rounded[key] / dist[key] <= 1 + eta
    for p in rounded.values():
        assert (p * k).denominator == 1


def test_round_to_k_uniform_singleton():
    assert round_to_k_uniform({"only": ONE}, F(1, 3)) == (1, {"only": ONE})


def test_round_to_k_uniform_bounds_random():
    rng = random.Random(53)
    for _ in range(40):
        parts = rng.randint(2, 4)
        weights = [rng.randint(1, 30) for _ in range(parts)]
        total = sum(weights)
        dist = {f"m{i}": F(w, total) for i, w in enumerate(weights)}
        eta = F(1, rng.randint(2, 12))
        k, rounded = round_to_k_uniform(dist, eta)
        assert sum(rounded.values()) == 1
        assert k >= 1
        for key in dist:
            assert dist[key] / rounded[key] <= 1 + eta
            assert rounded[key] / dist[key] <= 1 + eta
            assert (rounded[key] * k).denominator == 1


def test_k_uniform_ex3full(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    result = SafetySIRunner(ex3full, safe, 5).run(K_UNIFORM_MAX_STEPS)
    assert result.fired_nonlocal
    assert result.values["s3"] == F(3, 5)
    assert result.values["s4"] == F(3, 5)
    assert result.values["s5"] == F(3, 5)
    assert result.values["s0"] == F(4, 7)
    assert result.selector.choice["s3"] == {"b": ONE}


def test_k_uniform_turn_based_exact():
    # On turn-based games the k-uniform fixpoint is the exact safety value:
    # compare with one minus the swapped reachability value.
    rng = random.Random(54)
    for _ in range(8):
        tb = random_tb_game(rng, n_states=4, max_succ=2)
        safe = set(rng.sample(tb.states, rng.randint(1, 3)))
        game = encode_turn_based_as_concurrent(tb)
        result = SafetySIRunner(game, safe, 1).run(K_UNIFORM_MAX_STEPS)
        swapped = TurnBasedGame(
            tb.states,
            {
                s: (P1 if kind == P2 else P2 if kind == P1 else kind)
                for s, kind in tb.partition.items()
            },
            tb.edges,
            tb.prob,
        )
        complement = [s for s in tb.states if s not in safe]
        dual = TurnBasedReachRunner(swapped, complement).run(1000)
        assert all(result.values[s] == 1 - dual.values[s] for s in tb.states)


def test_k_uniform_oracle_tiny():
    rng = random.Random(55)
    for _ in range(6):
        game = random_concurrent_game(rng, n_states=3, max_moves=2)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        k = rng.randint(1, 4)
        result = SafetySIRunner(game, safe, k).run(K_UNIFORM_MAX_STEPS)
        oracle = brute_force_k_uniform_best(game, safe, result.k)
        assert result.values == oracle


def test_convergent_fig2(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    result = ConvergentSafetyRunner(fig2, safe).run(5)
    assert result.status == STATUS_EXACT
    assert result.values["s0"] == F(2, 3)


def test_convergent_ex3full(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    runner = ConvergentSafetyRunner(ex3full, safe)
    for round_no in range(6):
        assert runner.step()
        if round_no == 0:
            # Later rounds start warm from a fixpoint that holds the switch.
            assert runner.inner.fired_nonlocal
    assert runner.ks == list(range(5, 11))
    for k in runner.ks:
        cold = SafetySIRunner(ex3full, safe, k).run(K_UNIFORM_MAX_STEPS)
        assert cold.fired_nonlocal
    assert runner.status == STATUS_CAPPED
    assert all(v["s3"] == F(3, 5) for v in runner.valuations)
    at_s0 = [v["s0"] for v in runner.valuations]
    for earlier, later in zip(at_s0, at_s0[1:]):
        assert later >= earlier
    assert all(x * x - 4 * x + 2 > 0 for x in at_s0)  # below 2 - sqrt(2)


def test_widen_continues_from_the_fixpoint(ex3full):
    # widen() reopens a finished k-uniform runner at k + 1 without touching
    # its selector; running on reaches the same (k+1)-uniform optimum as a
    # cold run.
    safe = [s for s in ex3full.states if s != "s2"]
    runner = SafetySIRunner(ex3full, safe, 5).run(K_UNIFORM_MAX_STEPS)
    assert runner.finished and not runner.optimal
    fixpoint, steps = runner.selector, runner.iterations
    runner.widen()
    assert runner.k == 6 and not runner.finished and not runner.optimal
    assert runner.selector is fixpoint and runner.iterations == steps
    runner.run(steps + K_UNIFORM_MAX_STEPS)
    cold = SafetySIRunner(ex3full, safe, 6).run(K_UNIFORM_MAX_STEPS)
    assert runner.finished and runner.values == cold.values


def test_convergent_drives_one_inner_runner(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    runner = ConvergentSafetyRunner(ex3full, safe)
    inner = runner.inner
    runner.run(3)
    assert runner.inner is inner and inner.k == runner.ks[-1] == 7
    assert runner.valuations[-1] is inner.values


def _same_as_cold(game, safe, rounds):
    # Selectors are not compared: where the k-uniform optimum does not rise
    # with k, a warm round keeps the last fixpoint while a cold one may end
    # at another k-uniform optimum of the same value (on ex3full at k = 7,
    # s0 mixes 2/5 warm and 3/7 cold).
    # The cold run gets a copy of the game, whose one-step cache starts
    # empty, so it scans every payoff itself rather than reading (or
    # growing) the warm run's scans.
    warm = ConvergentSafetyRunner(game, safe).run(rounds)
    cold = ColdConvergentSafety(dataclasses.replace(game), safe).run(rounds)
    assert warm.valuations == cold.valuations
    assert warm.ks == cold.ks
    assert warm.status == cold.status
    return warm


# Seeds in 300..3999 whose game runs past the first convergent round (all
# of them to the cap); below 300 none does.
MULTI_ROUND_SEEDS = (
    714, 844, 1021, 1678, 1879, 2382, 2512, 2768, 2963, 3124, 3374, 3497, 3618, 3764, 3971,
)


def test_convergent_warm_rounds_match_cold_random():
    for seed in (*range(300), *MULTI_ROUND_SEEDS):
        rng = random.Random(f"warm:{seed}")
        game = random_concurrent_game(rng, n_states=rng.randint(2, 4), max_moves=3)
        safe = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        warm = _same_as_cold(game, safe, 8)
        if seed in MULTI_ROUND_SEEDS:
            assert warm.iterations == 8


@pytest.mark.parametrize("name,unsafe", [("ex3full", "s2"), ("ex3step1", "s1")])
def test_convergent_warm_rounds_match_cold_examples(request, name, unsafe):
    game = request.getfixturevalue(name)
    _same_as_cold(game, [s for s in game.states if s != unsafe], 30)


def _ex3full_convergent(ex3full, rounds=16):
    """``rounds`` convergent rounds on a copy of ex3full with an empty
    one-step cache (k from 5 to 20)."""
    game = dataclasses.replace(ex3full)
    runner = ConvergentSafetyRunner(game, [s for s in game.states if s != "s2"]).run(rounds)
    assert runner.iterations == rounds and not runner.finished
    return runner


def test_convergent_scores_each_payoff_layer_once(ex3full, monkeypatch):
    # Raising k one step at a time grows each payoff's cached scan by the
    # new denominator layers only.  Matrices with one row or one column
    # take closed forms and are not cached, so only the others count.
    scan, layer = congame.matrix._k_uniform_scan, congame.matrix._reduced_compositions
    scanning: list[MatrixGame] = []
    scored: Counter = Counter()

    def recording_scan(matrix, *args):
        scanning.append(matrix)
        try:
            return scan(matrix, *args)
        finally:
            scanning.pop()

    def recording_layer(n_moves, denom):
        matrix = scanning[-1]
        if len(matrix.rows) > 1 and len(matrix.cols) > 1:
            scored[(fraction_payoff(matrix), denom)] += 1
        return layer(n_moves, denom)

    monkeypatch.setattr(congame.matrix, "_k_uniform_scan", recording_scan)
    monkeypatch.setattr(congame.matrix, "_reduced_compositions", recording_layer)
    _ex3full_convergent(ex3full)
    assert scored and max(scored.values()) == 1
    assert max(denom for _, denom in scored) == 20


def test_convergent_runs_one_stopping_test_per_valuation(ex3full, monkeypatch):
    # A widened runner whose fixpoint did not move reuses its answer.
    switches = congame.safety_si.improvement_switches
    tested = []

    def recording(game, v, F, W1, k=None):
        if k is None:
            tested.append(tuple(v[s] for s in game.states))
        return switches(game, v, F, W1, k)

    monkeypatch.setattr(congame.safety_si, "improvement_switches", recording)
    _ex3full_convergent(ex3full)
    assert tested and len(tested) == len(set(tested))


def test_improvement_switches_builds_each_matrix_once(ex3full, monkeypatch):
    # Within one call, every one_step_matrix request for a state returns the
    # same object: pre1 builds it for the local step and the non-local step
    # gets it back unbuilt.  No held state is requested.
    calls = record_one_step_matrices(monkeypatch, congame.safety_si, "improvement_switches")
    runner = _ex3full_convergent(ex3full)
    held = runner.inner.done
    assert calls and all(requested for _, requested in calls)
    for _, requested in calls:
        assert not held & requested.keys()
        for matrices in requested.values():
            assert all(matrix is matrices[0] for matrix in matrices)
    assert any(len(matrices) > 1 for _, requested in calls for matrices in requested.values())


def test_convergent_all_unsafe(ex3step1):
    result = ConvergentSafetyRunner(ex3step1, set()).run(3)
    assert result.status == STATUS_EXACT
    assert all(v == 0 for v in result.values.values())


def test_convergent_rejects_zero_rounds(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        ConvergentSafetyRunner(ex3full, safe).run(0)


def test_k_uniform_fixpoint_monotone_in_k():
    rng = random.Random(56)
    for _ in range(5):
        game = random_concurrent_game(rng, n_states=3, max_moves=2)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        base = len(game.moves)
        smaller = SafetySIRunner(game, safe, base).run(K_UNIFORM_MAX_STEPS)
        larger = SafetySIRunner(game, safe, base + 1).run(K_UNIFORM_MAX_STEPS)
        assert all(smaller.values[s] <= larger.values[s] for s in game.states)


def test_safety_si_step_fig2_nonlocal_details(fig2):
    # First round on the stalled valuation: no local improvement, the
    # turn-based reduction lifts exactly {s0, s1}, and the new choice at s0
    # is the pure switch that forces the adversary away from the 1/3 class.
    safe = [s for s in fig2.states if s != "s4"]
    runner = SafetySIRunner(fig2, safe)
    switches, nonlocal_step = improvement_switches(runner.game, runner.values, runner.safe, runner.w1)
    assert set(switches) == {"s0", "s1"} and nonlocal_step is True
    assert runner.step()
    assert runner.fired_nonlocal and not runner.finished
    assert runner.selector.choice["s0"] == {"to-s1": ONE}
    assert runner.values["s0"] == F(2, 3)
    # second round: nothing left anywhere
    assert runner.step() is False
    assert runner.finished and runner.optimal


def test_optimal_is_the_unrestricted_stop_at_the_fixpoint():
    # A plain fixpoint is optimal; a k-uniform one exactly when the
    # unrestricted round would switch nothing there.  No runner is optimal
    # before it finishes.
    rng = random.Random(1902)
    for _ in range(8):
        game = random_concurrent_game(rng, n_states=3, max_moves=2)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = SafetySIRunner(game, safe, k=len(game.moves))
        assert not runner.optimal
        runner.run(10_000)
        assert runner.finished
        switches, _ = improvement_switches(runner.game, runner.values, safe, runner.w1)
        assert runner.optimal == (not switches)


def test_improvement_switches_empty_at_fig2_value(fig2):
    # fig2's safety value: neither step finds a state to switch.
    safe = [s for s in fig2.states if s != "s4"]
    result = SafetySIRunner(fig2, safe).run(100)
    assert result.status == STATUS_EXACT and result.values["s0"] == F(2, 3)
    assert improvement_switches(result.game, result.values, safe, result.w1) == ({}, True)
    assert result.optimal


def test_improvement_switches_at_ex3full_k_uniform_fixpoint(ex3full):
    # The 5-uniform fixpoint stops the restricted loop but not the
    # unrestricted one: s0 improves locally, so the report says capped.
    safe = [s for s in ex3full.states if s != "s2"]
    result = SafetySIRunner(ex3full, safe, 5).run(K_UNIFORM_MAX_STEPS)
    assert result.k == 5
    restricted = improvement_switches(result.game, result.values, safe, result.w1, result.k)
    assert restricted == ({}, True)
    switches, nonlocal_step = improvement_switches(result.game, result.values, safe, result.w1)
    assert not nonlocal_step
    assert switches == {"s0": {"a": F(5, 12), "b": F(7, 12)}}
    assert result.finished and not result.optimal


def _round_outcome(switches_fn, game, v, safe, w1, k):
    try:
        switches, nonlocal_step = switches_fn(game, v, safe, w1, k)
    except BudgetExceeded as exc:
        return "budget", str(exc)
    return list(switches.items()), nonlocal_step


def test_improvement_switches_match_the_materialized_reduction(monkeypatch):
    """The non-local step's fixpoint on the concurrent game switches the
    same states, in the same order and to the same witnesses, as reading
    them off the turn-based reduction, and fails on the same budget.  Each
    side runs on its own copy of the game, so neither reads the other's
    one-step cache."""
    rng = random.Random(3030)
    outcomes = Counter()
    default_budget = congame.matrix.MAX_KUNIFORM_ENUMERATION
    for _ in range(300):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 5), max_moves=3)
        twin = GameStructure(game.states, game.moves, game.moves1, game.moves2, game.delta)
        safe = {s for s in game.states if rng.random() < 0.75}
        w1 = {s for s in game.states if rng.random() < 0.3}
        k = rng.choice((None, 1, 2, 3, 4))
        # A budget of 30 rejects k = 4 at three moves (34 compositions).
        budget = rng.choice((30, default_budget))
        monkeypatch.setattr(congame.matrix, "MAX_KUNIFORM_ENUMERATION", budget)
        for v in random_valuations(rng, game.states):
            got = _round_outcome(improvement_switches, game, v, safe, w1, k)
            assert got == _round_outcome(reduction_switches, twin, v, safe, w1, k)
            outcomes["budget" if got[0] == "budget" else (got[1], bool(got[0]))] += 1
    assert all(outcomes[key] >= 30 for key in ("budget", (False, True), (True, True), (True, False)))


def test_pruned_pairs_match_the_slack_lp_alone():
    """The pre-filter in front of the slack LP rejects only infeasible
    pairs: on random small matrices with ties, the pruned pairs equal those
    the LP finds by itself among the same candidates."""
    rng = random.Random(2027)
    grid = [ZERO, F(1, 3), F(1, 2), ONE]
    multi_row = 0
    for _ in range(2000):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        payoff = tuple(tuple(rng.choice(grid) for _ in range(n)) for _ in range(m))
        matrix = MatrixGame.of(tuple(f"r{a}" for a in range(m)), tuple(f"c{b}" for b in range(n)), payoff)
        solution = solve_matrix_game(matrix)
        got = _pruned_pairs(matrix, solution)
        assert got == slack_lp_pruned_pairs(payoff, solution)
        multi_row += sum(len(A) > 1 for A, _, _ in got)
    assert multi_row > 100
