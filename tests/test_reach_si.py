from __future__ import annotations

import random
from fractions import Fraction


import congame.reach_si
from congame import (
    ConvergentSafetyRunner,
    ReachSIRunner,
    TurnBasedReachRunner,
    compute_W2,
    reach_value_iteration,
    strategy_value_reach,
    swap_players,
    uniform_selector,
)
from congame.matrix import MatrixGame
from congame.reach_si import STATUS_CAPPED, STATUS_EXACT, _dyadic_rounding

from conftest import ONE, ZERO, random_concurrent_game, random_tb_game
from helpers import is_proper, strategy_value_reach_by_copy
from oracles import EncodedTurnBasedReach, pure_strategy_count, tb_reach_value_oracle

F = Fraction


def test_fig1_terminates_immediately(fig1):
    result = ReachSIRunner(fig1, {"s0"}).run(1000)
    assert result.status == STATUS_EXACT
    assert result.iterations == 1
    assert result.values == {
        "s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)
    }


def test_target_everything(fig1):
    result = ReachSIRunner(fig1, fig1.states).run(1000)
    assert result.status == STATUS_EXACT
    assert all(result.values[s] == 1 for s in fig1.states)


def test_ex3step1_trace(ex3step1):
    result = ReachSIRunner(ex3step1, {"s1"}).run(50)
    assert result.status == STATUS_CAPPED
    at_s0 = [v["s0"] for v in result.valuations]
    assert at_s0[:4] == [F(1, 2), F(4, 7), F(7, 12), F(24, 41)]
    for earlier, later in zip(at_s0, at_s0[1:]):
        assert later > earlier
    # all iterates stay strictly below the irrational value 2 - sqrt(2)
    assert all(x * x - 4 * x + 2 > 0 for x in at_s0)


def test_improve_step_strict_on_improvement_set(ex3step1):
    runner = ReachSIRunner(ex3step1, {"s1"})
    assert runner.selector == uniform_selector(runner.game)
    assert runner.values == strategy_value_reach(
        runner.game, runner.selector, {"s1"}, compute_W2(ex3step1, {"s1"})
    )
    assert runner.values["s0"] == F(1, 2)
    assert runner.step()
    assert runner.improve_set == {"s0"}
    assert runner.values["s0"] == F(4, 7)


def test_improve_step_noop_at_fixpoint(fig1):
    runner = ReachSIRunner(fig1, {"s0"})
    selector, v = runner.selector, runner.values
    assert runner.step() is False
    assert runner.improve_set == frozenset()
    assert runner.values == v
    assert runner.selector is selector


def test_monotone_and_proper_random():
    rng = random.Random(41)
    for _ in range(15):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = ReachSIRunner(game, target)
        previous = dict(runner.values)
        for _ in range(6):
            assert is_proper(runner.game, runner.selector, runner.target, runner.w2)
            if not runner.step():
                break
            for s in game.states:
                assert runner.values[s] >= previous[s]
            previous = dict(runner.values)


def test_dominates_value_iteration():
    rng = random.Random(42)
    for _ in range(10):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        steps = 5
        trace = reach_value_iteration(game, target, max_steps=steps)
        result = ReachSIRunner(game, target).run(steps)
        for i, v in enumerate(result.valuations):
            if i < len(trace.valuations):
                u = trace.valuations[i]
                assert all(v[s] >= u[s] for s in game.states)


def test_natural_termination_is_pre1_fixpoint():
    from congame.matrix import pre1

    rng = random.Random(43)
    found = 0
    for _ in range(20):
        game = random_concurrent_game(rng, n_states=3)
        target = {game.states[0]}
        result = ReachSIRunner(game, target).run(30)
        if result.status == STATUS_EXACT:
            found += 1
            values, _ = pre1(result.game, result.values)
            assert values == result.values
    assert found > 0


def test_turn_based_fig2_role_swap(fig2_tb):
    # Player 2's reachability perspective: swap ownership, then solve.
    from congame.model import TurnBasedGame, P1, P2

    swapped = TurnBasedGame(
        fig2_tb.states,
        {
            s: (P1 if kind == P2 else P2 if kind == P1 else kind)
            for s, kind in fig2_tb.partition.items()
        },
        fig2_tb.edges,
        fig2_tb.prob,
    )
    result = TurnBasedReachRunner(swapped, {"s4"}).run(1000)
    assert result.values["s0"] == F(1, 3)
    assert result.values["s1"] == F(1, 3)


def test_turn_based_unreachable_target():
    from congame.model import TurnBasedGame, RANDOM

    tb = TurnBasedGame(
        ("x", "goal"),
        {"x": RANDOM, "goal": RANDOM},
        {"x": ("x",), "goal": ("goal",)},
        {"x": {"x": ONE}, "goal": {"goal": ONE}},
    )
    result = TurnBasedReachRunner(tb, {"goal"}).run(1000)
    assert result.values == {"x": ZERO, "goal": ONE}


def test_turn_based_oracle_sample():
    rng = random.Random(44)
    for _ in range(25):
        tb = random_tb_game(rng, n_states=5, max_succ=3)
        target = set(rng.sample(tb.states, rng.randint(1, 2)))
        result = TurnBasedReachRunner(tb, target).run(1000)
        oracle = tb_reach_value_oracle(tb, target)
        assert result.values == oracle
        assert result.iterations <= max(1, pure_strategy_count(tb, "P1"))


def _observed(runner):
    return (
        runner.valuations, runner.improve_set, runner.selector.choice, runner.w2,
        runner.iterations, runner.status,
    )


def test_graph_runner_matches_encoding_step_by_step():
    """The graph runner takes the same rounds as the concurrent path on the
    encoding: the same W2, values, improvement sets and selectors at every
    step, and the same results under a cap."""
    rng = random.Random(2101)
    steps = 0
    for _ in range(300):
        tb = random_tb_game(rng, n_states=rng.randint(2, 25), max_succ=rng.randint(1, 4))
        target = set(rng.sample(tb.states, rng.randint(1, 2)))
        graph = TurnBasedReachRunner(tb, target)
        encoded = EncodedTurnBasedReach(tb, target)
        assert _observed(graph) == _observed(encoded)
        while True:
            progress = graph.step()
            assert encoded.step() == progress
            assert _observed(graph) == _observed(encoded)
            steps += 1
            if not progress:
                break
        for cap in (1, 2, 3):
            capped = TurnBasedReachRunner(tb, target).run(cap)
            assert _observed(capped) == _observed(EncodedTurnBasedReach(tb, target).run(cap))
    assert steps > 300  # some games improve before they stop


def test_dyadic_rounding_is_the_coarsest_reaching_the_floor():
    # Row m0 earns 0 and the rest 1.  j = 1 rounds every other row to 0
    # (value 0), j = 2 rounds each to 1/4, five of which leave m0 a negative
    # rest, and j = 3 gives the others 1/8 each: value 5/8.
    eps = F(1, 1000)
    rows = tuple(f"m{i}" for i in range(6))
    matrix = MatrixGame(rows, ("x",), tuple((ZERO if a == "m0" else ONE,) for a in rows))
    mix = {a: F(1, 6) + 5 * eps if a == "m0" else F(1, 6) - eps for a in rows}
    rounded, value = _dyadic_rounding(matrix, mix, F(1, 2))
    assert value == F(5, 8)
    assert rounded == {"m0": F(3, 8), **{a: F(1, 8) for a in rows[1:]}}
    assert _dyadic_rounding(matrix, mix, ZERO) == ({"m0": ONE}, ZERO)


def test_bounded_bit_witnesses_stay_sound(monkeypatch):
    # A 1-bit bound rounds nearly every witness that is not dyadic.  Every
    # value is still the exact value of the proper selector held (checked
    # again on an absorbing copy), so it stays at most 1 minus player 2's
    # lower bound for avoiding the target.  The reference run takes the
    # exact witnesses, under a bound no denominator reaches.
    rng = random.Random(2502)
    rounded_runs = 0
    for _ in range(300):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 4), max_moves=3)
        target = {game.states[0]}
        monkeypatch.setattr(congame.reach_si, "MAX_WITNESS_BITS", 1)
        bounded = ReachSIRunner(game, target).run(12)
        monkeypatch.setattr(congame.reach_si, "MAX_WITNESS_BITS", 10**9)
        if bounded.valuations == ReachSIRunner(game, target).run(12).valuations:
            continue
        rounded_runs += 1
        assert bounded.values == strategy_value_reach_by_copy(
            bounded.game, bounded.selector, target, bounded.w2
        )
        avoid = ConvergentSafetyRunner(
            swap_players(game), [s for s in game.states if s not in target]
        ).run(12)
        assert all(bounded.values[s] + avoid.values[s] <= ONE for s in game.states)
    assert rounded_runs >= 10
