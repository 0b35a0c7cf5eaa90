from __future__ import annotations

import random
from fractions import Fraction


from congame import (
    ReachSIRunner,
    TurnBasedReachRunner,
    compute_W2,
    reach_value_iteration,
    run_reach_si,
    run_reach_si_turn_based,
    strategy_value_reach,
    uniform_selector,
)
from congame.reach_si import STATUS_CAPPED, STATUS_EXACT

from conftest import ONE, ZERO, random_concurrent_game, random_tb_game
from helpers import is_proper
from oracles import EncodedTurnBasedReach, pure_strategy_count, tb_reach_value_oracle

F = Fraction


def test_fig1_terminates_immediately(fig1):
    result = run_reach_si(fig1, {"s0"})
    assert result.status == STATUS_EXACT
    assert result.iterations == 1
    assert result.values == {
        "s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)
    }


def test_target_everything(fig1):
    result = run_reach_si(fig1, fig1.states)
    assert result.status == STATUS_EXACT
    assert all(result.values[s] == 1 for s in fig1.states)


def test_ex3step1_trace(ex3step1):
    result = run_reach_si(ex3step1, {"s1"}, max_iters=50)
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
        result = run_reach_si(game, target, max_iters=steps)
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
        result = run_reach_si(game, target, max_iters=30)
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
    result = run_reach_si_turn_based(swapped, {"s4"})
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
    result = run_reach_si_turn_based(tb, {"goal"})
    assert result.values == {"x": ZERO, "goal": ONE}


def test_turn_based_oracle_sample():
    rng = random.Random(44)
    for _ in range(25):
        tb = random_tb_game(rng, n_states=5, max_succ=3)
        target = set(rng.sample(tb.states, rng.randint(1, 2)))
        result = run_reach_si_turn_based(tb, target)
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
            capped = run_reach_si_turn_based(tb, target, max_iters=cap)
            assert _observed(capped) == _observed(EncodedTurnBasedReach(tb, target).run(cap))
    assert steps > 300  # some games improve before they stop
