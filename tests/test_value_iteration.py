from __future__ import annotations

import random
from fractions import Fraction

import pytest

from congame import (
    HypothesisViolation,
    ValueIterationRunner,
    eta_achieved_values,
    extract_eta_selector,
    strategy_value_safety,
)

from conftest import ONE, ZERO, random_concurrent_game
from oracles import (
    NotAFixpoint,
    extract_optimal_safety_selector,
    reach_value_iteration,
    safety_value_iteration_upper,
    value_class_structure_ok,
)

F = Fraction


def reach_vi(game, T, cap):
    return ValueIterationRunner.reach(game, T).run(cap)


def safety_vi(game, safe, cap):
    return ValueIterationRunner.safety(game, safe).run(cap)


def fig1_table():
    return [
        {"s0": ONE, "s1": ZERO, "s2": ZERO, "s3": ZERO, "s4": ZERO},
        {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": ZERO, "s4": ZERO},
        {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": ZERO},
        {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)},
        {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)},
    ]


def test_vi_fig1_full_table(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    assert runner.valuations == fig1_table()
    assert runner.finished
    assert runner.valuations[4] == runner.valuations[3]


def test_vi_target_everything(fig1):
    runner = reach_vi(fig1, fig1.states, 3)
    assert all(u == {s: ONE for s in fig1.states} for u in runner.valuations)


def test_vi_ex3step1_prefix(ex3step1):
    runner = reach_vi(ex3step1, {"s1"}, 4)
    assert [u["s0"] for u in runner.valuations] == [ZERO, F(1, 2), F(4, 7), F(7, 12), F(24, 41)]
    assert not runner.finished


def test_vi_monotone_random():
    rng = random.Random(31)
    for _ in range(20):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = reach_vi(game, target, 8)
        for earlier, later in zip(runner.valuations, runner.valuations[1:]):
            assert all(earlier[s] <= later[s] for s in game.states)


def test_entry_times_fig1(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    assert runner.entry_time("s0", 3) == 0
    assert runner.entry_time("s2", 3) == 1
    assert runner.entry_time("s3", 3) == 2
    assert runner.entry_time("s4", 3) == 3
    assert runner.entry_time("s4", 4) == 3


def test_eta_selector_fig1(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    eta3 = extract_eta_selector(runner, 3)
    assert eta3["s3"] == {"b": ONE}
    # target and value-zero states fall back to uniform
    assert eta3["s0"] == {"⊥": ONE}


def test_eta_selector_stable_after_fixpoint(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    assert extract_eta_selector(runner, 4) == extract_eta_selector(runner, 3)


def test_eta_achieves_previous_iterate(fig1):
    # The entry-time selector satisfies Pre_{1:eta_k}(u_{k-1}) = u_k exactly.
    from helpers import pre1_sel

    runner = reach_vi(fig1, {"s0"}, 10)
    for k in (2, 3, 4):
        eta = extract_eta_selector(runner, k)
        for s in runner.game.states:
            assert pre1_sel(runner.game, runner.valuations[k - 1], s, eta) == runner.valuations[k][s]


def test_eta_is_value_achieving_fig1(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    selector, _ = eta_achieved_values(runner, 4)
    assert selector == extract_eta_selector(runner, 4)


def test_eta_hypothesis_violation_small_k(fig1):
    runner = reach_vi(fig1, {"s0"}, 10)
    with pytest.raises(HypothesisViolation):
        eta_achieved_values(runner, 1)


def test_eta_single_state_game():
    rng = random.Random(32)
    game = random_concurrent_game(rng, n_states=1)
    runner = reach_vi(game, {"q0"}, 3)
    selector, _ = eta_achieved_values(runner, 1)
    assert selector == extract_eta_selector(runner, 1)


def test_value_class_structure_on_vi_traces():
    # At every state of a positive value class, each adversary response
    # either can climb to a higher class or stays inside the class with some
    # successor of strictly smaller entry time.
    rng = random.Random(33)
    checked = 0
    for _ in range(15):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = reach_vi(game, target, 6)
        for k in range(1, len(runner.valuations)):
            checked += value_class_structure_ok(runner, k, target)
    assert checked > 0


def test_safety_upper_all_safe_absorbing():
    rng = random.Random(34)
    game = random_concurrent_game(rng, n_states=3)
    from helpers import make_absorbing

    frozen = make_absorbing(game, game.states)
    iterates = safety_vi(frozen, frozen.states, 4).valuations
    assert all(w == {s: ONE for s in frozen.states} for w in iterates)


def test_safety_upper_fig2(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    iterates = safety_vi(fig2, safe, 20).valuations
    expected = {"s0": F(2, 3), "s1": F(2, 3), "s2": F(1, 3), "s3": F(2, 3), "s4": ZERO, "s5": ONE}
    assert iterates[-1] == expected
    assert iterates[-2] == expected  # reached the fixpoint exactly
    for earlier, later in zip(iterates, iterates[1:]):
        assert all(earlier[s] >= later[s] for s in fig2.states)


def test_safety_upper_ex3step1_descends(ex3step1):
    safe = ["s0", "s1"]
    iterates = safety_vi(ex3step1, safe, 12).valuations
    at_s0 = [w["s0"] for w in iterates]
    for earlier, later in zip(at_s0, at_s0[1:]):
        assert later <= earlier
    # stays strictly above the irrational value 2 - sqrt(2), i.e. inside the
    # interval where x^2 - 4x + 2 < 0
    assert all(x * x - 4 * x + 2 < 0 for x in at_s0)
    assert at_s0[1] == ONE and at_s0[2] == F(2, 3) and at_s0[3] == F(3, 5)


def test_extract_safety_selector_fig2(fig2):
    # At the fixpoint the last round's witness is the optimal selector.
    safe = [s for s in fig2.states if s != "s4"]
    v = {"s0": F(2, 3), "s1": F(2, 3), "s2": F(1, 3), "s3": F(2, 3), "s4": ZERO, "s5": ONE}
    runner = safety_vi(fig2, safe, 20)
    assert runner.finished and runner.values == v
    selector = runner.witnesses[-1]
    assert selector == extract_optimal_safety_selector(fig2, v, safe)
    assert selector["s0"] == {"to-s1": ONE}
    achieved = strategy_value_safety(fig2, selector, safe)
    assert all(achieved[s] >= v[s] for s in fig2.states)


def test_extract_safety_selector_all_safe():
    rng = random.Random(35)
    game = random_concurrent_game(rng, n_states=3)
    from helpers import make_absorbing

    frozen = make_absorbing(game, frozen_states := set(game.states))
    v = {s: ONE for s in game.states}
    runner = safety_vi(frozen, frozen_states, 5)
    assert runner.finished and runner.iterations == 1 and runner.values == v
    selector = runner.witnesses[-1]
    assert selector == extract_optimal_safety_selector(frozen, v, frozen_states)
    achieved = strategy_value_safety(frozen, selector, frozen_states)
    assert achieved == v


def test_extract_safety_selector_rejects_non_fixpoint(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    v = {s: F(1, 2) for s in fig2.states}
    with pytest.raises(NotAFixpoint):
        extract_optimal_safety_selector(fig2, v, safe)


def test_eta_identity_on_random_traces():
    # Pre_{1:eta_k}(u_{k-1}) = u_k on every run, not just the worked example.
    from helpers import make_absorbing, pre1_sel

    rng = random.Random(36)
    for _ in range(10):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = reach_vi(game, target, 5)
        # The iteration holds the target and value-zero states.
        held = make_absorbing(game, runner.target | runner.w2)
        for k in range(1, len(runner.valuations)):
            eta = extract_eta_selector(runner, k)
            for s in game.states:
                assert pre1_sel(held, runner.valuations[k - 1], s, eta) == runner.valuations[k][s]


def test_runner_matches_the_reference_loops():
    # Both objectives against the standalone loops, with natural stops and
    # caps: every iterate, every reach witness, the round count and the
    # fixpoint flag, and at a safety fixpoint the last witness against the
    # reference extraction.
    rng = random.Random(37)
    seen = {"reach-exact": 0, "reach-capped": 0, "safe-exact": 0, "safe-capped": 0}
    for _ in range(240):
        game = random_concurrent_game(rng, n_states=rng.randint(1, 4), max_moves=3)
        chosen = rng.sample(game.states, rng.randint(1, len(game.states)))
        cap = rng.randint(1, 8)

        runner = reach_vi(game, chosen, cap)
        valuations, witnesses, converged = reach_value_iteration(game, chosen, cap)
        assert runner.valuations == valuations
        assert runner.witnesses == witnesses
        assert runner.iterations == len(valuations) - 1
        assert runner.finished == converged
        seen["reach-exact" if converged else "reach-capped"] += 1

        runner = safety_vi(game, chosen, cap)
        iterates = safety_value_iteration_upper(game, chosen, cap)
        assert runner.valuations == iterates
        assert runner.iterations == len(iterates) - 1
        exact = len(iterates) >= 2 and iterates[-1] == iterates[-2]
        assert runner.finished == exact
        assert len(runner.witnesses) == len(iterates)
        if exact:
            reference = extract_optimal_safety_selector(game, iterates[-1], chosen)
            assert runner.witnesses[-1] == reference
        seen["safe-exact" if exact else "safe-capped"] += 1
    assert min(seen.values()) >= 40, seen
