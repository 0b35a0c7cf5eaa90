"""The runner contract every capped loop keeps.

The loop part, for every runner: a ``step()`` only appends to the
valuation trace, and returns True until the fixpoint; ``run(n)`` stops at
``n`` steps with status capped, or earlier at the fixpoint with status
exact; a ``step()`` after the fixpoint returns False and changes nothing.
The improvement part: after every ``step()`` the runner's selector
achieves its values exactly on the original game (and is pure on a
turn-based game), and the trace never decreases.  Value iteration records
one witness per iterate instead, and its trace rises (reach) or falls
(safety) monotonically.
"""

from __future__ import annotations

import random

import pytest

from congame import (
    ConvergentSafetyRunner,
    ReachSIRunner,
    SafetySIRunner,
    TurnBasedReachRunner,
    ValueIterationRunner,
    compute_W2,
    strategy_value_reach,
    strategy_value_safety,
)
from congame.model import TurnBasedGame, encode_turn_based_as_concurrent
from congame.reach_si import STATUS_CAPPED, STATUS_EXACT

from conftest import random_tb_game
from helpers import load_example

CAP = 4
FIG2 = load_example("fig2")
RANDOM_TB = random_tb_game(random.Random(3), n_states=6, max_succ=3)

# case -> (example name or turn-based game, objective kind, target or
# unsafe state, runner factory, status of run(CAP))
CASES = {
    "reach-fig1": ("fig1", "reach", {"s0"}, ReachSIRunner, STATUS_EXACT),
    "tb-reach-fig2": (
        FIG2, "reach", {"s2"}, lambda g, T: TurnBasedReachRunner(FIG2, T), STATUS_EXACT,
    ),
    "tb-reach-random": (
        RANDOM_TB, "reach", {"q5"}, lambda g, T: TurnBasedReachRunner(RANDOM_TB, T),
        STATUS_EXACT,
    ),
    "reach-ex3step1": ("ex3step1", "reach", {"s1"}, ReachSIRunner, STATUS_CAPPED),
    "safety-si-fig2": ("fig2", "safe", "s4", SafetySIRunner, STATUS_EXACT),
    "safety-si-ex3full": ("ex3full", "safe", "s2", SafetySIRunner, STATUS_CAPPED),
    "k-uniform5-ex3full": (
        "ex3full", "safe", "s2", lambda g, F: SafetySIRunner(g, F, k=5), STATUS_EXACT,
    ),
    "convergent-fig2": ("fig2", "safe", "s4", ConvergentSafetyRunner, STATUS_EXACT),
    "convergent-ex3full": ("ex3full", "safe", "s2", ConvergentSafetyRunner, STATUS_CAPPED),
    "vi-reach-fig1": ("fig1", "reach", {"s0"}, ValueIterationRunner.reach, STATUS_EXACT),
    "vi-reach-ex3step1": (
        "ex3step1", "reach", {"s1"}, ValueIterationRunner.reach, STATUS_CAPPED,
    ),
    "vi-safe-fig2": ("fig2", "safe", "s3", ValueIterationRunner.safety, STATUS_EXACT),
    "vi-safe-ex3full": ("ex3full", "safe", "s2", ValueIterationRunner.safety, STATUS_CAPPED),
}


def _setup(case):
    example, kind, states, factory, _ = CASES[case]
    game = load_example(example) if isinstance(example, str) else example
    if isinstance(game, TurnBasedGame):
        game = encode_turn_based_as_concurrent(game)
    if kind == "reach":
        w2 = compute_W2(game, states)

        def achieved(selector):
            return strategy_value_reach(game, selector, states, w2)

        return game, states, factory, achieved
    safe = [s for s in game.states if s != states]

    def achieved(selector):
        return strategy_value_safety(game, selector, safe)

    return game, safe, factory, achieved


@pytest.mark.parametrize("case", list(CASES))
def test_runner_contract(case):
    game, objective, factory, achieved = _setup(case)
    runner = factory(game, objective)
    pure = case.startswith("tb-")
    vi = case.startswith("vi-")
    # Value iteration for safety descends; everything else rises.
    descends = vi and CASES[case][1] == "safe"
    while runner.iterations < CAP:
        before = list(runner.valuations)
        progress = runner.step()
        if vi:
            assert len(runner.witnesses) == len(runner.valuations)
        else:
            assert achieved(runner.selector) == runner.values
        if pure:
            assert all(list(d.values()) == [1] for d in runner.selector.values())
        assert runner.valuations[: len(before)] == before
        for earlier, later in zip(runner.valuations, runner.valuations[1:]):
            if descends:
                earlier, later = later, earlier
            assert all(earlier[s] <= later[s] for s in game.states)
        assert progress == (not runner.finished)
        if runner.finished:
            break

    if runner.finished:
        iterations, valuations = runner.iterations, list(runner.valuations)
        selector = _selector(runner)
        assert runner.step() is False
        assert runner.iterations == iterations
        assert runner.valuations == valuations
        assert _selector(runner) == selector

    capped = factory(game, objective).run(CAP)
    assert capped.status == CASES[case][-1]
    assert capped.iterations == runner.iterations
    if capped.status == STATUS_CAPPED:
        assert capped.iterations == CAP and not capped.finished
    else:
        assert capped.iterations <= CAP and capped.finished
    assert capped.valuations == runner.valuations
    assert _selector(capped) == _selector(runner)


def _selector(runner):
    """The improvement selector's choices, or value iteration's witnesses'."""
    if isinstance(runner, ValueIterationRunner):
        return runner.witnesses
    return runner.selector
