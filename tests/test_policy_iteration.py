"""Policy iteration in ``max_reach_values`` against independent references:
the reachability linear program (solved by the simplex), absorption
probabilities of Markov chains, and a hand case for the strict-switch rule."""

from __future__ import annotations

import random
from fractions import Fraction

import congame.linprog
import congame.mdp
from congame import (
    InducedMDP,
    compute_W2,
    induce_mdp,
    max_reach_values,
    strategy_value_reach,
    strategy_value_safety,
    uniform_selector,
)

from conftest import ONE, random_concurrent_game, random_selector
from helpers import make_absorbing
from oracles import chain_reach, lp_max_reach_values

F = Fraction


def random_game(rng: random.Random):
    return random_concurrent_game(rng, n_states=rng.randint(2, 7), max_moves=3)


def test_matches_lp_on_reach_path():
    rng = random.Random(31)
    for _ in range(60):
        game = random_game(rng)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        w2 = compute_W2(game, target)
        frozen = make_absorbing(game, target | w2)
        mdp = induce_mdp(frozen, random_selector(rng, frozen))
        for goal in (w2, target):
            assert max_reach_values(mdp, goal) == lp_max_reach_values(mdp, goal)


def test_matches_lp_on_safety_path():
    rng = random.Random(32)
    for _ in range(60):
        game = random_game(rng)
        unsafe = set(rng.sample(game.states, rng.randint(1, len(game.states) - 1 or 1)))
        mdp = induce_mdp(make_absorbing(game, unsafe), random_selector(rng, game))
        assert max_reach_values(mdp, unsafe) == lp_max_reach_values(mdp, unsafe)


def test_matches_lp_without_absorbing_targets():
    rng = random.Random(33)
    for _ in range(40):
        game = random_game(rng)
        mdp = induce_mdp(game, random_selector(rng, game))
        targets = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        assert max_reach_values(mdp, targets) == lp_max_reach_values(mdp, targets)


def test_matches_chain_reach_with_one_action_per_state():
    rng = random.Random(34)
    for _ in range(40):
        game = random_game(rng)
        full = induce_mdp(game, random_selector(rng, game))
        picks = {s: rng.choice(full.actions[s]) for s in full.states}
        mdp = InducedMDP(
            full.states,
            {s: (picks[s],) for s in full.states},
            {(s, picks[s]): full.delta2[(s, picks[s])] for s in full.states},
        )
        targets = set(rng.sample(full.states, rng.randint(1, 2)))
        trans = {s: mdp.delta2[(s, picks[s])] for s in mdp.states}
        assert max_reach_values(mdp, targets) == chain_reach(mdp.states, trans, targets)


def test_tie_with_self_loop_does_not_switch():
    # At s the self-loop comes first and ties with "go" once "go" is
    # evaluated (both give 1/2); switching on a tie would make the policy
    # improper and its linear system singular.
    mdp = InducedMDP(
        ("s", "goal", "sink"),
        {"s": ("stay", "go"), "goal": ("x",), "sink": ("x",)},
        {
            ("s", "stay"): {"s": ONE},
            ("s", "go"): {"goal": F(1, 2), "sink": F(1, 2)},
            ("goal", "x"): {"goal": ONE},
            ("sink", "x"): {"sink": ONE},
        },
    )
    assert max_reach_values(mdp, {"goal"}) == {"s": F(1, 2), "goal": ONE, "sink": 0}


def test_no_simplex_in_mdp_evaluation(monkeypatch, fig1):
    def refuse(*args, **kwargs):
        raise AssertionError("simplex called")

    monkeypatch.setattr(congame.linprog, "solve_lp", refuse)
    # Also catches a by-name import of the simplex into the MDP module.
    monkeypatch.setattr(congame.mdp, "solve_lp", refuse, raising=False)
    rng = random.Random(35)
    for _ in range(10):
        game = random_game(rng)
        mdp = induce_mdp(game, random_selector(rng, game))
        max_reach_values(mdp, {game.states[0]})
        strategy_value_safety(game, random_selector(rng, game), game.states[1:])
    w2 = compute_W2(fig1, {"s0"})
    assert strategy_value_reach(fig1, uniform_selector(fig1), {"s0"}, w2)["s0"] == ONE

