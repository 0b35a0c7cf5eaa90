"""Held states by ``done`` sets against the absorbing copies they replace.

Every routine that holds states (``pre1``, ``induce_mdp``,
``tb_reduction`` and value iteration for both objectives) must
return exactly what the same computation returns on
``helpers.make_absorbing`` of the game with nothing held, including the
witnesses at held states.  ``improvement_switches`` holds W1 and the
unsafe states itself, so it must return the same on the game and on the
copy with those states absorbing.  The games are random, and between them the held
states take every shape from 1 x 1 to 3 x 3 moves.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from congame import (
    GameError,
    ValueIterationRunner,
    improvement_switches,
    induce_mdp,
    pre1,
    tb_reduction,
    uniform_selector,
)
from congame.model import ONE, ZERO, indicator

from conftest import random_concurrent_game, random_selector
from helpers import make_absorbing
from oracles import NotAFixpoint, extract_optimal_safety_selector

VALUES = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(1, 2), Fraction(2, 5))


def _cases(seed: int, count: int):
    """Random games with 3 moves at most per player, a random valuation
    over a few constants, and a random nonempty held set."""
    rng = random.Random(seed)
    for _ in range(count):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 5), max_moves=3)
        v = {s: rng.choice(VALUES) for s in game.states}
        done = frozenset(s for s in game.states if rng.random() < 0.5)
        yield rng, game, v, done or frozenset(game.states[:1])


def test_held_shapes_are_covered():
    shapes = {
        (len(game.moves1[s]), len(game.moves2[s]))
        for _, game, _, done in _cases(61, 80)
        for s in done
    }
    assert shapes == {(m, n) for m in (1, 2, 3) for n in (1, 2, 3)}


def test_pre1_holds_like_a_copy():
    for _, game, v, done in _cases(61, 80):
        for k in (None, 1, 2, 3):
            values, witness = pre1(game, v, done, k)
            ref_values, ref_witness = pre1(make_absorbing(game, done), v, k=k)
            assert values == ref_values
            assert witness.choice == ref_witness.choice


def test_induce_mdp_holds_like_a_copy():
    for rng, game, _, done in _cases(62, 80):
        xi = random_selector(rng, game)
        assert induce_mdp(game, xi, done) == induce_mdp(make_absorbing(game, done), xi)


@pytest.mark.parametrize("k", [None, 1, 2, 3, 4])
def test_tb_reduction_holds_like_a_copy(k):
    for rng, game, v, done in _cases(63, 60):
        safe = {s for s in game.states if rng.random() < 0.7}
        got = tb_reduction(game, v, safe, done, k)
        ref = tb_reduction(make_absorbing(game, done), v, safe, k=k)
        assert got.game == ref.game
        assert got.back_map == ref.back_map
        assert got.witness_store == ref.witness_store
        assert got.safe_bar == ref.safe_bar


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_improvement_switches_holds_like_a_copy(k):
    # Switches are compared in dict order, witnesses included.
    nonlocal_switches = 0
    for rng, game, v, w1 in _cases(64, 80):
        safe = {s for s in game.states if rng.random() < 0.7}
        frozen = make_absorbing(game, w1 | (set(game.states) - safe))
        switches, nonlocal_step = improvement_switches(game, v, safe, w1, k)
        ref_switches, ref_nonlocal = improvement_switches(frozen, v, safe, w1, k)
        assert list(switches.items()) == list(ref_switches.items())
        assert nonlocal_step == ref_nonlocal
        nonlocal_switches += nonlocal_step and bool(switches)
    assert nonlocal_switches >= 5


def test_reach_value_iteration_holds_like_a_copy():
    for rng, game, _, _ in _cases(65, 60):
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = ValueIterationRunner.reach(game, target).run(6)
        frozen = make_absorbing(game, runner.target | runner.w2)
        u = indicator(frozen, runner.target)
        assert runner.valuations[0] == u
        for k in range(1, len(runner.valuations)):
            u, witness = pre1(frozen, u)
            assert runner.valuations[k] == u
            assert runner.witnesses[k].choice == witness.choice


def test_safety_selector_extraction_holds_like_a_copy():
    fixpoints = 0
    for rng, game, v, _ in _cases(66, 80):
        safe = [s for s in game.states if rng.random() < 0.6] or [game.states[0]]
        unsafe = set(game.states) - set(safe)
        frozen = make_absorbing(game, unsafe)
        # Every round of the safety iteration is min([F], Pre1) on the copy,
        # witnesses included.
        runner = ValueIterationRunner.safety(game, safe).run(12)
        w = {s: ONE for s in game.states}
        for k in range(1, len(runner.valuations)):
            values, witness = pre1(frozen, w)
            w = {s: ZERO if s in unsafe else values[s] for s in game.states}
            assert runner.valuations[k] == w
            assert runner.witnesses[k].choice == witness.choice
        # Both are zero where unsafe.  The last iterate is often a fixpoint;
        # the random valuation seldom is.
        for w in (runner.values, {s: 0 if s in unsafe else v[s] for s in game.states}):
            values, witness = pre1(frozen, w)
            if values != w:
                with pytest.raises(NotAFixpoint):
                    extract_optimal_safety_selector(game, w, safe)
                continue
            assert extract_optimal_safety_selector(game, w, safe).choice == witness.choice
            fixpoints += 1
    assert fixpoints > 10


def test_unknown_held_state_is_an_error(fig1):
    with pytest.raises(GameError, match="unknown states"):
        induce_mdp(fig1, uniform_selector(fig1), {"nowhere"})
