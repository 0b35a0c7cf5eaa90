from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from congame.examples import load_example
from congame.model import (
    GameStructure,
    P1,
    P2,
    RANDOM,
    Selector,
    TurnBasedGame,
    encode_turn_based_as_concurrent,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@pytest.fixture(scope="session")
def fig1():
    return load_example("fig1")


@pytest.fixture(scope="session")
def fig2_tb():
    return load_example("fig2")


@pytest.fixture(scope="session")
def fig2(fig2_tb):
    return encode_turn_based_as_concurrent(fig2_tb)


@pytest.fixture(scope="session")
def ex3step1():
    return load_example("ex3step1")


@pytest.fixture(scope="session")
def ex3full():
    return load_example("ex3full")


def random_distribution(rng: random.Random, targets: list[str], max_den: int = 4):
    """Random distribution with denominator at most max_den over a small
    random support."""
    den = rng.randint(1, max_den)
    support_size = rng.randint(1, min(2, len(targets), den))
    support = rng.sample(targets, support_size)
    cuts = sorted(rng.sample(range(1, den), support_size - 1)) if support_size > 1 else []
    weights = []
    last = 0
    for cut in cuts + [den]:
        weights.append(cut - last)
        last = cut
    return {t: Fraction(w, den) for t, w in zip(support, weights)}


def random_concurrent_game(
    rng: random.Random,
    n_states: int = 3,
    max_moves: int = 2,
    move_pool: tuple[str, ...] = ("a", "b", "c"),
) -> GameStructure:
    states = [f"q{i}" for i in range(n_states)]
    moves1 = {}
    moves2 = {}
    delta = {}
    used: list[str] = []
    for s in states:
        m1 = rng.randint(1, max_moves)
        m2 = rng.randint(1, max_moves)
        moves1[s] = tuple(move_pool[:m1])
        moves2[s] = tuple(move_pool[:m2])
        for table in (moves1[s], moves2[s]):
            for a in table:
                if a not in used:
                    used.append(a)
        for a in moves1[s]:
            for b in moves2[s]:
                delta[(s, a, b)] = random_distribution(rng, states)
    return GameStructure(tuple(states), tuple(used), moves1, moves2, delta)


def random_tb_game(
    rng: random.Random, n_states: int = 6, max_succ: int = 3
) -> TurnBasedGame:
    states = [f"q{i}" for i in range(n_states)]
    partition = {}
    edges = {}
    prob = {}
    for s in states:
        partition[s] = rng.choice((P1, P2, RANDOM))
        succ_count = rng.randint(1, min(max_succ, n_states))
        succ = tuple(rng.sample(states, succ_count))
        edges[s] = succ
        if partition[s] == RANDOM:
            den = rng.randint(len(succ), len(succ) + 3)
            cuts = (
                sorted(rng.sample(range(1, den), len(succ) - 1))
                if len(succ) > 1
                else []
            )
            weights = []
            last = 0
            for cut in cuts + [den]:
                weights.append(cut - last)
                last = cut
            prob[s] = {t: Fraction(w, den) for t, w in zip(succ, weights)}
    return TurnBasedGame(tuple(states), partition, edges, prob)


def random_selector(rng: random.Random, game) -> Selector:
    """Player-1 selector with a random support and small denominators."""
    choice = {}
    for s in game.states:
        moves = game.moves1[s]
        support = rng.sample(moves, rng.randint(1, len(moves)))
        weights = [rng.randint(1, 3) for _ in support]
        total = sum(weights)
        choice[s] = {a: Fraction(w, total) for a, w in zip(support, weights)}
    return Selector(choice)


def random_valuations(rng: random.Random, states) -> list[dict[str, Fraction]]:
    """A valuation with mixed denominators, and a constant one under which
    every mixture at a state ties."""
    mixed = {}
    for s in states:
        den = rng.choice((1, 2, 3, 5, 7, 12))
        mixed[s] = Fraction(rng.randint(0, den), den)
    return [mixed, dict.fromkeys(states, Fraction(rng.randint(0, 6), 6))]
