from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from congame import (
    GameError,
    GameFormatError,
    GameStructure,
    encode_turn_based_as_concurrent,
    parse_game,
    serialize_game,
    uniform_selector,
)
from congame.gamefile import parse_fraction
from congame.matrix import pre1
from congame.model import P1, RANDOM, TurnBasedGame, indicator

from conftest import random_concurrent_game, random_tb_game
from helpers import (
    destinations,
    is_absorbing,
    is_turn_based,
    make_absorbing,
    pure_selector,
    value_classes,
)

F = Fraction


def test_parse_fig1_structure(fig1):
    assert fig1.states == ("s0", "s1", "s2", "s3", "s4")
    assert fig1.moves1["s3"] == ("a", "b")
    assert fig1.delta[("s2", "⊥", "⊥")] == {"s0": F(1, 2), "s1": F(1, 2)}
    assert is_absorbing(fig1, "s0") and is_absorbing(fig1, "s1")
    assert not is_absorbing(fig1, "s3")


def test_parse_minimal_absorbing_game():
    text = """
    {"type": "concurrent", "states": ["s"],
     "moves1": {"s": ["x"]}, "moves2": {"s": ["y"]},
     "delta": {"s": {"x": {"y": {"s": "1"}}}}}
    """
    game = parse_game(text)
    assert isinstance(game, GameStructure)
    assert is_absorbing(game, "s")


def test_parse_rejects_bad_probability_sum():
    text = """
    {"type": "concurrent", "states": ["s", "t"],
     "moves1": {"s": ["x"], "t": ["x"]}, "moves2": {"s": ["y"], "t": ["y"]},
     "delta": {"s": {"x": {"y": {"s": "1/2", "t": "2/5"}}},
               "t": {"x": {"y": {"t": "1"}}}}}
    """
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert "'s'" in str(err.value) and "9/10" in str(err.value)


@pytest.mark.parametrize(
    "dist, message",
    [
        ({"s": 0.5}, "probability of 's' is not an exact rational"),
        ({"s": 1}, "probability of 's' is not an exact rational"),
        ({"s": F(1, 2), "t": 0.5}, "probability of 't' is not an exact rational"),
        ({"s": F(-1, 4), "t": 0.5}, "negative probability -1/4 for 's'"),
        ({"s": F(5, 4), "t": F(-1, 4)}, "negative probability -1/4 for 't'"),
        ({"s": F(1, 4), "t": F(1, 2)}, "probabilities sum to 3/4, expected 1"),
        ({"s": F(1, 2)}, "probabilities sum to 1/2, expected 1"),
        ({}, "probabilities sum to 0, expected 1"),
    ],
)
def test_distribution_check_messages(dist, message):
    def build(d):
        delta = {("s", "x", "y"): d, ("t", "x", "y"): {"t": F(1)}}
        moves = {"s": ("x",), "t": ("x",)}
        return GameStructure(("s", "t"), ("x", "y"), moves, {"s": ("y",), "t": ("y",)}, delta)

    with pytest.raises(GameError) as err:
        build(dist)
    assert str(err.value) == f"delta('s', 'x', 'y'): {message}"
    build({"s": F(1, 3), "t": F(2, 3)})


def test_random_state_distribution_check_message():
    with pytest.raises(GameError, match=r"^prob\('r'\): probabilities sum to 3/4, expected 1$"):
        TurnBasedGame(("r", "u"), {"r": RANDOM, "u": P1}, {"r": ("r", "u"), "u": ("u",)},
                      {"r": {"r": F(1, 4), "u": F(1, 2)}})


def test_parse_rejects_float_probability():
    text = """
    {"type": "concurrent", "states": ["s"],
     "moves1": {"s": ["x"]}, "moves2": {"s": ["y"]},
     "delta": {"s": {"x": {"y": {"s": 0.5}}}}}
    """
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert "rational" in str(err.value)


def test_parse_rejects_move_outside_assignment():
    text = """
    {"type": "concurrent", "states": ["s"],
     "moves1": {"s": ["x"]}, "moves2": {"s": ["y"]},
     "delta": {"s": {"x": {"y": {"s": "1"}, "z": {"s": "1"}}}}}
    """
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert "'z'" in str(err.value)


def test_parse_rejects_non_string_turn_based_successor():
    text = """
    {"type": "turn-based", "states": ["s0"], "partition": {"s0": "P1"},
     "edges": {"s0": [["s0"]]}}
    """
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert "edges['s0']" in str(err.value)


def test_parse_rejects_unknown_zero_probability_successor():
    # A zero-probability entry names no edge, but it must still name a state.
    text = """
    {"type": "turn-based", "states": ["s0", "s1"], "partition": {"s0": "P1", "s1": "R"},
     "edges": {"s0": ["s1"], "s1": ["s1"]}, "prob": {"s1": {"s1": "1", "zz": "0"}}}
    """
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert "random state 's1': unknown successor 'zz'" in str(err.value)


PARSE_CORPUS = [
    "1", "0", "007", "0/5", "3/6", "00/01", "12/8", "1/0", "1/00", "0/0", " 1/2", "1/2 ",
    "1 /2", "1/-2", "-1/2", "+1", "+1/2", "0.5", ".5", "1_000", "1_0/2", "_1", "1e3", "1E3",
    "١", "١/٢", "½", "", "/", "/2", "1/", "1//2", "1/2/3", "0x10", "nan", "inf",
    "1" * 5000, "1/" + "3" * 5000, 0.5, 1, None, ["1"],
]


@pytest.mark.parametrize("text", PARSE_CORPUS, ids=lambda text: repr(text)[:20])
def test_parse_fraction_agrees_with_fraction(text):
    # What ``Fraction(text)`` accepts, bar exponents, with its value;
    # anything else the one error message of its kind.
    if not isinstance(text, str):
        expected = f"here: probabilities must be exact rational strings, got {text!r}"
    elif "e" in text or "E" in text:
        expected = f"here: cannot parse rational {text!r}"
    else:
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = f"here: cannot parse rational {text!r}"
    if isinstance(expected, Fraction):
        assert parse_fraction(text, "here") == expected
        assert parse_fraction(text, lambda: pytest.fail("located a valid rational")) == expected
    else:
        for where in ("here", lambda: "here"):
            with pytest.raises(GameFormatError) as err:
                parse_fraction(text, where)
            assert str(err.value) == expected


def test_parse_locates_a_bad_rational():
    text = """
    {"type": "concurrent", "states": ["s"], "moves1": {"s": ["x"]}, "moves2": {"s": ["y"]},
     "delta": {"s": {"x": {"y": {"s": "1/0"}}}}}
    """
    with pytest.raises(GameFormatError, match=r"^delta\['s'\]\['x'\]\['y'\]\['s'\]: cannot"):
        parse_game(text)
    text = """
    {"type": "turn-based", "states": ["r"], "partition": {"r": "R"},
     "edges": {"r": ["r"]}, "prob": {"r": {"r": "x"}}}
    """
    with pytest.raises(GameFormatError, match=r"^prob\['r'\]\['r'\]: cannot parse rational 'x'$"):
        parse_game(text)


@pytest.mark.parametrize("key", ["moves1", "moves2"])
def test_parse_rejects_duplicate_move_ids(key):
    moves = {"moves1": {"s0": ["a"]}, "moves2": {"s0": ["c"]}}
    moves[key] = {"s0": ["a", "b", "a"]}
    delta = {a: {b: {"s0": "1"} for b in moves["moves2"]["s0"]} for a in moves["moves1"]["s0"]}
    doc = {"type": "concurrent", "states": ["s0"], **moves, "delta": {"s0": delta}}
    with pytest.raises(GameFormatError) as err:
        parse_game(json.dumps(doc))
    assert f"{key}['s0']" in str(err.value) and "duplicate move" in str(err.value)


@pytest.mark.parametrize("player", [1, 2])
def test_game_structure_rejects_duplicate_move_ids(player):
    twice, once = ("a", "b", "a"), ("c",)
    moves1, moves2 = (twice, once) if player == 1 else (once, twice)
    delta = {("s0", a, b): {"s0": F(1)} for a in moves1 for b in moves2}
    with pytest.raises(GameError) as err:
        GameStructure(("s0",), ("a", "b", "c"), {"s0": moves1}, {"s0": moves2}, delta)
    assert f"duplicate move ids for player {player}" in str(err.value)


def test_round_trip_serialization(fig1, fig2_tb, ex3full):
    for game in (fig1, fig2_tb, ex3full):
        text = serialize_game(game)
        again = parse_game(text)
        assert again == game
        assert serialize_game(again) == text


def test_round_trip_random_games():
    rng = random.Random(11)
    for _ in range(20):
        game = random_concurrent_game(rng)
        assert parse_game(serialize_game(game)) == game
    for _ in range(20):
        tb = random_tb_game(rng)
        assert parse_game(serialize_game(tb)) == tb


def test_make_absorbing_fig1(fig1):
    frozen = make_absorbing(fig1, {"s0", "s1"})
    assert is_absorbing(frozen, "s0") and is_absorbing(frozen, "s1")
    assert frozen.delta[("s3", "a", "⊥")] == fig1.delta[("s3", "a", "⊥")]


def test_make_absorbing_empty_and_idempotent(fig1):
    assert make_absorbing(fig1, set()) == fig1
    once = make_absorbing(fig1, {"s2", "s3"})
    assert make_absorbing(once, {"s2", "s3"}) == once


def test_make_absorbing_all_states_fixpoint():
    rng = random.Random(3)
    game = random_concurrent_game(rng, n_states=3)
    frozen = make_absorbing(game, game.states)
    v = indicator(frozen, {"q1"})
    values, _ = pre1(frozen, v)
    assert values == v


def test_destinations_fig1(fig1):
    mixed = uniform_selector(fig1)
    xi2 = pure_selector(fig1, 2, {})
    pure_a = pure_selector(fig1, 1, {"s3": "a"})
    assert destinations(fig1, "s3", pure_a, xi2) == {"s4"}
    assert destinations(fig1, "s0", pure_a, xi2) == {"s0"}
    assert destinations(fig1, "s3", mixed, xi2) == {"s4", "s2"}


def test_destinations_monotone_in_support():
    rng = random.Random(7)
    for _ in range(30):
        game = random_concurrent_game(rng)
        xi2 = pure_selector(game, 2, {})
        s = rng.choice(game.states)
        small = pure_selector(game, 1, {})
        big = uniform_selector(game)
        assert destinations(game, s, small, xi2) <= destinations(game, s, big, xi2)


def test_uniform_selector(fig1):
    sel = uniform_selector(fig1)
    assert sel.choice["s3"] == {"a": F(1, 2), "b": F(1, 2)}
    assert sel.choice["s0"] == {"⊥": F(1)}


def test_value_classes_fig1_fixpoint(fig1):
    v = {"s0": F(1), "s1": F(0), "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)}
    classes = value_classes(v)
    assert classes.class_of(F(1)) == {"s0"}
    assert classes.class_of(F(0)) == {"s1"}
    assert classes.class_of(F(1, 2)) == {"s2", "s3", "s4"}


def test_value_classes_constant_and_distinct():
    v = {"x": F(1, 3), "y": F(1, 3)}
    assert value_classes(v).classes == {F(1, 3): frozenset({"x", "y"})}
    w = {"x": F(0), "y": F(1)}
    assert set(value_classes(w).values()) == {F(0), F(1)}


def test_value_classes_partition_random():
    rng = random.Random(19)
    for _ in range(25):
        v = {f"s{i}": F(rng.randint(0, 4), 4) for i in range(6)}
        classes = value_classes(v)
        cells = list(classes.classes.values())
        union = set().union(*cells)
        assert union == set(v)
        total = sum(len(c) for c in cells)
        assert total == len(v)


def test_encode_fig2(fig2_tb):
    game = encode_turn_based_as_concurrent(fig2_tb)
    assert game.moves1["s0"] == ("to-s1", "to-s2")
    assert game.moves2["s0"] == ("⊥",)
    assert game.moves2["s1"] == ("to-s0", "to-s3")
    assert game.delta[("s2", "⊥", "⊥")] == {"s4": F(2, 3), "s5": F(1, 3)}


def test_encode_decode_round_trip(fig2_tb):
    game = encode_turn_based_as_concurrent(fig2_tb)
    back = is_turn_based(game)
    assert back is not None
    assert back.partition["s0"] == "P1"
    assert back.partition["s1"] == "P2"
    assert back.partition["s2"] == "R"
    assert back.edges["s0"] == ("s1", "s2")
    assert back.prob["s3"] == {"s5": F(2, 3), "s4": F(1, 3)}


def test_is_turn_based_rejects_concurrent(ex3step1):
    assert is_turn_based(ex3step1) is None


def test_single_random_absorbing_state_encodes():
    tb = parse_game(
        """
        {"type": "turn-based", "states": ["s"], "partition": {"s": "R"},
         "edges": {"s": ["s"]}, "prob": {"s": {"s": "1"}}}
        """
    )
    game = encode_turn_based_as_concurrent(tb)
    assert game.moves1["s"] == ("⊥",)
    assert is_absorbing(game, "s")


def test_selector_validation_rejects_unavailable_move(fig1):
    with pytest.raises(GameError):
        pure_selector(fig1, 1, {"s0": "a"})
