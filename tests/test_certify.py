from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import pytest

from congame import (
    ConvergentSafetyRunner,
    GameStructure,
    SafetySIRunner,
    ValueIterationRunner,
    compute_W2,
    strategy_value_reach,
    strategy_value_safety,
    swap_players,
)
from congame.certify import Certifier
from congame.cli import main
from congame.gamefile import parse_game, serialize_game
from congame.reach_si import STATUS_CAPPED, STATUS_EPS, STATUS_EXACT

from conftest import ONE, random_concurrent_game, random_distribution
from helpers import check_determinacy_bracket
from oracles import safety_value_iteration_upper

F = Fraction

# 2 - sqrt(2) to 30 decimal digits, as an exact rational bracket.
TWO_MINUS_SQRT2_LO = F("585786437626904951198311275790") / 10**30
TWO_MINUS_SQRT2_HI = F("585786437626904951198311275791") / 10**30


def test_certify_fig2_exact(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    certifier = Certifier(fig2, safe, F(1, 100)).run(200)
    assert certifier.status == STATUS_EXACT
    assert certifier.exact_values is not None
    assert certifier.exact_values["s0"] == F(2, 3)
    assert certifier.values["s0"] == F(2, 3)
    assert certifier.reach.values["s0"] == F(1, 3)
    assert certifier.gap == 0
    # exact values satisfy the safety fixpoint identity v = min([F], Pre1(v))
    from congame.matrix import pre1

    v = certifier.exact_values
    pre_vals, _ = pre1(fig2, v)
    for s in fig2.states:
        bound = ONE if s in set(safe) else F(0)
        assert v[s] == min(bound, pre_vals[s])


def test_certify_ex3full_eps(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    certifier = Certifier(ex3full, safe, F(1, 100)).run(200)
    assert certifier.status == STATUS_EPS
    assert certifier.gap <= F(1, 100)
    assert certifier.values["s3"] == F(3, 5)
    v0 = certifier.values["s0"]
    assert TWO_MINUS_SQRT2_LO - F(1, 100) <= v0 <= TWO_MINUS_SQRT2_HI
    # both bounds bracket the true value
    assert v0 <= TWO_MINUS_SQRT2_HI
    assert ONE - certifier.reach.values["s0"] >= TWO_MINUS_SQRT2_LO


def test_certify_all_safe(ex3step1):
    certifier = Certifier(ex3step1, ex3step1.states, F(1, 100)).run(200)
    assert certifier.status == STATUS_EXACT
    assert certifier.exact_values == {s: ONE for s in ex3step1.states}


def test_certify_witnesses_achieve_bounds(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    certifier = Certifier(ex3full, safe, F(1, 100)).run(200)
    achieved = strategy_value_safety(ex3full, certifier.selector, safe)
    assert achieved == certifier.values
    swapped = swap_players(ex3full)
    complement = ["s2"]
    w2 = compute_W2(swapped, complement)
    achieved2 = strategy_value_reach(swapped, certifier.reach.selector, complement, w2)
    assert achieved2 == certifier.reach.values


def test_certify_rejects_bad_eps(fig2):
    with pytest.raises(ValueError):
        Certifier(fig2, fig2.states, F(0))


def test_certify_rejects_zero_rounds(fig2):
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        Certifier(fig2, fig2.states, F(1, 100)).run(0)


def test_certifier_rounds_are_capped_and_step_a_side(ex3full):
    # Each round steps at least one side, and run(cap) stops within cap
    # rounds; resuming a capped run continues the same sequence.
    safe = [s for s in ex3full.states if s != "s2"]
    certifier = Certifier(ex3full, safe, F(1, 10**6))
    for cap in (1, 2, 3):
        sides = certifier.safety.iterations + certifier.reach.iterations
        certifier.run(cap)
        assert certifier.iterations == cap and certifier.status == STATUS_CAPPED
        assert certifier.safety.iterations + certifier.reach.iterations > sides
        assert certifier.exact_values is None
    once = Certifier(ex3full, safe, F(1, 10**6)).run(3)
    assert once.valuations == certifier.valuations
    assert once.reach.valuations == certifier.reach.valuations


def test_determinacy_bracket_fig1_complement(fig1):
    safe = [s for s in fig1.states if s != "s0"]
    report = check_determinacy_bracket(fig1, safe, iters=3)
    assert report.ok
    assert report.gaps[0] == 0


def test_determinacy_bracket_trivial_one_state():
    from congame.model import GameStructure

    game = GameStructure(
        ("s",), ("x",), {"s": ("x",)}, {"s": ("x",)}, {("s", "x", "x"): {"s": ONE}}
    )
    report = check_determinacy_bracket(game, {"s"}, iters=2)
    assert report.ok
    assert report.gaps[0] == 0


def test_determinacy_bracket_random():
    rng = random.Random(61)
    for _ in range(8):
        game = random_concurrent_game(rng, n_states=3)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        report = check_determinacy_bracket(game, safe, iters=10)
        assert report.ok, report.violations
        for earlier, later in zip(report.gaps, report.gaps[1:]):
            assert later <= earlier


def _planted(certifier, u, v):
    """``certifier`` with ``u`` as the reach side's values and ``v`` as the
    safety side's."""
    certifier.reach.valuations = [u]
    certifier.safety.valuations = [v]
    return certifier


def test_gap_names_the_first_state_where_determinacy_fails():
    # u + v > 1 at q1 and q3: the check names q1, the first in state order.
    game = random_concurrent_game(random.Random(3803), n_states=4)
    certifier = Certifier(game, ["q0", "q1"], F(1, 100))
    u = {"q0": F(1, 2), "q1": F(3, 4), "q2": F(1, 3), "q3": F(1, 2)}
    v = {"q0": F(1, 2), "q1": F(1, 2), "q2": F(0), "q3": F(2, 3)}
    with pytest.raises(AssertionError) as violated:
        _planted(certifier, u, v).gap
    assert str(violated.value) == "determinacy violated at 'q1': u=3/4, v=1/2"
    u["q1"] = F(1, 2)
    with pytest.raises(AssertionError) as violated:
        _planted(certifier, dict(u), v).gap
    assert str(violated.value) == "determinacy violated at 'q3': u=1/2, v=2/3"


def test_gap_is_the_largest_bracket_width():
    rng = random.Random(3804)
    game = random_concurrent_game(rng, n_states=4)
    certifier = Certifier(game, ["q0", "q1"], F(1, 100))
    for _ in range(300):
        u = {s: F(rng.randint(0, 12), 12) for s in game.states}
        v = {s: (1 - u[s]) * F(rng.randint(0, 5), 5) for s in game.states}
        assert _planted(certifier, u, v).gap == max(1 - u[s] - v[s] for s in game.states)


def _assert_sandwich(game, safe, reach_rounds):
    """Every achieved safety value (plain and convergent improvement, the
    certifier) sits below every safety value-iteration iterate, and every
    reach value-iteration iterate of player 2 below one minus each of the
    certifier's lower bounds.  True if the certifier's last lower bound is
    strictly between 0 and 1 somewhere."""
    uppers = ValueIterationRunner.safety(game, safe).run(8).valuations
    certifier = Certifier(game, safe, F(1, 100)).run(200)
    lowers = [
        *SafetySIRunner(game, safe).run(4).valuations,
        *ConvergentSafetyRunner(game, safe).run(4).valuations,
        *certifier.valuations,
    ]
    for v in lowers:
        for w in uppers:
            assert all(v[s] <= w[s] for s in game.states)
    unsafe = [s for s in game.states if s not in set(safe)]
    reach = ValueIterationRunner.reach(swap_players(game), unsafe).run(reach_rounds)
    for u in reach.valuations:
        for v in certifier.valuations:
            assert all(u[s] <= 1 - v[s] for s in game.states)
    return any(0 < x < 1 for x in certifier.values.values())


def _game_with_sinks(rng):
    """One to three states with 1-3 moves per player, every move pair
    going to them or to the absorbing ``good`` and ``bad``, so that
    safety values strictly between 0 and 1 are common."""
    inner = [f"q{i}" for i in range(rng.randint(1, 3))]
    states = inner + ["good", "bad"]
    moves1 = {"good": ("a",), "bad": ("a",)}
    moves2 = {"good": ("a",), "bad": ("a",)}
    delta = {("good", "a", "a"): {"good": ONE}, ("bad", "a", "a"): {"bad": ONE}}
    for s in inner:
        moves1[s] = ("a", "b", "c")[: rng.randint(1, 3)]
        moves2[s] = ("a", "b", "c")[: rng.randint(1, 3)]
        for a in moves1[s]:
            for b in moves2[s]:
                delta[(s, a, b)] = random_distribution(rng, states, max_den=5)
    return GameStructure(tuple(states), ("a", "b", "c"), moves1, moves2, delta)


def test_sandwich_lower_iterates_below_upper_iterates(ex3full):
    _assert_sandwich(ex3full, [s for s in ex3full.states if s != "s2"], 10)
    rng = random.Random(63)
    fractional = 0
    for i in range(130):
        if i < 30:
            game = random_concurrent_game(rng, n_states=rng.randint(2, 4), max_moves=3)
            safe = rng.sample(game.states, rng.randint(1, len(game.states)))
        else:
            game = _game_with_sinks(rng)
            safe = [s for s in game.states if s != "bad" and rng.random() < 0.9]
        # Ten reach rounds can reach 100 000-bit denominators on these games.
        fractional += _assert_sandwich(game, safe, 6)
    assert fractional >= 25, fractional


def test_certify_exact_on_turn_based_matches_oracle():
    # Both sides terminate on turn-based games, so certify must return the
    # exact value; the dual reachability oracle provides the reference.
    import random as _random

    from congame.model import encode_turn_based_as_concurrent
    from conftest import random_tb_game
    from oracles import tb_reach_value_oracle
    from congame.model import P1, P2, TurnBasedGame

    rng = _random.Random(62)
    for _ in range(12):
        tb = random_tb_game(rng, n_states=4, max_succ=2)
        safe = set(rng.sample(tb.states, rng.randint(1, 3)))
        game = encode_turn_based_as_concurrent(tb)
        certifier = Certifier(game, safe, F(1, 1000)).run(400)
        assert certifier.status == STATUS_EXACT
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
        dual = tb_reach_value_oracle(swapped, complement)
        assert certifier.exact_values == {s: 1 - dual[s] for s in tb.states}


# A 3-state game from the benchmark's generator (3 states, up to 3 moves,
# seed "certify-kuniform:104:9").  With exact Pre1 witnesses its reach
# iterates double in bit size every round and certify:1/100 ended in
# CPython's 4300-digit limit on printing integers.
DIGIT_LIMIT_GAME = {
    "type": "concurrent",
    "states": ["q0", "q1", "q2"],
    "moves1": {"q0": ["a", "b"], "q1": ["a", "b", "c"], "q2": ["a", "b", "c"]},
    "moves2": {"q0": ["a"], "q1": ["a"], "q2": ["a", "b", "c"]},
    "delta": {
        "q0": {"a": {"a": {"q0": "1"}}, "b": {"a": {"q0": "1/2", "q2": "1/2"}}},
        "q1": {"a": {"a": {"q2": "1"}}, "b": {"a": {"q1": "1"}}, "c": {"a": {"q0": "1"}}},
        "q2": {
            "a": {"a": {"q1": "1"}, "b": {"q0": "1"}, "c": {"q1": "2/3", "q2": "1/3"}},
            "b": {
                "a": {"q2": "2/3", "q0": "1/3"}, "b": {"q1": "1"}, "c": {"q0": "1/3", "q1": "2/3"},
            },
            "c": {"a": {"q1": "1"}, "b": {"q2": "1/2", "q0": "1/2"}, "c": {"q0": "1"}},
        },
    },
}


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def test_certify_reach_side_stays_under_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(DIGIT_LIMIT_GAME), encoding="utf-8")
    code = main([
        "solve", str(path), "--objective", "safe:not-q0", "--algorithm", "certify:1/100",
        "--verify", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verified"] is True
    assert report["iterations"] == 14
    game = parse_game(json.dumps(DIGIT_LIMIT_GAME))
    certifier = Certifier(game, ["q1", "q2"], F(1, 100)).run(200)
    assert certifier.iterations == 14
    assert all(_bits(x) < 2048 for v in certifier.reach.valuations for x in v.values())


def _rationals(doc):
    """Every exact rational printed anywhere in a JSON report."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _rationals(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _rationals(value)
    elif isinstance(doc, str) and re.fullmatch(r"\d+(/\d+)?", doc):
        yield F(doc)


def test_reach_si_stays_under_the_digit_limit(tmp_path, capsys):
    # The same game with the players swapped, so player 1 reaches q0.  With
    # exact witnesses reach-si's iterates double in bit size every round and
    # 12 rounds end in CPython's 4300-digit limit on printing integers.
    path = tmp_path / "swapped.json"
    game = swap_players(parse_game(json.dumps(DIGIT_LIMIT_GAME)))
    path.write_text(serialize_game(game), encoding="utf-8")
    code = main([
        "solve", str(path), "--objective", "reach:q0", "--algorithm", "reach-si",
        "--max-iters", "14", "--verify", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verified"] is True
    assert report["iterations"] == 14
    assert all(_bits(x) <= 2048 for x in _rationals(report))


def test_vi_prints_values_past_the_digit_limit(tmp_path, capsys):
    # Ten safety value iteration steps on the game above give q2 a value of
    # 20751 bits, past CPython's 4300-digit limit on printing integers; the
    # report prints it in full and the run ends capped.
    path = tmp_path / "game.json"
    path.write_text(json.dumps(DIGIT_LIMIT_GAME), encoding="utf-8")
    code = main([
        "solve", str(path), "--objective", "safe:not-q0", "--algorithm", "vi",
        "--max-iters", "10", "--format", "json",
    ])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    report = json.loads(captured.out)
    assert report["status"] == STATUS_CAPPED
    game = parse_game(json.dumps(DIGIT_LIMIT_GAME))
    last = safety_value_iteration_upper(game, ["q1", "q2"], steps=10)[-1]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = {s: str(last[s]) for s in game.states}
    finally:
        sys.set_int_max_str_digits(limit)
    assert {s: cell["exact"] for s, cell in report["values"].items()} == expected
    assert max(map(len, expected.values())) > 2 * limit
