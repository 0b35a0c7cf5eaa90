from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import congame.cli
import congame.matrix
import congame.mdp
import congame.reach_si
import congame.safety_si
from congame import GameStructure, parse_game
from congame.cli import build_parser, decimal_string, main, parse_objective
from congame.gamefile import serialize_game

from conftest import random_concurrent_game
from helpers import fraction_payoff
from oracles import fraction_one_step_matrix, saddle_kind

F = Fraction


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("games")
    assert main(["examples", "--write", str(path)]) == 0
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_listing(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    assert "fig1" in out and "ex3full" in out


def test_decimal_string_rounding():
    assert decimal_string(F(1, 2)) == "0.50000000000000000000"
    assert decimal_string(F(2, 3)) == "0.66666666666666666667"
    assert decimal_string(F(1, 3)) == "0.33333333333333333333"
    assert decimal_string(F(1)) == "1.00000000000000000000"


def test_parse_objective_forms():
    states = ("s0", "s1", "s2")
    assert parse_objective("reach:s0", states) == ("reach", ["s0"])
    assert parse_objective("safe:not-s2", states) == ("safe", ["s0", "s1"])
    assert parse_objective("reach:s1,s2", states) == ("reach", ["s1", "s2"])
    with pytest.raises(Exception):
        parse_objective("reach:nowhere", states)


def test_solve_fig1_vi(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", str(example_dir / "fig1.game"),
        "--objective", "reach:s0", "--algorithm", "vi", "--max-iters", "10",
    )
    assert code == 0
    assert "status: exact" in out
    assert "s2 = 1/2" in out and "s4 = 1/2" in out


def test_solve_fig2_safety_si(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--algorithm", "safety-si", "--verify",
    )
    assert code == 0
    assert "s0 = 2/3" in out
    assert "verify: ok" in out


def test_solve_certify_json(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", str(example_dir / "ex3full.game"),
        "--objective", "safe:not-s2", "--algorithm", "certify:1/100",
        "--format", "json", "--verify",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "eps-approx"
    assert report["values"]["s3"]["exact"] == "3/5"
    gap = F(report["bracket"]["gap"]["exact"])
    assert gap <= F(1, 100)
    assert report["verified"] is True


def test_solve_trace_included(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", str(example_dir / "fig1.game"),
        "--objective", "reach:s0", "--algorithm", "vi",
        "--max-iters", "10", "--trace", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    trace = report["trace"]
    assert trace[0]["s2"] == "0" and trace[1]["s2"] == "1/2"
    assert trace[-1] == trace[-2]


def test_capped_exit_code(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", str(example_dir / "ex3step1.game"),
        "--objective", "reach:s1", "--algorithm", "reach-si", "--max-iters", "5",
    )
    assert code == 2
    assert "status: capped" in out


def test_k_uniform_budget_is_a_status(example_dir, capsys):
    # This k-uniform run needs two steps to its fixpoint; a cap of one
    # stops it short, which is reported as capped, not as an error.
    code, out, err = run_cli(
        capsys,
        "solve", str(example_dir / "ex3step1.game"),
        "--objective", "safe:not-s1", "--algorithm", "k-uniform", "--max-iters", "1",
    )
    assert (code, err) == (2, "")
    assert "status: capped\niterations: 1\n" in out


@pytest.mark.parametrize(
    "algorithm,option",
    [(["k-uniform:3"], ["--k", "7"]), (["certify:1/10"], ["--eps", "1/1000"])],
)
def test_option_given_twice_rejected(example_dir, capsys, algorithm, option):
    code, out, err = run_cli(
        capsys,
        "solve", str(example_dir / "ex3full.game"), "--objective", "safe:not-s2",
        "--algorithm", *algorithm, *option,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and f"inline or as {option[0]}, not both" in err


def test_input_error_exit_code(example_dir, capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text('{"type": "concurrent"}', encoding="utf-8")
    code, out, err = run_cli(
        capsys, "solve", str(bad), "--objective", "reach:s0", "--algorithm", "vi"
    )
    assert code == 1
    assert "error:" in err


def test_objective_algorithm_mismatch(example_dir, capsys):
    code, _, err = run_cli(
        capsys,
        "solve", str(example_dir / "fig2.game"),
        "--objective", "reach:s4", "--algorithm", "safety-si",
    )
    assert code == 1
    assert "safe objectives" in err


def test_byte_identical_runs(example_dir, capsys):
    args = (
        "solve", str(example_dir / "ex3full.game"),
        "--objective", "safe:not-s2", "--algorithm", "k-uniform:5",
        "--format", "json", "--verify",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_verify_every_algorithm(example_dir, capsys):
    invocations = [
        ("fig1.game", "reach:s0", "vi", 0),
        ("fig1.game", "reach:s0", "reach-si", 0),
        ("fig2.game", "safe:not-s4", "vi", 0),
        ("fig2.game", "safe:not-s4", "safety-si", 0),
        ("fig2.game", "reach:s4", "reach-si", 0),
        ("fig2.game", "safe:not-s4", "k-uniform:2", 0),
        ("fig2.game", "safe:not-s4", "convergent", 0),
        ("fig2.game", "safe:not-s4", "certify:1/100", 0),
        ("ex3step1.game", "reach:s1", "reach-si", 2),
        ("ex3full.game", "safe:not-s2", "k-uniform:5", 2),
        ("ex3full.game", "safe:not-s2", "certify:1/100", 0),
    ]
    for name, objective, algorithm, expected in invocations:
        code, out, err = run_cli(
            capsys,
            "solve", str(example_dir / name),
            "--objective", objective, "--algorithm", algorithm,
            "--max-iters", "60", "--verify", "--format", "json",
        )
        assert code == expected, (name, algorithm, err)
        report = json.loads(out)
        assert report.get("verified") is True, (name, algorithm)


def test_dump_tb_round_trips(example_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "dump-tb", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--si-iters", "0",
    )
    assert code == 0
    dumped = parse_game(out)
    assert dumped.partition["s0"] == "P1"
    doc = json.loads(out)
    assert doc["back_map"]["s0"] == ["state", "s0"]
    pair_nodes = [n for n, origin in doc["back_map"].items() if origin[0] == "pair"]
    assert any(origin == ["pair", "s1", ["⊥"], ["to-s0"]] for origin in doc["back_map"].values())
    assert pair_nodes


def test_dump_tb_with_valuation_file(example_dir, capsys, tmp_path):
    valuation = {
        "s0": "1/3", "s1": "1/3", "s2": "1/3", "s3": "2/3", "s4": "0", "s5": "1"
    }
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps(valuation), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "dump-tb", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--valuation", str(vfile),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valuation"]["s0"] == "1/3"


def test_dump_tb_with_valuation_evaluates_no_strategy(example_dir, capsys, tmp_path, monkeypatch):
    # Given a valuation, dump-tb needs only the safe states, W1 and the held
    # states; no selector is evaluated.
    calls = []
    for module in (congame.mdp, congame.safety_si, congame.cli):
        real = module.strategy_value_safety
        monkeypatch.setattr(
            module, "strategy_value_safety",
            lambda *args, real=real: calls.append(args) or real(*args),
        )
    vfile = tmp_path / "v.json"
    valuation = {"s0": "1/2", "s1": "1", "s2": "0", "s3": "1/2", "s4": "1/2", "s5": "1"}
    vfile.write_text(json.dumps(valuation), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "dump-tb", str(example_dir / "ex3full.game"),
        "--objective", "safe:not-s2", "--valuation", str(vfile),
    )
    assert code == 0, err
    assert json.loads(out)["valuation"]["s0"] == "1/2"
    assert calls == []


def test_dump_tb_rejects_bad_valuation(example_dir, capsys, tmp_path):
    vfile = tmp_path / "v.json"
    vfile.write_text('{"s0": "1/3"}', encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "dump-tb", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--valuation", str(vfile),
    )
    assert code == 1
    assert "missing states" in err


def test_dump_tb_rejects_negative_si_iters(example_dir, capsys):
    code, out, err = run_cli(
        capsys,
        "dump-tb", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--si-iters", "-5",
    )
    assert (code, out, err) == (1, "", "error: --si-iters must be >= 0\n")


def test_dump_tb_rejects_valuation_with_si_iters(example_dir, capsys, tmp_path):
    # The valuation comes from the file or from safety improvement rounds,
    # so a round count beside a file would be ignored.
    vfile = tmp_path / "v.json"
    valuation = {"s0": "1/2", "s1": "1", "s2": "0", "s3": "1/2", "s4": "1/2", "s5": "1"}
    vfile.write_text(json.dumps(valuation), encoding="utf-8")
    for iters in ("0", "3"):
        code, out, err = run_cli(
            capsys,
            "dump-tb", str(example_dir / "ex3full.game"), "--objective", "safe:not-s2",
            "--valuation", str(vfile), "--si-iters", iters,
        )
        assert (code, out, err) == (
            1, "", "error: dump-tb takes --valuation or --si-iters, not both\n"
        )


def test_validate(example_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(example_dir / "ex3full.game"))
    assert code == 0
    assert "concurrent game" in out


def test_validate_rejects_non_string_edge(capsys, tmp_path):
    game = tmp_path / "bad.game"
    game.write_text(
        '{"type": "turn-based", "states": ["s0"], "partition": {"s0": "P1"},'
        ' "edges": {"s0": [["s0"]]}}',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "validate", str(game))
    assert code == 1
    assert err.startswith("error:") and "successor ids must be strings" in err


def test_validate_names_path_for_unknown_zero_probability_successor(capsys, tmp_path):
    game = tmp_path / "bad.game"
    game.write_text(
        '{"type": "turn-based", "states": ["s0", "s1"], "partition": {"s0": "P1", "s1": "R"},'
        ' "edges": {"s0": ["s1"], "s1": ["s1"]}, "prob": {"s1": {"s1": "1", "zz": "0"}}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(game))
    assert code == 1 and out == ""
    assert err == f"error: {game}: random state 's1': unknown successor 'zz'\n"


def test_validate_rejects_exponent_notation(capsys, tmp_path):
    # Fraction would accept it, after building a 10-million-digit integer.
    game = tmp_path / "bad.game"
    game.write_text(
        json.dumps({
            "type": "concurrent", "states": ["s0"],
            "moves1": {"s0": ["a"]}, "moves2": {"s0": ["b"]},
            "delta": {"s0": {"a": {"b": {"s0": "1e-10000000"}}}},
        }),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(game))
    assert code == 1 and out == ""
    assert err == (
        f"error: {game}: delta['s0']['a']['b']['s0']: cannot parse rational '1e-10000000'\n"
    )


@pytest.mark.parametrize("eps", ["1e-3", "1E-3"])
def test_certify_rejects_exponent_notation(example_dir, capsys, eps):
    code, out, err = run_cli(
        capsys,
        "solve", str(example_dir / "fig2.game"), "--objective", "safe:not-s4",
        "--algorithm", f"certify:{eps}",
    )
    assert (code, out) == (1, "")
    assert err == f"error: --algorithm certify:EPS: cannot parse rational '{eps}'\n"


def test_validate_non_utf8_names_path(capsys, tmp_path):
    game = tmp_path / "bad.game"
    game.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, "validate", str(game))
    assert code == 1
    assert err.startswith(f"error: {game}: not valid UTF-8: ")


def _deeply_nested(path: Path) -> Path:
    # Nested past the JSON decoder's recursion limit.
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return path


def test_deeply_nested_game_file_is_an_input_error(capsys, tmp_path):
    game = _deeply_nested(tmp_path / "deep.game")
    for argv in (
        ["validate", str(game)],
        ["solve", str(game), "--objective", "reach:s0", "--algorithm", "vi"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {game}: not valid JSON: ") and "recursion" in err


def test_deeply_nested_valuation_is_an_input_error(example_dir, capsys, tmp_path):
    vfile = _deeply_nested(tmp_path / "v.json")
    code, out, err = run_cli(
        capsys,
        "dump-tb", str(example_dir / "fig1.game"),
        "--objective", "safe:not-s0", "--valuation", str(vfile),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read valuation {vfile}: ") and "recursion" in err


def test_examples_write_onto_a_file_is_an_input_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "examples", "--write", str(taken))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write examples to {taken}: ")


@pytest.mark.parametrize("key", ["moves1", "moves2"])
@pytest.mark.parametrize("algorithm", ["reach-si", "safety-si", "k-uniform", "convergent", "certify"])
def test_duplicate_move_ids_rejected(capsys, tmp_path, key, algorithm):
    moves = {"moves1": {"s0": ["a"], "s1": ["a"]}, "moves2": {"s0": ["c"], "s1": ["c"]}}
    moves[key]["s0"] = ["a", "b", "a"]
    delta = {
        s: {a: {b: {"s1": "1"} for b in moves["moves2"][s]} for a in moves["moves1"][s]}
        for s in ("s0", "s1")
    }
    game = tmp_path / "dup.game"
    game.write_text(
        json.dumps({"type": "concurrent", "states": ["s0", "s1"], **moves, "delta": delta}),
        encoding="utf-8",
    )
    objective = "reach:s1" if algorithm == "reach-si" else "safe:s0"
    code, out, err = run_cli(
        capsys, "solve", str(game), "--objective", objective, "--algorithm", algorithm, "--verify"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"{key}['s0']: duplicate move ids" in err
    code, _, err = run_cli(capsys, "validate", str(game))
    assert code == 1 and err.startswith("error:") and f"{key}['s0']" in err


def test_reach_si_builds_no_game_copy_per_round(capsys, tmp_path, monkeypatch):
    # Reach-si improves twice here before it stops.  One game for the
    # turn-based encoding, however many rounds run: the solver works on the
    # graph, and evaluating a selector and --verify build none.
    game = tmp_path / "rounds.game"
    game.write_text(
        json.dumps({
            "type": "turn-based",
            "states": ["q0", "q1", "q2", "q3", "q4"],
            "partition": {"q0": "P2", "q1": "P1", "q2": "P1", "q3": "P2", "q4": "R"},
            "edges": {
                "q0": ["q1"], "q1": ["q2", "q4"], "q2": ["q1", "q3"],
                "q3": ["q0", "q3"], "q4": ["q0", "q1"],
            },
            "prob": {"q4": {"q0": "1/3", "q1": "2/3"}},
        }),
        encoding="utf-8",
    )
    built = _count_games(monkeypatch)
    for cap, rounds in (("1", 1), ("2", 2), ("5", 3)):
        built.clear()
        _, out, _ = run_cli(
            capsys,
            "solve", str(game), "--objective", "reach:q0", "--algorithm", "reach-si",
            "--max-iters", cap, "--verify", "--format", "json",
        )
        report = json.loads(out)
        assert report["iterations"] == rounds and report["verified"] is True
        assert len(built) == 1


def _count_games(monkeypatch) -> list:
    """Record every ``GameStructure`` built from now on."""
    built = []
    validate = GameStructure.__post_init__

    def counting(structure):
        built.append(structure)
        validate(structure)

    monkeypatch.setattr(GameStructure, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    ("argv", "games"),
    [
        (["solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "safety-si"], 1),
        (["solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "k-uniform"], 1),
        (["solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "convergent"], 1),
        (["solve", "fig1.game", "--objective", "reach:s0", "--algorithm", "vi"], 1),
        (["solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "vi"], 1),
        (["dump-tb", "ex3full.game", "--objective", "safe:not-s2", "--si-iters", "2"], 1),
        # The certifier's reach side swaps the players, and --verify checks
        # player 2's witness on that same swapped game.
        (["solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "certify"], 2),
    ],
)
def test_every_solve_runs_on_the_parsed_game(capsys, example_dir, monkeypatch, argv, games):
    # Held states are passed as sets, so no solver builds an absorbing copy
    # of the game: the parsed game is the only one, apart from the
    # player-swapped games of certify.
    built = _count_games(monkeypatch)
    argv = [argv[0], str(example_dir / argv[1]), *argv[2:]]
    if argv[0] == "solve":
        argv += ["--max-iters", "8", "--verify", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 2)
    if argv[0] == "solve":
        report = json.loads(out)
        assert report.get("verified") is True
        if "vi" in argv and "safe:not-s0" in argv:
            assert report["status"] == "exact"
    assert len(built) == games


@pytest.mark.parametrize("algorithm", ["safety-si", "k-uniform", "convergent", "certify:1/100"])
def test_safety_solves_build_no_reduction(capsys, example_dir, monkeypatch, algorithm):
    # fig2's safety solves all take the non-local step, which runs on the
    # concurrent game: the turn-based reduction, or any turn-based game, is
    # built only by dump-tb.
    def refuse(*args, **kwargs):
        raise AssertionError("turn-based game built during a solve")

    monkeypatch.setattr(congame.safety_si, "tb_reduction", refuse)
    monkeypatch.setattr(congame.safety_si, "TurnBasedGame", refuse)
    fired = []
    real = congame.safety_si.improvement_switches

    def recording(*args):
        switches, nonlocal_step = real(*args)
        fired.append(nonlocal_step and bool(switches))
        return switches, nonlocal_step

    monkeypatch.setattr(congame.safety_si, "improvement_switches", recording)
    code, _, err = run_cli(
        capsys,
        "solve", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--algorithm", algorithm, "--verify",
    )
    assert (code, err) == (0, "")
    assert any(fired)


def test_safety_solve_reads_no_node_names(capsys, tmp_path):
    # The reduction names a pair node by its moves joined with "+", so the
    # supports ("a", "b") and ("a+b",) share a name.  Only dump-tb builds
    # the names; the solve's non-local step keeps pairs as tuples.
    moves = ["a", "b", "a+b"]
    game = {
        "type": "concurrent",
        "states": ["s0"],
        "moves1": {"s0": moves},
        "moves2": {"s0": ["c"]},
        "delta": {"s0": {a: {"c": {"s0": "1"}} for a in moves}},
    }
    path = tmp_path / "plus.game"
    path.write_text(json.dumps(game), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "solve", str(path), "--objective", "safe:s0", "--algorithm", "safety-si",
        "--verify", "--format", "json",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "exact" and report["verified"] is True


def _separator_game():
    """At s0 the supports (a, b) and (a+b) are both optimal against
    response c at the valuation below, and their reduction nodes would share
    the name s0/[a+b]/c."""
    loops = {h: {"go": {"go": {h: "1/2", "bad": "1/2"}}} for h in ("h1", "h2", "h3", "q")}
    return {
        "type": "concurrent",
        "states": ["s0", "h1", "h2", "h3", "q", "bad"],
        "moves1": {"s0": ["a", "b", "a+b"], **dict.fromkeys(["h1", "h2", "h3", "q", "bad"], ["go"])},
        "moves2": {"s0": ["c", "d"], **dict.fromkeys(["h1", "h2", "h3", "q", "bad"], ["go"])},
        "delta": {
            "s0": {
                "a": {"c": {"h1": "1"}, "d": {"q": "1"}},
                "b": {"c": {"h2": "1"}, "d": {"q": "1"}},
                "a+b": {"c": {"h3": "1"}, "d": {"h3": "1"}},
            },
            **loops,
            "bad": {"go": {"go": {"bad": "1"}}},
        },
    }


@pytest.mark.parametrize("rename", [None, "state", "move"])
def test_dump_tb_rejects_names_with_node_separators(capsys, tmp_path, rename):
    # Given such names the reduction could merge nodes of different
    # supports and still exit 0; dump-tb refuses them instead.
    game = _separator_game()
    if rename == "state":  # a separator in a state name only
        text = json.dumps(game).replace('"a+b"', '"e"').replace('"h3"', '"h/3"')
    elif rename == "move":  # the moves a, b, a+b become a, b, [b]
        text = json.dumps(game).replace('"a+b"', '"[b]"')
    else:
        text = json.dumps(game)
    path = tmp_path / "sep.game"
    path.write_text(text, encoding="utf-8")
    states = parse_game(text).states
    values = {"s0": "1/2", "q": "1", "bad": "0"}
    valuation = tmp_path / "v.json"
    valuation.write_text(json.dumps({s: values.get(s, "1/2") for s in states}), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "dump-tb", str(path), "--objective", "safe:not-bad", "--valuation", str(valuation),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: dump-tb needs state and move names without")
    assert {"a+b": "a+b", "state": "h/3", "move": "[b]"}[rename or "a+b"] in err


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_internal_error_exit_code(example_dir, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("invariant broken at s0")

    monkeypatch.setattr(congame.cli.SafetySIRunner, "run", broken)
    code, out, err = run_cli(
        capsys,
        "solve", str(example_dir / "fig2.game"),
        "--objective", "safe:not-s4", "--algorithm", "safety-si",
    )
    assert (code, out, err) == (3, "", "internal error: invariant broken at s0\n")


def _record_lps(monkeypatch) -> tuple[list, list]:
    """Patch the one-step layer where it hands work to the simplex; the
    returned lists collect the payoff of every matrix-game LP and the
    (payoff, target, A, B) of every support-pair LP, as ``Fraction``s.
    Both live in ``matrix``, so each kind is recorded at its own LP builder
    rather than at the simplex they share."""
    games, pairs = [], []
    game_lp_of = congame.matrix._solve_lp_game

    def game_lp(matrix):
        games.append(fraction_payoff(matrix))
        return game_lp_of(matrix)

    feasible = congame.matrix._feasible_unrestricted

    def pair_lp(matrix, target, A, B):
        pairs.append((fraction_payoff(matrix), target, A, B))
        return feasible(matrix, target, A, B)

    monkeypatch.setattr(congame.matrix, "_solve_lp_game", game_lp)
    monkeypatch.setattr(congame.matrix, "_feasible_unrestricted", pair_lp)
    return games, pairs


def test_one_step_cache_lives_for_one_solve(capsys, tmp_path, monkeypatch):
    # The cache belongs to the game a solve works on.  Within one solve no
    # payoff reaches the simplex twice, neither as a matrix game nor for the
    # same support pair; a second identical solve in the same process
    # starts from an empty cache, so it runs exactly as many LPs.
    structure = random_concurrent_game(random.Random(47), n_states=5, max_moves=3)
    assert any(len(structure.moves1[s]) == len(structure.moves2[s]) == 3 for s in structure.states)
    game = tmp_path / "three-moves.game"
    game.write_text(serialize_game(structure), encoding="utf-8")
    games, pairs = _record_lps(monkeypatch)
    runs = []
    for _ in range(2):
        games.clear()
        pairs.clear()
        code, out, _ = run_cli(
            capsys,
            "solve", str(game), "--objective", "safe:not-q0", "--algorithm", "safety-si",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["nonlocal_step_fired"] is True
        assert len(games) == len(set(games)) and len(pairs) == len(set(pairs))
        runs.append((len(games), len(pairs), out))
    assert runs[0][0] > 0 and runs[0][1] > 0
    assert runs[0] == runs[1]


def _closed_form_recorder():
    """A stand-in for ``matrix._unique_2x2`` and the list it fills with the
    saddle kind (``oracles.saddle_kind``) of every payoff it answers."""
    answered = []
    closed_form = congame.matrix._unique_2x2

    def recording(matrix):
        solved = closed_form(matrix)
        if solved is not None:
            answered.append(saddle_kind(fraction_payoff(matrix)))
        return solved

    return recording, answered


def test_unique_two_by_two_games_skip_the_simplex(capsys, example_dir, monkeypatch):
    # Example 3's mixing state s0 is a 2 x 2 game without a saddle point,
    # and random 2-move games add strict saddle points: each takes the
    # closed form, and only games with a weak saddle point, or larger than
    # 2 x 2, reach the matrix-game LP.
    games, _ = _record_lps(monkeypatch)
    recording, answered = _closed_form_recorder()
    monkeypatch.setattr(congame.matrix, "_unique_2x2", recording)
    structure = random_concurrent_game(random.Random(30), n_states=6)
    game = example_dir / "two-moves.game"
    game.write_text(serialize_game(structure), encoding="utf-8")
    for argv in (
        (str(example_dir / "ex3full.game"), "--objective", "safe:not-s2", "--algorithm", "certify:1/1000"),
        (str(game), "--objective", "safe:not-q0", "--algorithm", "safety-si"),
        (str(game), "--objective", "reach:q0", "--algorithm", "reach-si"),
    ):
        code, _, _ = run_cli(capsys, "solve", *argv, "--verify", "--format", "json")
        assert code == 0
    assert answered.count("none") > 0 and answered.count("strict") > 0
    assert "weak" not in answered and games
    assert all(len(payoff) > 2 or len(payoff[0]) > 2 or saddle_kind(payoff) == "weak" for payoff in games)


def test_closed_form_prints_the_simplex_bytes(capsys, tmp_path, monkeypatch):
    # On 50 random 10-state games of up to two moves, each solver prints
    # the same report with the 2 x 2 closed form as with the simplex alone;
    # both closed-form branches answer, the strict saddle point's many times.
    rng = random.Random(3535)
    recording, answered = _closed_form_recorder()
    runs = (
        ("reach:q0", "vi", "--max-iters", "10"),
        ("reach:q0", "reach-si"),
        ("safe:not-q0", "safety-si"),
        ("safe:not-q0", "certify:1/100"),
    )
    for i in range(50):
        game = tmp_path / f"g{i}.game"
        game.write_text(serialize_game(random_concurrent_game(rng, n_states=10)), encoding="utf-8")
        for objective, algorithm, *rest in runs:
            argv = ("solve", str(game), "--objective", objective, "--algorithm", algorithm,
                    *rest, "--verify", "--format", "json")
            monkeypatch.setattr(congame.matrix, "_unique_2x2", recording)
            with_closed_form = run_cli(capsys, *argv)
            monkeypatch.setattr(congame.matrix, "_unique_2x2", lambda matrix: None)
            assert run_cli(capsys, *argv) == with_closed_form
    assert answered.count("strict") >= 200 and answered.count("none") >= 50


def test_integer_one_step_matrices_print_the_fraction_bytes(capsys, tmp_path, monkeypatch):
    # On 50 random 3-state games of one to three moves per player, each
    # solver prints the same exit code and report with the integer one-step
    # matrices, a state's last one reused while its successors' values stand
    # still, as with every integer matrix built afresh and as with the
    # Fraction sums of oracles.fraction_one_step_matrix; 3-row matrices
    # reach both the matrix-game LP and the support-pair LP.
    rng = random.Random(3636)
    games, pairs = _record_lps(monkeypatch)
    integer = congame.matrix.one_step_matrix
    transitions = congame.matrix._transitions
    modules = (congame.matrix, congame.reach_si, congame.safety_si)
    built = Counter()
    calls = Counter()

    def reusing(game, v, s):
        last = transitions(game, s).last
        matrix = integer(game, v, s)
        calls["reused" if last is not None and matrix is last[1] else "built"] += 1
        return matrix

    def rebuilt(game, v, s):
        transitions(game, s).last = None
        return integer(game, v, s)

    def reference(game, v, s):
        matrix = fraction_one_step_matrix(game, v, s)
        built[len(matrix.rows), len(matrix.cols)] += 1
        return matrix

    runs = (
        ("reach:q0", "vi", "--max-iters", "8"),
        ("reach:q0", "reach-si"),
        ("safe:not-q0", "safety-si"),
        ("safe:not-q0", "certify:1/100"),
        ("safe:not-q0", "convergent", "--max-iters", "6"),
        ("safe:not-q0", "k-uniform", "--k", "4"),
    )
    for i in range(50):
        game = tmp_path / f"g{i}.game"
        game.write_text(serialize_game(random_concurrent_game(rng, n_states=3, max_moves=3)), encoding="utf-8")
        for objective, algorithm, *rest in runs:
            argv = ("solve", str(game), "--objective", objective, "--algorithm", algorithm,
                    *rest, "--verify", "--format", "json")
            printed = []
            for build in (reusing, rebuilt, reference):
                for module in modules:
                    monkeypatch.setattr(module, "one_step_matrix", build)
                printed.append(run_cli(capsys, *argv))
            assert printed[1] == printed[0] and printed[2] == printed[0]
    assert calls["reused"] > 200 and calls["built"] > 800, calls
    assert len(built) == 9 and built[3, 3] > 0
    assert any(len(payoff) == 3 for payoff in games)
    assert any(len(payoff) == 3 and len(A) > 1 for payoff, _, A, _ in pairs)


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv):
    path = os.environ.get("PYTHONPATH")
    src = str(Path(congame.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "congame.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=120, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_matches_fresh_processes(capsys, example_dir, monkeypatch):
    # main reuses one parser for the life of the process; every call must
    # still print what a fresh interpreter prints for the same argv.  The
    # width is fixed because argparse wraps its usage line to the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    fig1, fig2 = str(example_dir / "fig1.game"), str(example_dir / "fig2.game")
    runs = [
        ["solve", fig1, "--objective", "reach:s0", "--algorithm", "reach-si", "--verify",
         "--format", "json"],
        ["validate", fig2],
        ["solve", fig1, "--algorithm", "vi"],
        ["dump-tb", str(example_dir / "ex3full.game"), "--objective", "safe:not-s2",
         "--si-iters", "1", "--k", "2"],
        ["solve", fig2, "--objective", "reach:s2", "--algorithm", "reach-si", "--trace"],
        ["solve", fig1, "--objective", "reach:s0", "--algorithm", "reach-si", "--verify",
         "--format", "json"],
    ]
    results = [_in_process(capsys, argv) for argv in runs]
    assert build_parser() is build_parser()
    assert results[2][0] == 2 and "required: --objective" in results[2][2]
    assert results[0] == results[-1]
    for argv, result in zip(runs, results):
        assert result == _fresh_process(argv)


# A solve of each objective kind for every algorithm: the file, the objective.
RUNNER_SOLVES = {
    "reach": (("fig1", "reach:s0"), ("fig2", "reach:s2")),
    "safe": (("fig2", "safe:not-s4"), ("ex3full", "safe:not-s2")),
}


@pytest.mark.parametrize("name", list(congame.cli.ALGORITHMS))
def test_every_solve_loop_is_runner_run(capsys, example_dir, monkeypatch, name):
    # Runner.run is the one capped loop: every algorithm, on every kind of
    # objective it takes (fig2 as a turn-based game too), goes through it.
    calls = []
    real = congame.reach_si.Runner.run

    def counting(self, max_iters):
        calls.append(type(self).__name__)
        return real(self, max_iters)

    monkeypatch.setattr(congame.reach_si.Runner, "run", counting)
    kind = congame.cli.ALGORITHMS[name].kind
    for objective_kind in ("reach", "safe") if kind is None else (kind,):
        for example, objective in RUNNER_SOLVES[objective_kind]:
            calls.clear()
            code, _, err = run_cli(
                capsys, "solve", str(example_dir / f"{example}.game"),
                "--objective", objective, "--algorithm", name, "--max-iters", "3",
            )
            assert code in (0, 2) and err == ""
            assert calls, (name, example, objective)


@pytest.mark.parametrize("name", list(congame.cli.ALGORITHMS))
def test_every_solve_honours_trace_and_verify(capsys, example_dir, name):
    # On every kind of objective it takes (fig2 as a turn-based game too),
    # an algorithm's --trace report ends its trace at the exact values, and
    # its --verify text report has a verify: line, witness or none.  The
    # certify report stands on its bracket and prints no trace.
    kind = congame.cli.ALGORITHMS[name].kind
    for objective_kind in ("reach", "safe") if kind is None else (kind,):
        for example, objective in RUNNER_SOLVES[objective_kind]:
            argv = [
                "solve", str(example_dir / f"{example}.game"),
                "--objective", objective, "--algorithm", name, "--max-iters", "3",
            ]
            code, out, err = run_cli(capsys, *argv, "--trace", "--format", "json")
            assert code in (0, 2) and err == ""
            report = json.loads(out)
            if name == "certify":
                assert "trace" not in report and "bracket" in report
            else:
                exact = {s: cell["exact"] for s, cell in report["values"].items()}
                assert report["trace"][-1] == exact, (name, example, objective)
            code, out, err = run_cli(capsys, *argv, "--verify", "--format", "text")
            assert code in (0, 2) and err == ""
            assert any(line.startswith("verify: ") for line in out.splitlines()), (name, example)
