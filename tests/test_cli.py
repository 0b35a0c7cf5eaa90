from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import congame.cli
import congame.matrix
import congame.safety_si
from congame import GameStructure, parse_game
from congame.cli import decimal_string, main, parse_objective
from congame.gamefile import serialize_game

from conftest import random_concurrent_game

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
    built = []
    validate = GameStructure.__post_init__

    def counting(structure):
        built.append(structure)
        validate(structure)

    monkeypatch.setattr(GameStructure, "__post_init__", counting)
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
    (payoff, target, A, B) of every support-pair LP."""
    games, pairs = [], []
    solve_lp = congame.matrix.solve_lp

    def game_lp(objective, rows, senses, rhs, maximize=False):
        games.append(tuple(map(tuple, rows)))
        return solve_lp(objective, rows, senses, rhs, maximize)

    feasible = congame.safety_si._feasible_unrestricted

    def pair_lp(payoff, target, A, B):
        pairs.append((payoff, target, A, B))
        return feasible(payoff, target, A, B)

    monkeypatch.setattr(congame.matrix, "solve_lp", game_lp)
    monkeypatch.setattr(congame.safety_si, "_feasible_unrestricted", pair_lp)
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
