"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance (exact
rational equality unless the criterion says otherwise).  Every test prints a
single summary line; run with ``pytest tests/test_acceptance.py -v`` for a
per-criterion pass/fail listing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from congame import (
    Certifier,
    ConvergentSafetyRunner,
    MatrixGame,
    ReachSIRunner,
    SafetySIRunner,
    TurnBasedReachRunner,
    reach_value_iteration,
    run_k_uniform_si,
    solve_matrix_game,
)
from congame.matrix import pre1
from congame.model import encode_turn_based_as_concurrent
from congame.reach_si import STATUS_CAPPED, STATUS_EPS, STATUS_EXACT
from congame.cli import main as cli_main

from conftest import ONE, ZERO, random_concurrent_game, random_tb_game
from helpers import check_determinacy_bracket, is_proper, load_example, round_to_k_uniform
from oracles import (
    brute_force_k_uniform_best,
    matrix_value_oracle,
    pure_strategy_count,
    tb_reach_value_oracle,
    value_class_structure_ok,
)

F = Fraction

# 2 - sqrt(2), truncated and rounded up at 30 decimal digits.
SQRT2_GAP_LO = F("585786437626904951198311275790") / 10**30
SQRT2_GAP_HI = F("585786437626904951198311275791") / 10**30
MICRO = F(1, 10**6)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_01_example1_reproduction():
    game = load_example("fig1")
    fixpoint = {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)}
    trace = reach_value_iteration(game, {"s0"}, max_steps=10)
    assert trace.converged
    assert trace.valuations[3] == fixpoint
    assert trace.valuations[4] == trace.valuations[3]
    si = ReachSIRunner(game, {"s0"}).run(1000)
    assert si.status == STATUS_EXACT
    assert si.values == fixpoint
    report("criterion 1 PASS: value iteration and improvement both hit (1,0,1/2,1/2,1/2) exactly")


def test_criterion_02_example2_reproduction():
    tb = load_example("fig2")
    game = encode_turn_based_as_concurrent(tb)
    safe = [s for s in game.states if s != "s4"]
    result = SafetySIRunner(game, safe).run(5)
    assert result.status == STATUS_EXACT
    assert result.iterations <= 5
    assert result.values == {
        "s0": F(2, 3), "s1": F(2, 3), "s2": F(1, 3),
        "s3": F(2, 3), "s4": ZERO, "s5": ONE,
    }
    report(f"criterion 2 PASS: safety improvement exact in {result.iterations} iterations")


def test_criterion_03_example3_step1():
    game = load_example("ex3step1")
    prefix = [ZERO, F(1, 2), F(4, 7), F(7, 12)]

    trace = reach_value_iteration(game, {"s1"}, max_steps=50)
    vi_seq = [u["s0"] for u in trace.valuations]
    assert vi_seq[:4] == prefix
    assert all(b > a for a, b in zip(vi_seq, vi_seq[1:]))
    assert not trace.converged and len(vi_seq) == 51  # no natural stop in 50 steps

    si = ReachSIRunner(game, {"s1"}).run(50)
    si_seq = [v["s0"] for v in si.valuations]
    assert si_seq[:3] == prefix[1:]
    assert all(b > a for a, b in zip(si_seq, si_seq[1:]))
    assert si.status == STATUS_CAPPED  # still improving after 50 iterations

    def hits_within_micro(seq):
        for i, x in enumerate(seq):
            assert x < SQRT2_GAP_HI  # always below the value
            if SQRT2_GAP_HI - x <= MICRO:
                return i
        raise AssertionError("never within 1e-6 of 2 - sqrt(2)")

    vi_hit = hits_within_micro(vi_seq)
    si_hit = hits_within_micro(si_seq)
    assert vi_hit <= 15 and si_hit <= 15
    report(
        f"criterion 3 PASS: prefix 0, 1/2, 4/7, 7/12 exact; within 1e-6 after "
        f"{vi_hit} (vi) / {si_hit} (si) iterations; no termination in 50"
    )


def test_criterion_04_example3_full_alg2_vs_alg4():
    game = load_example("ex3full")
    safe = [s for s in game.states if s != "s2"]

    plain = SafetySIRunner(game, safe).run(50)
    assert plain.status == STATUS_CAPPED
    assert not plain.fired_nonlocal
    assert all(v["s3"] < F(3, 5) for v in plain.valuations)

    convergent = ConvergentSafetyRunner(game, safe)
    for round_no in range(6):
        assert convergent.step()  # the value is irrational: no round is the last
        if round_no == 0:
            # Later rounds start warm from a fixpoint that holds the switch.
            assert convergent.inner.fired_nonlocal
    # Run cold, every k-uniform fixpoint needs the non-local step.
    assert convergent.ks == list(range(5, 11))
    for k in convergent.ks:
        assert run_k_uniform_si(game, safe, k).fired_nonlocal
    assert all(v["s3"] == F(3, 5) for v in convergent.valuations)
    assert all(v["s4"] == F(3, 5) and v["s5"] == F(3, 5) for v in convergent.valuations)
    report(
        "criterion 4 PASS: plain improvement stays below 3/5 at s3 for 50 rounds; "
        "convergent variant pins 3/5 from the first outer round"
    )


def test_criterion_05_eps_certification():
    game = load_example("ex3full")
    safe = [s for s in game.states if s != "s2"]
    certifier = Certifier(game, safe, F(1, 100)).run(200)
    assert certifier.status == STATUS_EPS
    assert certifier.gap <= F(1, 100)
    v0 = certifier.values["s0"]
    assert SQRT2_GAP_LO - F(1, 100) <= v0 <= SQRT2_GAP_HI
    assert certifier.values["s3"] == F(3, 5)
    report(
        f"criterion 5 PASS: eps-approx with gap {certifier.gap} <= 1/100 and "
        f"v(s0) = {v0} inside [2-sqrt(2) - 1/100, 2-sqrt(2)]"
    )


def test_criterion_06_matrix_oracle_equivalence():
    rng = random.Random(1006)
    grid = [ZERO, F(1, 4), F(1, 2), F(3, 4), ONE]
    checked = 0
    for _ in range(500):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        payoff = [[rng.choice(grid) for _ in range(n)] for _ in range(m)]
        rows = tuple(f"r{i}" for i in range(m))
        cols = tuple(f"c{j}" for j in range(n))
        sol = solve_matrix_game(MatrixGame(rows, cols, tuple(tuple(r) for r in payoff)))
        assert sol.value == matrix_value_oracle(payoff)
        # returned strategies really guarantee the value
        assert min(
            sum(sol.row_strategy[a] * payoff[a][b] for a in range(m)) for b in range(n)
        ) == sol.value
        assert max(
            sum(sol.col_strategy[b] * payoff[a][b] for b in range(n)) for a in range(m)
        ) == sol.value
        checked += 1
    assert checked >= 500
    report(f"criterion 6 PASS: {checked} random matrices match the support-enumeration oracle exactly")


def test_criterion_07_turn_based_oracle_equivalence():
    rng = random.Random(1007)
    checked = 0
    for _ in range(100):
        tb = random_tb_game(rng, n_states=6, max_succ=3)
        target = set(rng.sample(tb.states, rng.randint(1, 2)))
        result = TurnBasedReachRunner(tb, target).run(1000)
        oracle = tb_reach_value_oracle(tb, target)
        assert result.values == oracle
        assert result.iterations <= max(1, pure_strategy_count(tb, "P1"))
        checked += 1
    assert checked >= 100
    report(f"criterion 7 PASS: {checked} random turn-based games match pure-pair enumeration exactly")


def test_criterion_08_k_uniform_oracle_equivalence():
    rng = random.Random(1008)
    checked = 0
    for _ in range(50):
        game = random_concurrent_game(rng, n_states=3, max_moves=2)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        k = rng.randint(1, 4)
        result = run_k_uniform_si(game, safe, k)
        assert result.k <= 4
        oracle = brute_force_k_uniform_best(game, safe, result.k)
        assert result.values == oracle
        checked += 1
    assert checked >= 50
    report(f"criterion 8 PASS: {checked} random games match brute-force k-uniform maximization exactly")


def test_criterion_09_property_suite():
    rng = random.Random(1009)
    violations = 0
    monotone_checks = 0

    # Monotone traces + properness of reachability improvement iterates.
    for _ in range(10):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        runner = ReachSIRunner(game, target)
        previous = dict(runner.values)
        for _ in range(5):
            if not is_proper(runner.game, runner.selector, runner.target, runner.w2):
                violations += 1
            if not runner.step():
                break
            if any(runner.values[s] < previous[s] for s in game.states):
                violations += 1
            previous = dict(runner.values)
            monotone_checks += 1

    # Monotone safety traces (plain and convergent).
    for _ in range(8):
        game = random_concurrent_game(rng, n_states=3)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        plain = SafetySIRunner(game, safe).run(6)
        for earlier, later in zip(plain.valuations, plain.valuations[1:]):
            monotone_checks += 1
            if any(later[s] < earlier[s] for s in game.states):
                violations += 1
        conv = ConvergentSafetyRunner(game, safe).run(3)
        for earlier, later in zip(conv.valuations, conv.valuations[1:]):
            monotone_checks += 1
            if any(later[s] < earlier[s] for s in game.states):
                violations += 1

    # Determinacy bracket at every interleaved step.
    for _ in range(6):
        game = random_concurrent_game(rng, n_states=3)
        safe = set(rng.sample(game.states, rng.randint(1, 2)))
        bracket_report = check_determinacy_bracket(game, safe, iters=8)
        violations += len(bracket_report.violations)

    # Pre1 monotonicity.
    for _ in range(20):
        game = random_concurrent_game(rng, n_states=4)
        v = {s: F(rng.randint(0, 4), 4) for s in game.states}
        w = {s: min(ONE, v[s] + F(rng.randint(0, 2), 4)) for s in game.states}
        pv, _ = pre1(game, v)
        pw, _ = pre1(game, w)
        if any(pv[s] > pw[s] for s in game.states):
            violations += 1

    # Value-class structure of value-iteration traces.
    structure_checks = 0
    for _ in range(10):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        trace = reach_value_iteration(game, target, max_steps=6)
        for k in range(1, len(trace.valuations)):
            structure_checks += value_class_structure_ok(trace, k, target)
    assert structure_checks > 0

    # Rounding construction ratio bounds.
    for _ in range(30):
        parts = rng.randint(2, 4)
        weights = [rng.randint(1, 25) for _ in range(parts)]
        total = sum(weights)
        dist = {f"m{i}": F(w, total) for i, w in enumerate(weights)}
        eta = F(1, rng.randint(2, 10))
        _, rounded = round_to_k_uniform(dist, eta)
        for key in dist:
            if dist[key] / rounded[key] > 1 + eta or rounded[key] / dist[key] > 1 + eta:
                violations += 1

    assert violations == 0
    assert monotone_checks > 0
    report(
        f"criterion 9 PASS: zero violations across monotonicity, properness, determinacy, "
        f"Pre1 monotonicity, {structure_checks} value-class checks, and rounding bounds"
    )


def test_criterion_10_self_audit(tmp_path, capsys):
    import json

    assert cli_main(["examples", "--write", str(tmp_path)]) == 0
    capsys.readouterr()
    invocations = [
        ("fig1.game", "reach:s0", "vi", 10),
        ("fig1.game", "reach:s0", "reach-si", 10),
        ("fig2.game", "safe:not-s4", "vi", 20),
        ("fig2.game", "reach:s4", "reach-si", 20),
        ("fig2.game", "safe:not-s4", "safety-si", 10),
        ("fig2.game", "safe:not-s4", "k-uniform:3", 20),
        ("fig2.game", "safe:not-s4", "convergent", 5),
        ("fig2.game", "safe:not-s4", "certify:1/100", 20),
        ("ex3step1.game", "reach:s1", "reach-si", 50),
        ("ex3step1.game", "reach:s1", "vi", 50),
        ("ex3full.game", "safe:not-s2", "safety-si", 50),
        ("ex3full.game", "safe:not-s2", "k-uniform:5", 20),
        ("ex3full.game", "safe:not-s2", "convergent", 6),
        ("ex3full.game", "safe:not-s2", "certify:1/100", 40),
    ]
    audited = 0
    for name, objective, algorithm, cap in invocations:
        code = cli_main([
            "solve", str(tmp_path / name),
            "--objective", objective, "--algorithm", algorithm,
            "--max-iters", str(cap), "--verify", "--format", "json",
        ])
        out = capsys.readouterr().out
        assert code in (0, 2), (name, algorithm)
        doc = json.loads(out)
        assert doc.get("verified") is True, (name, algorithm, doc.get("verify_note"))
        audited += 1
    report(f"criterion 10 PASS: --verify reproduced the witness values on {audited} solver outputs")
