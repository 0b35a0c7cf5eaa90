from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import congame.matrix
from congame import (
    BudgetExceeded,
    GameStructure,
    MatrixGame,
    one_step_matrix,
    optimal_pairs,
    pre1,
    pre1_matrix,
    solve_matrix_game,
    uniform_selector,
)
from congame.linprog import LPInfeasible, solve_lp
from congame.matrix import (
    MatrixSolution,
    _k_uniform_scan,
    _nonempty_subsets,
    _one_step,
    _slack_program,
    _solve_lp_game,
)

from conftest import ONE, ZERO, random_concurrent_game, random_valuations
from helpers import (
    fraction_payoff,
    k_uniform_distributions,
    pre1_sel,
    pre_sel_sel,
    pure_selector,
    reference_k_uniform,
    reference_pre1_k,
)
from oracles import (
    fraction_game_lp,
    fraction_one_step_matrix,
    fraction_slack_lp,
    matrix_value_oracle,
    reference_solve_matrix_game,
    saddle_kind,
)

F = Fraction


def game_matrix(payoff):
    rows = tuple(f"r{i}" for i in range(len(payoff)))
    cols = tuple(f"c{j}" for j in range(len(payoff[0])))
    return MatrixGame.of(rows, cols, tuple(tuple(F(x) for x in row) for row in payoff))


def test_one_by_one():
    sol = solve_matrix_game(game_matrix([[1]]))
    assert sol.value == 1
    assert sol.row_strategy == (ONE,)
    assert sol.col_strategy == (ONE,)


def test_matching_pennies_like():
    sol = solve_matrix_game(game_matrix([[1, 0], [0, 1]]))
    assert sol.value == F(1, 2)
    assert sol.row_strategy == (F(1, 2), F(1, 2))


def test_column_equalizer():
    # Row mix equalizing both columns: p + (1-p)/4 = 1-p gives p = 3/7.
    sol = solve_matrix_game(game_matrix([[1, 0], [F(1, 4), 1]]))
    assert sol.value == F(4, 7)
    assert sol.row_strategy == (F(3, 7), F(4, 7))


def test_duality_exact():
    rng = random.Random(5)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        payoff = [[rng.choice(grid) for _ in range(n)] for _ in range(m)]
        sol = solve_matrix_game(game_matrix(payoff))
        row_guarantee = min(
            sum(sol.row_strategy[a] * payoff[a][b] for a in range(m))
            for b in range(n)
        )
        col_guarantee = max(
            sum(sol.col_strategy[b] * payoff[a][b] for b in range(n))
            for a in range(m)
        )
        assert row_guarantee == sol.value == col_guarantee


def test_oracle_equivalence_sample():
    rng = random.Random(6)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        payoff = [[rng.choice(grid) for _ in range(n)] for _ in range(m)]
        sol = solve_matrix_game(game_matrix(payoff))
        assert sol.value == matrix_value_oracle(payoff)


def test_one_step_matrix_ex3(ex3step1):
    v = {"s0": ZERO, "s1": ONE, "s2": ZERO}
    m = one_step_matrix(ex3step1, v, "s0")
    assert m.rows == ("a", "b")
    assert m.cols == ("c", "d")
    assert fraction_payoff(m) == ((ONE, ZERO), (ZERO, ONE))
    v2 = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    m2 = one_step_matrix(ex3step1, v2, "s0")
    assert fraction_payoff(m2) == ((ONE, ZERO), (F(1, 4), ONE))


def test_one_step_matrix_constant_valuation(fig1):
    v = {s: F(2, 3) for s in fig1.states}
    m = one_step_matrix(fig1, v, "s3")
    assert all(x == F(2, 3) for row in fraction_payoff(m) for x in row)


def test_pre_sel_sel(ex3step1):
    v = {"s0": ZERO, "s1": ONE, "s2": ZERO}
    a = pure_selector(ex3step1, 1, {"s0": "a"})
    c = pure_selector(ex3step1, 2, {"s0": "c"})
    assert pre_sel_sel(ex3step1, v, "s0", a, c) == 1
    mix1 = uniform_selector(ex3step1)
    mix2_choice = {s: {b: F(1, len(ex3step1.moves2[s])) for b in ex3step1.moves2[s]} for s in ex3step1.states}
    from congame import Selector

    mix2 = Selector(mix2_choice)
    assert pre_sel_sel(ex3step1, v, "s0", mix1, mix2) == F(1, 2)
    const = {s: F(3, 7) for s in ex3step1.states}
    assert pre_sel_sel(ex3step1, const, "s0", mix1, mix2) == F(3, 7)


def test_pre1_sel(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    pure_a = pure_selector(ex3step1, 1, {"s0": "a"})
    assert pre1_sel(ex3step1, v, "s0", pure_a) == 0
    from congame import Selector

    equalizer = Selector({
        "s0": {"a": F(3, 7), "b": F(4, 7)},
        "s1": {"⊥": ONE},
        "s2": {"⊥": ONE},
    })
    assert pre1_sel(ex3step1, v, "s0", equalizer) == F(4, 7)
    mix = uniform_selector(ex3step1)
    v01 = {"s0": ZERO, "s1": ONE, "s2": ZERO}
    assert pre1_sel(ex3step1, v01, "s0", mix) == F(1, 2)


def test_pre1_fig1_step(fig1):
    u2 = {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": ZERO}
    values, witness = pre1(fig1, u2)
    assert values == {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)}
    assert witness["s4"] == {"⊥": ONE}


def test_pre1_dominates_indicator_on_targets(ex3full):
    from congame.model import indicator
    from helpers import make_absorbing

    frozen = make_absorbing(ex3full, {"s1"})
    v = indicator(frozen, {"s1"})
    values, _ = pre1(frozen, v)
    assert all(values[s] >= v[s] for s in frozen.states)


def test_pre1_value_ex3_surrogate(ex3step1):
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    value, mix = pre1_matrix(ex3step1, one_step_matrix(ex3step1, v, "s0"))
    assert value == F(4, 7)
    assert mix == {"a": F(3, 7), "b": F(4, 7)}


def test_pre1_monotone():
    rng = random.Random(9)
    for _ in range(25):
        game = random_concurrent_game(rng)
        v = {s: F(rng.randint(0, 4), 4) for s in game.states}
        w = {s: min(ONE, v[s] + F(rng.randint(0, 2), 4)) for s in game.states}
        pv, _ = pre1(game, v)
        pw, _ = pre1(game, w)
        assert all(pv[s] <= pw[s] for s in game.states)


def test_pre1_sel_of_witness_equals_value():
    rng = random.Random(10)
    for _ in range(25):
        game = random_concurrent_game(rng)
        v = {s: F(rng.randint(0, 4), 4) for s in game.states}
        values, witness = pre1(game, v)
        for s in game.states:
            assert pre1_sel(game, v, s, witness) == values[s]


def test_enumerate_k_uniform_orders_and_dedup():
    dists = k_uniform_distributions(2, 2)
    assert dists[0] == (ONE, ZERO)
    assert dists[1] == (ZERO, ONE)
    assert (F(1, 2), F(1, 2)) in dists
    assert len(dists) == len(set(dists))
    # denominator-4 grid over two moves
    d4 = k_uniform_distributions(2, 4)
    assert (F(1, 4), F(3, 4)) in d4 and (F(2, 3), F(1, 3)) in d4
    # the same order as building Fraction tuples and deduplicating by set
    for n_moves in range(1, 5):
        for k in range(1, 8):
            assert k_uniform_distributions(n_moves, k) == reference_k_uniform(n_moves, k)


def test_enumerate_k_uniform_budget_checked_before_cache(monkeypatch):
    # The scan checks the budget before it builds or reads any layer of
    # the (cached) k-uniform table.
    monkeypatch.setattr("congame.matrix.MAX_KUNIFORM_ENUMERATION", 5)
    layer = congame.matrix._reduced_compositions
    built = []

    def recording_layer(n_moves, denom):
        built.append(denom)
        return layer(n_moves, denom)

    monkeypatch.setattr(congame.matrix, "_reduced_compositions", recording_layer)
    matrix = game_matrix([[1, 0], [0, 1]])
    first = _k_uniform_scan(matrix, 2)  # 5 compositions, at the budget
    assert first == (F(1, 2), (((0, 1), (0, 1), 2, (1, 1)),)) and built == [1, 2]
    with pytest.raises(BudgetExceeded, match="k=3, moves=2"):
        _k_uniform_scan(matrix, 3)  # 9 compositions
    assert built == [1, 2]
    assert _k_uniform_scan(matrix, 2) == first


def test_single_column_scan_keeps_the_budget(monkeypatch):
    # On one column the fold lists every set of maximal rows, uniformly, in
    # subset order, under the same budget as any other shape.
    monkeypatch.setattr("congame.matrix.MAX_KUNIFORM_ENUMERATION", 5)
    column = game_matrix([[1], [1]])
    assert _k_uniform_scan(column, 2) == (1, (((0,), (0,), 1, (1, 0)), ((1,), (0,), 1, (0, 1)),
                                              ((0, 1), (0,), 2, (1, 1))))
    with pytest.raises(BudgetExceeded, match="k=3, moves=2"):
        _k_uniform_scan(column, 3)


def _tied_matrix(rng: random.Random) -> MatrixGame:
    """A random 1-3 x 1-3 payoff with denominators 1-12, often with ties: a
    duplicated row, a duplicated column or every entry the same."""
    def entry():
        d = rng.randint(1, 12)
        return F(rng.randint(0, d), d)

    m, n = rng.randint(1, 3), rng.randint(1, 3)
    payoff = [[entry() for _ in range(n)] for _ in range(m)]
    kind = rng.choice(("plain", "row", "column", "constant"))
    if kind == "row":
        payoff[-1] = list(payoff[0])
    elif kind == "column":
        for row in payoff:
            row[-1] = row[0]
    elif kind == "constant":
        c = entry()
        payoff = [[c] * n for _ in range(m)]
    return game_matrix(payoff)


def test_extended_scan_equals_a_fresh_scan(ex3step1):
    # Growing the scan at k0 by layers k0+1..k gives a fresh scan's value
    # and optima, in order, called directly and through a game's cache.
    rng = random.Random(32)
    for _ in range(120):
        matrix = _tied_matrix(rng)
        fresh = {k: _k_uniform_scan(matrix, k) for k in range(1, 10)}
        for k in range(2, 10):
            for k0 in range(1, k):
                assert _k_uniform_scan(matrix, k, k0, fresh[k0]) == fresh[k]
                game = dataclasses.replace(ex3step1)  # an empty one-step cache
                congame.matrix._k_uniform_optima(game, matrix, k0)
                assert congame.matrix._k_uniform_optima(game, matrix, k) == fresh[k]
                # The entry holds one scan, the grown one.
                assert _one_step(game, matrix).scan == (k, fresh[k])
        # Out of order: a request above the kept scan grows it, and one
        # below it is scanned fresh and leaves it in place.
        game = dataclasses.replace(ex3step1)
        largest = 0
        for k in rng.sample(range(1, 10), 9):
            assert congame.matrix._k_uniform_optima(game, matrix, k) == fresh[k]
            largest = max(largest, k)
            assert _one_step(game, matrix).scan == (largest, fresh[largest])


def test_extended_scan_keeps_the_budget(monkeypatch, ex3step1):
    # Compositions of 1..k over m moves: C(k + m, m) - 1, at most 9 here.
    monkeypatch.setattr("congame.matrix.MAX_KUNIFORM_ENUMERATION", 9)
    cases = (
        ([[1, 0], [0, 1]], 3, 4, "k=4, moves=2"),
        ([[1], [1]], 3, 4, "k=4, moves=2"),
        ([[0, 1], [1, 0], [F(1, 2), F(1, 2)]], 2, 3, "k=3, moves=3"),
        ([[F(1, 3), 1]], 9, 10, "k=10, moves=1"),
    )
    for payoff, k0, k, where in cases:
        matrix = game_matrix(payoff)
        scan = _k_uniform_scan(matrix, k0)
        message = f"k-uniform enumeration budget exceeded ({where})"
        with pytest.raises(BudgetExceeded) as fresh:
            _k_uniform_scan(matrix, k)
        with pytest.raises(BudgetExceeded) as extended:
            _k_uniform_scan(matrix, k, k0, scan)
        game = dataclasses.replace(ex3step1)
        congame.matrix._k_uniform_optima(game, matrix, k0)
        with pytest.raises(BudgetExceeded) as cached:
            congame.matrix._k_uniform_optima(game, matrix, k)
        assert str(fresh.value) == str(extended.value) == str(cached.value) == message


def test_pre1_k_integer_scan_matches_fraction_reference():
    rng = random.Random(41)
    for _ in range(30):
        game = random_concurrent_game(rng, max_moves=3)
        for v in random_valuations(rng, game.states):
            for s in game.states:
                for k in range(1, 7):
                    value, mix = pre1_matrix(game, one_step_matrix(game, v, s), k)
                    ref_value, ref_mix = reference_pre1_k(game, v, s, k)
                    assert value == ref_value
                    assert list(mix.items()) == list(ref_mix.items())


def test_pre1_k_pure_and_mixed(ex3step1):
    v01 = {"s0": ZERO, "s1": ONE, "s2": ZERO}
    value, mix = pre1_matrix(ex3step1, one_step_matrix(ex3step1, v01, "s0"), 1)
    assert value == ZERO or value == F(0)  # best pure move: both columns hit 0
    v = {"s0": F(1, 2), "s1": ONE, "s2": ZERO}
    value2, mix2 = pre1_matrix(ex3step1, one_step_matrix(ex3step1, v, "s0"), 2)
    assert value2 == F(1, 2)
    assert mix2 == {"a": F(1, 2), "b": F(1, 2)}


def test_pre1_k_below_pre1_and_monotone_in_k():
    rng = random.Random(12)
    for _ in range(15):
        game = random_concurrent_game(rng)
        v = {s: F(rng.randint(0, 4), 4) for s in game.states}
        exact, _ = pre1(game, v)
        previous = None
        for k in (1, 2, 3):
            vals = {s: pre1_matrix(game, one_step_matrix(game, v, s), k)[0] for s in game.states}
            for s in game.states:
                assert vals[s] <= exact[s]
                if previous is not None:
                    assert vals[s] >= previous[s]
            previous = vals


def test_solver_deterministic():
    payoff = [[F(1), F(0), F(1, 2)], [F(0), F(1), F(1, 4)], [F(1, 2), F(1, 2), F(1, 2)]]
    game = game_matrix(payoff)
    first = solve_matrix_game(game)
    for _ in range(5):
        again = solve_matrix_game(game)
        assert again == first


def test_oracle_equivalence_outside_unit_interval():
    # Payoffs are not restricted to [0, 1]; the solver must stay exact for
    # arbitrary rationals (negative entries exercise the free value variable).
    rng = random.Random(8)
    grid = [F(-2), F(-1, 3), F(0), F(1, 4), F(1), F(7, 3), F(5)]
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        payoff = [[rng.choice(grid) for _ in range(n)] for _ in range(m)]
        sol = solve_matrix_game(game_matrix(payoff))
        assert sol.value == matrix_value_oracle(payoff)


def _random_payoffs(rng: random.Random, count: int):
    """Matrices of 1-3 rows and columns, alternately over a three-value grid
    (many ties) and over signed entries with mixed denominators."""
    tie_grid = [F(0), F(1, 2), F(1)]
    signed = [F(-3), F(-1, 2), F(-1, 7), F(0), F(1, 3), F(2, 5), F(1), F(9, 4)]
    for i in range(count):
        grid = tie_grid if i % 2 else signed
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        yield [[rng.choice(grid) for _ in range(n)] for _ in range(m)]


def test_one_lp_solve_matches_two_lp_reference():
    """On 600 random matrices the one-LP solve has the two-LP reference's
    value, the same row strategy wherever an LP runs, and a column strategy
    (read from the duals) that holds every row to the value."""
    rng = random.Random(1501)
    shapes = Counter()
    for payoff in _random_payoffs(rng, 600):
        m, n = len(payoff), len(payoff[0])
        shapes[(m, n)] += 1
        sol = solve_matrix_game(game_matrix(payoff))
        value, row_strategy, _ = reference_solve_matrix_game(payoff)
        assert sol.value == value
        if m > 1 and n > 1:
            assert sol.row_strategy == row_strategy
        y = sol.col_strategy
        assert sum(y) == 1 and min(y) >= 0
        for a in range(m):
            assert sum(q * payoff[a][b] for b, q in enumerate(y)) <= value
    assert len(shapes) == 9


@pytest.mark.parametrize("shift", [F(1, 7), F(-1, 7)])
def test_certificate_rejects_a_wrong_value(monkeypatch, shift):
    # A weak saddle point at r0/c0 (r0 ties in its row), so the simplex runs.
    payoff = [[1, 1], [F(1, 4), 1]]
    assert saddle_kind(payoff) == "weak"
    real = congame.matrix.solve_lp

    def off(*args, **kwargs):
        value, point, duals = real(*args, **kwargs)
        return value + shift, point, duals

    monkeypatch.setattr(congame.matrix, "solve_lp", off)
    with pytest.raises(AssertionError, match="certificate failed"):
        solve_matrix_game(game_matrix(payoff))


@pytest.mark.parametrize("shift", [F(1, 7), F(-1, 7)])
def test_certificate_rejects_a_wrong_closed_form(monkeypatch, shift):
    # No saddle point: the closed form answers, and its answer is checked.
    payoff = [[1, 0], [F(1, 4), 1]]
    assert saddle_kind(payoff) == "none"
    real = congame.matrix._unique_2x2

    def off(matrix):
        value, row_mix, col_mix = real(matrix)
        return value + shift, row_mix, col_mix

    monkeypatch.setattr(congame.matrix, "_unique_2x2", off)
    with pytest.raises(AssertionError, match="certificate failed"):
        solve_matrix_game(game_matrix(payoff))


def test_two_by_two_closed_form_matches_the_reference():
    """On 2000 random 2 x 2 payoffs, half over a five-value grid (many
    ties) and half over random rationals, the closed form answers exactly
    when there is no weak saddle point, and then with the two-LP
    reference's value and both its strategies; the simplex answers the
    rest with the same value."""
    rng = random.Random(3501)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    kinds = Counter()
    for i in range(2000):
        if i % 2:
            payoff = [[rng.choice(grid) for _ in range(2)] for _ in range(2)]
        else:
            payoff = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)] for _ in range(2)]
        kind = saddle_kind(payoff)
        kinds[kind] += 1
        closed = congame.matrix._unique_2x2(game_matrix(payoff))
        value, row_strategy, col_strategy = reference_solve_matrix_game(payoff)
        if kind == "weak":
            assert closed is None
            assert solve_matrix_game(game_matrix(payoff)).value == value
        else:
            assert closed is not None
            assert (closed[0], tuple(closed[1]), tuple(closed[2])) == (value, row_strategy, col_strategy)
            assert solve_matrix_game(game_matrix(payoff)) == congame.matrix.MatrixSolution(
                value, row_strategy, col_strategy
            )
    assert min(kinds[k] for k in ("none", "strict", "weak")) >= 100


def test_integer_lps_are_the_fraction_lps():
    """On 2000 random payoffs of 1 to 4 rows and columns, half drawn from a
    pool of three values (many ties), negative entries included, both LPs
    built from the integer cells answer as the same programs over the
    ``Fraction`` payoff (``oracles.fraction_game_lp`` and
    ``fraction_slack_lp``): the matrix-game LP with the same value, row
    strategy and column strategy, and the slack LP, at the game's value,
    with the same slack and point for every pair (A, B) with |A| >= 2, or
    infeasible in the same cases.  The slack LP is built for every pair,
    with no pre-filter."""
    rng = random.Random(4001)
    seen = Counter()

    def draw():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    for i in range(2000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        pool = [draw() for _ in range(3)]
        payoff = [[rng.choice(pool) if i % 2 else draw() for _ in range(n)] for _ in range(m)]
        matrix = game_matrix(payoff)
        value, row_mix, col_mix = _solve_lp_game(matrix)
        assert (value, row_mix, col_mix) == fraction_game_lp(payoff)
        seen["mixed"] += max(row_mix) < 1 and max(col_mix) < 1
        for A in _nonempty_subsets(range(m))[m:]:
            for B in _nonempty_subsets(range(n)):
                try:
                    slack, point, _ = solve_lp(*_slack_program(matrix, value, A, B))
                    got = slack, tuple(point[: len(A)])
                except LPInfeasible:
                    got = None
                assert got == fraction_slack_lp(payoff, value, A, B)
                seen["infeasible" if got is None else "slack > 0" if got[0] > 0 else "slack <= 0"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 4


@pytest.mark.parametrize("c", [F(0), F(1), F(1, 3), F(-2), F(5, 7), F(-1, 9), F(100), F(1, 1000)])
def test_constant_payoffs_take_the_simplex_answer(monkeypatch, c):
    # The simplex answers every constant m x n payoff with its value, the
    # first row and the last column; solve_matrix_game returns exactly
    # that without the simplex, and still checks it as a certificate.
    checked = []
    check = congame.matrix._check_certificate

    def counting(*args):
        checked.append(args)
        return check(*args)

    for m, n in itertools.product(range(2, 5), repeat=2):
        payoff = ((c,) * n,) * m
        expected = (c, (ONE,) + (ZERO,) * (m - 1), (ZERO,) * (n - 1) + (ONE,))
        value, row_mix, col_mix = _solve_lp_game(game_matrix(payoff))
        assert (value, tuple(row_mix), tuple(col_mix)) == expected
        with monkeypatch.context() as patch:
            patch.setattr(congame.matrix, "_solve_lp_game", None)
            patch.setattr(congame.matrix, "_check_certificate", counting)
            assert solve_matrix_game(game_matrix(payoff)) == MatrixSolution(*expected)
    assert len(checked) == 9


def _wide_distribution(rng: random.Random, states: list[str]) -> dict[str, Fraction]:
    """One entry of probability 1, or a split of a small or a 520-bit
    denominator over up to three successors, sometimes with an extra
    probability-0 entry."""
    kind = rng.randrange(3)
    if kind == 0:
        return {rng.choice(states): ONE}
    den = rng.randint(1, 6) if kind == 1 else rng.getrandbits(520) | (1 << 519)
    support = rng.sample(states, rng.randint(1, min(3, len(states), den)))
    cuts = sorted(rng.randrange(1, den) for _ in support[1:]) if den > 1 else []
    dist = {t: F(hi - lo, den) for t, lo, hi in zip(support, [0] + cuts, cuts + [den])}
    rest = [t for t in states if t not in dist]
    if rest and rng.random() < 0.4:
        dist[rng.choice(rest)] = ZERO
    return dist


def _wide_game(rng: random.Random) -> GameStructure:
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    moves1 = {s: ("a", "b", "c")[: rng.randint(1, 3)] for s in states}
    moves2 = {s: ("a", "b", "c")[: rng.randint(1, 3)] for s in states}
    delta = {
        (s, a, b): _wide_distribution(rng, states)
        for s in states for a in moves1[s] for b in moves2[s]
    }
    return GameStructure(tuple(states), ("a", "b", "c"), moves1, moves2, delta)


def _wide_valuations(rng: random.Random, states) -> list[dict[str, Fraction]]:
    """0/1 values, small signed rationals, values over denominators of at
    least 500 bits, and a constant valuation."""
    return [
        {s: F(rng.randint(0, 1)) for s in states},
        {s: F(rng.randint(-6, 6), rng.randint(1, 12)) for s in states},
        {s: F(rng.getrandbits(510), rng.getrandbits(510) | (1 << 500)) for s in states},
        dict.fromkeys(states, F(rng.randint(0, 4), 4)),
    ]


def test_integer_one_step_matrix_matches_the_fraction_sums():
    """On random (game, valuation, state) triples, the integer build has
    the payoff of the ``Fraction`` sums in canonical form: a positive scale
    sharing no factor with every cell, the form ``MatrixGame`` makes of the
    reference payoff, so equal payoffs, and only they, share a cache key."""
    rng = random.Random(3601)
    keys: dict = {}
    seen = Counter()
    while seen["triples"] < 1200:
        game = _wide_game(rng)
        for v in _wide_valuations(rng, game.states):
            for s in game.states:
                got = one_step_matrix(game, v, s)
                ref = fraction_one_step_matrix(game, v, s)
                payoff = fraction_payoff(got)
                assert (got.rows, got.cols, payoff) == (ref.rows, ref.cols, fraction_payoff(ref))
                assert got.scale > 0 and math.gcd(got.scale, *itertools.chain(*got.cells)) == 1
                key = (got.cells, got.scale)
                assert key == (ref.cells, ref.scale) and got == ref
                assert keys.setdefault(fraction_payoff(ref), key) == key
                if len(got.rows) > 1 and len(got.cols) > 1:
                    assert _one_step(game, got) is _one_step(game, ref)
                dists = [game.delta[(s, a, b)] for a in got.rows for b in got.cols]
                seen["triples"] += 1
                seen["zero"] += any(0 in dist.values() for dist in dists)
                seen["one-entry"] += any(len(dist) == 1 for dist in dists)
                seen["wide"] += any(
                    p.denominator.bit_length() >= 500 for dist in dists for p in dist.values()
                ) or any(x.denominator.bit_length() >= 500 for x in v.values())
    assert len(set(keys.values())) == len(keys) < seen["triples"]
    assert min(seen[kind] for kind in ("zero", "one-entry", "wide")) >= 200


def _equal_copy(x):
    """A value equal to ``x`` but a distinct object: ``Fraction(1)`` for
    ``1``, ``1`` for ``Fraction(1)``, ``Fraction(2, 4)`` for ``Fraction(1, 2)``."""
    if not isinstance(x, Fraction):
        return Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return Fraction(2 * x.numerator, 2 * x.denominator)


def test_one_step_matrix_reuses_only_an_unchanged_valuation():
    """Seeded valuation sequences at each state of random games: every
    matrix equals the ``Fraction`` sums and a build on a fresh copy of the
    game, and a call whose successor values are unchanged since the last
    call at that state (nothing changed, only non-successors changed, or
    equal but distinct values) returns the same object.  Calls at other
    states come in between, so a slot shared by the states would miss, and
    one keyed by the state alone would return a stale matrix after a
    successor changed."""
    rng = random.Random(3801)
    seen = Counter()

    def small():
        return rng.choice((0, 1, ONE, ZERO, F(rng.randint(-6, 6), rng.randint(1, 12))))

    for _ in range(200):
        game = _wide_game(rng)
        v = {s: small() for s in game.states}
        for s in game.states:
            successors = {
                t for a in game.moves1[s] for b in game.moves2[s]
                for t, p in game.delta[(s, a, b)].items() if p
            }
            others = [t for t in game.states if t not in successors]
            last = None
            for _ in range(8):
                kind = rng.choice(("none", "others", "successor", "equal"))
                if kind == "others" and not others:
                    kind = "none"
                if kind == "others":
                    for t in others:
                        v[t] = v[t] + rng.randint(1, 3)
                elif kind == "successor":
                    t = rng.choice(sorted(successors))
                    v[t] = v[t] + F(1, rng.randint(1, 5))
                elif kind == "equal":
                    v = {t: _equal_copy(x) for t, x in v.items()}
                got = one_step_matrix(game, v, s)
                ref = fraction_one_step_matrix(game, v, s)
                fresh = one_step_matrix(dataclasses.replace(game), v, s)
                assert got == ref == fresh and fraction_payoff(got) == fraction_payoff(ref)
                if last is not None and kind != "successor":
                    assert got is last
                    seen[kind] += 1
                elif last is not None:
                    assert got != last
                    seen[kind] += 1
                last = got
                r = rng.choice(game.states)
                if r != s:
                    w = {t: small() for t in game.states}
                    assert one_step_matrix(game, w, r) == fraction_one_step_matrix(game, w, r)
                    seen["between"] += 1
        seen["zero"] += any(
            p == 0 for dist in game.delta.values() for p in dist.values()
        )
    assert min(seen.values()) >= 100, seen


def _line_matrix(rng: random.Random) -> MatrixGame:
    """A random 1 x n or m x 1 matrix of small integers, 1-4 long, often
    with ties."""
    length = rng.randint(1, 4)
    top = rng.choice((0, 1, 2, 5))
    line = [F(rng.randint(-top, top), rng.choice((1, 1, 3))) for _ in range(length)]
    if rng.random() < 0.5:
        return game_matrix([line])
    return game_matrix([[x] for x in line])


def _pairs(optima):
    """The pairs of k-uniform scan optima, with their witnesses, in subset
    order: what ``optimal_pairs`` returns on a matrix of 2 x 2 or more."""
    return tuple(sorted(
        ((A, B, tuple(F(counts[a], denom) for a in A)) for A, B, denom, counts in optima),
        key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]),
    ))


def test_one_line_answers_are_the_solver_and_scan_answers(monkeypatch):
    # On one row or one column, pre1_matrix and optimal_pairs read the
    # answer off the cells: the solver's value and row, and the general
    # k-uniform scan's first optimum and pairs, witnesses included.  With
    # no k the pairs are those of a scan at k = the row count, which reaches
    # every set of maximal rows.  The scan's errors come first all the
    # same, and no such matrix reaches the cache.
    rng = random.Random(3802)
    game = GameStructure(("q",), ("a",), {"q": ("a",)}, {"q": ("a",)}, {("q", "a", "a"): {"q": ONE}})
    shapes = Counter()
    maximal = Counter()
    for _ in range(2000):
        matrix = _line_matrix(rng)
        m, n = len(matrix.rows), len(matrix.cols)
        cells = list(itertools.chain(*matrix.cells))
        shapes["row" if m == 1 else "column", len(set(cells)) < len(cells)] += 1
        if m > 1:
            maximal[cells.count(max(cells))] += 1
        solution = solve_matrix_game(matrix)
        value, mix = pre1_matrix(game, matrix)
        assert value == solution.value
        assert list(mix.items()) == [(a, p) for a, p in zip(matrix.rows, solution.row_strategy) if p > 0]
        assert optimal_pairs(game, matrix) == _pairs(_k_uniform_scan(matrix, m)[1])
        for k in range(1, 7):
            scan_value, optima = _k_uniform_scan(matrix, k)
            _, _, denom, counts = optima[0]
            value, mix = pre1_matrix(game, matrix, k)
            assert value == scan_value == solution.value
            assert list(mix.items()) == [(a, F(c, denom)) for a, c in zip(matrix.rows, counts) if c]
            assert optimal_pairs(game, matrix, k) == _pairs(optima)
        for answer in (pre1_matrix, optimal_pairs):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                answer(game, matrix, 0)
    assert not game.one_step_cache
    assert min(shapes.values()) >= 200, shapes
    # Columns with 1 to 4 maximal rows.
    assert sorted(maximal) == [1, 2, 3, 4] and min(maximal.values()) >= 40, maximal
    monkeypatch.setattr("congame.matrix.MAX_KUNIFORM_ENUMERATION", 5)
    for payoff, k, where in (([[1, 2, 2]], 6, "k=6, moves=1"), ([[1], [2], [2]], 2, "k=2, moves=3")):
        matrix = game_matrix(payoff)
        with pytest.raises(BudgetExceeded) as scanned:
            _k_uniform_scan(matrix, k)
        assert str(scanned.value) == f"k-uniform enumeration budget exceeded ({where})"
        for answer in (pre1_matrix, optimal_pairs):
            with pytest.raises(BudgetExceeded) as answered:
                answer(game, matrix, k)
            assert str(answered.value) == str(scanned.value)
        assert pre1_matrix(game, matrix, k - 1) == pre1_matrix(game, matrix)
        assert optimal_pairs(game, matrix, k - 1) == _pairs(_k_uniform_scan(matrix, k - 1)[1])
