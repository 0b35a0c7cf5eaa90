"""The integer-pivoting simplex: hand-checked LPs, argument checks, and a
differential test against the `Fraction` tableau in `oracles`."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import congame.linprog as linprog
from congame import MatrixGame, solve_matrix_game
from congame.linprog import EQ, GEQ, LPInfeasible, LPUnbounded, solve_lp

import oracles

F = Fraction


def test_rock_paper_scissors():
    payoff = ((F(0), F(-1), F(1)), (F(1), F(0), F(-1)), (F(-1), F(1), F(0)))
    sol = solve_matrix_game(MatrixGame.of(("R", "P", "S"), ("R", "P", "S"), payoff))
    assert sol.value == 0
    assert sol.row_strategy == (F(1, 3),) * 3
    assert sol.col_strategy == (F(1, 3),) * 3


def test_infeasible():
    # x >= 2 and x <= 1.
    with pytest.raises(LPInfeasible):
        solve_lp([1], [[1], [-1]], [GEQ, GEQ], [2, -1])


def test_unbounded():
    # maximize x + y subject to x - y <= 1.
    with pytest.raises(LPUnbounded):
        solve_lp([1, 1], [[-1, 1]], [GEQ], [-1])


def test_equality_with_negative_rhs():
    # -x - 2y == -4 and x <= 3: the profit -2x - 3y = -6 - x/2 is greatest
    # at x = 0.
    value, point, duals = solve_lp([-2, -3], [[-1, -2], [-1, 0]], [EQ, GEQ], [-4, -3])
    assert value == -6
    assert point == [F(0), F(2)]
    assert duals == [None, 0]


def test_redundant_equality_row():
    # The second equality is the first one times 3/2; maximize y - x.
    rows = [[2, 2], [3, 3]]
    value, point, duals = solve_lp([-1, 1], rows, [EQ, EQ], [4, 6])
    assert value == 2
    assert point == [F(0), F(2)]
    assert duals == [None, None]


def test_maximize_minimize_pair():
    # The polygon with vertices (1,0), (4,0), (3,1), (0,2), (0,1): x + y <= 4
    # and x + 3y <= 6 as >= rows with negative right-hand sides, and x + y >= 1.
    rows = [[-1, -1], [-1, -3], [1, 1]]
    senses = [GEQ, GEQ, GEQ]
    rhs = [-4, -6, 1]
    # The maximum (3, 1) of x + 2y is bound by the two negated rows, the
    # minimum (1, 0), run as the maximum of -x - 2y, by the third; the duals
    # are the shadow prices d optimum / d rhs.
    assert solve_lp([1, 2], rows, senses, rhs) == (5, [F(3), F(1)], [F(-1, 2), F(-1, 2), 0])
    assert solve_lp([-1, -2], rows, senses, rhs) == (-1, [F(1), F(0)], [0, 0, -1])


@pytest.mark.parametrize(
    "rows, senses, rhs",
    [
        ([[1], [1]], [GEQ], [1, 2]),
        ([[1]], [GEQ], [1, 5]),
        ([[1]], [GEQ, EQ], [1]),
    ],
)
def test_mismatched_constraint_lists(rows, senses, rhs):
    with pytest.raises(ValueError, match="constraint rows"):
        solve_lp([1], rows, senses, rhs)


def test_only_geq_and_eq_rows():
    with pytest.raises(ValueError, match="unknown sense"):
        solve_lp([1], [[1]], ["<="], [1])


def _number(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return 0
    return rng.randint(-6, 6)


def _random_lp(rng: random.Random):
    """1-5 variables, 1-5 rows of mixed senses and signs of the right-hand
    side; some rows are integer multiples of earlier ones, and some LPs have
    the degenerate shape of a matrix game."""
    if rng.random() < 0.15:
        n_rows, n_cols = rng.randint(2, 3), rng.randint(2, 3)
        payoff = [[_number(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        rows = [[payoff[a][b] for a in range(n_rows)] + [-1, 1] for b in range(n_cols)]
        rows.append([1] * n_rows + [0, 0])
        objective = [0] * n_rows + [1, -1]
        return objective, rows, [GEQ] * n_cols + [EQ], [0] * n_cols + [1]
    n = rng.randint(1, 5)
    rows, senses, rhs = [], [], []
    for _ in range(rng.randint(1, 5)):
        if rows and rng.random() < 0.25:
            k = rng.randrange(len(rows))
            scale = rng.choice((1, 2, -1, 3, -2))
            rows.append([scale * x for x in rows[k]])
            senses.append(EQ if rng.random() < 0.6 else senses[k])
            rhs.append(scale * rhs[k])
        else:
            rows.append([_number(rng) for _ in range(n)])
            senses.append(rng.choice((GEQ, EQ)))
            rhs.append(_number(rng))
    objective = [_number(rng) for _ in range(n)]
    return objective, rows, senses, rhs


def _outcome(solve, lp):
    try:
        return solve(*lp)
    except (LPInfeasible, LPUnbounded, oracles.LPInfeasible, oracles.LPUnbounded) as exc:
        return type(exc).__name__


def test_matches_fraction_tableau(monkeypatch):
    """On 5000 random LPs the integer simplex takes the Fraction tableau's
    pivots in the same order and returns the same value, point or exception,
    and every Bareiss division is exact."""
    pivots: list[tuple[int, int]] = []
    negative_pivots = 0
    phase_rows: list[int] = []
    pivot, run_simplex = linprog._pivot, linprog._run_simplex

    def checked_pivot(tableau, basis, d, row, col):
        nonlocal negative_pivots
        pivot_row = tableau[row]
        p = pivot_row[col]
        negative_pivots += p < 0
        for i, current in enumerate(tableau):
            if i != row:
                f = current[col]
                assert all((x * p - f * y) % d == 0 for x, y in zip(current, pivot_row))
        pivots.append((row, col))
        return pivot(tableau, basis, d, row, col)

    def counted_simplex(tableau, basis, d, ncols):
        phase_rows.append(len(basis))
        return run_simplex(tableau, basis, d, ncols)

    monkeypatch.setattr(linprog, "_pivot", checked_pivot)
    monkeypatch.setattr(linprog, "_run_simplex", counted_simplex)
    rng = random.Random(20240613)
    outcomes = {"optimal": 0, "LPInfeasible": 0, "LPUnbounded": 0}
    deletions = 0
    for _ in range(5000):
        lp = _random_lp(rng)
        pivots.clear()
        phase_rows.clear()
        got = _outcome(lambda *args: solve_lp(*args)[:2], lp)
        expected_pivots: list[tuple[int, int]] = []
        expected = _outcome(
            lambda *args: oracles.reference_solve_lp(
                *args, maximize=True, pivots=expected_pivots
            ),
            lp,
        )
        assert got == expected, lp
        assert pivots == expected_pivots, lp
        outcomes["optimal" if isinstance(got, tuple) else got] += 1
        deletions += min(phase_rows) < len(lp[1])
    assert min(outcomes.values()) > 500, outcomes
    assert negative_pivots > 0
    assert deletions > 0


def test_duals_are_shadow_prices():
    """On 500 random feasible, bounded LPs with ``>=`` rows only, the duals
    are feasible for the dual program and ``sum(rhs * dual)`` is the
    optimum, which proves them optimal.  Every dual is ``<= 0``; some
    right-hand sides are negative, so rows normalized by negation are
    covered."""
    rng = random.Random(1502)
    solved = 0
    while solved < 500:
        n = rng.randint(1, 4)
        rows = [[_number(rng) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rhs = [_number(rng) for _ in rows]
        objective = [_number(rng) for _ in range(n)]
        try:
            value, _, duals = solve_lp(objective, rows, [GEQ] * len(rows), rhs)
        except (LPInfeasible, LPUnbounded):
            continue
        solved += 1
        assert sum(b * y for b, y in zip(rhs, duals)) == value
        assert all(y <= 0 for y in duals)
        for j, c in enumerate(objective):
            assert sum(y * row[j] for y, row in zip(duals, rows)) >= c
