"""Zero-sum matrix games and the one-step Pre operators built on them.

``Pre1(v)(s)``, the best expectation of a valuation ``v`` that player 1 can
guarantee in one step from ``s``, is the value of a one-shot matrix game
whose payoff entries are expected successor values.  Matrix games are solved
exactly: the maximin linear program is run through the rational simplex for
each side, and the two optimal values are checked for equality before the
solution is returned.

``pre1_k`` restricts player 1 to k-uniform mixtures (all probabilities
multiples of ``1/l`` for a common denominator ``l <= k``) and maximizes by
enumeration.  The mixtures are integer count vectors, each listed once at
its least denominator and built once per (move count, denominator); they
are scored in integers against the one-step matrix scaled by the common
denominator of its entries, and only the result becomes a ``Fraction``.
The enumeration budget is checked up front from the composition count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping

from .linprog import EQ, GEQ, LEQ, solve_lp
from .model import BudgetExceeded, GameStructure, Selector, ZERO, ONE

# Guard for the k-uniform enumerations (compositions of l <= k over a move
# set, repeats included); pathological inputs should fail loudly instead of
# hanging.
MAX_KUNIFORM_ENUMERATION = 500_000


@dataclass(frozen=True)
class MatrixGame:
    """One-shot zero-sum game; the row player maximizes."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    payoff: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.cols:
            raise ValueError("matrix game needs nonempty rows and cols")
        if len(self.payoff) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.payoff
        ):
            raise ValueError("payoff shape does not match labels")


@dataclass(frozen=True)
class MatrixSolution:
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _solve_rows_lp(payoff, n_rows: int, n_cols: int) -> tuple[Fraction, list[Fraction]]:
    # Variables: x_0..x_{m-1}, g+, g-; maximize g = g+ - g-.
    objective = [ZERO] * n_rows + [ONE, -ONE]
    rows = []
    senses = []
    rhs = []
    for b in range(n_cols):
        rows.append([payoff[a][b] for a in range(n_rows)] + [-ONE, ONE])
        senses.append(GEQ)
        rhs.append(ZERO)
    rows.append([ONE] * n_rows + [ZERO, ZERO])
    senses.append(EQ)
    rhs.append(ONE)
    value, point = solve_lp(objective, rows, senses, rhs, maximize=True)
    return value, point[:n_rows]


def _solve_cols_lp(payoff, n_rows: int, n_cols: int) -> tuple[Fraction, list[Fraction]]:
    objective = [ZERO] * n_cols + [ONE, -ONE]
    rows = []
    senses = []
    rhs = []
    for a in range(n_rows):
        rows.append([payoff[a][b] for b in range(n_cols)] + [-ONE, ONE])
        senses.append(LEQ)
        rhs.append(ZERO)
    rows.append([ONE] * n_cols + [ZERO, ZERO])
    senses.append(EQ)
    rhs.append(ONE)
    value, point = solve_lp(objective, rows, senses, rhs, maximize=False)
    return value, point[:n_cols]


def solve_matrix_game(game: MatrixGame) -> MatrixSolution:
    """Exact value and one optimal mixed strategy per player.

    Deterministic: degenerate shapes take closed forms with first-index tie
    breaking, and the general case inherits the simplex pivoting order.
    """
    payoff = game.payoff
    m, n = len(game.rows), len(game.cols)
    if n == 1:
        best = max(range(m), key=lambda a: (payoff[a][0], -a))
        row = tuple(ONE if a == best else ZERO for a in range(m))
        return MatrixSolution(payoff[best][0], row, (ONE,))
    if m == 1:
        best = min(range(n), key=lambda b: (payoff[0][b], b))
        col = tuple(ONE if b == best else ZERO for b in range(n))
        return MatrixSolution(payoff[0][best], (ONE,), col)
    row_value, row_mix = _solve_rows_lp(payoff, m, n)
    col_value, col_mix = _solve_cols_lp(payoff, m, n)
    if row_value != col_value:
        raise AssertionError(
            f"matrix game duality gap: {row_value} vs {col_value}"
        )
    return MatrixSolution(row_value, tuple(row_mix), tuple(col_mix))


def one_step_matrix(game: GameStructure, v: Mapping[str, Fraction], s: str) -> MatrixGame:
    """Matrix of expected ``v``-values, one entry per move pair at ``s``."""
    rows = game.moves1[s]
    cols = game.moves2[s]
    payoff = tuple(tuple(_expected(game.delta[(s, a, b)], v) for b in cols) for a in rows)
    return MatrixGame(rows, cols, payoff)


def _expected(dist: Mapping[str, Fraction], v: Mapping[str, Fraction]) -> Fraction:
    if len(dist) == 1:
        # A validated one-entry distribution puts probability 1 on it.
        (t,) = dist
        return v[t]
    return sum((p * v[t] for t, p in dist.items()), ZERO)


def pre1_state(game: GameStructure, v: Mapping[str, Fraction], s: str) -> tuple[Fraction, dict[str, Fraction]]:
    """Value of Pre1(v) at one state, with the optimal mixture as witness."""
    solution = solve_matrix_game(one_step_matrix(game, v, s))
    mix = {
        a: p for a, p in zip(game.moves1[s], solution.row_strategy) if p > 0
    }
    return solution.value, mix


def pre1(game: GameStructure, v: Mapping[str, Fraction]) -> tuple[dict[str, Fraction], Selector]:
    """Pointwise sup-inf one-step operator with a witness selector."""
    values: dict[str, Fraction] = {}
    choice: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        values[s], choice[s] = pre1_state(game, v, s)
    return values, Selector(1, choice)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.cache
def _reduced_compositions(n_moves: int, denom: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # A composition of denom sharing a factor g > 1 with denom is the
    # distribution already listed, reduced, at denominator denom / g.
    return tuple(
        (denom, counts)
        for counts in _compositions(denom, n_moves)
        if math.gcd(denom, *counts) == 1
    )


def enumerate_k_uniform(n_moves: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All distributions over ``n_moves`` moves whose probabilities share a
    denominator ``l <= k``, each once, as ``(l, counts)`` with probabilities
    ``counts[i] / l``: denominators ascending, each distribution at its
    least denominator, in a fixed order within one denominator.

    The entries of each denominator are built once and shared by every
    later call, so together they take no more memory than the table for
    the largest ``k`` requested.
    Before they are consulted, the number of compositions the table is
    built from is checked against ``MAX_KUNIFORM_ENUMERATION``; a larger
    count raises ``BudgetExceeded``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # Compositions of 1..k into n_moves parts: C(k + n_moves, n_moves) - 1.
    if math.comb(k + n_moves, n_moves) - 1 > MAX_KUNIFORM_ENUMERATION:
        raise BudgetExceeded(
            f"k-uniform enumeration budget exceeded (k={k}, moves={n_moves})"
        )
    return tuple(itertools.chain.from_iterable(
        _reduced_compositions(n_moves, denom) for denom in range(1, k + 1)
    ))


def _k_uniform_scan(
    matrix: MatrixGame, k: int
) -> tuple[Fraction, list[tuple[int, tuple[int, ...], list[int]]]]:
    """The best worst-case payoff of a k-uniform row mixture, with every
    mixture attaining it in enumeration order as ``(l, counts, sums)``.

    ``sums[j]`` is ``l * scale`` times the payoff of column ``j``, where
    ``scale`` is the least common denominator of the payoffs, so each
    mixture is scored in integers.
    """
    scale = math.lcm(*(x.denominator for row in matrix.payoff for x in row))
    cols = [
        [x.numerator * (scale // x.denominator) for x in col]
        for col in zip(*matrix.payoff)
    ]
    best_low, best_denom = None, 1
    optima: list[tuple[int, tuple[int, ...], list[int]]] = []
    for denom, counts in enumerate_k_uniform(len(matrix.rows), k):
        sums = [sum(map(mul, counts, col)) for col in cols]
        low = min(sums)
        if best_low is None or low * best_denom > best_low * denom:
            best_low, best_denom, optima = low, denom, [(denom, counts, sums)]
        elif low * best_denom == best_low * denom:
            optima.append((denom, counts, sums))
    return Fraction(best_low, best_denom * scale), optima


def pre1_k(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int
) -> tuple[Fraction, dict[str, Fraction]]:
    """Best one-step value over k-uniform player-1 mixtures at ``s``.

    Ties go to the earliest mixture in the enumeration order, so the result
    is deterministic.  Mixtures are scored in integer arithmetic; only the
    returned value and mixture are ``Fraction``s.
    """
    matrix = one_step_matrix(game, v, s)
    value, optima = _k_uniform_scan(matrix, k)
    denom, counts, _ = optima[0]
    return value, {a: Fraction(c, denom) for a, c in zip(matrix.rows, counts) if c}
