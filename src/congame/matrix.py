"""Zero-sum matrix games and the one-step Pre operators built on them.

``Pre1(v)(s)``, the best expectation of a valuation ``v`` that player 1 can
guarantee in one step from ``s``, is the value of a one-shot matrix game
whose payoff entries are expected successor values.  Matrix games are solved
exactly by one run of the rational simplex: the row player's maximin
program gives the value and a row strategy, and the dual prices of its
column constraints give a column strategy.  Before the solution is
returned, the pair is checked as a certificate in exact arithmetic: each is
a distribution, the row strategy earns at least the value against every
column and the column strategy concedes at most the value to every row,
which proves that the value is the game's.

A game's one-step results are kept for as long as the game object lives,
in ``GameStructure.one_step_cache``, keyed by payoff matrix: the solution,
the non-local step's support pairs (``safety_si``) and the k-uniform scan
per ``k``.  Each is a function of the payoff alone, stored by position, so
a hit returns what a fresh computation would.  A scan at ``k`` is also the
start of the payoff's scans at larger ``k``, which score only the
denominator layers it lacks.  Solvers hold states by ``done`` sets, not
absorbing copies, so the cache lives on the game they were given: on the
command line, the game parsed for one solve.  Matrices with one row or
one column take closed forms and bypass it.

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
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import AbstractSet, Mapping

from .linprog import EQ, GEQ, solve_lp
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


def _solve_lp_game(
    payoff, n_rows: int, n_cols: int
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """The value, an optimal row strategy and an optimal column strategy.

    Variables: x_0..x_{m-1}, g+, g-; maximize g = g+ - g- subject to one
    ``>=`` row per column.  The column LP is this program's dual: the
    shadow price of column ``b``'s row is ``-y_b``.
    """
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
    value, point, duals = solve_lp(objective, rows, senses, rhs, maximize=True)
    return value, point[:n_rows], [-y for y in duals[:n_cols]]


def _scaled(numbers) -> tuple[int, list[int]]:
    """The least common denominator ``d`` of ``numbers`` and each of them
    times ``d``, as integers."""
    d = math.lcm(*(x.denominator for x in numbers))
    return d, [x.numerator * (d // x.denominator) for x in numbers]


def _check_certificate(payoff, value: Fraction, row_mix, col_mix) -> None:
    """Raise unless both mixtures are distributions, ``row_mix`` earns at
    least ``value`` in every column and ``col_mix`` concedes at most
    ``value`` in every row; together these prove ``value`` is the value.

    Checked in integers: payoffs and mixtures are scaled by their least
    common denominators, and each sum is compared against ``value`` scaled
    by the same factors."""
    scale, cells = _scaled([x for row in payoff for x in row])
    n = len(payoff[0])
    rows = [cells[i : i + n] for i in range(0, len(cells), n)]
    dx, xs = _scaled(row_mix)
    dy, ys = _scaled(col_mix)
    num, den = value.numerator, value.denominator
    if not (
        sum(xs) == dx and min(xs) >= 0 and sum(ys) == dy and min(ys) >= 0
        and all(sum(map(mul, xs, col)) * den >= num * scale * dx for col in zip(*rows))
        and all(sum(map(mul, ys, row)) * den <= num * scale * dy for row in rows)
    ):
        raise AssertionError(
            f"matrix game certificate failed for value {value}: "
            f"rows {list(map(str, row_mix))}, columns {list(map(str, col_mix))}"
        )


def solve_matrix_game(game: MatrixGame) -> MatrixSolution:
    """Exact value and one optimal mixed strategy per player.

    Deterministic: degenerate shapes take closed forms with first-index tie
    breaking, and the general case inherits the simplex pivoting order.
    The general case runs one LP and checks its certificate.
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
    value, row_mix, col_mix = _solve_lp_game(payoff, m, n)
    _check_certificate(payoff, value, row_mix, col_mix)
    return MatrixSolution(value, tuple(row_mix), tuple(col_mix))


@dataclass(slots=True)
class _OneStep:
    """What has been computed for one payoff matrix of a game: its solution,
    ``safety_si``'s unrestricted support pairs, and the k-uniform scan per
    ``k``.  Everything is by row and column position."""

    solution: MatrixSolution | None = None
    pairs: tuple | None = None
    scans: dict[int, tuple] = field(default_factory=dict)


def _one_step(game: GameStructure, matrix: MatrixGame) -> _OneStep | None:
    """The cache entry of ``matrix`` in ``game``, or None for a matrix with
    one row or one column: those take closed forms and bypass the cache."""
    if len(matrix.rows) < 2 or len(matrix.cols) < 2:
        return None
    cache = game.one_step_cache
    entry = cache.get(matrix.payoff)
    if entry is None:
        entry = cache[matrix.payoff] = _OneStep()
    return entry


def _solution(game: GameStructure, matrix: MatrixGame) -> MatrixSolution:
    """``solve_matrix_game(matrix)``, solved at most once per payoff in ``game``."""
    entry = _one_step(game, matrix)
    if entry is None:
        return solve_matrix_game(matrix)
    if entry.solution is None:
        entry.solution = solve_matrix_game(matrix)
    return entry.solution


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
    return _pre1_matrix(game, one_step_matrix(game, v, s))


def pre1(
    game: GameStructure, v: Mapping[str, Fraction], done: AbstractSet[str] = frozenset()
) -> tuple[dict[str, Fraction], Selector]:
    """Pointwise sup-inf one-step operator with a witness selector; a state
    in ``done`` is held at ``v[s]`` with its first move as witness, which
    is what the matrix game of a self-loop (every entry ``v[s]``) returns."""
    values: dict[str, Fraction] = {}
    choice: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        if s in done:
            values[s], choice[s] = v[s], {game.moves1[s][0]: ONE}
        else:
            values[s], choice[s] = pre1_state(game, v, s)
    return values, Selector(choice)


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


def _check_k_uniform_budget(n_moves: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    # Compositions of 1..k into n_moves parts: C(k + n_moves, n_moves) - 1.
    if math.comb(k + n_moves, n_moves) - 1 > MAX_KUNIFORM_ENUMERATION:
        raise BudgetExceeded(
            f"k-uniform enumeration budget exceeded (k={k}, moves={n_moves})"
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
    _check_k_uniform_budget(n_moves, k)
    return tuple(itertools.chain.from_iterable(
        _reduced_compositions(n_moves, denom) for denom in range(1, k + 1)
    ))


KUniformOptimum = tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]
KUniformScan = tuple[Fraction, tuple[KUniformOptimum, ...]]


def _k_uniform_scan(
    matrix: MatrixGame, k: int, k0: int = 0, scan: KUniformScan | None = None
) -> KUniformScan:
    """The best worst-case payoff of a k-uniform row mixture, with the
    first mixture attaining it, in enumeration order, of each (support,
    counter-set) pair the attaining mixtures realize.

    Each is ``(A, B, l, counts)``: row positions ``A`` with ``counts > 0``,
    column positions ``B`` holding the mixture to the optimum, and
    probabilities ``counts[i] / l``.  The first is the first optimal mixture.

    The scan is a fold over denominator layers: layer ``l`` holds the
    mixtures whose least denominator is ``l`` (``_reduced_compositions``),
    so the k-uniform mixtures are layers 1..k in enumeration order.  Given
    ``scan``, this function's result at ``k0 < k``, only layers
    ``k0 + 1 .. k`` are scored and folded onto it; without, the fold starts
    from nothing, and the result is the same either way.  Each layer is
    scored on its own and merged: a strictly higher layer best replaces the
    optima, an equal one appends the pairs it realizes that are not listed
    yet, and a lower one leaves the scan as it was.  A mixture is scored in
    integers: column ``j`` gets ``l * scale`` times its payoff, where
    ``scale`` is the least common denominator of the payoffs.  One row has
    only the pure mixture, in layer 1.  The budget is checked first,
    against ``k``.

    A single column has a closed form: the optimal mixtures are those over
    its maximal rows, the first in enumeration order is the first maximal
    row alone, and layer ``l`` adds each support ``A`` of ``l`` maximal
    rows, as the uniform mixture on ``A``, in subset order.
    """
    m = len(matrix.rows)
    _check_k_uniform_budget(m, k)
    value, optima = scan if scan is not None else (None, ())
    if len(matrix.cols) == 1:
        high = max(row[0] for row in matrix.payoff)
        best = [a for a, row in enumerate(matrix.payoff) if row[0] == high]
        return high, optima + tuple(
            (A, (0,), size, tuple(int(a in A) for a in range(m)))
            for size in range(k0 + 1, min(k, len(best)) + 1)
            for A in itertools.combinations(best, size)
        )
    scale = math.lcm(*(x.denominator for row in matrix.payoff for x in row))
    cols = [
        [x.numerator * (scale // x.denominator) for x in col]
        for col in zip(*matrix.payoff)
    ]
    for denom in range(k0 + 1, (k if m > 1 else 1) + 1):
        best_low = None
        ties: list[tuple[tuple[int, ...], list[int]]] = []
        for _, counts in _reduced_compositions(m, denom):
            sums = [sum(map(mul, counts, col)) for col in cols]
            low = min(sums)
            if best_low is None or low > best_low:
                best_low, ties = low, [(counts, sums)]
            elif low == best_low:
                ties.append((counts, sums))
        # The sign of best_low / (denom * scale) - value.
        ahead = 1 if value is None else (
            best_low * value.denominator - value.numerator * denom * scale
        )
        if ahead < 0:
            continue
        listed = set() if ahead > 0 else {(A, B) for A, B, _, _ in optima}
        found = []
        for counts, sums in ties:
            A = tuple(i for i, c in enumerate(counts) if c)
            B = tuple(j for j, x in enumerate(sums) if x == best_low)
            if (A, B) not in listed:
                listed.add((A, B))
                found.append((A, B, denom, counts))
        if ahead > 0:
            value, optima = Fraction(best_low, denom * scale), tuple(found)
        else:
            optima += tuple(found)
    return value, optima


def _k_uniform_optima(game: GameStructure, matrix: MatrixGame, k: int) -> KUniformScan:
    """``_k_uniform_scan(matrix, k)``, scanned at most once per payoff and
    ``k`` in ``game``, and grown from the payoff's cached scan at the
    largest ``k0 < k``, if any, so that a run raising k one step at a time
    scores each denominator layer of a payoff once."""
    entry = _one_step(game, matrix)
    if entry is None:
        return _k_uniform_scan(matrix, k)
    scans = entry.scans
    scan = scans.get(k)
    if scan is None:
        k0 = max((j for j in scans if j < k), default=0)
        scan = scans[k] = _k_uniform_scan(matrix, k, k0, scans.get(k0))
    return scan


def _pre1_matrix(
    game: GameStructure, matrix: MatrixGame, k: int | None = None
) -> tuple[Fraction, dict[str, Fraction]]:
    """The value of ``matrix`` for the row player, over all mixtures or,
    given ``k``, over k-uniform ones, with the optimal mixture the solver
    or the scan returns first, by row label."""
    if k is None:
        solution = _solution(game, matrix)
        return solution.value, {
            a: p for a, p in zip(matrix.rows, solution.row_strategy) if p > 0
        }
    value, optima = _k_uniform_optima(game, matrix, k)
    _, _, denom, counts = optima[0]
    return value, {a: Fraction(c, denom) for a, c in zip(matrix.rows, counts) if c}


def pre1_k(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int
) -> tuple[Fraction, dict[str, Fraction]]:
    """Best one-step value over k-uniform player-1 mixtures at ``s``.

    Ties go to the earliest mixture in the enumeration order, so the result
    is deterministic.  Mixtures are scored in integer arithmetic; only the
    returned value and mixture are ``Fraction``s.
    """
    return _pre1_matrix(game, one_step_matrix(game, v, s), k)
