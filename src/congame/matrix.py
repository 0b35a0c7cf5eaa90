"""Zero-sum matrix games and every one-step answer built on them.

``Pre1(v)(s)``, the best expectation of a valuation ``v`` that player 1 can
guarantee in one step from ``s``, is the value of a one-shot matrix game
whose payoff entries are expected successor values.  A ``MatrixGame``
holds its payoff as integer cells over one positive scale, reduced so
that the scale shares no factor with every cell.  ``one_step_matrix``
builds that form directly: each state's move pairs are kept once per game
as integer probability numerators over the state's common denominator
(``GameStructure.one_step_rows``), the successors' values are scaled to
their least common denominator, and every cell is an integer dot product,
so no ``Fraction`` is made per entry.  A matrix is a function of the
successors' values alone, and beside its rows each state keeps its last
matrix with the values it was built from: a call with equal values returns
that same immutable object, so the improvement loops, which call at every
state in every round while most successors stand still, build a state's
matrix once per successor valuation.  Every exact comparison below (the
closed forms, the certificate, the k-uniform scan, the pair pruning) reads
the cells, and both simplex programs are built from them: each is the
program over the ``Fraction`` payoff with every row and right-hand side
multiplied by one positive factor (the scale, times the target's
denominator in the slack LP), which leaves ``B^-1 A``, Bland's choices,
the ratio test and its ties, hence the pivots, the point and the value,
as they were; only the dual prices shrink by that factor.  A factor per
row would not do: phase 1 would then minimize a weighted sum of
artificials, and it pivots differently.

Matrix games are solved exactly by one run of the rational simplex: the
row player's maximin program gives the value and a row strategy, and the
dual prices of its column constraints give a column strategy.  Three
shapes take a closed form instead, each the only answer or the answer the
simplex gives: one row or one column (``_line_answer``, which
``pre1_matrix`` also reads directly, with no solution built and no scan
run); a constant payoff (value, first row, last column, which is where
the simplex's pivoting ends on every constant matrix); and a 2 x 2 game
whose optimal strategies are unique (no saddle point, or one strict
saddle point).  Before a solution of two or more rows and columns is
returned, the pair is checked as a certificate in exact arithmetic: each
is a distribution, the row strategy earns at least the value against
every column and the column strategy concedes at most the value to every
row, which proves that the value is the game's.

Every one-step question a solver asks is a function of one payoff matrix
and is answered here: ``pre1_matrix`` gives the value and an optimal row
mixture, and ``optimal_pairs`` the (support, counter-move-set) pairs of the
optimal mixtures that the non-local safety step reads, both over all
mixtures or, given ``k``, over k-uniform ones.  ``pre1`` is the one loop
over a game's states that answers ``Pre1``: value iteration and the local
step of both improvement loops call it.  This is the only module that runs
the simplex.

A game's one-step results are kept for as long as the game object lives,
in ``GameStructure.one_step_cache``, keyed by a matrix's cells and scale:
the solution, the support pairs and the k-uniform scan at the largest
``k`` asked for.  The integer form is canonical (the scale is the lcm of
the entries' reduced denominators), so two keys are equal exactly when
the payoffs are, and the cache hits where a key of ``Fraction`` entries
would.  Each result is a function of the payoff alone, stored by
position, so a hit returns what a fresh computation would.  A request at
a larger ``k`` grows the kept scan, scoring only the denominator layers
it lacks, and replaces it.  Solvers hold states by ``done`` sets, not
absorbing copies, so the cache lives on the game they were given: on the
command line, the game parsed for one solve.  A matrix with one row or
one column reaches neither the cache nor the k-uniform scan:
``pre1_matrix`` and ``optimal_pairs`` answer it from its cells, for any
``k``.

The k-uniform mixtures (all probabilities multiples of ``1/l`` for a
common denominator ``l <= k``) are maximized by enumeration.  They are
integer count vectors, each listed once at its least denominator and built
once per (move count, denominator); they are scored in integers against
the matrix's cells, and only the result becomes a ``Fraction``.  The
enumeration budget is checked up front from the composition count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import AbstractSet, Mapping, Sequence

from .linprog import EQ, GEQ, LPInfeasible, solve_lp
from .model import BudgetExceeded, GameStructure, Selector, ZERO, ONE

# Guard for the k-uniform enumerations (compositions of l <= k over a move
# set, repeats included); pathological inputs should fail loudly instead of
# hanging.
MAX_KUNIFORM_ENUMERATION = 500_000


def _scaled(numbers) -> tuple[int, list[int]]:
    """The least common denominator ``d`` of ``numbers`` and each of them
    times ``d``, as integers."""
    d = math.lcm(*(x.denominator for x in numbers))
    return d, [x.numerator * (d // x.denominator) for x in numbers]


@dataclass(frozen=True)
class MatrixGame:
    """One-shot zero-sum game; the row player maximizes.

    The payoff is held in integers: entry ``(a, b)`` is
    ``cells[a][b] / scale``, with ``scale > 0`` and gcd(scale, cells) = 1.
    That form is canonical, since ``scale`` is then the lcm of the entries'
    reduced denominators, so two matrices have equal cells and scale
    exactly when their payoffs are equal.  The constructor takes that form
    as given: ``one_step_matrix`` builds it directly, and every exact
    comparison and both simplex programs of the one-step layer read it.
    ``MatrixGame.of(rows, cols, payoff)`` reduces rational entries to it.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    scale: int

    @classmethod
    def of(cls, rows: Sequence[str], cols: Sequence[str], payoff) -> MatrixGame:
        """The matrix game of the rational entries ``payoff[a][b]``."""
        if not rows or not cols:
            raise ValueError("matrix game needs nonempty rows and cols")
        if len(payoff) != len(rows) or any(len(r) != len(cols) for r in payoff):
            raise ValueError("payoff shape does not match labels")
        scale, flat = _scaled([Fraction(x) for row in payoff for x in row])
        n = len(cols)
        cells = tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))
        return cls(tuple(rows), tuple(cols), cells, scale)


@dataclass(frozen=True)
class MatrixSolution:
    value: Fraction
    row_strategy: tuple[Fraction, ...]
    col_strategy: tuple[Fraction, ...]


def _solve_lp_game(matrix: MatrixGame) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """The value, an optimal row strategy and an optimal column strategy.

    Variables: x_0..x_{m-1}, g+, g-; the simplex maximizes g = g+ - g-
    subject to one ``>=`` row per column and ``sum x = 1``.  Every row is
    that of the ``Fraction`` payoff times ``scale``, so the rows are the
    integer cells and the pivots, the point and the value are those of the
    ``Fraction`` program.  The column LP is this program's dual: the shadow
    price of column ``b``'s row is ``-y_b / scale``.
    """
    scale, m, n = matrix.scale, len(matrix.rows), len(matrix.cols)
    rows = [list(column) + [-scale, scale] for column in zip(*matrix.cells)]
    rows.append([scale] * m + [0, 0])
    senses = [GEQ] * n + [EQ]
    rhs = [0] * n + [scale]
    value, point, duals = solve_lp([0] * m + [1, -1], rows, senses, rhs)
    return value, point[:m], [-scale * y for y in duals[:n]]


def _check_certificate(game: MatrixGame, value: Fraction, row_mix, col_mix) -> None:
    """Raise unless both mixtures are distributions, ``row_mix`` earns at
    least ``value`` in every column and ``col_mix`` concedes at most
    ``value`` in every row; together these prove ``value`` is the value.

    Checked in integers: the mixtures are scaled by their least common
    denominators, and each sum over the payoff's cells is compared against
    ``value`` scaled by the same factors and the payoff's scale."""
    scale, rows = game.scale, game.cells
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


def _pure(i: int, n: int) -> tuple[Fraction, ...]:
    return tuple(ONE if a == i else ZERO for a in range(n))


def _line_answer(game: MatrixGame) -> tuple[int, int, int] | None:
    """The answer of a game with one column or one row, or None for any
    other shape: the optimal cell and the row and column positions of a
    pure optimal pair.  One column: the first maximal row; one row: that
    row against its first minimal column.  This is the pair
    ``solve_matrix_game`` returns, and its row is the first optimum of the
    k-uniform scan at every ``k``."""
    cells = game.cells
    if len(game.cols) == 1:
        column = [row[0] for row in cells]
        high = max(column)
        return high, column.index(high), 0
    if len(game.rows) == 1:
        low = min(cells[0])
        return low, 0, cells[0].index(low)
    return None


def _unique_2x2(game: MatrixGame) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """The value and both players' optimal strategies of the 2 x 2 game
    ``[[a, b], [c, d]]`` when each player's optimal strategy is unique,
    else None (Shapley & Snow, "Basic solutions of discrete games", 1950).

    An entry is a saddle point when it is least in its row and greatest in
    its column.  With none, both optimal strategies are completely mixed
    and each makes the other player indifferent.  A strict saddle point
    (strictly least and strictly greatest) is the only one and each player
    has exactly its pure strategy.  A weak saddle point may leave a player
    several optimal strategies, and is left to the simplex.

    Decided and computed on the integer cells: the value is
    (ad - bc)/(a - b - c + d) over the scale, and the first row's and first
    column's weights are (d - c) and (d - b) over the same a - b - c + d.
    """
    scale, cells = game.scale, game.cells
    (a, b), (c, d) = cells
    saddle = False
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x, in_row, in_col = cells[i][j], cells[i][1 - j], cells[1 - i][j]
        if in_row > x > in_col:
            return Fraction(x, scale), _pure(i, 2), _pure(j, 2)
        saddle = saddle or in_row >= x >= in_col
    if saddle:
        return None
    den = a - b - c + d
    return (
        Fraction(a * d - b * c, den * scale),
        (Fraction(d - c, den), Fraction(a - b, den)),
        (Fraction(d - b, den), Fraction(a - c, den)),
    )


def solve_matrix_game(game: MatrixGame) -> MatrixSolution:
    """Exact value and one optimal mixed strategy per player.

    Deterministic: degenerate shapes take closed forms with first-index tie
    breaking, and the general case inherits the simplex pivoting order.
    A constant payoff (every cell equal) has its value, the first row and
    the last column, which is the simplex's answer on every such matrix.
    A 2 x 2 game whose optimal strategies are unique (no saddle point, or
    one strict saddle point) is solved in closed form (``_unique_2x2``);
    the simplex could return nothing else.  Every other shape, and a 2 x 2
    game with a weak saddle point, runs one LP.  Each of these answers has
    its certificate checked.
    """
    cells, scale = game.cells, game.scale
    m, n = len(game.rows), len(game.cols)
    line = _line_answer(game)
    if line is not None:
        cell, a, b = line
        return MatrixSolution(Fraction(cell, scale), _pure(a, m), _pure(b, n))
    first = cells[0]
    if first.count(first[0]) == n and cells.count(first) == m:
        solved = Fraction(first[0], scale), _pure(0, m), _pure(n - 1, n)
    else:
        solved = _unique_2x2(game) if m == n == 2 else None
        if solved is None:
            solved = _solve_lp_game(game)
    value, row_mix, col_mix = solved
    _check_certificate(game, value, row_mix, col_mix)
    return MatrixSolution(value, tuple(row_mix), tuple(col_mix))


@dataclass(slots=True)
class _OneStep:
    """What has been computed for one payoff matrix of a game: its solution,
    its unrestricted support pairs, and its k-uniform scan at the largest
    ``k`` asked for, as ``(k, scan)``.  Everything is by row and column
    position."""

    solution: MatrixSolution | None = None
    pairs: tuple | None = None
    scan: tuple[int, KUniformScan] | None = None


def _one_step(game: GameStructure, matrix: MatrixGame) -> _OneStep:
    """The cache entry of ``matrix`` in ``game``, keyed by its canonical
    cells and scale.  Its callers answer a matrix with one row or one
    column from the cells first, so only matrices of at least 2 x 2 get
    here."""
    cache = game.one_step_cache
    key = (matrix.cells, matrix.scale)
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = _OneStep()
    return entry


def _solution(game: GameStructure, matrix: MatrixGame) -> MatrixSolution:
    """``solve_matrix_game(matrix)``, solved at most once per payoff in
    ``game``."""
    entry = _one_step(game, matrix)
    if entry.solution is None:
        entry.solution = solve_matrix_game(matrix)
    return entry.solution


@dataclass(slots=True)
class _Transitions:
    """A state's move pairs in integers: ``numerators[a][b][i]`` is the
    probability that moves ``(a, b)`` lead to ``successors[i]``, times
    ``den``, the lcm of every probability's denominator at the state.

    ``last`` is the state's last one-step matrix with the successor values
    it was built from, replaced (never mutated) by each new build."""

    successors: tuple[str, ...]
    den: int
    numerators: tuple[tuple[tuple[int, ...], ...], ...]
    last: tuple[list[Fraction], MatrixGame] | None = None


def _transitions(game: GameStructure, s: str) -> _Transitions:
    """The integer transition rows of ``s``, built once per game, on first use."""
    table = game.one_step_rows
    step = table.get(s)
    if step is None:
        moves2 = game.moves2[s]
        dists = [game.delta[(s, a, b)] for a in game.moves1[s] for b in moves2]
        successors = tuple(dict.fromkeys([t for dist in dists for t, p in dist.items() if p]))
        den = math.lcm(*[p.denominator for dist in dists for p in dist.values()])
        position = {t: i for i, t in enumerate(successors)}
        numerators = []
        for dist in dists:
            counts = [0] * len(successors)
            for t, p in dist.items():
                if p:
                    counts[position[t]] = p.numerator * (den // p.denominator)
            numerators.append(tuple(counts))
        n = len(moves2)
        step = table[s] = _Transitions(
            successors, den, tuple(tuple(numerators[i : i + n]) for i in range(0, len(numerators), n))
        )
    return step


def one_step_matrix(game: GameStructure, v: Mapping[str, Fraction], s: str) -> MatrixGame:
    """Matrix of expected ``v``-values, one entry per move pair at ``s``.

    Built in integers: the successors' values are scaled to their least
    common denominator, each cell is the dot product of a move pair's
    probability numerators (``_transitions``) with them, and the result is
    reduced to the canonical form once.  The matrix is a function of the
    successors' values alone, so when they equal those of the state's last
    build (``_Transitions.last``), that same immutable matrix is returned
    and nothing is rebuilt."""
    step = _transitions(game, s)
    values = [v[t] for t in step.successors]
    last = step.last
    if last is not None and last[0] == values:
        return last[1]
    lcd, scaled = _scaled(values)
    cells = tuple(tuple(sum(map(mul, dist, scaled)) for dist in row) for row in step.numerators)
    scale = step.den * lcd
    common = math.gcd(scale, *itertools.chain.from_iterable(cells))
    if common > 1:
        scale //= common
        cells = tuple(tuple(c // common for c in row) for row in cells)
    matrix = MatrixGame(game.moves1[s], game.moves2[s], cells, scale)
    step.last = (values, matrix)
    return matrix


def pre1(
    game: GameStructure, v: Mapping[str, Fraction], done: AbstractSet[str] = frozenset(),
    k: int | None = None,
) -> tuple[dict[str, Fraction], Selector]:
    """Pointwise sup-inf one-step operator with a witness selector, over all
    mixtures or, given ``k``, over k-uniform ones: ``pre1_matrix`` of each
    state's one-step matrix, in state order.  A state in ``done`` is held
    at ``v[s]`` with its first move as witness, which is what the matrix
    game of a self-loop (every entry ``v[s]``) returns; no matrix is built
    for it, but given ``k`` it takes the scan's budget check all the same.

    Every solver loop reads ``Pre1`` here: value iteration applies it, and
    the improvement rounds take its values and witnesses, then ask
    ``one_step_matrix`` again for a state's matrix, which hands back the
    one built here."""
    values: dict[str, Fraction] = {}
    choice: Selector = {}
    for s in game.states:
        if s in done:
            if k is not None:
                _check_k_uniform_budget(len(game.moves1[s]), k)
            values[s], choice[s] = v[s], {game.moves1[s][0]: ONE}
        else:
            values[s], choice[s] = pre1_matrix(game, one_step_matrix(game, v, s), k)
    return values, choice


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
    integers: column ``j`` gets ``l * scale`` times its payoff, the sum of
    the counts times its integer cells.  One row has
    only the pure mixture, in layer 1.  The budget is checked first,
    against ``k``.

    The solvers scan matrices of at least 2 x 2 only (``pre1_matrix`` and
    ``optimal_pairs`` answer the others from the cells); on one column the
    fold gives the optima those closed forms read off.
    """
    m = len(matrix.rows)
    _check_k_uniform_budget(m, k)
    value, optima = scan if scan is not None else (None, ())
    scale = matrix.scale
    cols = list(zip(*matrix.cells))
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
    """``_k_uniform_scan(matrix, k)``, grown from the payoff's cached scan
    in ``game`` when that is at a smaller k, so that a run raising k one
    step at a time scores each denominator layer of a payoff once.  Only
    the scan at the largest k is kept: a request below it, which no solver
    makes, is scanned fresh."""
    entry = _one_step(game, matrix)
    k0, scan = entry.scan or (0, None)
    if k0 == k:
        return scan
    if k0 > k:
        return _k_uniform_scan(matrix, k)
    scan = _k_uniform_scan(matrix, k, k0, scan)
    entry.scan = (k, scan)
    return scan


def pre1_matrix(
    game: GameStructure, matrix: MatrixGame, k: int | None = None
) -> tuple[Fraction, dict[str, Fraction]]:
    """The value of ``matrix`` for the row player, over all mixtures or,
    given ``k``, over k-uniform ones, with the optimal mixture the solver
    or the scan returns first, by row label.

    The k-uniform optimum goes to the earliest mixture in enumeration
    order, so the result is deterministic; mixtures are scored in integer
    arithmetic, and only the value and the mixture are ``Fraction``s.

    A matrix with one row or one column is answered from its cells
    (``_line_answer``): the one row, valued at its least cell, or the first
    maximal row, which is what the solver and the scan return on those
    shapes.  Given ``k``, the scan's budget check runs first all the same.
    """
    line = _line_answer(matrix)
    if line is not None:
        if k is not None:
            _check_k_uniform_budget(len(matrix.rows), k)
        cell, a, _ = line
        return Fraction(cell, matrix.scale), {matrix.rows[a]: ONE}
    if k is None:
        solution = _solution(game, matrix)
        return solution.value, {
            a: p for a, p in zip(matrix.rows, solution.row_strategy) if p > 0
        }
    value, optima = _k_uniform_optima(game, matrix, k)
    _, _, denom, counts = optima[0]
    return value, {a: Fraction(c, denom) for a, c in zip(matrix.rows, counts) if c}


# A support pair by position: row positions A, column positions B, and the
# witness's probabilities on A.
PositionPair = tuple[tuple[int, ...], tuple[int, ...], tuple[Fraction, ...]]


def optimal_pairs(
    game: GameStructure, matrix: MatrixGame, k: int | None = None
) -> tuple[PositionPair, ...]:
    """Every (support, counter-move-set) pair ``(A, B)`` an optimal row
    mixture of ``matrix`` realizes, over all mixtures or, given ``k``, over
    k-uniform ones, in subset order (by the size and positions of ``A``,
    then of ``B``), each with a witness: a row mixture with support exactly
    ``A`` attaining the optimum, held to it by exactly the columns ``B``.

    A matrix with one row or one column is answered from its cells, for any
    ``k`` (after the scan's budget check): on 1 x n the one row with the
    columns at its minimum and witness 1; on m x 1 every set of maximal
    rows, of at most ``k`` rows given ``k``, uniformly, with the column.
    These are the slack LP's own optima and the k-uniform scan's pairs,
    and the uniform mixture on ``A`` is the scan's first mixture with
    support ``A``.  Other shapes are answered once per payoff in ``game``:
    unrestricted, pruned (``_pruned_pairs``) with the slack LP's witness
    (``_feasible_unrestricted``); given ``k``, by the k-uniform scan, whose
    witness is the first mixture in enumeration order realizing the pair.
    """
    if len(matrix.rows) == 1 or len(matrix.cols) == 1:
        if k is not None:
            _check_k_uniform_budget(len(matrix.rows), k)
        cells = matrix.cells
        if len(matrix.rows) == 1:
            low = min(cells[0])
            return (((0,), tuple(b for b, x in enumerate(cells[0]) if x == low), (ONE,)),)
        high = max(row[0] for row in cells)
        best = [a for a, row in enumerate(cells) if row[0] == high]
        return tuple(
            (A, (0,), (Fraction(1, len(A)),) * len(A))
            for A in _nonempty_subsets(best) if k is None or len(A) <= k
        )
    if k is not None:
        _, optima = _k_uniform_optima(game, matrix, k)
        return tuple(sorted(
            ((A, B, tuple(Fraction(counts[a], denom) for a in A)) for A, B, denom, counts in optima),
            key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]),
        ))
    entry = _one_step(game, matrix)
    if entry.pairs is None:
        entry.pairs = _pruned_pairs(matrix, _solution(game, matrix))
    return entry.pairs


def _nonempty_subsets(items: Sequence) -> list[tuple]:
    """Nonempty subsets by size, then position; a sublist's subsets come in
    the same relative order as in the whole list's."""
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return out


def _pruned_pairs(matrix: MatrixGame, solution: MatrixSolution) -> tuple[PositionPair, ...]:
    """The feasible pairs by the slack LP, run only on the pairs that
    complementary slackness allows.

    Take the optimal column strategy ``y*`` of ``solution`` and any optimal
    row mixture ``x``: ``y*_b > 0`` forces ``(x M)_b = v`` and ``x_a > 0``
    forces ``(M y*)_a = v``.  So a feasible pair has ``B`` covering the
    support of ``y*`` and ``A`` inside the rows earning ``v`` against it,
    found on the integer cells with ``y*`` scaled by its least common
    denominator.
    """
    target, y = solution.value, solution.col_strategy
    support = [b for b, q in enumerate(y) if q]
    required = set(support)
    dy, weights = _scaled([y[b] for b in support])
    goal = target.numerator * matrix.scale * dy
    responses = [
        a for a, row in enumerate(matrix.cells)
        if sum(row[b] * q for b, q in zip(support, weights)) * target.denominator == goal
    ]
    pairs = []
    for A in _nonempty_subsets(responses):
        for B in _nonempty_subsets(range(len(y))):
            if required.issubset(B):
                witness = _feasible_unrestricted(matrix, target, A, B)
                if witness is not None:
                    pairs.append((A, B, witness))
    return tuple(pairs)


def _feasible_unrestricted(
    matrix: MatrixGame, target: Fraction, A: tuple[int, ...], B: tuple[int, ...]
) -> tuple[Fraction, ...] | None:
    """Maximize a shared slack below the support probabilities and above the
    strict inequalities (``_slack_program``); a positive optimum is exactly
    strict feasibility.  Returns the witness's probabilities on the rows
    ``A``.

    One row needs no LP: it is feasible exactly when it meets the target on
    ``B`` and strictly exceeds it elsewhere, with witness 1.  For more rows,
    a column's entry under any mixture over ``A`` lies between the column's
    least and greatest entry on ``A``, so the LP runs only when every column
    in ``B`` brackets the target and every other column exceeds it
    somewhere.  Both tests compare integer cells, times the target's
    denominator, with the target's numerator times the scale.
    """
    b_set = set(B)
    cells, den = matrix.cells, target.denominator
    goal = target.numerator * matrix.scale
    if len(A) == 1:
        row = cells[A[0]]
        if all((x * den == goal) if j in b_set else (x * den > goal) for j, x in enumerate(row)):
            return (ONE,)
        return None
    for j in range(len(matrix.cols)):
        column = [cells[a][j] * den for a in A]
        if not (min(column) <= goal <= max(column) if j in b_set else max(column) > goal):
            return None
    try:
        slack, point, _ = solve_lp(*_slack_program(matrix, target, A, B))
    except LPInfeasible:
        return None
    if slack <= 0:
        return None
    return tuple(point[: len(A)])


def _slack_program(
    matrix: MatrixGame, target: Fraction, A: tuple[int, ...], B: tuple[int, ...]
) -> tuple[list[int], list[list[int]], list[str], list[int]]:
    """The objective, rows, senses and right-hand sides of the slack LP
    over the probabilities ``x_a`` on ``A`` and the slack ``t``: the simplex
    maximizes ``t`` subject to ``x_a - t >= 0``, ``sum x = 1`` and, per
    column ``j``, ``sum_a M[a][j] x_a`` equal to ``target`` for ``j`` in
    ``B`` and at least ``target + t`` elsewhere.

    Each row and its right-hand side are those of the program over the
    ``Fraction`` payoff times ``unit``, the scale times the target's
    denominator: integers, on which the simplex pivots, and returns the
    slack and the point, as on the ``Fraction`` program."""
    b_set = set(B)
    cells, den = matrix.cells, target.denominator
    unit = matrix.scale * den
    n, width = len(A), len(matrix.cols)
    rows = [[unit if a == i else 0 for a in range(n)] + [-unit] for i in range(n)]
    rows.append([unit] * n + [0])
    rows += ([cells[a][j] * den for a in A] + [0 if j in b_set else -unit] for j in range(width))
    senses = [GEQ] * n + [EQ] + [EQ if j in b_set else GEQ for j in range(width)]
    rhs = [0] * n + [unit] + [target.numerator * matrix.scale] * width
    return [0] * n + [1], rows, senses, rhs
