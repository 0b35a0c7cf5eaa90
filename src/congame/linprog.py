"""Exact linear programming on integer data by integer pivoting.

A small dense two-phase primal simplex with Bland's rule.  The problems
solved here are tiny (one-step matrix games and the per-state feasibility
checks of the non-local safety step), so a dense tableau is the right tool.
MDP values do not come from here: `mdp.max_reach_values` uses policy
iteration.  `solve_lp` takes the one form `matrix` builds: maximize over
nonnegative variables subject to ``>=`` and ``==`` rows of ``int``s.

The tableau holds Python ``int`` numerators over one common denominator
``d > 0``: cell ``T[i][j]`` stands for the rational ``T[i][j] / d``.  This is
fraction-free (Bareiss) elimination, the "integer pivoting" of Edmonds and of
lrs, and it pays for no gcd inside the loop.

- **Start.**  Every cell is the caller's integer and ``d = 1``.  Each row's
  basic column (its artificial, or the slack of a row negated for its
  negative right-hand side) is a unit column, so this is the state Bareiss
  elimination reaches on the integer matrix: every numerator is a minor of
  it and ``d`` is the determinant of the basis.
- **Pivot on (r, c)** with ``p = T[r][c]``: row ``r`` stays, every other row
  becomes ``(x*p - f*y) // d`` with ``f = T[i][c]``, and ``p`` is the new
  ``d``.  By Sylvester's determinant identity the new entries are again
  minors, so the division is exact.  A negative ``p`` (possible only when an
  artificial is driven out of the basis) is first made positive by negating
  the pivot row; every other row then comes out negated as well, and the
  represented rationals are unchanged.  Deleting a redundant equality row
  leaves an integer multiple of a Bareiss state, which keeps later
  divisions exact.
- **Duals.**  Phase 2 minimizes ``-objective``, and its final cost row holds
  the reduced costs ``c_j - pi . A_j`` with ``pi = c_B B^-1``.  The slack
  column of ``>=`` row ``i`` is ``sigma * e_i`` (``sigma = -1``, or ``+1``
  once the row is negated), so ``pi_i = -sigma * T[0][slack] / d``, and
  negating the row flips the sign of its price back: the caller's row has
  price ``T[0][slack] / d`` in the minimization either way.  It is reported
  as the shadow price ``d optimum / d rhs_i`` of the maximization,
  ``-T[0][slack] / d``.  Equality rows keep no slack column and get no
  dual.  On a problem with ``>=`` rows only, ``sum(rhs_i * dual_i)`` is the
  optimum (strong duality), and since reduced costs end nonnegative every
  dual is ``<= 0``.

The pivot sequence is the one a tableau of `fractions.Fraction`s would take.
Bland's entering rule reads only signs, which ``d > 0`` preserves.  The ratio
test compares ``rhs / coef`` within one column, which the cross-multiplied
comparison ``rhs_i * coef_best < rhs_best * coef_i`` decides exactly, and
ties go to the smallest basis index in both.  So the final basis, the optimal
value and the optimal point are the same exact rationals, and Bland's rule
cannot cycle.

All variables are nonnegative; callers split free variables themselves.
"""

from __future__ import annotations

from fractions import Fraction

GEQ = ">="
EQ = "=="


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


def _pivot(tableau: list[list[int]], basis: list[int], d: int, row: int, col: int) -> int:
    """Pivot on ``(row, col)`` and return the new common denominator."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        pivot_row = tableau[row] = [-y for y in pivot_row]
        p = -p
    for i, current in enumerate(tableau):
        if i == row:
            continue
        f = current[col]
        if f:
            tableau[i] = [(x * p - f * y) // d for x, y in zip(current, pivot_row)]
        elif p != d:
            tableau[i] = [x * p // d for x in current]
    basis[row - 1] = col
    return p


def _run_simplex(tableau: list[list[int]], basis: list[int], d: int, ncols: int) -> int:
    """Minimize the phase objective in row 0 using Bland's rule; return the
    final common denominator."""
    while True:
        cost = tableau[0]
        col = -1
        for j in range(ncols):
            if cost[j] < 0:
                col = j
                break
        if col < 0:
            return d
        row = -1
        best_rhs = best_coef = 0
        for i in range(1, len(tableau)):
            current = tableau[i]
            coef = current[col]
            if coef > 0:
                cross = current[-1] * best_coef - best_rhs * coef
                if row < 0 or cross < 0 or (cross == 0 and basis[i - 1] < basis[row - 1]):
                    best_rhs = current[-1]
                    best_coef = coef
                    row = i
        if row < 0:
            raise LPUnbounded("objective unbounded")
        d = _pivot(tableau, basis, d, row, col)


def solve_lp(
    objective: list[int], rows: list[list[int]], senses: list[str], rhs: list[int]
) -> tuple[Fraction, list[Fraction], list[Fraction | None]]:
    """Maximize ``objective . x`` subject to ``rows[i] . x  sense_i  rhs[i]``
    (``>=`` or ``==``) and ``x >= 0``, over integer coefficients.  Returns
    the optimal value, one optimal point, and the shadow price of each row
    (``None`` for an equality row)."""
    n = len(objective)
    m = len(rows)
    if len(senses) != m or len(rhs) != m:
        raise ValueError(
            f"{m} constraint rows but {len(senses)} senses and {len(rhs)} right-hand sides"
        )

    # Normalize to equality form with nonnegative right-hand sides.  A >=
    # row gets slack -1 and, like an == row, an artificial; a >= row with a
    # negative right-hand side is negated into a <= row, whose slack +1 is
    # its initial basic variable.
    total = n + senses.count(GEQ)
    width = total + sum(1 for sense, b in zip(senses, rhs) if sense == EQ or b >= 0)
    d = 1
    basis: list[int] = []
    tableau: list[list[int]] = [[0] * (width + 1)]
    slack, artificial = n, total
    for coeffs, sense, b in zip(rows, senses, rhs):
        if len(coeffs) != n:
            raise ValueError("constraint row of wrong length")
        if sense not in (GEQ, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        sign = -1 if b < 0 else 1
        cells = [sign * x for x in coeffs] + [0] * (width - n) + [sign * b]
        if sense == GEQ:
            cells[slack] = -sign
            slack += 1
        if sense == GEQ and b < 0:
            basis.append(slack - 1)
        else:
            cells[artificial] = 1
            basis.append(artificial)
            artificial += 1
        tableau.append(cells)

    if width > total:
        # Phase 1: minimize the sum of artificials.
        cost = [0] * total + [1] * (width - total) + [0]
        for i in range(m):
            if basis[i] >= total:
                cost = [x - y for x, y in zip(cost, tableau[i + 1])]
        tableau[0] = cost
        d = _run_simplex(tableau, basis, d, width)
        if tableau[0][-1] < 0:
            raise LPInfeasible("no feasible point")
        # Drive any remaining artificials out of the basis.
        i = 1
        while i < len(tableau):
            if basis[i - 1] >= total:
                current = tableau[i]
                pivot_col = next((j for j in range(total) if current[j]), None)
                if pivot_col is None:
                    del tableau[i]
                    del basis[i - 1]
                    continue
                d = _pivot(tableau, basis, d, i, pivot_col)
            i += 1
        # Drop artificial columns.
        tableau = [row[:total] + row[-1:] for row in tableau]

    # Phase 2: minimize -objective.
    cost = [-c * d for c in objective] + [0] * (total - n + 1)
    for i in range(1, len(tableau)):
        var = basis[i - 1]
        if var < n and objective[var]:
            cost = [x + objective[var] * y for x, y in zip(cost, tableau[i])]
    tableau[0] = cost
    d = _run_simplex(tableau, basis, d, total)

    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i + 1][-1], d)

    # Slack columns follow the variables in row order; a >= row's shadow
    # price is minus its reduced cost whichever way it was normalized.
    duals: list[Fraction | None] = []
    slack = n
    for sense in senses:
        if sense == EQ:
            duals.append(None)
            continue
        duals.append(Fraction(-tableau[0][slack], d))
        slack += 1
    return Fraction(tableau[0][-1], d), solution, duals
