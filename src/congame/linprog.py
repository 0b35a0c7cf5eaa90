"""Exact linear programming over rationals by integer pivoting.

A small dense two-phase primal simplex with Bland's rule.  The problems
solved here are tiny (one-step matrix games and the per-state feasibility
checks of the non-local safety step), so a dense tableau is the right tool.
MDP values do not come from here: `mdp.max_reach_values` uses policy
iteration.

The tableau holds Python ``int`` numerators over one common denominator
``d > 0``: cell ``T[i][j]`` stands for the rational ``T[i][j] / d``.  This is
fraction-free (Bareiss) elimination, the "integer pivoting" of Edmonds and of
lrs, and it pays for no gcd inside the loop.

- **Set-up.**  Let ``L_i`` be the lcm of the denominators of constraint row
  ``i`` (rhs included) and ``d = prod L_i``.  Every entry starts as ``d``
  times its rational value.  That is exactly the state Bareiss elimination
  reaches on the integer matrix with row ``i`` scaled by ``L_i`` after
  pivoting each row on its slack or artificial column, so every numerator
  is a minor of that matrix and ``d`` is the determinant of the basis.
  An ``int`` has denominator 1, and the one-step layer passes rows of
  ``int``s, so there ``d`` starts at 1.
- **Pivot on (r, c)** with ``p = T[r][c]``: row ``r`` stays, every other row
  becomes ``(x*p - f*y) // d`` with ``f = T[i][c]``, and ``p`` is the new
  ``d``.  By Sylvester's determinant identity the new entries are again
  minors, so the division is exact.  A negative ``p`` (possible only when an
  artificial is driven out of the basis) is first made positive by negating
  the pivot row; every other row then comes out negated as well, and the
  represented rationals are unchanged.  Deleting a redundant equality row
  leaves an integer multiple of a Bareiss state, which keeps later
  divisions exact.
- **Objectives.**  The phase-1 cost row is an integer combination of rows.
  The phase-2 objective is scaled by the lcm ``L_c`` of its denominators,
  and the value is read back as ``-T[0][-1] / (d * L_c)``.
- **Duals.**  The final cost row holds the reduced costs ``c_j - pi . A_j``
  of the minimization actually run, where ``pi = c_B B^-1`` prices its
  rows.  The slack column of inequality row ``i`` is ``sigma * e_i``
  (``sigma = -1`` for a normalized ``>=`` row, ``+1`` for ``<=``), so
  ``pi_i = -sigma * T[0][slack] / (d * L_c)``.  A row whose right-hand side
  was negated has flipped both ``sigma`` and the sign of its price, so the
  price of the caller's row depends only on the caller's sense: ``+`` the
  slack cell for ``>=``, ``-`` for ``<=``.  It is reported as the shadow
  price ``d optimum / d rhs_i``, negated once more for a maximization (run
  as the minimization of ``-objective``).  Equality rows keep no slack
  column and get no dual.  On a problem with inequality rows only,
  ``sum(rhs_i * dual_i)`` is the optimum (strong duality), and since
  reduced costs end nonnegative, a ``>=`` row's dual is ``>= 0`` when
  minimizing and ``<= 0`` when maximizing (the reverse for ``<=``).

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
from math import lcm, prod

LEQ = "<="
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
    objective: list[Fraction],
    rows: list[list[Fraction]],
    senses: list[str],
    rhs: list[Fraction],
    maximize: bool = False,
) -> tuple[Fraction, list[Fraction], list[Fraction | None]]:
    """Optimize ``objective . x`` subject to ``rows[i] . x  sense_i  rhs[i]``
    and ``x >= 0``.  Returns the optimal value, one optimal point, and the
    dual price of each row (``None`` for an equality row)."""
    n = len(objective)
    m = len(rows)
    if len(senses) != m or len(rhs) != m:
        raise ValueError(
            f"{m} constraint rows but {len(senses)} senses and {len(rhs)} right-hand sides"
        )

    # Normalize to equality form with nonnegative right-hand sides.  A <=
    # row gets slack +1, its initial basic variable; a >= row gets slack -1
    # and, like an == row, an artificial.
    eq_rows: list[list[Fraction]] = []
    slack_signs: list[int] = []
    for coeffs, sense, b in zip(rows, senses, rhs):
        row = list(coeffs)
        if len(row) != n:
            raise ValueError("constraint row of wrong length")
        if sense not in (LEQ, GEQ, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        if b < 0:
            row = [-x for x in row]
            b = -b
            sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense]
        slack_signs.append(1 if sense == LEQ else -1 if sense == GEQ else 0)
        eq_rows.append(row + [b])
    total = n + sum(1 for sign in slack_signs if sign)
    width = total + sum(1 for sign in slack_signs if sign <= 0)

    # Every cell is d times its rational value, with d = prod L_i.
    d = prod(lcm(*(x.denominator for x in row)) for row in eq_rows)
    basis: list[int] = []
    tableau: list[list[int]] = [[0] * (width + 1)]
    slack, artificial = n, total
    for row, sign in zip(eq_rows, slack_signs):
        scaled = [x.numerator * (d // x.denominator) for x in row]
        cells = scaled[:n] + [0] * (width - n) + scaled[n:]
        if sign:
            cells[slack] = sign * d
            slack += 1
        if sign > 0:
            basis.append(slack - 1)
        else:
            cells[artificial] = d
            basis.append(artificial)
            artificial += 1
        tableau.append(cells)

    if width > total:
        # Phase 1: minimize the sum of artificials.
        cost = [0] * total + [d] * (width - total) + [0]
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

    # Phase 2: install the real objective, scaled to integers by L_c.
    if maximize:
        objective = [-c for c in objective]
    scale = lcm(*(c.denominator for c in objective))
    obj = [c.numerator * (scale // c.denominator) for c in objective]
    cost = [c * d for c in obj] + [0] * (total - n + 1)
    for i in range(1, len(tableau)):
        var = basis[i - 1]
        c_b = obj[var] if var < n else 0
        if c_b:
            cost = [x - c_b * y for x, y in zip(cost, tableau[i])]
    tableau[0] = cost
    d = _run_simplex(tableau, basis, d, total)

    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i + 1][-1], d)
    value = Fraction(-tableau[0][-1], d * scale)

    # Slack columns follow the variables in row order.  A >= row of a
    # minimization has dual +reduced cost whichever way it was normalized.
    duals: list[Fraction | None] = []
    slack = n
    for sense in senses:
        if sense == EQ:
            duals.append(None)
            continue
        sign = 1 if (sense == GEQ) != maximize else -1
        duals.append(Fraction(sign * tableau[0][slack], d * scale))
        slack += 1
    return (-value if maximize else value), solution, duals
