"""Exact linear programming over rationals.

A small dense two-phase primal simplex with Bland's rule.  Every pivot is
performed in `fractions.Fraction` arithmetic, so optimal values and optimal
points are exact and the algorithm cannot cycle.  The problems solved here
are tiny (one-step matrix games and the per-state feasibility checks of the
non-local safety step), so a dense tableau is the right tool.  MDP values
do not come from here: `mdp.max_reach_values` uses policy iteration.

All variables are nonnegative; callers split free variables themselves.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

LEQ = "<="
GEQ = ">="
EQ = "=="


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = ONE / piv
    tableau[row] = [x * inv for x in tableau[row]]
    pivot_row = tableau[row]
    for i, current in enumerate(tableau):
        if i == row:
            continue
        factor = current[col]
        if factor != 0:
            tableau[i] = [x - factor * y for x, y in zip(current, pivot_row)]
    basis[row - 1] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Minimize the phase objective in row 0 using Bland's rule."""
    while True:
        cost = tableau[0]
        col = -1
        for j in range(ncols):
            if cost[j] < 0:
                col = j
                break
        if col < 0:
            return
        row = -1
        best_ratio = None
        for i in range(1, len(tableau)):
            coef = tableau[i][col]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i - 1] < basis[row - 1])
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            raise LPUnbounded("objective unbounded")
        _pivot(tableau, basis, row, col)


def solve_lp(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    senses: list[str],
    rhs: list[Fraction],
    maximize: bool = False,
) -> tuple[Fraction, list[Fraction]]:
    """Optimize ``objective . x`` subject to ``rows[i] . x  sense_i  rhs[i]``
    and ``x >= 0``.  Returns the optimal value and one optimal point."""
    n = len(objective)
    m = len(rows)
    obj = [(-c if maximize else c) for c in objective]

    # Normalize to equality form with nonnegative right-hand sides.
    eq_rows: list[list[Fraction]] = []
    eq_rhs: list[Fraction] = []
    slack_of_row: list[int | None] = []
    num_slacks = 0
    slack_specs: list[tuple[int, Fraction]] = []  # (row index, sign)
    for coeffs, sense, b in zip(rows, senses, rhs):
        row = list(coeffs)
        if len(row) != n:
            raise ValueError("constraint row of wrong length")
        if b < 0:
            row = [-x for x in row]
            b = -b
            sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense]
        if sense == LEQ:
            slack_specs.append((len(eq_rows), ONE))
        elif sense == GEQ:
            slack_specs.append((len(eq_rows), -ONE))
        elif sense != EQ:
            raise ValueError(f"unknown sense {sense!r}")
        eq_rows.append(row)
        eq_rhs.append(b)
    for _ in eq_rows:
        slack_of_row.append(None)
    for k, (i, sign) in enumerate(slack_specs):
        if sign > 0:
            slack_of_row[i] = n + k
    num_slacks = len(slack_specs)

    total = n + num_slacks
    columns_by_row: list[list[Fraction]] = []
    for i, row in enumerate(eq_rows):
        full = row + [ZERO] * num_slacks
        columns_by_row.append(full)
    for k, (i, sign) in enumerate(slack_specs):
        columns_by_row[i][n + k] = sign

    # Initial basis: positive slacks where available, artificials elsewhere.
    basis: list[int] = []
    artificial_cols: list[int] = []
    width = total
    for i in range(m):
        if slack_of_row[i] is not None:
            basis.append(slack_of_row[i])
        else:
            basis.append(width)
            artificial_cols.append(width)
            width += 1
    tableau: list[list[Fraction]] = [[ZERO] * (width + 1)]
    for i in range(m):
        row = columns_by_row[i] + [ZERO] * (width - total) + [eq_rhs[i]]
        if basis[i] >= total:
            row[basis[i]] = ONE
        tableau.append(row)

    if artificial_cols:
        # Phase 1: minimize the sum of artificials.
        cost = [ZERO] * (width + 1)
        for col in artificial_cols:
            cost[col] = ONE
        tableau[0] = cost
        for i in range(m):
            if basis[i] in artificial_cols:
                tableau[0] = [x - y for x, y in zip(tableau[0], tableau[i + 1])]
        _run_simplex(tableau, basis, width)
        if -tableau[0][-1] > 0:
            raise LPInfeasible("no feasible point")
        # Drive any remaining artificials out of the basis.
        i = 1
        while i < len(tableau):
            if basis[i - 1] in artificial_cols:
                pivot_col = next(
                    (j for j in range(total) if tableau[i][j] != 0), None
                )
                if pivot_col is None:
                    del tableau[i]
                    del basis[i - 1]
                    continue
                _pivot(tableau, basis, i, pivot_col)
            i += 1
        # Drop artificial columns.
        keep = list(range(total)) + [width]
        tableau = [[row[j] for j in keep] for row in tableau]

    # Phase 2: install the real objective and optimize.
    cost = [ZERO] * (total + 1)
    for j in range(n):
        cost[j] = obj[j]
    tableau[0] = cost
    for i in range(1, len(tableau)):
        c_b = cost[basis[i - 1]] if basis[i - 1] < total else ZERO
        if c_b != 0:
            tableau[0] = [x - c_b * y for x, y in zip(tableau[0], tableau[i])]
    _run_simplex(tableau, basis, total)

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i + 1][-1]
    value = -tableau[0][-1]
    return (-value if maximize else value), solution
