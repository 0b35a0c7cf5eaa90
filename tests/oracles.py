"""Independent reference computations for checking the solvers.

Everything here is deliberately primitive: Gaussian elimination, a
two-phase simplex over a tableau of `Fraction`s, absorption probabilities of
explicit Markov chains, support enumeration for matrix games, subset
enumeration for end components and greatest fixpoints, round-by-round
greatest fixpoints over supports rebuilt at every test, exhaustive
strategy enumeration for small games, the saddle points of a matrix
game by inspection, the dyadic rounding of a witness and a state's
one-step matrix of expected values, both in `Fraction` arithmetic.
None of it shares code with the solver paths it checks, with seven deliberate
exceptions.  Two are on the package's integer simplex: the reachability
linear program for MDP values, so comparing it with `mdp.max_reach_values`
(policy iteration, no LP) cross-checks the integer simplex against policy
iteration; and the two LPs of the one-step layer with their rows over the
`Fraction` payoff (`fraction_game_lp`, `fraction_slack_lp`), the
references for the integer rows `matrix` builds, the slack LP also for the
closed forms, pruning and pre-filter of `matrix.optimal_pairs`.  The third is
`EncodedTurnBasedReach`, the concurrent reachability improvement run on a
turn-based game's encoding, the reference for the graph runner that
replaced it.  The fourth is `ColdConvergentSafety`, the convergent safety
loop with every k-uniform run started from the uniform selector, the
reference for the warm-started rounds.  The fifth is `reduction_switches`,
the safety improvement round with its non-local step read off the
materialized turn-based reduction (`tb_reduction`, `tb_almost_sure_safe`),
the reference for the fixpoint the solver runs on the concurrent game; its
local step calls `pre1`, as the solver's does.
The sixth is value iteration as standalone loops over `pre1`
(`reach_value_iteration`, `safety_value_iteration_upper`) with the safety
selector extraction at a fixpoint (`extract_optimal_safety_selector`), the
references for `value_iter.ValueIterationRunner`.  The seventh is
`fraction_one_step_matrix`, whose `Fraction` sums go through the package's
`MatrixGame.of`, so that the solvers can run on it in place of the integer
build it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from congame.linprog import EQ, GEQ, LPInfeasible as SimplexInfeasible, solve_lp
from congame.matrix import MatrixGame, pre1
from congame.mdp import compute_W2, strategy_value_reach, tb_almost_sure_safe, tb_attractor
from congame.model import (
    P1,
    P2,
    GameError,
    Selector,
    edge_move,
    encode_turn_based_as_concurrent,
    indicator,
)
from congame.reach_si import ReachSIRunner
from congame.safety_si import (
    K_UNIFORM_MAX_STEPS,
    ConvergentSafetyRunner,
    SafetySIRunner,
    tb_reduction,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_linear(rows, rhs):
    """Solve a square linear system by Gaussian elimination.

    Returns the solution vector, or None if the matrix is singular.
    """
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


def _reference_pivot(tableau, basis, row, col, pivots):
    if pivots is not None:
        pivots.append((row, col))
    inv = ONE / tableau[row][col]
    tableau[row] = [x * inv for x in tableau[row]]
    pivot_row = tableau[row]
    for i, current in enumerate(tableau):
        if i != row and current[col] != 0:
            factor = current[col]
            tableau[i] = [x - factor * y for x, y in zip(current, pivot_row)]
    basis[row - 1] = col


def _reference_simplex(tableau, basis, ncols, pivots):
    while True:
        col = next((j for j in range(ncols) if tableau[0][j] < 0), None)
        if col is None:
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
        _reference_pivot(tableau, basis, row, col, pivots)


def reference_solve_lp(objective, rows, senses, rhs, maximize=False, pivots=None):
    """Two-phase primal simplex with Bland's rule on a tableau of `Fraction`s.

    The same contract as `congame.linprog.solve_lp` (nonnegative variables,
    senses ``"<="``, ``">="`` and ``"=="``), raising this module's
    `LPInfeasible` or `LPUnbounded`.  Every pivot divides the pivot row by
    its pivot and eliminates the column from every other row.  If ``pivots``
    is a list, each pivot's ``(row, col)`` is appended to it, tableau row 0
    being the cost row.
    """
    n = len(objective)
    m = len(rows)
    obj = [(-c if maximize else c) for c in objective]
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    eq_rows = []
    slack_signs = []
    for coeffs, sense, b in zip(rows, senses, rhs):
        row = [Fraction(x) for x in coeffs]
        b = Fraction(b)
        if len(row) != n:
            raise ValueError("constraint row of wrong length")
        if sense not in flip:
            raise ValueError(f"unknown sense {sense!r}")
        if b < 0:
            row = [-x for x in row]
            b = -b
            sense = flip[sense]
        slack_signs.append({"<=": ONE, ">=": -ONE, "==": None}[sense])
        eq_rows.append((row, b))
    num_slacks = sum(1 for sign in slack_signs if sign is not None)
    total = n + num_slacks
    basis = []
    artificial_cols = []
    width = total
    tableau = [None]
    k = n
    for (row, b), sign in zip(eq_rows, slack_signs):
        full = row + [ZERO] * num_slacks
        if sign is not None:
            full[k] = sign
            k += 1
        if sign == ONE:
            basis.append(k - 1)
        else:
            basis.append(width)
            artificial_cols.append(width)
            width += 1
        tableau.append(full)
    for i in range(m):
        tail = [ZERO] * (width - total)
        if basis[i] >= total:
            tail[basis[i] - total] = ONE
        tableau[i + 1] = tableau[i + 1] + tail + [eq_rows[i][1]]
    if artificial_cols:
        cost = [ZERO] * total + [ONE] * (width - total) + [ZERO]
        for i in range(m):
            if basis[i] in artificial_cols:
                cost = [x - y for x, y in zip(cost, tableau[i + 1])]
        tableau[0] = cost
        _reference_simplex(tableau, basis, width, pivots)
        if tableau[0][-1] < 0:
            raise LPInfeasible("no feasible point")
        i = 1
        while i < len(tableau):
            if basis[i - 1] in artificial_cols:
                col = next((j for j in range(total) if tableau[i][j] != 0), None)
                if col is None:
                    del tableau[i]
                    del basis[i - 1]
                    continue
                _reference_pivot(tableau, basis, i, col, pivots)
            i += 1
        tableau = [row[:total] + [row[-1]] for row in tableau]
    cost = [Fraction(c) for c in obj] + [ZERO] * (total - n + 1)
    tableau[0] = cost
    for i in range(1, len(tableau)):
        c_b = cost[basis[i - 1]]
        if c_b != 0:
            tableau[0] = [x - c_b * y for x, y in zip(tableau[0], tableau[i])]
    _reference_simplex(tableau, basis, total, pivots)
    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i + 1][-1]
    value = -tableau[0][-1]
    return (-value if maximize else value), solution


def reference_solve_matrix_game(payoff):
    """Value and optimal strategies of a matrix game by two linear programs,
    the row player's maximin and the column player's minimax, each run on
    the `Fraction` tableau of `reference_solve_lp`; the two values must
    agree.  Payoffs with one row or one column are solved like any other.
    Returns ``(value, row_strategy, col_strategy)`` as tuples."""
    m, n = len(payoff), len(payoff[0])
    # Rows: maximize g = g+ - g- with x^T M >= g in every column.
    rows = [[payoff[a][b] for a in range(m)] + [-ONE, ONE] for b in range(n)]
    rows.append([ONE] * m + [ZERO, ZERO])
    row_value, x = reference_solve_lp(
        [ZERO] * m + [ONE, -ONE], rows, [">="] * n + ["=="], [ZERO] * n + [ONE],
        maximize=True,
    )
    # Columns: minimize h = h+ - h- with M y <= h in every row.
    rows = [[payoff[a][b] for b in range(n)] + [-ONE, ONE] for a in range(m)]
    rows.append([ONE] * n + [ZERO, ZERO])
    col_value, y = reference_solve_lp(
        [ZERO] * n + [ONE, -ONE], rows, ["<="] * m + ["=="], [ZERO] * m + [ONE],
    )
    assert row_value == col_value, "matrix game duality gap"
    return row_value, tuple(x[:m]), tuple(y[:n])


def saddle_kind(payoff):
    """How the saddle points (entries least in their row and greatest in
    their column) of a matrix game of at least two rows and two columns
    look: "none" without one, "strict" with one strictly least in its row
    and strictly greatest in its column (then the only one), else "weak"."""
    kinds = set()
    for i, row in enumerate(payoff):
        for j, x in enumerate(row):
            in_row = [y for b, y in enumerate(row) if b != j]
            in_col = [r[j] for a, r in enumerate(payoff) if a != i]
            if min(in_row) >= x >= max(in_col):
                strict = min(in_row) > x > max(in_col)
                kinds.add("strict" if strict else "weak")
    return "strict" if "strict" in kinds else "weak" if kinds else "none"


def fraction_game_lp(payoff):
    """The matrix-game LP of ``matrix._solve_lp_game`` with its rows over
    the `Fraction` payoff, on the package's simplex: maximize g = g+ - g-
    with x^T M >= g in every column and sum x = 1.  Returns the value, the
    row strategy and the column strategy, the negated dual prices of the
    column rows."""
    m, n = len(payoff), len(payoff[0])
    rows = [[payoff[a][b] for a in range(m)] + [-ONE, ONE] for b in range(n)]
    rows.append([ONE] * m + [ZERO, ZERO])
    value, point, duals = solve_lp(
        [ZERO] * m + [ONE, -ONE], rows, [GEQ] * n + [EQ], [ZERO] * n + [ONE], maximize=True
    )
    return value, point[:m], [-y for y in duals[:n]]


def fraction_slack_lp(payoff, target, A, B):
    """The slack LP of the support pair (rows ``A``, columns ``B``) with its
    rows over the `Fraction` payoff, on the package's simplex: maximize a
    shared slack ``t`` below every probability on ``A`` and above every
    column outside ``B``, with the columns in ``B`` held at ``target``.
    Returns the optimal slack and the probabilities on ``A``, or None when
    the LP is infeasible."""
    n = len(A) + 1
    rows, senses, rhs = [], [], []
    for i in range(len(A)):
        row = [ZERO] * n
        row[i], row[-1] = ONE, -ONE
        rows.append(row)
        senses.append(GEQ)
        rhs.append(ZERO)
    rows.append([ONE] * len(A) + [ZERO])
    senses.append(EQ)
    rhs.append(ONE)
    for j in range(len(payoff[0])):
        rows.append([payoff[a][j] for a in A] + [ZERO if j in B else -ONE])
        senses.append(EQ if j in B else GEQ)
        rhs.append(target)
    try:
        slack, point, _ = solve_lp([ZERO] * len(A) + [ONE], rows, senses, rhs, maximize=True)
    except SimplexInfeasible:
        return None
    return slack, tuple(point[: len(A)])


def slack_lp_feasible(payoff, target, A, B):
    """Strict feasibility of the support pair (rows ``A``, columns ``B``)
    by ``fraction_slack_lp``, for every size of ``A``: the probabilities on
    ``A`` when the optimal slack is positive, else None."""
    solved = fraction_slack_lp(payoff, target, A, B)
    return solved[1] if solved is not None and solved[0] > 0 else None


def slack_lp_pruned_pairs(payoff, solution):
    """``matrix._pruned_pairs`` with every candidate pair decided by the
    slack LP alone: the same complementary-slackness candidates (``B``
    covering the optimal column strategy's support, ``A`` inside the rows
    that earn the value against it) in the same order, with no closed form
    and no pre-filter."""
    target, y = solution.value, solution.col_strategy
    support = {b for b, q in enumerate(y) if q}
    responses = [
        a for a, row in enumerate(payoff) if sum(row[b] * y[b] for b in support) == target
    ]

    def subsets(items):
        return [c for size in range(1, len(items) + 1) for c in itertools.combinations(items, size)]

    pairs = []
    for A in subsets(responses):
        for B in subsets(range(len(y))):
            if support.issubset(B):
                witness = slack_lp_feasible(payoff, target, A, B)
                if witness is not None:
                    pairs.append((A, B, witness))
    return tuple(pairs)


def chain_reach(states, trans, targets):
    """Exact probabilities of ever visiting ``targets`` in a Markov chain.

    ``trans[s]`` maps successors to probabilities.  States with no path to
    the targets get probability zero; the rest solve a nonsingular linear
    system (no closed recurrent class avoids the targets inside it).
    """
    targets = set(targets)
    pred = {s: set() for s in states}
    for s in states:
        for t, p in trans[s].items():
            if p > 0:
                pred[t].add(s)
    reachers = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for s in pred[t]:
            if s not in reachers:
                reachers.add(s)
                frontier.append(s)
    values = {}
    for s in states:
        if s in targets:
            values[s] = ONE
        elif s not in reachers:
            values[s] = ZERO
    unknown = [s for s in states if s not in values]
    if not unknown:
        return values
    index = {s: i for i, s in enumerate(unknown)}
    rows = []
    rhs = []
    for s in unknown:
        row = [ZERO] * len(unknown)
        row[index[s]] = ONE
        shift = ZERO
        for t, p in trans[s].items():
            if p == 0:
                continue
            if t in index:
                row[index[t]] -= p
            elif t in targets:
                shift += p
        rows.append(row)
        rhs.append(shift)
    solution = solve_linear(rows, rhs)
    assert solution is not None, "absorption system must be nonsingular"
    for s, i in index.items():
        values[s] = solution[i]
    return values


def matrix_value_oracle(payoff):
    """Value of a zero-sum matrix game by square-support enumeration.

    For every pair of equal-size supports, solve the equalizing systems for
    both players and keep the candidates that pass the saddle checks; every
    survivor certifies the game value, and at least one square kernel always
    exists.
    """
    m = len(payoff)
    n = len(payoff[0])
    candidates = []
    for size in range(1, min(m, n) + 1):
        for rows_support in itertools.combinations(range(m), size):
            for cols_support in itertools.combinations(range(n), size):
                # Row mixture x and value g with x^T M equal to g on the support.
                sys_rows = []
                sys_rhs = []
                for b in cols_support:
                    sys_rows.append([payoff[a][b] for a in rows_support] + [-ONE])
                    sys_rhs.append(ZERO)
                sys_rows.append([ONE] * size + [ZERO])
                sys_rhs.append(ONE)
                row_solution = solve_linear(sys_rows, sys_rhs)
                if row_solution is None:
                    continue
                x, g = row_solution[:size], row_solution[size]
                sys_rows = []
                sys_rhs = []
                for a in rows_support:
                    sys_rows.append([payoff[a][b] for b in cols_support] + [-ONE])
                    sys_rhs.append(ZERO)
                sys_rows.append([ONE] * size + [ZERO])
                sys_rhs.append(ONE)
                col_solution = solve_linear(sys_rows, sys_rhs)
                if col_solution is None:
                    continue
                y, h = col_solution[:size], col_solution[size]
                if g != h or any(p < 0 for p in x) or any(q < 0 for q in y):
                    continue
                full_x = {a: p for a, p in zip(rows_support, x)}
                full_y = {b: q for b, q in zip(cols_support, y)}
                if any(
                    sum(full_x.get(a, ZERO) * payoff[a][b] for a in range(m)) < g
                    for b in range(n)
                ):
                    continue
                if any(
                    sum(full_y.get(b, ZERO) * payoff[a][b] for b in range(n)) > g
                    for a in range(m)
                ):
                    continue
                candidates.append(g)
    assert candidates, "no basic solution found; enumeration is incomplete"
    assert all(c == candidates[0] for c in candidates)
    return candidates[0]


def tb_pure_strategies(tb, owner):
    """All pure successor choices of one player in a turn-based game."""
    spots = [s for s in tb.states if tb.partition[s] == owner]
    if not spots:
        return [{}]
    choices = [tb.edges[s] for s in spots]
    return [dict(zip(spots, combo)) for combo in itertools.product(*choices)]


def tb_chain(tb, sigma1, sigma2):
    trans = {}
    for s in tb.states:
        if tb.partition[s] == P1:
            trans[s] = {sigma1[s]: ONE}
        elif tb.partition[s] == P2:
            trans[s] = {sigma2[s]: ONE}
        else:
            trans[s] = dict(tb.prob[s])
    return trans


def tb_reach_value_oracle(tb, targets):
    """Game values of Reach(targets): pointwise max over player-1 pure
    strategies of the pointwise min over player-2 pure strategies."""
    strategies1 = tb_pure_strategies(tb, P1)
    strategies2 = tb_pure_strategies(tb, P2)
    best = None
    for sigma1 in strategies1:
        worst = None
        for sigma2 in strategies2:
            reach = chain_reach(tb.states, tb_chain(tb, sigma1, sigma2), targets)
            if worst is None:
                worst = reach
            else:
                worst = {s: min(worst[s], reach[s]) for s in tb.states}
        if best is None:
            best = worst
        else:
            best = {s: max(best[s], worst[s]) for s in tb.states}
    return best


class EncodedTurnBasedReach(ReachSIRunner):
    """Turn-based reachability improvement on the concurrent encoding:
    ``ReachSIRunner`` on ``encode_turn_based_as_concurrent(tb)`` restarted
    from the pure attractor selector towards T and W2 (the first edge where
    the attractor gives no pick).  Every one-step game there has one row or
    one column, so its rounds run through the closed-form matrix games."""

    def __init__(self, tb, T):
        super().__init__(encode_turn_based_as_concurrent(tb), T)
        _, attract = tb_attractor(tb, self.target | self.w2)
        moves = self.game.moves1
        self.selector = Selector({
            s: {edge_move(attract[s]) if s in attract else moves[s][0]: ONE}
            for s in self.game.states
        })
        self.valuations = [strategy_value_reach(self.game, self.selector, self.target, self.w2)]


class ColdConvergentSafety(ConvergentSafetyRunner):
    """The convergent safety loop with every inner k-uniform run a fresh
    runner, started cold from the uniform selector with the W1 choices
    written in."""

    def __init__(self, game, F):
        super().__init__(game, F)
        self.original = game

    def _round(self) -> bool:
        k = self.ks[-1] + 1 if self.ks else self.inner.k
        inner = SafetySIRunner(self.original, self.safe, k).run(K_UNIFORM_MAX_STEPS)
        if not inner.finished:
            raise RuntimeError("k-uniform improvement failed to terminate within budget")
        if self.valuations:
            for s in self.game.states:
                if inner.values[s] < self.values[s]:
                    raise AssertionError(f"outer sequence regressed at {s!r}")
        self.inner = inner
        self.valuations.append(inner.values)
        self.ks.append(inner.k)
        return inner.optimal


def reduction_switches(game, v, F, W1, k=None):
    """One safety improvement round's switches and whether the non-local
    step produced them, with the non-local step run on the turn-based
    reduction itself: build ``tb_reduction``, take ``tb_almost_sure_safe``
    of it, and send each winning state outside W1 to the witness of the
    pair its winning strategy picks.  The local step is the solver's own,
    ``pre1`` with the held states in ``done``."""
    safe = set(F)
    w1 = set(W1)
    done = w1 | (set(game.states) - safe)
    pre_vals, witness = pre1(game, v, done, k)
    local = {s: witness.choice[s] for s in game.states if s not in done and pre_vals[s] > v[s]}
    if local:
        return local, False
    reduction = tb_reduction(game, v, safe, done, k)
    winning, tb_strategy = tb_almost_sure_safe(reduction.game, reduction.safe_bar)
    switches = {}
    for s in game.states:
        if s in winning and s not in w1 and s in safe:
            _, _, A, B = reduction.back_map[tb_strategy[s]]
            switches[s] = reduction.witness_store[(s, A, B)]
    return switches, True


def pure_strategy_count(tb, owner) -> int:
    count = 1
    for s in tb.states:
        if tb.partition[s] == owner:
            count *= len(tb.edges[s])
    return count


def brute_force_mecs(mdp):
    """Maximal end components by subset enumeration (exponential)."""
    states = list(mdp.states)
    ecs = []
    for size in range(1, len(states) + 1):
        for subset in itertools.combinations(states, size):
            cell = frozenset(subset)
            allowed = {
                s: [b for b in mdp.actions[s] if mdp.dest(s, b) <= cell]
                for s in cell
            }
            if any(not acts for acts in allowed.values()):
                continue
            if _strongly_connected(cell, allowed, mdp):
                ecs.append(cell)
    return {c for c in ecs if not any(c < d for d in ecs)}


def _strongly_connected(cell, allowed, mdp):
    succ = {
        s: {t for b in allowed[s] for t in mdp.dest(s, b)} for s in cell
    }
    for root in cell:
        seen = {root}
        frontier = [root]
        while frontier:
            s = frontier.pop()
            for t in succ[s]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if seen != cell:
            return False
    return True


def brute_force_gfp(start, stays):
    """Greatest fixpoint by subset enumeration (exponential): the union of
    every subset X of ``start`` with ``stays(s, X)`` at each of its states.
    For a monotone ``stays`` such sets are closed under union, so the union
    is itself one of them, and the largest."""
    states = list(start)
    out = set()
    for size in range(1, len(states) + 1):
        for subset in itertools.combinations(states, size):
            cell = frozenset(subset)
            if all(stays(s, cell) for s in cell):
                out |= cell
    return frozenset(out)


def round_based_gfp(start, stays):
    """Greatest fixpoint by rounds: each round drops every state that fails
    ``stays`` against the set the round started from, until a round drops
    nothing.  At most |start| rounds, each testing every surviving state."""
    current = set(start)
    while True:
        kept = {s for s in current if stays(s, current)}
        if kept == current:
            return frozenset(current)
        current = kept


def game_support(game, s, a, b):
    """Support of delta(s, a, b), rebuilt on every call."""
    return frozenset(t for t, p in game.delta[(s, a, b)].items() if p > 0)


def mdp_support(mdp, s, b):
    """Support of delta2(s, b), rebuilt on every call."""
    return frozenset(t for t, p in mdp.delta2[(s, b)].items() if p > 0)


def reference_w2(game, target):
    """Value-zero states of Reach(target): the greatest set outside the
    target where some player-2 move confines every player-1 move."""
    return round_based_gfp(
        set(game.states) - set(target),
        lambda s, X: any(
            all(game_support(game, s, a, b) <= X for a in game.moves1[s])
            for b in game.moves2[s]
        ),
    )


def reference_almost_sure_safe(game, safe):
    """Almost-sure Safe(safe) region of a concurrent game, with the first
    confining player-1 move at each of its states."""

    def confines(s, a, X):
        return all(game_support(game, s, a, b) <= X for b in game.moves2[s])

    region = round_based_gfp(
        set(safe) & set(game.states),
        lambda s, X: any(confines(s, a, X) for a in game.moves1[s]),
    )
    return region, {s: next(a for a in game.moves1[s] if confines(s, a, region)) for s in region}


def reference_tb_almost_sure_safe(tb, safe):
    """Almost-sure Safe(safe) region of a turn-based game, with the first
    successor inside at each of its player-1 states."""
    alive = round_based_gfp(
        set(safe) & set(tb.states),
        lambda s, X: (
            any(t in X for t in tb.edges[s])
            if tb.partition[s] == P1
            else all(t in X for t in tb.edges[s])
        ),
    )
    strategy = {
        s: next(t for t in tb.edges[s] if t in alive) for s in alive if tb.partition[s] == P1
    }
    return alive, strategy


def reference_trap(mdp, done):
    """Greatest set outside ``done`` where every state has an action whose
    successors all stay inside."""
    return round_based_gfp(
        [s for s in mdp.states if s not in done],
        lambda s, X: any(mdp_support(mdp, s, b) <= X for b in mdp.actions[s]),
    )


def lp_max_reach_values(mdp, targets):
    """Maximal reachability probabilities as the least solution of the
    reachability linear program: minimize the sum of the x_s subject to
    x_s >= sum_t P(s, b, t) x_t for every action b.  States with no path to
    the target are fixed to zero first, which keeps the optimum unique."""
    targets = set(targets) & set(mdp.states)
    pred = {s: set() for s in mdp.states}
    for s in mdp.states:
        for b in mdp.actions[s]:
            for t in mdp.dest(s, b):
                pred[t].add(s)
    can_reach = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for s in pred[t]:
            if s not in can_reach:
                can_reach.add(s)
                frontier.append(s)
    values = {}
    for s in mdp.states:
        if s in targets:
            values[s] = ONE
        elif s not in can_reach:
            values[s] = ZERO
    free = [s for s in mdp.states if s not in values]
    if not free:
        return values
    col = {s: i for i, s in enumerate(free)}
    rows = []
    rhs = []
    for s in free:
        for b in mdp.actions[s]:
            row = [ZERO] * len(free)
            row[col[s]] = ONE
            shift = ZERO
            for t, p in mdp.delta2[(s, b)].items():
                if p == 0:
                    continue
                if t in col:
                    row[col[t]] -= p
                else:
                    shift += p * values[t]
            rows.append(row)
            rhs.append(shift)
    _, point, _ = solve_lp([ONE] * len(free), rows, [GEQ] * len(rows), rhs, maximize=False)
    for s, i in col.items():
        values[s] = point[i]
    return values


def mdp_reach_bellman_ok(mdp, targets, x):
    """Audit a claimed maximal-reachability valuation: LP feasibility, the
    Bellman equation, and a greedy policy whose chain achieves it exactly."""
    targets = set(targets)
    for s in mdp.states:
        if s in targets:
            if x[s] != 1:
                return False
            continue
        expectations = [
            sum((p * x[t] for t, p in mdp.delta2[(s, b)].items()), ZERO)
            for b in mdp.actions[s]
        ]
        if x[s] != max(expectations):
            return False
        if not (0 <= x[s] <= 1):
            return False
    # Greedy policy: among value-preserving actions, prefer one that steps
    # toward the target in the argmax-restricted graph.
    argmax = {}
    for s in mdp.states:
        if s in targets:
            continue
        argmax[s] = [
            b
            for b in mdp.actions[s]
            if sum((p * x[t] for t, p in mdp.delta2[(s, b)].items()), ZERO) == x[s]
        ]
    level = {s: 0 for s in targets}
    policy = {}
    changed = True
    while changed:
        changed = False
        for s in mdp.states:
            if s in level or s in targets:
                continue
            for b in argmax[s]:
                if any(t in level for t in mdp.dest(s, b)):
                    level[s] = 1 + min(
                        level[t] for t in mdp.dest(s, b) if t in level
                    )
                    policy[s] = b
                    changed = True
                    break
    for s in mdp.states:
        if s not in targets and s not in policy:
            if x[s] != 0:
                return False
            policy[s] = mdp.actions[s][0]
    trans = {
        s: ({s: ONE} if s in targets else dict(mdp.delta2[(s, policy[s])]))
        for s in mdp.states
    }
    achieved = chain_reach(mdp.states, trans, targets)
    return all(achieved[s] == x[s] for s in mdp.states)


def brute_force_k_uniform_best(game, safe, k):
    """Pointwise best safety value over every k-uniform memoryless strategy
    of the normalized game (mixtures enumerated outside the frozen region)."""
    import itertools

    from congame import Selector, strategy_value_safety
    from helpers import k_uniform_distributions, make_absorbing

    runner = SafetySIRunner(game, safe)
    frozen_states = runner.w1 | (set(game.states) - runner.safe)
    frozen = make_absorbing(game, frozen_states)
    spots = [s for s in game.states if s not in frozen_states]
    options = {
        s: [
            {a: p for a, p in zip(game.moves1[s], dist) if p > 0}
            for dist in k_uniform_distributions(len(game.moves1[s]), k)
        ]
        for s in spots
    }
    best = None
    for combo in itertools.product(*(options[s] for s in spots)):
        choice = {s: dict(d) for s, d in zip(spots, combo)}
        for s in frozen_states:
            n = len(game.moves1[s])
            choice[s] = {a: Fraction(1, n) for a in game.moves1[s]}
        value = strategy_value_safety(frozen, Selector(choice), runner.safe)
        if best is None:
            best = value
        else:
            best = {s: max(best[s], value[s]) for s in game.states}
    return best


def value_class_structure_ok(runner, k, target) -> int:
    """Check the value-class structure of a reach ``ValueIterationRunner``
    at iterate k: from a positive-value state, every adversary response
    either can climb to a strictly higher class or stays in the class and
    can fall to a strictly earlier entry time.  Returns the number of checks
    performed."""
    from congame import extract_eta_selector
    from helpers import value_classes

    game = runner.game
    u_k = runner.valuations[k]
    classes = value_classes(u_k)
    eta = extract_eta_selector(runner, k)
    done = set(target) | set(runner.w2)
    checked = 0
    for s in game.states:
        if s in done or u_k[s] == 0:
            continue
        r = u_k[s]
        for b in game.moves2[s]:
            dest = set()
            for a, p in eta.choice[s].items():
                if p > 0:
                    dest |= game.dest(s, a, b)
            if any(u_k[t] > r for t in dest):
                checked += 1
                continue
            assert dest <= classes.class_of(r), (s, b, dest)
            assert any(runner.entry_time(t, k) < runner.entry_time(s, k) for t in dest)
            checked += 1
    return checked


def reach_value_iteration(game, T, max_steps):
    """``u_{k+1} = Pre1(u_k)`` from the target indicator with the target and
    the value-zero states held, to an exact fixpoint (the repeated valuation
    kept) or ``max_steps`` applications: (valuations, witnesses, converged),
    ``witnesses[0]`` None."""
    target = frozenset(T) & frozenset(game.states)
    held = target | compute_W2(game, target)
    u = indicator(game, target)
    valuations, witnesses = [u], [None]
    for _ in range(max_steps):
        nxt, witness = pre1(game, u, held)
        valuations.append(nxt)
        witnesses.append(witness)
        if nxt == u:
            return valuations, witnesses, True
        u = nxt
    return valuations, witnesses, False


def safety_value_iteration_upper(game, F, steps):
    """``w_{i+1} = min([F], Pre1(w_i))`` from all-ones, with nothing held,
    to an exact fixpoint (the repeated valuation kept) or ``steps``
    applications."""
    safe = set(F)
    w = {s: ONE for s in game.states}
    out = [dict(w)]
    for _ in range(steps):
        pre_vals, _ = pre1(game, w)
        nxt = {s: min(ONE if s in safe else ZERO, pre_vals[s]) for s in game.states}
        out.append(nxt)
        if nxt == w:
            break
        w = nxt
    return out


class NotAFixpoint(GameError):
    """The valuation does not satisfy the safety fixpoint identity."""


def extract_optimal_safety_selector(game, v, F):
    """The optimal matrix-game mixtures at a safety fixpoint v (v = 0 off F
    and, with the unsafe states held, v = Pre1(v)), a memoryless optimal
    safety strategy; NotAFixpoint if v is not one."""
    unsafe = set(game.states) - set(F)
    for s in game.states:
        if s in unsafe and v[s] != 0:
            raise NotAFixpoint(f"v({s!r}) = {v[s]} but {s!r} is unsafe")
    pre_vals, witness = pre1(game, v, unsafe)
    mismatch = [s for s in game.states if pre_vals[s] != v[s]]
    if mismatch:
        raise NotAFixpoint(f"Pre1(v) differs from v at {sorted(mismatch)}; not a safety fixpoint")
    return witness


def fraction_dyadic_rounding(matrix, mix, floor):
    """``reach_si._dyadic_rounding`` in ``Fraction`` arithmetic: for
    j = 1, 2, ... round every probability but the most probable move's
    (the first on ties) to the nearest multiple of 2^-j with ``round``,
    give that move the rest, and stop at the first rounding whose one-step
    value in ``matrix`` reaches ``floor``."""
    row = {a: i for i, a in enumerate(matrix.rows)}
    payoff = [[Fraction(c, matrix.scale) for c in cells] for cells in matrix.cells]
    top = max(mix, key=mix.__getitem__)
    for j in itertools.count(1):
        scale = 1 << j
        rounded = {a: Fraction(round(p * scale), scale) for a, p in mix.items() if a != top}
        rest = ONE - sum(rounded.values(), ZERO)
        if rest < 0:
            continue
        rounded[top] = rest
        value = min(
            sum((p * payoff[row[a]][b] for a, p in rounded.items()), ZERO)
            for b in range(len(matrix.cols))
        )
        if value >= floor:
            return {a: rounded[a] for a in mix if rounded[a]}, value


def fraction_one_step_matrix(game, v, s):
    """``matrix.one_step_matrix`` in ``Fraction`` arithmetic: each entry is
    the sum of ``p * v[t]`` over the move pair's distribution, one
    ``Fraction`` at a time, and ``MatrixGame.of`` reduces the payoff to its
    integer form."""
    rows, cols = game.moves1[s], game.moves2[s]

    def expected(dist):
        return sum((p * v[t] for t, p in dist.items()), ZERO)

    payoff = tuple(tuple(expected(game.delta[(s, a, b)]) for b in cols) for a in rows)
    return MatrixGame.of(rows, cols, payoff)
