"""Strategy improvement for concurrent safety games.

Local one-step improvement alone does not converge to safety values: the
adversary can be indifferent among all successors of a state while a better
strategy exists (it only pays off once the adversary is forced to commit).
The fix is a non-local step.  When no state improves locally, consider
the turn-based game in which player 1 picks a (support, counter-move-set)
pair of an optimal mixture at each state and player 2 is restricted to the
counter-optimal responses of that mixture; the almost-sure safe region of
this game marks the states where switching mixtures forces the adversary to
concede, and the stored mixture witnesses become the new selector there.
That region is qualitative: the game's random nodes are uniform over their
successors, so it is the greatest set of safe states at each of which some
pair leads only back into the set.  The solve computes it that way, as one
greatest fixpoint on the concurrent game (``improvement_switches``);
``tb_reduction`` materializes the turn-based game itself, for
``congame dump-tb``.

Even with the non-local step the plain loop may converge below the value.
The convergent variant restricts the loop to k-uniform mixtures (finitely
many, so each run terminates at the exact k-uniform optimum) and grows k;
the resulting outer sequence of strategy values rises to the value of the
game.  It is one monotone sequence: a k-uniform fixpoint is (k+1)-uniform,
so the run for k + 1 continues from it.

``SafetySIRunner`` runs the plain or, given k, the k-uniform loop, and
``widen()`` moves a k-uniform runner on to k + 1.  ``ConvergentSafetyRunner``
drives one such runner through the outer loop, giving each round a budget
of ``K_UNIFORM_MAX_STEPS`` steps; both are ``reach_si.Runner``s.
A finished ``SafetySIRunner`` runs the unrestricted stopping test once per
fixpoint valuation and keeps its answer as ``optimal``; the outer loop
stops on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from .linprog import EQ, GEQ, LPInfeasible, solve_lp
from .matrix import (
    MatrixGame,
    MatrixSolution,
    _check_k_uniform_budget,
    _k_uniform_optima,
    _one_step,
    _pre1_matrix,
    _solution,
    one_step_matrix,
)
from .mdp import _greatest_fixpoint, almost_sure_safe_strategy, strategy_value_safety
from .model import (
    GameStructure,
    GameError,
    ONE,
    P1,
    P2,
    RANDOM,
    Selector,
    TurnBasedGame,
    Valuation,
    ZERO,
    uniform_selector,
)
from .reach_si import Runner


@dataclass(frozen=True)
class SupportPair:
    """A feasible (support, counter-move-set) pair at a state.

    ``witness`` is a player-1 mixture with support exactly ``A`` achieving
    the one-step optimum at the state; ``B`` is exactly the set of player-2
    moves that hold it to that optimum (all others strictly exceed it).
    """

    A: tuple[str, ...]
    B: tuple[str, ...]
    witness: dict[str, Fraction]


# A support pair by position: row positions A, column positions B, and the
# witness's probabilities on A.
PositionPair = tuple[tuple[int, ...], tuple[int, ...], tuple[Fraction, ...]]


def _nonempty_subsets(items: Sequence) -> list[tuple]:
    """Nonempty subsets by size, then position; a sublist's subsets come in
    the same relative order as in the whole list's."""
    out = []
    for size in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, size))
    return out


def _feasible_unrestricted(
    payoff, target: Fraction, A: tuple[int, ...], B: tuple[int, ...]
) -> tuple[Fraction, ...] | None:
    """Maximize a shared slack below the support probabilities and above the
    strict inequalities; a positive optimum is exactly strict feasibility.
    Returns the witness's probabilities on the rows ``A``.

    One row needs no LP: it is feasible exactly when it meets the target on
    ``B`` and strictly exceeds it elsewhere, with witness 1.  For more rows,
    a column's entry under any mixture over ``A`` lies between the column's
    least and greatest entry on ``A``, so the LP runs only when every column
    in ``B`` brackets the target and every other column exceeds it
    somewhere.
    """
    b_set = set(B)
    if len(A) == 1:
        row = payoff[A[0]]
        if all((x == target) if j in b_set else (x > target) for j, x in enumerate(row)):
            return (ONE,)
        return None
    for j in range(len(payoff[0])):
        column = [payoff[a][j] for a in A]
        if not (min(column) <= target <= max(column) if j in b_set else max(column) > target):
            return None
    n = len(A) + 1  # mixture over A plus the slack variable
    t_col = len(A)
    rows: list[list[Fraction]] = []
    senses: list[str] = []
    rhs: list[Fraction] = []
    for i in range(len(A)):
        row = [ZERO] * n
        row[i] = ONE
        row[t_col] = -ONE
        rows.append(row)
        senses.append(GEQ)
        rhs.append(ZERO)
    rows.append([ONE] * len(A) + [ZERO])
    senses.append(EQ)
    rhs.append(ONE)
    for j in range(len(payoff[0])):
        row = [payoff[a][j] for a in A]
        if j in b_set:
            rows.append(row + [ZERO])
            senses.append(EQ)
            rhs.append(target)
        else:
            rows.append(row + [-ONE])
            senses.append(GEQ)
            rhs.append(target)
    objective = [ZERO] * len(A) + [ONE]
    try:
        slack, point, _ = solve_lp(objective, rows, senses, rhs, maximize=True)
    except LPInfeasible:
        return None
    if slack <= 0:
        return None
    return tuple(point[: len(A)])


def _unrestricted_pairs(game: GameStructure, matrix: MatrixGame) -> tuple[PositionPair, ...]:
    """Every feasible pair of ``matrix`` in subset order, by position.

    A matrix with one row or one column has closed forms, the slack LP's
    own optima: on 1 x n the one row with the columns at its minimum and
    witness 1; on m x 1 every set of maximal rows, uniformly, with the
    column.  Other shapes are pruned (``_pruned_pairs``) once per payoff in
    ``game``.
    """
    payoff = matrix.payoff
    if len(matrix.rows) == 1:
        low = min(payoff[0])
        return (((0,), tuple(b for b, x in enumerate(payoff[0]) if x == low), (ONE,)),)
    if len(matrix.cols) == 1:
        high = max(row[0] for row in payoff)
        best = [a for a, row in enumerate(payoff) if row[0] == high]
        return tuple((A, (0,), (Fraction(1, len(A)),) * len(A)) for A in _nonempty_subsets(best))
    entry = _one_step(game, matrix)
    if entry.pairs is None:
        entry.pairs = _pruned_pairs(payoff, _solution(game, matrix))
    return entry.pairs


def _pruned_pairs(payoff, solution: MatrixSolution) -> tuple[PositionPair, ...]:
    """The feasible pairs by the slack LP, run only on the pairs that
    complementary slackness allows.

    Take the optimal column strategy ``y*`` of ``solution`` and any optimal
    row mixture ``x``: ``y*_b > 0`` forces ``(x M)_b = v`` and ``x_a > 0``
    forces ``(M y*)_a = v``.  So a feasible pair has ``B`` covering the
    support of ``y*`` and ``A`` inside the rows earning ``v`` against it.
    """
    target, y = solution.value, solution.col_strategy
    support = {b for b, q in enumerate(y) if q}
    responses = [
        a for a, row in enumerate(payoff) if sum(row[b] * y[b] for b in support) == target
    ]
    pairs = []
    for A in _nonempty_subsets(responses):
        for B in _nonempty_subsets(range(len(y))):
            if support.issubset(B):
                witness = _feasible_unrestricted(payoff, target, A, B)
                if witness is not None:
                    pairs.append((A, B, witness))
    return tuple(pairs)


def _k_uniform_position_pairs(
    game: GameStructure, matrix: MatrixGame, k: int
) -> tuple[PositionPair, ...]:
    """Every pair realizable by a k-uniform optimal mixture of ``matrix``,
    in enumeration order, each with the first such mixture as witness."""
    _, optima = _k_uniform_optima(game, matrix, k)
    return tuple(
        (A, B, tuple(Fraction(counts[a], denom) for a in A)) for A, B, denom, counts in optima
    )


def _labelled(matrix: MatrixGame, pairs: Iterable[PositionPair]):
    """Position-level pairs as ``((A, B), witness)`` in move labels."""
    rows, cols = matrix.rows, matrix.cols
    for A, B, probabilities in pairs:
        support = tuple(rows[a] for a in A)
        yield (support, tuple(cols[b] for b in B)), dict(zip(support, probabilities))


def _held_pairs(game: GameStructure, s: str, k: int | None) -> list[SupportPair]:
    """``opt_sel_count`` at ``s`` as if every move pair looped back to it.
    On that constant matrix every nonempty support A of at most ``k`` moves
    is held by every column, in subset order, and its witness is uniform:
    the slack LP's unique optimum and the k-uniform scan's first mixture on
    A.  The k-uniform budget is checked as the scan would check it."""
    if k is not None:
        _check_k_uniform_budget(len(game.moves1[s]), k)
    return [
        SupportPair(A, game.moves2[s], {a: Fraction(1, len(A)) for a in A})
        for A in _nonempty_subsets(game.moves1[s])
        if k is None or len(A) <= k
    ]


def opt_sel_count(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int | None = None
) -> list[SupportPair]:
    """All feasible (support, counter-set) pairs at ``s``, in subset order
    (by size, then position), each with a stored witness mixture."""
    return _matrix_pairs(game, one_step_matrix(game, v, s), k)


def _matrix_pairs(game: GameStructure, matrix: MatrixGame, k: int | None) -> list[SupportPair]:
    """``opt_sel_count`` on the one-step matrix of its state."""
    if k is None:
        pairs = _unrestricted_pairs(game, matrix)
    else:
        # Subset order: by the size and positions of A, then of B.
        pairs = sorted(
            _k_uniform_position_pairs(game, matrix, k),
            key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]),
        )
    return [SupportPair(A, B, witness) for (A, B), witness in _labelled(matrix, pairs)]


@dataclass
class TBReduction:
    """Turn-based game over (state, support, counter-set) choices.

    ``back_map`` sends each turn-based state to its origin; ``witness_store``
    keeps the optimal mixture backing every player-1 choice so the improved
    selector can be read off an almost-sure winning strategy.
    """

    game: TurnBasedGame
    safe_bar: frozenset[str]
    back_map: dict[str, tuple]
    witness_store: dict[tuple[str, tuple[str, ...], tuple[str, ...]], dict[str, Fraction]]


def _pair_node(s: str, A: tuple[str, ...], B: tuple[str, ...]) -> str:
    return f"{s}/[{'+'.join(A)}]/[{'+'.join(B)}]"


def _resp_node(s: str, A: tuple[str, ...], b: str) -> str:
    return f"{s}/[{'+'.join(A)}]/{b}"


def _pair_successors(
    game: GameStructure, s: str, held: bool, A: Iterable[str], B: Iterable[str]
) -> set[str]:
    """States the support ``A`` can lead to against the responses ``B`` at
    ``s``; only ``s`` itself at a held state."""
    if held:
        return {s}
    return {t for a in A for b in B for t in game.dest(s, a, b)}


def tb_reduction(
    game: GameStructure, v: Mapping[str, Fraction], F: Iterable[str],
    done: AbstractSet[str] = frozenset(), k: int | None = None,
) -> TBReduction:
    """Build the turn-based game of optimal-support choices under ``v``.

    Player 1 picks a feasible (support, counter-set) pair at each original
    state; player 2 then picks a move from the counter set; a uniform random
    state spreads over every successor the supported moves can produce
    against that response.  Player 1 offers ``opt_sel_count``'s pairs at a
    state, or, at a state in ``done``, which is held, every pair looping
    back to it (``_held_pairs``).

    This is the materialized view of the non-local step, printed by
    ``congame dump-tb``.  The solve never builds it: ``improvement_switches``
    computes its almost-sure safe region directly on ``game``, from the same
    pairs and the same successor sets (``_pair_successors``).
    """
    safe = set(F)
    order = {t: i for i, t in enumerate(game.states)}
    states: list[str] = list(game.states)
    partition: dict[str, str] = {s: P1 for s in game.states}
    edges: dict[str, tuple[str, ...]] = {}
    prob: dict[str, dict[str, Fraction]] = {}
    back_map: dict[str, tuple] = {s: ("state", s) for s in game.states}
    witness_store: dict[tuple[str, tuple[str, ...], tuple[str, ...]], dict[str, Fraction]] = {}
    safe_bar: set[str] = {s for s in game.states if s in safe}
    for s in game.states:
        held = s in done
        pair_nodes = []
        pairs = _held_pairs(game, s, k) if held else opt_sel_count(game, v, s, k)
        for pair in pairs:
            node = _pair_node(s, pair.A, pair.B)
            pair_nodes.append(node)
            states.append(node)
            partition[node] = P2
            back_map[node] = ("pair", s, pair.A, pair.B)
            witness_store[(s, pair.A, pair.B)] = pair.witness
            if s in safe:
                safe_bar.add(node)
            resp_nodes = []
            for b in pair.B:
                resp = _resp_node(s, pair.A, b)
                resp_nodes.append(resp)
                if resp in partition:
                    # (state, support, response) nodes are shared between
                    # pairs with the same support.
                    continue
                states.append(resp)
                partition[resp] = RANDOM
                back_map[resp] = ("resp", s, pair.A, b)
                if s in safe:
                    safe_bar.add(resp)
                successors = _pair_successors(game, s, held, pair.A, (b,))
                ordered = sorted(successors, key=order.__getitem__)
                edges[resp] = tuple(ordered)
                share = Fraction(1, len(ordered))
                prob[resp] = {t: share for t in ordered}
            edges[node] = tuple(resp_nodes)
        edges[s] = tuple(pair_nodes)
    tb = TurnBasedGame(tuple(states), partition, edges, prob)
    return TBReduction(tb, frozenset(safe_bar), back_map, witness_store)


def _replace(selector: Selector, updates: Mapping[str, Mapping[str, Fraction]]) -> Selector:
    choice = {
        s: dict(updates[s]) if s in updates else dict(selector.choice[s])
        for s in selector.choice
    }
    return Selector(choice)


def _held(game: GameStructure, safe: AbstractSet[str], w1: AbstractSet[str]) -> AbstractSet[str]:
    """The states a safety round holds: W1 and the unsafe states."""
    return w1 | (set(game.states) - safe)


def improvement_switches(
    game: GameStructure,
    v: Mapping[str, Fraction],
    F: Iterable[str],
    W1: Iterable[str],
    k: int | None = None,
) -> tuple[dict[str, dict[str, Fraction]], bool]:
    """The states one safety improvement round would switch at ``v``, with
    their new mixtures, and whether the non-local step produced them.

    W1 and the unsafe states are held (see ``tb_reduction``).  The local
    step comes first: the other states where the one-step optimum strictly
    beats ``v``.  Only when there are none does the non-local step run: the
    states outside W1 that the turn-based reduction makes almost surely
    safe, each with the witness of its first surviving pair.  That region
    is computed without building the reduction, as the greatest set X of
    safe states at each of which some pair (A, B) has every successor
    ``dest(s, a, b)``, a in A and b in B, inside X: a pair node survives in
    the reduction exactly when its response nodes do, and a uniform response
    node exactly when all its successors do.  ``k`` restricts every mixture
    considered to k-uniform ones.  An empty result with ``k=None`` is the
    unrestricted stopping condition: ``v`` is the value of the game.

    Each state that is not held gets its one-step matrix built once, and
    both steps read it: the local step's ``pre1_state`` or ``pre1_k`` and
    the non-local step's ``opt_sel_count``, through their matrix-taking
    cores.
    """
    safe = set(F)
    w1 = set(W1)
    done = _held(game, safe, w1)
    matrices: dict[str, MatrixGame] = {}
    local: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        if s in done:
            if k is not None:  # no scan, but the scan's budget check, in state order
                _check_k_uniform_budget(len(game.moves1[s]), k)
            continue
        matrix = matrices[s] = one_step_matrix(game, v, s)
        value, mix = _pre1_matrix(game, matrix, k)
        if value > v[s]:
            local[s] = mix
    if local:
        return local, False
    options = {
        s: [
            (pair.witness, _pair_successors(game, s, s in done, pair.A, pair.B))
            for pair in (
                _held_pairs(game, s, k) if s in done else _matrix_pairs(game, matrices[s], k)
            )
        ]
        for s in game.states
        if s in safe
    }
    alive = _greatest_fixpoint(
        options,
        lambda s, X: any(successors <= X for _, successors in options[s]),
        lambda s: set().union(*(successors for _, successors in options[s])),
    )
    switches = {
        s: next(witness for witness, successors in options[s] if successors <= alive)
        for s in game.states
        if s in alive and s not in w1
    }
    return switches, True


def safety_regions(
    game: GameStructure, F: Iterable[str]
) -> tuple[set[str], frozenset[str], dict[str, str], AbstractSet[str]]:
    """The states of ``F`` in ``game``; the value-1 region W1 of
    Safe(``F``) with its pure winning choices; and the states a safety
    round holds, W1 and the unsafe states."""
    safe = set(F) & set(game.states)
    w1, w1_actions = almost_sure_safe_strategy(game, safe)
    return safe, w1, w1_actions, _held(game, safe, w1)


# Steps a k-uniform run may take to reach its fixpoint.  Values rise
# strictly and k-uniform selectors are finite, so the fixpoint is always
# reached; a run that uses up this budget stops short of it.
K_UNIFORM_MAX_STEPS = 10_000


class SafetySIRunner(Runner):
    """Safety strategy improvement, over all mixtures or, given ``k``, over
    k-uniform ones only.  A natural stop certifies the exact value, but on
    genuinely concurrent games the plain loop may improve forever, so its
    cap flags a partial trace.

    The runner improves on ``game`` as given and holds the states in
    ``done``: ``w1`` (the value-1 region of Safe(``safe``)) and the unsafe
    states, which the rounds never switch.  k is raised to the total number
    of moves so the uniform start is itself k-uniform.  The start is the
    uniform selector with the pure winning choice written on ``w1``, which
    keeps the play in ``w1`` forever, so ``w1`` keeps value 1.
    ``fired_nonlocal`` says whether any round took the non-local step.
    ``optimal`` says the fixpoint passed the unrestricted stopping
    condition, so ``values`` is the value of the game; it is False until
    the runner finishes, and a k-uniform fixpoint may still fail it.  The
    test runs once per valuation object: a widened runner whose fixpoint
    has not moved reads the answer it found before.
    """

    optimal = False
    # The last valuation the unrestricted stopping test ran at, and its answer.
    _stop_test: tuple[Valuation, bool] | None = None

    def __init__(self, game: GameStructure, F: Iterable[str], k: int | None = None):
        if k is not None and k < 1:
            raise GameError("k must be >= 1")
        self.safe, self.w1, w1_actions, self.done = safety_regions(game, F)
        self.game = game
        self.k = None if k is None else max(k, len(game.moves))
        choice = uniform_selector(game).choice
        for s, a in w1_actions.items():
            choice[s] = {a: ONE}
        self.selector = Selector(choice)
        self.valuations: list[Valuation] = [
            strategy_value_safety(self.game, self.selector, self.safe)
        ]
        self.fired_nonlocal = False

    def widen(self) -> None:
        """Raise k by one and let ``run`` continue from the current
        selector.  That is sound: a k-uniform selector is (k+1)-uniform, so
        a k-uniform fixpoint is a valid start for the (k+1)-uniform loop,
        which still ends at the exact (k+1)-uniform optimum."""
        self.k += 1
        self.finished = False
        self.optimal = False

    def _round(self) -> bool:
        """Switch the states ``improvement_switches`` names and evaluate the
        new selector exactly; nothing to switch is the fixpoint."""
        v = self.values
        switches, nonlocal_step = improvement_switches(self.game, v, self.safe, self.w1, self.k)
        if not switches:
            self.optimal = self.k is None or self._unrestricted_stop(v)
            return True
        selector = _replace(self.selector, switches)
        value = strategy_value_safety(self.game, selector, self.safe)
        step = "non-local safety improvement" if nonlocal_step else "safety improvement"
        for s in self.game.states:
            if value[s] < v[s]:
                raise AssertionError(f"{step} regressed at {s!r}")
        if nonlocal_step:
            if not any(value[s] > v[s] for s in switches):
                raise AssertionError("non-local step produced no strict improvement")
            self.fired_nonlocal = True
        else:
            for s in switches:
                if not value[s] > v[s]:
                    raise AssertionError(f"no strict local improvement at {s!r}")
        self.selector = selector
        self.valuations.append(value)
        return False


    def _unrestricted_stop(self, v: Valuation) -> bool:
        """Whether ``improvement_switches`` over all mixtures finds nothing
        at ``v``, computed once per valuation object."""
        if self._stop_test is None or self._stop_test[0] is not v:
            self._stop_test = (v, not improvement_switches(self.game, v, self.safe, self.w1)[0])
        return self._stop_test[1]


class ConvergentSafetyRunner(Runner):
    """Outer loop growing k over one k-uniform ``inner`` runner: each step
    widens it (from the second step on), runs it to its fixpoint, records
    the exact strategy value and k, and stops when that fixpoint is
    ``optimal``.  There is no valuation before the first step, so ``run``
    needs a cap of at least 1.  An inner run that does not finish within
    ``K_UNIFORM_MAX_STEPS`` steps raises ``RuntimeError``.
    """

    def __init__(self, game: GameStructure, F: Iterable[str]):
        self.inner = SafetySIRunner(game, F, 1)
        self.game, self.safe = self.inner.game, self.inner.safe
        self.valuations: list[Valuation] = []
        self.ks: list[int] = []

    @property
    def selector(self) -> Selector:
        return self.inner.selector

    def _round(self) -> bool:
        inner = self.inner
        if self.ks:
            inner.widen()
        inner.run(inner.iterations + K_UNIFORM_MAX_STEPS)
        if not inner.finished:
            raise RuntimeError("k-uniform improvement failed to terminate within budget")
        if self.valuations:
            for s in self.game.states:
                if inner.values[s] < self.values[s]:
                    raise AssertionError(f"outer sequence regressed at {s!r}")
        self.valuations.append(inner.values)
        self.ks.append(inner.k)
        return inner.optimal
