"""Strategy improvement for concurrent safety games.

Local one-step improvement alone does not converge to safety values: the
adversary can be indifferent among all successors of a state while a better
strategy exists (it only pays off once the adversary is forced to commit).
The fix is a non-local step.  When no state improves locally, build a
turn-based game in which player 1 picks a (support, counter-move-set) pair
of an optimal mixture at each state and player 2 is restricted to the
counter-optimal responses of that mixture; the almost-sure safe region of
this game marks the states where switching mixtures forces the adversary to
concede, and the stored mixture witnesses become the new selector there.

Even with the non-local step the plain loop may converge below the value.
The convergent variant restricts each round to k-uniform mixtures (finitely
many, so each inner run terminates at the exact k-uniform optimum) and
grows k; the resulting outer sequence of strategy values rises to the value
of the game.  Each round after the first starts from the last round's
fixpoint rather than from the uniform selector.

``SafetySIRunner`` runs the plain or, given k, the k-uniform loop, and
``ConvergentSafetyRunner`` the outer one; both are ``reach_si.Runner``s.
A finished ``SafetySIRunner`` runs the unrestricted stopping test once and
keeps its answer as ``optimal``; the outer loop stops on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linprog import EQ, GEQ, LPInfeasible, solve_lp
from .matrix import (
    MatrixGame,
    MatrixSolution,
    _k_uniform_optima,
    _one_step,
    _solution,
    one_step_matrix,
    pre1,
    pre1_k,
)
from .mdp import (
    almost_sure_safe_strategy,
    strategy_value_safety,
    tb_almost_sure_safe,
)
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
    make_absorbing,
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

    state: str
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
    ``B`` and strictly exceeds it elsewhere, with witness 1.
    """
    b_set = set(B)
    if len(A) == 1:
        row = payoff[A[0]]
        if all((x == target) if j in b_set else (x > target) for j, x in enumerate(row)):
            return (ONE,)
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


def opt_sel_count(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int | None = None
) -> list[SupportPair]:
    """All feasible (support, counter-set) pairs at ``s``, in subset order
    (by size, then position), each with a stored witness mixture."""
    matrix = one_step_matrix(game, v, s)
    if k is None:
        pairs = _unrestricted_pairs(game, matrix)
    else:
        # Subset order: by the size and positions of A, then of B.
        pairs = sorted(
            _k_uniform_position_pairs(game, matrix, k),
            key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]),
        )
    return [SupportPair(s, A, B, witness) for (A, B), witness in _labelled(matrix, pairs)]


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


def tb_reduction(
    game: GameStructure, v: Mapping[str, Fraction], F: Iterable[str], k: int | None = None
) -> TBReduction:
    """Build the turn-based game of optimal-support choices under ``v``.

    Player 1 picks a feasible (support, counter-set) pair at each original
    state; player 2 then picks a move from the counter set; a uniform random
    state spreads over every successor the supported moves can produce
    against that response.
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
        pair_nodes = []
        for pair in opt_sel_count(game, v, s, k):
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
                successors: set[str] = set()
                for a in pair.A:
                    successors |= game.dest(s, a, b)
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


def improvement_switches(
    game: GameStructure,
    v: Mapping[str, Fraction],
    F: Iterable[str],
    W1: Iterable[str],
    k: int | None = None,
) -> tuple[dict[str, dict[str, Fraction]], bool]:
    """The states one safety improvement round would switch at ``v``, with
    their new mixtures, and whether the non-local step produced them.

    The game is normalized (W1 and the unsafe states absorbing).  The local
    step comes first: states outside W1 and the unsafe states where the
    one-step optimum strictly beats ``v``.  Only when there are none does the
    non-local step run: the states the turn-based reduction makes almost
    surely safe, with the stored mixture witnesses.  ``k`` restricts every
    mixture considered to k-uniform ones.  An empty result with ``k=None``
    is the unrestricted stopping condition: ``v`` is the value of the game.
    """
    safe = set(F)
    w1 = set(W1)
    done = w1 | (set(game.states) - safe)
    if k is None:
        pre_vals, witness = pre1(game, v)
        local_witness = witness.choice
    else:
        pre_vals = {}
        local_witness = {}
        for s in game.states:
            pre_vals[s], local_witness[s] = pre1_k(game, v, s, k)
    local = {
        s: local_witness[s]
        for s in game.states
        if s not in done and pre_vals[s] > v[s]
    }
    if local:
        return local, False
    reduction = tb_reduction(game, v, safe, k)
    winning, tb_strategy = tb_almost_sure_safe(reduction.game, reduction.safe_bar)
    switches = {}
    for s in game.states:
        if s in winning and s not in w1 and s in safe:
            _, _, A, B = reduction.back_map[tb_strategy[s]]
            switches[s] = reduction.witness_store[(s, A, B)]
    return switches, True


@dataclass(frozen=True)
class SafetyContext:
    """Normalized game (value-1 region and unsafe states absorbing) plus the
    pure winning choices on the value-1 region, which make a selector for
    the normalized game a strategy for the original one."""

    game: GameStructure
    w1: frozenset[str]
    safe: set[str]
    w1_actions: dict[str, str]


def normalize_safety(game: GameStructure, F: Iterable[str]) -> SafetyContext:
    safe = set(F) & set(game.states)
    w1, w1_actions = almost_sure_safe_strategy(game, safe)
    unsafe = set(game.states) - safe
    normalized = make_absorbing(game, w1 | unsafe)
    return SafetyContext(normalized, w1, safe, w1_actions)


class SafetySIRunner(Runner):
    """Safety strategy improvement, over all mixtures or, given ``k``, over
    k-uniform ones only.  A natural stop certifies the exact value, but on
    genuinely concurrent games the plain loop may improve forever, so its
    cap flags a partial trace.

    k is raised to the total number of moves so the uniform start is itself
    k-uniform.  ``context`` reuses a normalization of ``game`` already made.
    The start is the uniform selector with the pure winning choice written
    on the value-1 region: those states are absorbing in the normalized game
    and never switched, so ``selector`` achieves ``values`` on the original
    game too.  ``start`` replaces it with a selector of ``context.game``
    that keeps those choices (and, given k, is k-uniform), such as an
    earlier k-uniform fixpoint.  ``fired_nonlocal`` says whether any round
    took the non-local step.  ``optimal`` says the fixpoint passed the unrestricted stopping
    condition, so ``values`` is the value of the game; it is False until
    the runner finishes, and a k-uniform fixpoint may still fail it.
    """

    optimal = False

    def __init__(
        self,
        game: GameStructure,
        F: Iterable[str],
        k: int | None = None,
        context: SafetyContext | None = None,
        start: Selector | None = None,
    ):
        if k is not None and k < 1:
            raise GameError("k must be >= 1")
        self.context = context if context is not None else normalize_safety(game, F)
        self.game, self.w1, self.safe = self.context.game, self.context.w1, self.context.safe
        self.k = None if k is None else max(k, len(game.moves))
        if start is None:
            choice = uniform_selector(self.game).choice
            for s, a in self.context.w1_actions.items():
                choice[s] = {a: ONE}
            start = Selector(choice)
        self.selector = start
        self.valuations: list[Valuation] = [
            strategy_value_safety(self.game, self.selector, self.safe)
        ]
        self.fired_nonlocal = False

    def _round(self) -> bool:
        """Switch the states ``improvement_switches`` names and evaluate the
        new selector exactly; nothing to switch is the fixpoint."""
        v = self.values
        switches, nonlocal_step = improvement_switches(self.game, v, self.safe, self.w1, self.k)
        if not switches:
            self.optimal = self.k is None or not improvement_switches(
                self.game, v, self.safe, self.w1
            )[0]
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


def run_k_uniform_si(
    game: GameStructure,
    F: Iterable[str],
    k: int,
    max_iters: int = 10_000,
    _context: SafetyContext | None = None,
    _start: Selector | None = None,
) -> SafetySIRunner:
    """Safety improvement restricted to k-uniform mixtures, to its fixpoint.

    Values rise strictly whenever the selector changes and the k-uniform
    selectors are finite, so the loop terminates; the fixpoint is the exact
    optimum over k-uniform memoryless strategies.  ``max_iters`` is a
    budget, not a cap: running out of it raises.  ``_start`` is
    ``SafetySIRunner``'s ``start``.
    """
    runner = SafetySIRunner(game, F, k, _context, _start).run(max_iters)
    if not runner.finished:
        raise RuntimeError("k-uniform improvement failed to terminate within budget")
    return runner


class ConvergentSafetyRunner(Runner):
    """Outer loop growing k: each step runs the k-uniform improvement to its
    fixpoint (kept as ``inner``), records its exact strategy value and k,
    and stops when that fixpoint is ``optimal``.  There is no valuation
    before the first step, so ``run`` needs a cap of at least 1.

    The first inner run starts from the uniform selector; each later one
    starts warm from the last fixpoint, which is k-uniform and hence
    (k+1)-uniform.  Every inner run still ends at the exact k-uniform
    optimum, so only the number of inner steps depends on the start.
    """

    def __init__(self, game: GameStructure, F: Iterable[str]):
        self.context = normalize_safety(game, F)
        self.game, self.safe = self.context.game, self.context.safe
        self.k = max(1, len(game.moves))
        self.valuations: list[Valuation] = []
        self.ks: list[int] = []
        self.inner: SafetySIRunner | None = None

    @property
    def selector(self) -> Selector:
        return self.inner.selector

    def _round(self) -> bool:
        start = None if self.inner is None else self.inner.selector
        inner = run_k_uniform_si(
            self.game, self.safe, self.k, _context=self.context, _start=start
        )
        if self.valuations:
            for s in self.game.states:
                if inner.values[s] < self.values[s]:
                    raise AssertionError(f"outer sequence regressed at {s!r}")
        self.inner = inner
        self.valuations.append(inner.values)
        self.ks.append(inner.k)
        self.k += 1
        return inner.optimal

