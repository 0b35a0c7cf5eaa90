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
``congame dump-tb``.  Both read each state's pairs from
``matrix.optimal_pairs``, by row and column position.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping

from .matrix import MatrixGame, PositionPair, one_step_matrix, optimal_pairs, pre1
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
    uniform_selector,
)
from .reach_si import Runner


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
    game: GameStructure, v: Mapping[str, Fraction], F: Iterable[str],
    done: AbstractSet[str] = frozenset(), k: int | None = None,
) -> TBReduction:
    """Build the turn-based game of optimal-support choices under ``v``.

    Player 1 picks a feasible (support, counter-set) pair at each original
    state; player 2 then picks a move from the counter set; a uniform random
    state spreads over every successor the supported moves can produce
    against that response.  Player 1 offers the ``optimal_pairs`` of the
    state's one-step matrix.  A state in ``done`` is held: every move pair
    loops back to it, so it offers the pairs ``optimal_pairs`` finds on its
    matrix with every entry ``v[s]`` (cells ``v[s].numerator`` over scale
    ``v[s].denominator``, canonical since ``v[s]`` is reduced), each leading
    only to the state itself.

    This is the materialized view of the non-local step, printed by
    ``congame dump-tb``.  The solve never builds it: ``improvement_switches``
    computes its almost-sure safe region directly on ``game``, from the same
    pairs and the same successor sets.
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
        rows, cols = game.moves1[s], game.moves2[s]
        if held:
            cells = ((v[s].numerator,) * len(cols),) * len(rows)
            matrix = MatrixGame(rows, cols, cells, v[s].denominator)
        else:
            matrix = one_step_matrix(game, v, s)
        pair_nodes = []
        for support, counter, probabilities in optimal_pairs(game, matrix, k):
            A = tuple(rows[a] for a in support)
            B = tuple(cols[b] for b in counter)
            node = _pair_node(s, A, B)
            pair_nodes.append(node)
            states.append(node)
            partition[node] = P2
            back_map[node] = ("pair", s, A, B)
            witness_store[(s, A, B)] = dict(zip(A, probabilities))
            if s in safe:
                safe_bar.add(node)
            resp_nodes = []
            for b in B:
                resp = _resp_node(s, A, b)
                resp_nodes.append(resp)
                if resp in partition:
                    # (state, support, response) nodes are shared between
                    # pairs with the same support.
                    continue
                states.append(resp)
                partition[resp] = RANDOM
                back_map[resp] = ("resp", s, A, b)
                if s in safe:
                    safe_bar.add(resp)
                successors = {s} if held else {t for a in A for t in game.dest(s, a, b)}
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
    node exactly when all its successors do.  A safe state in W1 is always
    in X, since each of its pairs loops back to it, so its one option in
    the fixpoint is empty.  ``k`` restricts every mixture considered to
    k-uniform ones.  An empty result with ``k=None`` is the unrestricted
    stopping condition: ``v`` is the value of the game.

    The local step is ``matrix.pre1`` with the held states in ``done``.
    The non-local step asks ``one_step_matrix`` for the matrices ``pre1``
    built, which come back unbuilt, and reads their ``optimal_pairs``,
    which stay by position until a state is switched.
    """
    safe = set(F)
    w1 = set(W1)
    done = _held(game, safe, w1)
    values, witness = pre1(game, v, done, k)
    local = {s: witness.choice[s] for s in game.states if s not in done and values[s] > v[s]}
    if local:
        return local, False
    # Each safe state outside W1 with its pairs and their successor sets.
    options: dict[str, list[tuple[PositionPair, set[str]]]] = {}
    for s in game.states:
        if s in safe and s not in w1:
            rows, cols = game.moves1[s], game.moves2[s]
            options[s] = [
                (pair, {t for a in pair[0] for b in pair[1] for t in game.dest(s, rows[a], cols[b])})
                for pair in optimal_pairs(game, one_step_matrix(game, v, s), k)
            ]
    alive = _greatest_fixpoint(
        [s for s in game.states if s in safe],
        lambda s: [()] if s in w1 else [successors for _, successors in options[s]],
    )
    switches = {}
    for s in options:
        if s in alive:
            A, _, probabilities = next(pair for pair, successors in options[s] if successors <= alive)
            switches[s] = {game.moves1[s][a]: p for a, p in zip(A, probabilities)}
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
