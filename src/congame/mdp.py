"""Analysis of the MDPs obtained by fixing one player's memoryless strategy.

Fixing a player-1 selector turns a concurrent game into a player-2 MDP.
Everything the improvement algorithms need from that MDP lives here: exact
maximal reachability values (policy iteration, each policy solved by exact
rational elimination), the properness check, and the qualitative
winning-set computations (value-zero states for reachability, almost-sure
safety, and the attractor construction on turn-based games).

The properness trap and the qualitative sets other than the attractor are
greatest fixpoints, all computed by one counting routine,
``_greatest_fixpoint``: a state stays while one of its options (a set of
successors) lies wholly inside the set.  Each (option, successor) incidence
is handled once: an option breaks when its first successor leaves, and a
state leaves when its last intact option breaks.  The options read supports:
``GameStructure`` builds them once per game, on first use, and
``InducedMDP`` holds positive entries only, so its supports are the keys of
its distributions.  No qualitative set or value is kept between calls, so a
second evaluation (``--verify``) recomputes everything.

Evaluating a selector needs its target-like states absorbing.  They are
passed as a ``done`` set, each of whose actions ``induce_mdp`` makes a
self-loop; no absorbing copy of the game is built.  A pure player-1
strategy of a turn-based game is evaluated the same way from the graph
itself (``tb_induce_mdp``), without the concurrent encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Iterable, KeysView, Mapping

from .model import (
    GameStructure,
    GameError,
    NOOP_MOVE,
    ONE,
    P1,
    P2,
    RANDOM,
    Selector,
    TurnBasedGame,
    ZERO,
)


@dataclass(frozen=True)
class InducedMDP:
    """Player-2 MDP obtained by mixing player 1's moves with a selector.

    Every entry of ``delta2`` is positive, so a distribution's keys are its
    support."""

    states: tuple[str, ...]
    actions: dict[str, tuple[str, ...]]
    delta2: dict[tuple[str, str], dict[str, Fraction]]

    def dest(self, s: str, b: str) -> KeysView[str]:
        return self.delta2[(s, b)].keys()


def induce_mdp(
    game: GameStructure, xi1: Selector, done: AbstractSet[str] = frozenset()
) -> InducedMDP:
    """Mixture transition function: delta2(s, b) = sum_a delta(s, a, b) xi1(s)(a),
    except that every action of a state in ``done`` is a self-loop."""
    if not done <= game.moves2.keys():
        raise GameError(f"unknown states {sorted(done - game.moves2.keys())}")
    actions = {s: game.moves2[s] for s in game.states}
    delta2: dict[tuple[str, str], dict[str, Fraction]] = {}
    for s in game.states:
        if s in done:
            loop = {s: ONE}
            for b in game.moves2[s]:
                delta2[(s, b)] = loop
            continue
        mix = xi1.choice[s]
        if len(mix) == 1 and ONE in mix.values():
            # A pure move: the mixture is that move's distribution.
            (a,) = mix
            for b in game.moves2[s]:
                delta2[(s, b)] = {t: p for t, p in game.delta[(s, a, b)].items() if p}
            continue
        for b in game.moves2[s]:
            dist: dict[str, Fraction] = {}
            for a, pa in mix.items():
                if pa == 0:
                    continue
                for t, p in game.delta[(s, a, b)].items():
                    if p == 0:
                        continue
                    dist[t] = dist.get(t, ZERO) + pa * p
            delta2[(s, b)] = dist
    return InducedMDP(game.states, actions, delta2)


def max_reach_values(mdp: InducedMDP, targets: Iterable[str]) -> dict[str, Fraction]:
    """Exact maximal probabilities of reaching ``targets``, by policy iteration.

    States with no path to the target are fixed to zero first.  The rest
    (the free states) start from the attractor policy: each takes the first
    action, in action order, with a successor attracted toward the target in
    an earlier round, so every chain of that policy is absorbed.  Each
    policy is evaluated exactly (``_policy_values``) and a state switches to
    its best action only when that action is strictly better than the
    current one; the loop stops when no state switches.

    No end-component collapse is needed, for two reasons.  Strict switching
    keeps the policy proper: take a closed class of the new policy among
    the free states and its states of largest old value.  None of them can
    have switched, since a switch needs an action whose expected old value
    beats the state's own and no successor in the class has a larger one.
    So they kept their old action, all its successors have that same
    largest value, and the set of them was closed under the old policy too,
    which contradicts the old policy being proper.  And the fixpoint reached
    is the value of a proper policy, so at most the optimum, and a Bellman
    fixpoint, so at least the least fixpoint, which is the optimum: the
    least solution of the reachability linear program.
    """
    targets = set(targets) & set(mdp.states)
    dist = mdp.delta2
    pred: dict[str, set[str]] = {s: set() for s in mdp.states}
    for s in mdp.states:
        for b in mdp.actions[s]:
            for t in mdp.dest(s, b):
                pred[t].add(s)
    # Backward attractor, round by round; it is also the set of states with
    # a path into the target.
    policy: dict[str, str] = {}
    attracted = set(targets)
    frontier = attracted
    while frontier:
        layer = {s for t in frontier for s in pred[t] if s not in attracted}
        for s in layer:
            policy[s] = next(
                b
                for b in mdp.actions[s]
                if any(t in attracted for t in dist[(s, b)])
            )
        attracted |= layer
        frontier = layer
    values = {s: (ONE if s in targets else ZERO) for s in mdp.states}
    free = [s for s in mdp.states if s in policy]
    while True:
        values.update(_policy_values(free, {s: dist[(s, policy[s])] for s in free}, values))
        switched = False
        for s in free:
            best = values[s]
            current = policy[s]
            for b in mdp.actions[s]:
                if b == current:
                    continue
                step = dist[(s, b)]
                if len(step) == 1:  # a certain successor: probability 1
                    (t,) = step
                    q = values[t]
                else:
                    q = ZERO
                    for t, p in step.items():
                        v = values[t]
                        if v:
                            q += p * v
                if q > best:
                    best = q
                    policy[s] = b
                    switched = True
        if not switched:
            return values


def _policy_values(
    free: list[str],
    step: Mapping[str, Mapping[str, Fraction]],
    fixed: Mapping[str, Fraction],
) -> dict[str, Fraction]:
    """Solve ``x_s = sum_t step[s][t] x_t`` for the free states exactly, with
    ``x_t = fixed[t]`` for every other successor.

    Sparse Gaussian elimination in ``Fraction`` arithmetic, eliminating the
    free states in order, each by its own equation.  The chain must leave
    the free states with probability one from everywhere, which makes
    ``I - P_free`` a nonsingular M-matrix: every pivot met this way is
    positive, so no row exchanges are needed.
    """
    index = set(free)
    rows: dict[str, dict[str, Fraction]] = {}
    rhs: dict[str, Fraction] = {}
    users: dict[str, set[str]] = {s: set() for s in free}
    for s in free:
        row = {s: ONE}
        shift = ZERO
        for t, p in step[s].items():
            if t in index:
                row[t] = row.get(t, ZERO) - p
            elif fixed[t]:
                shift += p * fixed[t]
        rows[s] = row
        rhs[s] = shift
        for t in row:
            if t != s:
                users[t].add(s)
    for k in free:
        row = rows[k]
        pivot = row.pop(k)
        if pivot != 1:
            for c in row:
                row[c] /= pivot
            rhs[k] /= pivot
        # Now x_k = rhs[k] - sum_c row[c] x_c; substitute into the
        # equations not yet eliminated.
        for c in row:
            users[c].discard(k)
        bk = rhs[k]
        for r in users.pop(k):
            other = rows[r]
            f = other.pop(k)
            for c, a in row.items():
                new = other.get(c, ZERO) - f * a
                if new:
                    other[c] = new
                    if c != r:
                        users[c].add(r)
                else:
                    del other[c]
                    users[c].discard(r)
            if bk:
                rhs[r] -= f * bk
    x: dict[str, Fraction] = {}
    for k in reversed(free):
        total = rhs[k]
        for c, a in rows[k].items():
            total -= a * x[c]
        x[k] = total
    return x


class ImproperSelectorError(GameError):
    """Raised when an operation that needs a proper selector gets one whose
    induced MDP has an end component outside the target and the value-zero
    region.  Carries the trap (see ``_trap``) as a checkable certificate:
    every state in it has a player-2 action whose successors all stay in it."""

    def __init__(self, witness: frozenset[str]):
        super().__init__(f"selector is not proper; trap {sorted(witness)}")
        self.witness = witness


def _greatest_fixpoint(
    start: Iterable[str], options: Callable[[str], Iterable[Iterable[str]]]
) -> frozenset[str]:
    """Largest subset X of ``start`` in which every state has an option
    lying wholly inside X; ``options(s)`` lists the options of s, each an
    iterable of successors.

    By counting (Liu & Smolka, ICALP 1998): every option is listed once,
    under each state it names, and each state counts its intact options.
    An option naming a state outside ``start`` is broken from the outset,
    and a state with no intact option leaves.  When a state leaves, each
    option naming it breaks unless it already has, and a state whose last
    intact option breaks leaves in turn.  So each (option, successor)
    incidence is handled at most twice, once listed and once broken
    through.  An empty option never breaks; a successor named twice in one
    option breaks it once.

    The result is the greatest fixpoint: a state that left had every option
    broken by a state outside ``start`` or one that left before it, so by
    induction it lies in no fixpoint; a state that stays keeps an intact
    option, whose successors all stay.
    """
    named: dict[str, list[list[str]]] = {s: [] for s in start}
    intact: dict[str, int] = {}
    leaving = []
    for s in named:
        count = 0
        for option in options(s):
            cell = [s]  # emptied when the option breaks
            for t in option:
                cells = named.get(t)
                if cells is None:
                    cell.clear()
                    break
                cells.append(cell)
            else:
                count += 1
        if count:
            intact[s] = count
        else:
            leaving.append(s)
    left = set(leaving)
    while leaving:
        for cell in named[leaving.pop()]:
            if cell:
                s = cell.pop()
                intact[s] -= 1
                if not intact[s]:
                    left.add(s)
                    leaving.append(s)
    return frozenset(s for s in named if s not in left)


def _trap(mdp: InducedMDP, done: AbstractSet[str]) -> frozenset[str]:
    """Greatest set outside ``done`` in which every state has an action whose
    successors all stay inside: the states from which player 2 can avoid
    ``done`` forever.

    The test for properness this gives is exact when ``done`` is absorbing.
    An end component that touches ``done`` is then a singleton in ``done``,
    so some end component avoids ``done`` exactly when the trap is nonempty.
    An end component that avoids ``done`` is closed under its actions, so it
    lies inside the trap.  Conversely, fix at each trap state an action that
    stays inside; the graph of those actions on the trap has a bottom
    strongly connected component, and with those actions that is an end
    component avoiding ``done``.
    """
    dist, actions = mdp.delta2, mdp.actions
    return _greatest_fixpoint(
        (s for s in mdp.states if s not in done),
        lambda s: [dist[(s, b)] for b in actions[s]],
    )


def compute_W2(game: GameStructure, T: Iterable[str]) -> frozenset[str]:
    """States of reachability value zero for player 1: the greatest set
    outside T in which player 2 has a move confining the game, whatever
    player 1 does.  A player-2 move's option lists the successors of every
    player-1 move against it."""
    target = set(T)
    return _greatest_fixpoint(
        [s for s in game.states if s not in target],
        lambda s: [
            [t for a in game.moves1[s] for t in game.dest(s, a, b)] for b in game.moves2[s]
        ],
    )


def almost_sure_safe_strategy(
    game: GameStructure, F: Iterable[str]
) -> tuple[frozenset[str], dict[str, str]]:
    """Value-1 region for Safe(F) together with a pure winning choice: at
    each winning state, the first move all of whose responses stay inside.

    The region is the greatest fixpoint of "some player-1 move keeps the game
    inside, whatever player 2 answers": if every move leaks against some
    answer, any mixture leaks with positive probability too.  A player-1
    move's option lists its successors against every player-2 move.
    """
    safe = set(F)
    region = _greatest_fixpoint(
        [s for s in game.states if s in safe],
        lambda s: [
            [t for b in game.moves2[s] for t in game.dest(s, a, b)] for a in game.moves1[s]
        ],
    )
    return region, {
        s: next(
            a for a in game.moves1[s] if all(game.dest(s, a, b) <= region for b in game.moves2[s])
        )
        for s in region
    }


def tb_attractor(
    tb: TurnBasedGame, base: Iterable[str]
) -> tuple[list[frozenset[str]], dict[str, str]]:
    """Positive-probability attractor of ``base`` for player 1.

    Returns the level sets up to stabilization and the pure selector that
    moves each newly attracted player-1 state into the previous level.
    """
    attracted = set(base) & set(tb.states)
    levels = [frozenset(attracted)]
    selector: dict[str, str] = {}
    while True:
        added = []
        for s in tb.states:
            if s in attracted:
                continue
            kind = tb.partition[s]
            succ = tb.edges[s]
            if kind == P2:
                if all(t in attracted for t in succ):
                    added.append(s)
            else:
                if any(t in attracted for t in succ):
                    added.append(s)
                    if kind == P1:
                        selector[s] = next(t for t in succ if t in attracted)
        if not added:
            return levels, selector
        attracted |= set(added)
        levels.append(frozenset(attracted))


def _tb_options(tb: TurnBasedGame, owner: str) -> Callable[[str], Iterable[Iterable[str]]]:
    """The options of a turn-based node for a fixpoint in which ``owner``
    picks an edge: one edge at an ``owner`` node, all of them elsewhere."""
    return lambda s: [(t,) for t in tb.edges[s]] if tb.partition[s] == owner else (tb.edges[s],)


def tb_almost_sure_safe(
    tb: TurnBasedGame, safe: Iterable[str]
) -> tuple[frozenset[str], dict[str, str]]:
    """Almost-sure winning states for Safe(safe) in a turn-based game.

    The greatest set inside ``safe`` in which a player-1 state has some
    successor inside and every other state has all successors inside.  The
    returned strategy sends each winning player-1 state to its first winning
    successor in input order.
    """
    alive = _greatest_fixpoint(set(safe) & set(tb.states), _tb_options(tb, P1))
    strategy = {
        s: next(t for t in tb.edges[s] if t in alive)
        for s in alive
        if tb.partition[s] == P1
    }
    return alive, strategy


def strategy_value_safety(
    game: GameStructure, xi1: Selector, F: Iterable[str]
) -> dict[str, Fraction]:
    """Exact value of Safe(F) under the memoryless strategy of ``xi1``:
    one minus the adversary's maximal probability of reaching the unsafe set."""
    unsafe = set(game.states) - set(F)
    reach = max_reach_values(induce_mdp(game, xi1, unsafe), unsafe)
    return {s: _complement(reach[s]) for s in game.states}


def strategy_value_reach(
    game: GameStructure, xi1: Selector, T: Iterable[str], W2: Iterable[str]
) -> dict[str, Fraction]:
    """Exact value of Reach(T) under a proper selector.

    Against a proper selector the adversary's best response maximizes the
    probability of reaching the value-zero region, so the value is one minus
    that maximal probability.  Improper selectors are rejected with their
    trap as witness, because the identity fails for them.
    """
    return _proper_reach_value(induce_mdp, game, xi1, T, W2)


def _proper_reach_value(
    induce, game, strategy, T: Iterable[str], W2: Iterable[str]
) -> dict[str, Fraction]:
    """One induced MDP, ``induce(game, strategy, done)`` with T and W2
    absorbing, serves both the properness check and the evaluation."""
    W2 = set(W2)
    done = set(T) | W2
    mdp = induce(game, strategy, done)
    trap = _trap(mdp, done)
    if trap:
        raise ImproperSelectorError(trap)
    reach = max_reach_values(mdp, W2)
    return {s: _complement(reach[s]) for s in game.states}


def _complement(r: Fraction) -> Fraction:
    """1 - r for a probability r, with no arithmetic when r is 0 or 1."""
    if r.denominator == 1:
        return ZERO if r.numerator else ONE
    return ONE - r


def tb_value_zero(tb: TurnBasedGame, T: Iterable[str]) -> frozenset[str]:
    """``compute_W2`` on the graph: the greatest set outside T in which a
    player-2 node has some successor inside and every other node has all
    its successors inside."""
    return _greatest_fixpoint(set(tb.states) - set(T), _tb_options(tb, P2))


def tb_induce_mdp(
    tb: TurnBasedGame, picks: Mapping[str, str], done: AbstractSet[str]
) -> InducedMDP:
    """Player-2 MDP of the pure player-1 strategy ``picks`` (a successor per
    player-1 node), with every node in ``done`` absorbing.

    It is ``induce_mdp`` of the concurrent encoding with the same ``done``,
    up to action names, built from the graph: a player-1 node moves to its
    pick and a random node follows the positive entries of its
    distribution, each by the single action ``NOOP_MOVE``; a player-2 node
    has one action per edge, in edge order, named by its successor.  Every
    action of a node in ``done`` is a self-loop.
    """
    actions: dict[str, tuple[str, ...]] = {}
    delta2: dict[tuple[str, str], dict[str, Fraction]] = {}
    for s in tb.states:
        kind = tb.partition[s]
        acts = tb.edges[s] if kind == P2 else (NOOP_MOVE,)
        actions[s] = acts
        if s in done:
            loop = {s: ONE}
            for b in acts:
                delta2[(s, b)] = loop
        elif kind == P2:
            for t in acts:
                delta2[(s, t)] = {t: ONE}
        elif kind == RANDOM:
            # The distribution may name states off the edge list with
            # probability 0; an induced MDP holds positive entries only.
            delta2[(s, NOOP_MOVE)] = {t: p for t, p in tb.prob[s].items() if p}
        else:
            delta2[(s, NOOP_MOVE)] = {picks[s]: ONE}
    return InducedMDP(tb.states, actions, delta2)


def tb_strategy_value_reach(
    tb: TurnBasedGame, picks: Mapping[str, str], T: Iterable[str], W2: Iterable[str]
) -> dict[str, Fraction]:
    """``strategy_value_reach`` of the pure strategy ``picks`` on the graph,
    through ``tb_induce_mdp``."""
    return _proper_reach_value(tb_induce_mdp, tb, picks, T, W2)
