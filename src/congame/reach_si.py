"""Strategy improvement for concurrent reachability games.

The loop keeps a proper player-1 selector, recomputes its exact value by
solving the induced MDP, and rewrites the selector on exactly the states
where the one-step operator can beat the current value.  Starting from the
uniform selector (which is always proper) every iterate stays proper, the
values increase monotonically, and a natural stop (no improvable state)
certifies the exact game value.  On turn-based games the improvements can
be kept pure, which forces termination; the initial pure proper selector
comes from the attractor construction.

``Runner`` is the shape every capped improvement loop shares, here and in
``safety_si``; a finished runner is its own result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .matrix import pre1
from .mdp import (
    ImproperSelectorError,
    compute_W2,
    strategy_value_reach,
    tb_attractor,
)
from .model import (
    GameStructure,
    P1,
    Selector,
    TurnBasedGame,
    Valuation,
    edge_move,
    encode_turn_based_as_concurrent,
    make_absorbing,
    pure_selector,
    tb_make_absorbing,
    uniform_selector,
)

STATUS_EXACT = "exact"
STATUS_EPS = "eps-approx"
STATUS_CAPPED = "capped"


@dataclass
class ReachSIState:
    """One point of the improvement loop: current selector, its exact value,
    and the improvement set found when stepping away from it."""

    selector: Selector
    valuation: Valuation
    improve_set: frozenset[str]


def improve_step_reach(
    game: GameStructure, state: ReachSIState, T: Iterable[str], W2: Iterable[str]
) -> ReachSIState:
    """One improvement step on a normalized game (T and W2 absorbing).

    Rewrites the selector to a one-step-optimal mixture on the states where
    Pre1 strictly beats the current value; elsewhere the selector is kept.
    Returns the fixpoint state unchanged (empty improvement set) if there is
    nothing to improve.
    """
    done = set(T) | set(W2)
    v = state.valuation
    pre_vals, witness = pre1(game, v)
    improvable = frozenset(
        s for s in game.states if s not in done and pre_vals[s] > v[s]
    )
    if not improvable:
        return ReachSIState(state.selector, v, improvable)
    choice = {
        s: dict(witness.choice[s] if s in improvable else state.selector.choice[s])
        for s in game.states
    }
    nxt = Selector(1, choice)
    try:
        value = strategy_value_reach(game, nxt, T, W2)
    except ImproperSelectorError as err:
        raise AssertionError(
            f"improvement lost properness; trapped component {sorted(err.witness)}"
        ) from None
    for s in game.states:
        if value[s] < pre_vals[s]:
            raise AssertionError(f"improvement step decreased the bound at {s!r}")
    for s in improvable:
        if not value[s] > v[s]:
            raise AssertionError(f"no strict improvement at {s!r}")
    return ReachSIState(nxt, value, improvable)


class Runner:
    """A capped improvement loop.

    ``step()`` runs one round and returns True while progress is possible;
    ``run(cap)`` steps until the fixpoint or ``cap`` rounds in all and
    returns the runner.  ``iterations`` counts the rounds run, ``finished``
    says the last one found the fixpoint (status exact, else capped).
    Subclasses set ``game`` (the normalized game they improve on) and
    ``valuations`` (the exact value of every selector held, oldest first;
    ``values`` is the last), provide ``selector`` (achieving ``values``)
    and implement ``_round``, which improves once, records any new value
    and returns True at the fixpoint.
    """

    finished = False
    iterations = 0

    @property
    def values(self) -> Valuation:
        return self.valuations[-1]

    @property
    def status(self) -> str:
        return STATUS_EXACT if self.finished else STATUS_CAPPED

    def step(self) -> bool:
        if self.finished:
            return False
        self.iterations += 1
        self.finished = self._round()
        return not self.finished

    def _round(self) -> bool:
        raise NotImplementedError

    def run(self, max_iters: int):
        while self.iterations < max_iters and not self.finished:
            self.step()
        return self


class ReachSIRunner(Runner):
    """Reachability strategy improvement from the uniform selector (the
    two-sided certifier steps it directly, interleaved with the safety
    sequence)."""

    def __init__(self, game: GameStructure, T: Iterable[str]):
        self.target = frozenset(T) & frozenset(game.states)
        self.w2 = compute_W2(game, self.target)
        self.game = make_absorbing(game, self.target | self.w2)
        selector = uniform_selector(self.game)
        try:
            value = strategy_value_reach(self.game, selector, self.target, self.w2)
        except ImproperSelectorError as err:
            raise AssertionError(
                f"initial selector is improper; trapped component {sorted(err.witness)}"
            ) from None
        self.state = ReachSIState(selector, value, frozenset())
        self.valuations: list[Valuation] = [value]

    @property
    def selector(self) -> Selector:
        return self.state.selector

    def _round(self) -> bool:
        self.state = improve_step_reach(self.game, self.state, self.target, self.w2)
        if not self.state.improve_set:
            return True
        self.valuations.append(self.state.valuation)
        return False


def run_reach_si(game: GameStructure, T: Iterable[str], max_iters: int = 1000) -> ReachSIRunner:
    """Full reachability strategy improvement from the uniform selector.

    Stops when no state is improvable (exact value) or at the iteration cap.
    """
    return ReachSIRunner(game, T).run(max_iters)


@dataclass
class TurnBasedReachResult:
    values: Valuation
    strategy: dict[str, str]
    iterations: int
    selector: Selector
    game: GameStructure
    target: frozenset[str]
    w2: frozenset[str]


def run_reach_si_turn_based(tb: TurnBasedGame, T: Iterable[str]) -> TurnBasedReachResult:
    """Exact solution of a turn-based reachability game by pure improvement.

    The attractor selector provides a pure proper starting point; each
    improvement moves a player-1 state to its best successor (first in edge
    order on ties).  Pure selectors are finite, so the loop terminates with
    the exact value and an optimal pure memoryless strategy.
    """
    game = encode_turn_based_as_concurrent(tb)
    target = frozenset(T) & frozenset(tb.states)
    w2 = compute_W2(game, target)
    frozen_states = target | w2
    normalized = make_absorbing(game, frozen_states)
    tb_norm = tb_make_absorbing(tb, frozen_states)
    _, attract_choice = tb_attractor(tb_norm, frozen_states)

    def selector_from(strategy: Mapping[str, str]) -> Selector:
        picks = {s: edge_move(t) for s, t in strategy.items()}
        return pure_selector(normalized, 1, picks)

    strategy = dict(attract_choice)
    selector = selector_from(strategy)
    try:
        v = strategy_value_reach(normalized, selector, target, w2)
    except ImproperSelectorError as err:
        raise AssertionError(
            f"attractor selector is improper; trapped component {sorted(err.witness)}"
        ) from None
    iterations = 0
    p1_states = [
        s
        for s in tb.states
        if tb_norm.partition[s] == P1 and s not in frozen_states
    ]
    while True:
        iterations += 1
        improved = {}
        for s in p1_states:
            best = max(v[t] for t in tb_norm.edges[s])
            if best > v[s]:
                improved[s] = next(t for t in tb_norm.edges[s] if v[t] == best)
        if not improved:
            break
        strategy.update(improved)
        selector = selector_from(strategy)
        nxt = strategy_value_reach(normalized, selector, target, w2)
        for s in tb.states:
            if nxt[s] < v[s]:
                raise AssertionError(f"turn-based improvement regressed at {s!r}")
        v = nxt
    return TurnBasedReachResult(v, strategy, iterations, selector, normalized, target, w2)
