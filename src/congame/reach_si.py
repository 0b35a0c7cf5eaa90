"""Strategy improvement for concurrent reachability games.

The loop keeps a proper player-1 selector, recomputes its exact value by
solving the induced MDP, and rewrites the selector on exactly the states
where the one-step operator can beat the current value.  Starting from the
uniform selector (which is always proper) every iterate stays proper, the
values increase monotonically, and a natural stop (no improvable state)
certifies the exact game value.  A turn-based game runs through the same
loop on its concurrent encoding, started from the pure attractor selector
instead: every one-step matrix there has a single row or a single column,
so each ``Pre1`` witness is a pure move (the first best successor) and the
loop is Hoffman-Karp pure strategy iteration, which terminates because
pure selectors are finite.

``Runner`` is the shape every capped improvement loop shares, here, in
``safety_si`` and in ``certify``; a finished runner is its own result.
"""

from __future__ import annotations

from typing import Iterable

from .matrix import pre1
from .mdp import (
    ImproperSelectorError,
    compute_W2,
    strategy_value_reach,
    tb_attractor,
)
from .model import (
    GameStructure,
    Selector,
    TurnBasedGame,
    Valuation,
    edge_move,
    make_absorbing,
    pure_selector,
    uniform_selector,
)

STATUS_EXACT = "exact"
STATUS_EPS = "eps-approx"
STATUS_CAPPED = "capped"


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
    """Reachability strategy improvement (the two-sided certifier steps it
    directly, interleaved with the safety sequence).

    It holds the current ``selector``, the ``valuations`` of every selector
    held and ``improve_set``, the states the last round switched.  It
    starts from the uniform selector or, given the turn-based game ``tb``
    that ``game`` encodes, from the pure attractor selector towards the
    target and the value-zero states.  Both are proper.  From the pure
    start every selector stays pure: the ``Pre1`` witness of a one-column
    matrix game is its first best row.
    """

    def __init__(self, game: GameStructure, T: Iterable[str], tb: TurnBasedGame | None = None):
        self.target = frozenset(T) & frozenset(game.states)
        self.w2 = compute_W2(game, self.target)
        self.game = make_absorbing(game, self.target | self.w2)
        if tb is None:
            selector = uniform_selector(self.game)
        else:
            # The attractor never reads the edges of its base, so ``tb`` needs
            # no absorbing copy.
            _, attract = tb_attractor(tb, self.target | self.w2)
            picks = {s: edge_move(t) for s, t in attract.items()}
            selector = pure_selector(self.game, 1, picks)
        try:
            value = strategy_value_reach(self.game, selector, self.target, self.w2)
        except ImproperSelectorError as err:
            raise AssertionError(
                f"initial selector is improper; trap {sorted(err.witness)}"
            ) from None
        self.selector = selector
        self.valuations: list[Valuation] = [value]
        self.improve_set: frozenset[str] = frozenset()

    def _round(self) -> bool:
        """Rewrite the selector to a one-step-optimal mixture on the states
        where ``Pre1`` strictly beats the current value (the improvement
        set), keeping it elsewhere; an empty improvement set is the
        fixpoint."""
        v = self.values
        done = self.target | self.w2
        pre_vals, witness = pre1(self.game, v)
        self.improve_set = frozenset(
            s for s in self.game.states if s not in done and pre_vals[s] > v[s]
        )
        if not self.improve_set:
            return True
        choice = {
            s: dict(witness.choice[s] if s in self.improve_set else self.selector.choice[s])
            for s in self.game.states
        }
        selector = Selector(choice)
        try:
            value = strategy_value_reach(self.game, selector, self.target, self.w2)
        except ImproperSelectorError as err:
            raise AssertionError(
                f"improvement lost properness; trap {sorted(err.witness)}"
            ) from None
        for s in self.game.states:
            if value[s] < pre_vals[s]:
                raise AssertionError(f"improvement step decreased the bound at {s!r}")
        for s in self.improve_set:
            if not value[s] > v[s]:
                raise AssertionError(f"no strict improvement at {s!r}")
        self.selector = selector
        self.valuations.append(value)
        return False


def run_reach_si(
    game: GameStructure,
    T: Iterable[str],
    max_iters: int = 1000,
    tb: TurnBasedGame | None = None,
) -> ReachSIRunner:
    """Full reachability strategy improvement; ``tb``, the turn-based game
    ``game`` encodes, starts it from the pure attractor selector.

    Stops when no state is improvable (exact value) or at the iteration cap.
    """
    return ReachSIRunner(game, T, tb).run(max_iters)
