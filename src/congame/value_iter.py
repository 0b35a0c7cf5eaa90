"""Value iteration for both objectives, entry times, and selector extraction.

``ValueIterationRunner`` iterates ``w_{k+1} = Pre1(w_k)`` with some states
held at fixed values, one ``pre1`` per round, and records each round's
witness.  It is a ``reach_si.Runner``: ``run(cap)`` stops at an exact
fixpoint (the repeated valuation is kept, so equality is visible) or after
``cap`` rounds.

``ValueIterationRunner.reach(game, T)`` starts from the target indicator and
holds T at 1 and the value-zero states at 0.  Its iterates rise to the game
value from below but carry no witness strategy by themselves: the per-round
witnesses can be improper (they may let the adversary trap the play outside
the target).  The fix is the entry time construction: replay, at each state,
the witness recorded at the first iteration where the state reached its
current value.  Under a positivity hypothesis the resulting selector is
proper and achieves the previous iterate's values.

``ValueIterationRunner.safety(game, F)`` starts from all-ones and holds the
unsafe states at 0, which is ``w_{k+1} = min([F], Pre1(w_k))``: the iterates
descend to the safety value from above.  At an exact fixpoint v the last
round's witness is that of ``pre1(game, v, unsafe)``, the per-state optimal
matrix-game mixtures, and it is a memoryless optimal safety strategy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .matrix import pre1
from .mdp import ImproperSelectorError, compute_W2, strategy_value_reach
from .model import (
    GameStructure,
    GameError,
    ONE,
    Selector,
    Valuation,
    ZERO,
    indicator,
    uniform_selector,
)
from .reach_si import Runner


class HypothesisViolation(GameError):
    """A diagnostic check was invoked outside its guaranteed regime."""


class ValueIterationRunner(Runner):
    """``w_{k+1} = Pre1(w_k)`` on ``game`` as given, with every state of
    ``held`` fixed at its value there.

    ``valuations[k]`` is the k-th iterate and ``witnesses[k]`` (for k >= 1)
    the ``pre1`` witness that produced it from ``valuations[k-1]``; a held
    state's witness is its first move.  A reach runner also has ``target``
    and ``w2``, which the evaluation of an extracted selector holds
    absorbing.  No selector achieves the iterates, so there is no
    ``selector``.
    """

    def __init__(self, game: GameStructure, start: Valuation, held: Mapping[str, Fraction]):
        self.game = game
        self.held = held
        self.valuations: list[Valuation] = [start]
        self.witnesses: list[Selector | None] = [None]

    @classmethod
    def reach(cls, game: GameStructure, T: Iterable[str]) -> ValueIterationRunner:
        target = frozenset(T) & frozenset(game.states)
        w2 = compute_W2(game, target)
        held = {**dict.fromkeys(w2, ZERO), **dict.fromkeys(target, ONE)}
        runner = cls(game, indicator(game, target), held)
        runner.target, runner.w2 = target, w2
        return runner

    @classmethod
    def safety(cls, game: GameStructure, F: Iterable[str]) -> ValueIterationRunner:
        safe = frozenset(F)
        held = {s: ZERO for s in game.states if s not in safe}
        return cls(game, {s: ONE for s in game.states}, held)

    def _round(self) -> bool:
        w = self.values
        nxt, witness = pre1(self.game, w, self.held.keys())
        nxt.update(self.held)
        self.valuations.append(nxt)
        self.witnesses.append(witness)
        return nxt == w

    def entry_time(self, s: str, k: int) -> int:
        """Least j <= k with w_j(s) = w_k(s)."""
        goal = self.valuations[k][s]
        for j in range(k + 1):
            if self.valuations[j][s] == goal:
                return j
        raise AssertionError("unreachable: w_k(s) always equals itself")


def extract_eta_selector(runner: ValueIterationRunner, k: int) -> Selector:
    """Entry-time selector for iterate k: at each state, replay the witness
    recorded when the state first reached its current value (uniform for
    states that never moved)."""
    if k >= len(runner.valuations):
        raise GameError(f"runner has {len(runner.valuations)} iterates, need k={k} < that")
    game = runner.game
    fallback = uniform_selector(game)
    choice: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        ell = runner.entry_time(s, k)
        if ell == 0:
            choice[s] = dict(fallback.choice[s])
        else:
            witness = runner.witnesses[ell]
            assert witness is not None
            choice[s] = dict(witness.choice[s])
    return Selector(choice)


def eta_achieved_values(
    runner: ValueIterationRunner, k: int
) -> tuple[Selector, Valuation] | None:
    """The entry-time selector for iterate k of a reach runner with its
    exact strategy value, if the selector is proper and its value dominates
    iterate k-1 pointwise, else None.

    Only meaningful when ``u_{k-1}`` is positive outside the value-zero
    region; outside that regime a HypothesisViolation is raised instead of
    a misleading answer.
    """
    if k < 1:
        raise GameError("k must be >= 1")
    previous = runner.valuations[k - 1]
    bad = [s for s in runner.game.states if s not in runner.w2 and previous[s] == 0]
    if bad:
        raise HypothesisViolation(
            f"u_{k - 1} vanishes outside the value-zero region at {sorted(bad)}"
        )
    eta = extract_eta_selector(runner, k)
    try:
        achieved = strategy_value_reach(runner.game, eta, runner.target, runner.w2)
    except ImproperSelectorError:
        return None
    if all(achieved[s] >= previous[s] for s in runner.game.states):
        return eta, achieved
    return None
