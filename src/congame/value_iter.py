"""Value iteration for reachability, entry times, and selector extraction.

The reachability iteration ``u_{k+1} = Pre1(u_k)`` starting from the target
indicator converges to the game value from below but carries no witness
strategy by itself: the per-step optimal mixtures can be improper (they may
let the adversary trap the play outside the target).  The fix is the entry
time construction: replay, at each state, the witness recorded at the first
iteration where the state reached its current value.  Under a positivity
hypothesis the resulting selector is proper and achieves the previous
iterate's values.

The dual safety iteration ``w_{i+1} = min([F], Pre1(w_i))`` descends to the
safety value from above; at an exact fixpoint the per-state matrix-game
witnesses form a memoryless optimal safety strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class HypothesisViolation(GameError):
    """A diagnostic check was invoked outside its guaranteed regime."""


class NotAFixpoint(GameError):
    """The supplied valuation does not satisfy the required fixpoint identity."""


@dataclass
class IterationTrace:
    """Record of a reachability value iteration.

    ``valuations[k]`` is the k-th iterate; ``witnesses[k]`` (for k >= 1) is
    the optimal selector that produced it from ``valuations[k-1]``.  ``game``
    is the game as given; the iteration holds ``target`` and ``w2`` at their
    values, and so does the evaluation of a selector extracted from it.
    """

    game: GameStructure
    target: frozenset[str]
    w2: frozenset[str]
    valuations: list[Valuation] = field(default_factory=list)
    witnesses: list[Selector | None] = field(default_factory=list)
    converged: bool = False

    def entry_time(self, s: str, k: int) -> int:
        """Least j <= k with u_j(s) = u_k(s)."""
        goal = self.valuations[k][s]
        for j in range(k + 1):
            if self.valuations[j][s] == goal:
                return j
        raise AssertionError("unreachable: u_k(s) always equals itself")

    def steps(self) -> int:
        return len(self.valuations) - 1


def reach_value_iteration(game: GameStructure, T: Iterable[str], max_steps: int) -> IterationTrace:
    """Iterate ``u_{k+1} = Pre1(u_k)`` from the target indicator.

    The target and the value-zero states are held at their values.  Stops
    at an exact fixpoint (the repeated valuation is kept in the trace so
    equality is visible) or after ``max_steps`` applications.
    """
    target = frozenset(T) & frozenset(game.states)
    w2 = compute_W2(game, target)
    trace = IterationTrace(game, target, w2)
    held = target | w2
    u = indicator(game, target)
    trace.valuations.append(u)
    trace.witnesses.append(None)
    for _ in range(max_steps):
        nxt, witness = pre1(game, u, held)
        trace.valuations.append(nxt)
        trace.witnesses.append(witness)
        if nxt == u:
            trace.converged = True
            break
        u = nxt
    return trace


def extract_eta_selector(trace: IterationTrace, k: int) -> Selector:
    """Entry-time selector for iterate k: at each state, replay the witness
    recorded when the state first reached its current value (uniform for
    states that never moved)."""
    if k >= len(trace.valuations):
        raise GameError(f"trace has {len(trace.valuations)} iterates, need k={k} < that")
    game = trace.game
    fallback = uniform_selector(game)
    choice: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        ell = trace.entry_time(s, k)
        if ell == 0:
            choice[s] = dict(fallback.choice[s])
        else:
            witness = trace.witnesses[ell]
            assert witness is not None
            choice[s] = dict(witness.choice[s])
    return Selector(choice)


def eta_achieved_values(trace: IterationTrace, k: int) -> tuple[Selector, Valuation] | None:
    """The entry-time selector for iterate k with its exact strategy value,
    if the selector is proper and its value dominates iterate k-1
    pointwise, else None.

    Only meaningful when ``u_{k-1}`` is positive outside the value-zero
    region; outside that regime a HypothesisViolation is raised instead of
    a misleading answer.
    """
    if k < 1:
        raise GameError("k must be >= 1")
    previous = trace.valuations[k - 1]
    bad = [s for s in trace.game.states if s not in trace.w2 and previous[s] == 0]
    if bad:
        raise HypothesisViolation(
            f"u_{k - 1} vanishes outside the value-zero region at {sorted(bad)}"
        )
    eta = extract_eta_selector(trace, k)
    try:
        achieved = strategy_value_reach(trace.game, eta, trace.target, trace.w2)
    except ImproperSelectorError:
        return None
    if all(achieved[s] >= previous[s] for s in trace.game.states):
        return eta, achieved
    return None


def safety_value_iteration_upper(
    game: GameStructure, F: Iterable[str], steps: int
) -> list[Valuation]:
    """Descending iteration ``w_{i+1} = min([F], Pre1(w_i))`` from all-ones.

    Every iterate is an upper bound on the safety value; the sequence is
    returned up to ``steps`` applications or an exact fixpoint, whichever
    comes first (the repeated valuation is kept so equality is visible).
    """
    safe = set(F)
    w = {s: ONE for s in game.states}
    out = [dict(w)]
    for _ in range(steps):
        pre_vals, _ = pre1(game, w)
        nxt = {
            s: min(ONE if s in safe else ZERO, pre_vals[s]) for s in game.states
        }
        out.append(nxt)
        if nxt == w:
            break
        w = nxt
    return out


def extract_optimal_safety_selector(
    game: GameStructure, v: Mapping[str, Fraction], F: Iterable[str]
) -> Selector:
    """Memoryless optimal safety strategy from a safety fixpoint valuation.

    Requires v = 0 outside F and, with the unsafe states held, v = Pre1(v)
    exactly; the per-state optimal matrix-game mixtures then guarantee
    Safe(F) with probability at least v.
    """
    unsafe = set(game.states) - set(F)
    for s in game.states:
        if s in unsafe and v[s] != 0:
            raise NotAFixpoint(f"v({s!r}) = {v[s]} but {s!r} is unsafe")
    pre_vals, witness = pre1(game, v, unsafe)
    mismatch = [s for s in game.states if pre_vals[s] != v[s]]
    if mismatch:
        raise NotAFixpoint(
            f"Pre1(v) differs from v at {sorted(mismatch)}; not a safety fixpoint"
        )
    return witness
