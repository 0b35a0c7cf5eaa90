"""Two-sided approximation of concurrent game values with a stopping rule.

Safety values can only be approached from below by strategy improvement and
from above by value iteration, and neither sequence knows how close it is.
Determinacy closes the gap: player 1's safety value and player 2's value
for reaching the complement sum to one at every state.  Running player 2's
reachability improvement (a monotone lower bound u) alongside player 1's
convergent safety improvement (a monotone lower bound v) therefore yields
the two-sided bracket v <= value <= 1 - u, and max_s(1 - u - v) <= eps is a
sound stopping criterion.  If either sequence reaches its natural fixpoint
first, the value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import GameStructure, Selector, Valuation, ONE, swap_players
from .reach_si import (
    ReachSIRunner,
    STATUS_CAPPED,
    STATUS_EPS,
    STATUS_EXACT,
)
from .safety_si import ConvergentSafetyRunner


@dataclass
class ValueBracket:
    """Simultaneous lower bounds for both players with their gap.

    ``safety_lower`` bounds player 1's Safe(F) value from below and
    ``reach_lower`` bounds player 2's Reach(S - F) value from below, so
    pointwise safety_lower <= va(Safe(F)) <= 1 - reach_lower.  When a
    natural fixpoint fired, ``exact_values`` holds va(Safe(F)) itself.
    """

    safety_lower: Valuation
    reach_lower: Valuation
    gap: Fraction
    status: str
    rounds: int
    exact_values: Valuation | None
    safety_strategy: Selector | None
    reach_strategy: Selector


def _gap(game: GameStructure, u: Valuation, v: Valuation) -> Fraction:
    worst = None
    for s in game.states:
        slack = ONE - u[s] - v[s]
        if slack < 0:
            raise AssertionError(
                f"determinacy violated at {s!r}: u={u[s]}, v={v[s]}"
            )
        if worst is None or slack > worst:
            worst = slack
    assert worst is not None
    return worst


def approximate_game_value(
    game: GameStructure,
    F: Iterable[str],
    eps: Fraction,
    max_rounds: int = 200,
) -> ValueBracket:
    """Interleave both monotone sequences until the bracket closes.

    One outer step of each side alternates per round, checking the three
    stopping criteria after every step: player 2's sequence hit its fixpoint
    (exact), player 1's sequence hit its stopping condition (exact), or the
    bracket gap fell to ``eps`` (eps-approx).  A round cap returns the best
    bracket so far, flagged capped.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    safe = frozenset(F) & frozenset(game.states)
    complement = [s for s in game.states if s not in safe]
    safety = ConvergentSafetyRunner(game, safe)
    reach = ReachSIRunner(swap_players(game), complement)

    rounds = 0
    status = STATUS_CAPPED
    exact: Valuation | None = None

    def criteria() -> str | None:
        if reach.finished:
            return "reach-fixpoint"
        if safety.finished:
            return "safety-fixpoint"
        if _gap(game, reach.values, safety.values) <= eps:
            return "gap"
        return None

    hit = None
    while rounds < max_rounds:
        rounds += 1
        safety.step()
        hit = criteria()
        if hit:
            break
        reach.step()
        hit = criteria()
        if hit:
            break
    v = safety.values
    u = reach.values
    if hit == "reach-fixpoint":
        status = STATUS_EXACT
        exact = {s: ONE - u[s] for s in game.states}
    elif hit == "safety-fixpoint":
        status = STATUS_EXACT
        exact = dict(v)
    elif hit == "gap":
        status = STATUS_EPS
    return ValueBracket(
        safety_lower=dict(v),
        reach_lower=dict(u),
        gap=_gap(game, u, v),
        status=status,
        rounds=rounds,
        exact_values=exact,
        safety_strategy=safety.selector,
        reach_strategy=Selector(2, {s: dict(d) for s, d in reach.selector.choice.items()}),
    )
