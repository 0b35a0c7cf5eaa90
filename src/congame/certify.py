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

``Certifier`` is a ``reach_si.Runner`` over the two sequences;
``Certifier(game, F, eps).run(cap)`` runs it to its stop or ``cap`` rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .model import GameStructure, Selector, Valuation, ONE, swap_players
from .reach_si import (
    ReachSIRunner,
    Runner,
    STATUS_CAPPED,
    STATUS_EPS,
    STATUS_EXACT,
)
from .safety_si import ConvergentSafetyRunner


class Certifier(Runner):
    """Player 1's convergent safety sequence (``safety``) interleaved with
    player 2's reachability improvement on the complement (``reach``, on
    the game with the players swapped).  ``reach`` rounds every witness
    with a denominator wider than ``reach_si.MAX_WITNESS_BITS`` bits to a
    dyadic one (see ``ReachSIRunner``), so its iterates stop doubling in
    bit size; the exact value of any proper selector is still a lower
    bound.

    Each round steps ``safety`` and then ``reach``, testing the three
    stopping rules after each step: ``reach`` hit its fixpoint (exact),
    ``safety`` hit its stopping condition (exact), or the bracket ``gap``
    fell to ``eps`` (eps-approx); the round ends at the first that holds.
    Pointwise ``values`` <= va(Safe(F)) <= 1 - ``reach.values``, and
    ``exact_values`` is va(Safe(F)) itself once a fixpoint fired.
    ``selector`` (player 1's) achieves ``values`` and ``reach.selector``
    (player 2's) achieves ``reach.values``.  There is no valuation before
    the first round, so ``run`` needs a cap of at least 1; a capped run
    keeps the best bracket so far.
    """

    def __init__(self, game: GameStructure, F: Iterable[str], eps: Fraction):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.game = game
        self.eps = eps
        safe = frozenset(F) & frozenset(game.states)
        self.safety = ConvergentSafetyRunner(game, safe)
        self.reach = ReachSIRunner(swap_players(game), [s for s in game.states if s not in safe])

    @property
    def valuations(self) -> list[Valuation]:
        return self.safety.valuations

    @property
    def selector(self) -> Selector:
        return self.safety.selector

    @property
    def gap(self) -> Fraction:
        """max_s(1 - u - v), which determinacy keeps nonnegative."""
        u, v = self.reach.values, self.values
        for s in self.game.states:
            if u[s] + v[s] > ONE:
                raise AssertionError(f"determinacy violated at {s!r}: u={u[s]}, v={v[s]}")
        return max(ONE - u[s] - v[s] for s in self.game.states)

    @property
    def status(self) -> str:
        if self.reach.finished or self.safety.finished:
            return STATUS_EXACT
        return STATUS_EPS if self.finished else STATUS_CAPPED

    @property
    def exact_values(self) -> Valuation | None:
        if self.reach.finished:
            return {s: ONE - self.reach.values[s] for s in self.game.states}
        if self.safety.finished:
            return dict(self.values)
        return None

    def _stopped(self) -> bool:
        return self.reach.finished or self.safety.finished or self.gap <= self.eps

    def _round(self) -> bool:
        self.safety.step()
        if self._stopped():
            return True
        self.reach.step()
        return self._stopped()

