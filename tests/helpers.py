"""Helpers that only the tests use, built on the package's own code.

Unlike ``oracles``, these share code with the solvers: they compose
package functions into checks the library itself does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from congame.mdp import almost_sure_safe_strategy
from congame.model import ONE, ZERO, GameStructure, Selector, Valuation, swap_players
from congame.reach_si import ReachSIRunner
from congame.safety_si import ConvergentSafetyRunner


def destinations(game: GameStructure, s: str, xi1: Selector, xi2: Selector) -> frozenset[str]:
    """Possible successors of ``s`` under the supports of both selectors."""
    out: set[str] = set()
    for a in xi1.support(s):
        for b in xi2.support(s):
            out |= game.dest(s, a, b)
    return frozenset(out)


def pre_sel_sel(
    game: GameStructure,
    v: Mapping[str, Fraction],
    s: str,
    xi1: Selector,
    xi2: Selector,
) -> Fraction:
    """Expected next-step value when both players play their selectors at s."""
    total = ZERO
    for a, pa in xi1.choice[s].items():
        if pa == 0:
            continue
        for b, pb in xi2.choice[s].items():
            if pb == 0:
                continue
            dist = game.delta[(s, a, b)]
            total += pa * pb * sum((p * v[t] for t, p in dist.items()), ZERO)
    return total


def almost_sure_safe_concurrent(game: GameStructure, F: Iterable[str]) -> frozenset[str]:
    """States where player 1 wins Safe(F) with probability one.

    Greatest fixpoint of "some player-1 move keeps the game inside, whatever
    player 2 answers".  If every move of player 1 leaks outside against some
    answer, any mixture leaks with positive probability too, so pruning such
    states is sound; the surviving set is exactly the value-1 region.
    """
    return almost_sure_safe_strategy(game, F)[0]


@dataclass
class DeterminacyReport:
    rounds: int
    ok: bool
    violations: list[tuple[int, str, Fraction, Fraction]]
    gaps: list[Fraction]
    reach_lower: list[Valuation]
    safety_lower: list[Valuation]


def check_determinacy_bracket(
    game: GameStructure, F: Iterable[str], iters: int
) -> DeterminacyReport:
    """Run both sequences for a fixed number of rounds and audit the bracket:
    u + v <= 1 pointwise at every round, and the gap never widens."""
    safe = frozenset(F) & frozenset(game.states)
    complement = [s for s in game.states if s not in safe]
    safety = ConvergentSafetyRunner(game, safe)
    reach = ReachSIRunner(swap_players(game), complement)
    violations: list[tuple[int, str, Fraction, Fraction]] = []
    gaps: list[Fraction] = []
    u_hist: list[Valuation] = []
    v_hist: list[Valuation] = []
    for round_index in range(iters):
        if not safety.finished:
            safety.step()
        if not reach.finished:
            reach.step()
        u = reach.values
        v = safety.values
        assert v is not None
        u_hist.append(dict(u))
        v_hist.append(dict(v))
        worst = max(ONE - u[s] - v[s] for s in game.states)
        for s in game.states:
            if u[s] + v[s] > 1:
                violations.append((round_index, s, u[s], v[s]))
        if gaps and worst > gaps[-1]:
            violations.append((round_index, "<gap-widened>", worst, gaps[-1]))
        gaps.append(worst)
        if safety.finished and reach.finished:
            break
    return DeterminacyReport(
        rounds=len(gaps),
        ok=not violations,
        violations=violations,
        gaps=gaps,
        reach_lower=u_hist,
        safety_lower=v_hist,
    )
