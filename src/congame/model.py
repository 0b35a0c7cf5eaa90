"""Core data model for two-player concurrent stochastic games.

A concurrent game has a finite state space; at every round both players
pick a move simultaneously and the pair selects a probability distribution
over successor states.  Turn-based stochastic games (player-1 / player-2 /
random partitioned graphs) are supported natively and can be embedded into
the concurrent representation.

All probabilities and values are exact `fractions.Fraction` objects.  The
solvers depend on exact equality tests (fixpoint detection, value classes,
optimal-selector membership), so nothing in this package ever touches
floating point.

Objects are immutable after construction and safe to share.  The one
exception is a game's memo of one-step results (``one_step_cache``, and
the integer transition rows they are built from, ``one_step_rows``).  Its
entries are functions of their keys, and it only gains entries, except
for each state's last one-step matrix beside its rows, which a build from
other successor values replaces, never mutates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

Valuation = dict[str, Fraction]

P1 = "P1"
P2 = "P2"
RANDOM = "R"

ZERO = Fraction(0)
ONE = Fraction(1)


class GameError(ValueError):
    """Structural problem in a game, selector, or valuation."""


class BudgetExceeded(GameError):
    """An exponential enumeration would exceed its explicit budget."""


def _distribution_error(dist: Mapping[str, Fraction]) -> str | None:
    """What is wrong with ``dist``, or None when every probability is a
    nonnegative ``Fraction`` and they sum to 1.

    The entries are checked in order, type before sign; the sum is taken in
    integers over the lcm of the denominators, and a single entry of 1,
    the common case, needs no sum.  The caller adds the location to the
    message, so a valid distribution costs no string formatting.
    """
    if len(dist) == 1:
        (p,) = dist.values()
        if isinstance(p, Fraction) and p == 1:
            return None
    for key, p in dist.items():
        if not isinstance(p, Fraction):
            return f"probability of {key!r} is not an exact rational"
        if p.numerator < 0:
            return f"negative probability {p} for {key!r}"
    common = math.lcm(*(p.denominator for p in dist.values()))
    if sum(p.numerator * (common // p.denominator) for p in dist.values()) != common:
        return f"probabilities sum to {sum(dist.values(), ZERO)}, expected 1"
    return None


@dataclass(frozen=True)
class GameStructure:
    """Finite concurrent game structure.

    ``moves1[s]`` / ``moves2[s]`` are the nonempty move sets available to
    each player at ``s`` (input order is preserved and used for all
    deterministic tie-breaking).  ``delta[(s, a, b)]`` is the successor
    distribution, defined for exactly the pairs in ``moves1[s] x moves2[s]``.
    """

    states: tuple[str, ...]
    moves: tuple[str, ...]
    moves1: dict[str, tuple[str, ...]]
    moves2: dict[str, tuple[str, ...]]
    delta: dict[tuple[str, str, str], dict[str, Fraction]]

    def __post_init__(self) -> None:
        known = set(self.states)
        if len(known) != len(self.states):
            raise GameError("duplicate state ids")
        move_pool = set(self.moves)
        for s in self.states:
            for player, assignment in ((1, self.moves1), (2, self.moves2)):
                if s not in assignment or not assignment[s]:
                    raise GameError(f"state {s!r}: empty move set for player {player}")
                if len(set(assignment[s])) != len(assignment[s]):
                    raise GameError(f"state {s!r}: duplicate move ids for player {player}")
                for a in assignment[s]:
                    if a not in move_pool:
                        raise GameError(f"state {s!r}: move {a!r} not declared")
        expected = set()
        for s in self.states:
            for a in self.moves1[s]:
                for b in self.moves2[s]:
                    expected.add((s, a, b))
                    if (s, a, b) not in self.delta:
                        raise GameError(f"missing transition for ({s!r}, {a!r}, {b!r})")
        for key in self.delta:
            if key not in expected:
                raise GameError(f"transition {key!r} outside the move assignments")
        for (s, a, b), dist in self.delta.items():
            for t in dist:
                if t not in known:
                    raise GameError(f"({s!r}, {a!r}, {b!r}): unknown successor {t!r}")
            error = _distribution_error(dist)
            if error:
                raise GameError(f"delta({s!r}, {a!r}, {b!r}): {error}")

    @cached_property
    def _supports(self) -> dict[tuple[str, str, str], frozenset[str]]:
        return {
            key: frozenset(t for t, p in dist.items() if p)
            for key, dist in self.delta.items()
        }

    def dest(self, s: str, a: str, b: str) -> frozenset[str]:
        """Support of delta(s, a, b), built for every move pair on first use."""
        return self._supports[(s, a, b)]

    @cached_property
    def one_step_cache(self) -> dict:
        """The one-step results (``matrix``) computed for this game so far,
        keyed by payoff matrix; it lives and dies with the game object."""
        return {}

    @cached_property
    def one_step_rows(self) -> dict:
        """The integer transition rows (``matrix``) built for this game so
        far, by state; each is a function of ``delta`` alone, and keeps
        the state's last one-step matrix with the values it was built from."""
        return {}


@dataclass(frozen=True)
class TurnBasedGame:
    """Turn-based stochastic game: a graph partitioned into P1/P2/random states.

    Random states carry a successor distribution supported exactly on their
    edge set; player states pick a successor edge.
    """

    states: tuple[str, ...]
    partition: dict[str, str]
    edges: dict[str, tuple[str, ...]]
    prob: dict[str, dict[str, Fraction]]

    def __post_init__(self) -> None:
        known = set(self.states)
        if len(known) != len(self.states):
            raise GameError("duplicate state ids")
        for s in self.states:
            kind = self.partition.get(s)
            if kind not in (P1, P2, RANDOM):
                raise GameError(f"state {s!r}: partition entry missing or invalid")
            succ = self.edges.get(s)
            if not succ:
                raise GameError(f"state {s!r}: no successors")
            for t in succ:
                if t not in known:
                    raise GameError(f"state {s!r}: unknown successor {t!r}")
            if len(set(succ)) != len(succ):
                raise GameError(f"state {s!r}: duplicate successor edges")
            if kind == RANDOM:
                dist = self.prob.get(s)
                if dist is None:
                    raise GameError(f"random state {s!r}: no distribution")
                for t in dist:
                    if t not in known:
                        raise GameError(f"random state {s!r}: unknown successor {t!r}")
                if set(t for t, p in dist.items() if p > 0) != set(succ):
                    raise GameError(
                        f"random state {s!r}: distribution support differs from edges"
                    )
                error = _distribution_error(dist)
                if error:
                    raise GameError(f"prob({s!r}): {error}")
            elif s in self.prob:
                raise GameError(f"non-random state {s!r} has a distribution")


@dataclass(frozen=True)
class Selector:
    """Per-state mixed move distribution for one player.

    ``choice[s]`` maps moves to positive probabilities summing to one; the
    support must lie inside the player's move set at ``s``.  Playing a
    selector forever is a memoryless strategy.
    """

    choice: dict[str, dict[str, Fraction]]


def uniform_selector(game: GameStructure) -> Selector:
    """Player-1 selector playing all available moves uniformly at random."""
    choice = {}
    for s in game.states:
        avail = game.moves1[s]
        n = len(avail)
        choice[s] = {a: Fraction(1, n) for a in avail}
    return Selector(choice)


def swap_players(game: GameStructure) -> GameStructure:
    """Exchange the roles of the two players (player 1 of the result is
    player 2 of the input)."""
    delta = {}
    for (s, a, b), dist in game.delta.items():
        delta[(s, b, a)] = dict(dist)
    return GameStructure(game.states, game.moves, dict(game.moves2), dict(game.moves1), delta)


NOOP_MOVE = "⊥"  # the bottom symbol, used for the trivial player


def edge_move(target: str) -> str:
    return f"to-{target}"


def encode_turn_based_as_concurrent(tb: TurnBasedGame) -> GameStructure:
    """Embed a turn-based game into the concurrent representation.

    Player states get one synthesized move per outgoing edge for the owner
    and the noop move for the other player; random states get noop for both
    with the given distribution.
    """
    moves: list[str] = [NOOP_MOVE]
    seen = {NOOP_MOVE}
    moves1: dict[str, tuple[str, ...]] = {}
    moves2: dict[str, tuple[str, ...]] = {}
    delta: dict[tuple[str, str, str], dict[str, Fraction]] = {}
    for s in tb.states:
        kind = tb.partition[s]
        if kind == RANDOM:
            moves1[s] = (NOOP_MOVE,)
            moves2[s] = (NOOP_MOVE,)
            delta[(s, NOOP_MOVE, NOOP_MOVE)] = dict(tb.prob[s])
            continue
        succ_moves = tuple(edge_move(t) for t in tb.edges[s])
        for m in succ_moves:
            if m not in seen:
                seen.add(m)
                moves.append(m)
        if kind == P1:
            moves1[s] = succ_moves
            moves2[s] = (NOOP_MOVE,)
            for t in tb.edges[s]:
                delta[(s, edge_move(t), NOOP_MOVE)] = {t: ONE}
        else:
            moves1[s] = (NOOP_MOVE,)
            moves2[s] = succ_moves
            for t in tb.edges[s]:
                delta[(s, NOOP_MOVE, edge_move(t))] = {t: ONE}
    return GameStructure(tb.states, tuple(moves), moves1, moves2, delta)


def indicator(game: GameStructure, inside: Iterable[str]) -> Valuation:
    inside = set(inside)
    return {s: (ONE if s in inside else ZERO) for s in game.states}

