"""Helpers that only the tests use, built on the package's own code.

Unlike ``oracles``, these share code with the solvers: they compose
package functions into checks the library itself does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from congame.examples import example_text
from congame.gamefile import parse_game
from congame.matrix import (
    MatrixGame,
    _compositions,
    enumerate_k_uniform,
    one_step_matrix,
    solve_matrix_game,
)
from congame.mdp import (
    ImproperSelectorError,
    _trap,
    almost_sure_safe_strategy,
    induce_mdp,
    max_reach_values,
)
from congame.model import (
    ONE,
    P1,
    P2,
    RANDOM,
    ZERO,
    GameError,
    GameStructure,
    Selector,
    TurnBasedGame,
    Valuation,
    make_absorbing,
    swap_players,
)
from congame.reach_si import ReachSIRunner
from congame.safety_si import (
    ConvergentSafetyRunner,
    SupportPair,
    _k_uniform_position_pairs,
    _labelled,
)

from oracles import slack_lp_feasible


def load_example(name: str) -> GameStructure | TurnBasedGame:
    """A bundled example game, parsed."""
    return parse_game(example_text(name))


def improper_witness(
    game: GameStructure, xi1: Selector, T: Iterable[str], W2: Iterable[str]
) -> frozenset[str] | None:
    """The trap of the induced MDP outside T and W2 (the states from which
    player 2 can avoid both forever), or None if it is empty, that is, if
    the selector is proper.  T and W2 must be absorbing."""
    return _trap(induce_mdp(game, xi1), set(T) | set(W2)) or None


def pure_selector(game: GameStructure, player: int, picks: Mapping[str, str]) -> Selector:
    """Pure selector from a state -> move map; missing states default to the
    first available move."""
    assignment = game.moves1 if player == 1 else game.moves2
    choice = {}
    for s in game.states:
        a = picks.get(s, assignment[s][0])
        if a not in assignment[s]:
            raise GameError(f"pure selector at {s!r}: move {a!r} unavailable")
        choice[s] = {a: ONE}
    return Selector(choice)


def is_proper(game: GameStructure, xi1: Selector, T: Iterable[str], W2: Iterable[str]) -> bool:
    return improper_witness(game, xi1, T, W2) is None


def strategy_value_reach_by_copy(
    game: GameStructure, xi1: Selector, T: Iterable[str], W2: Iterable[str]
) -> dict[str, Fraction]:
    """``strategy_value_reach`` evaluated on an absorbing copy of the game:
    ``make_absorbing`` on T and W2, then ``induce_mdp``."""
    W2 = set(W2)
    done = set(T) | W2
    mdp = induce_mdp(make_absorbing(game, done), xi1)
    trap = _trap(mdp, done)
    if trap:
        raise ImproperSelectorError(trap)
    reach = max_reach_values(mdp, W2)
    return {s: ONE - reach[s] for s in game.states}


def strategy_value_safety_by_copy(
    game: GameStructure, xi1: Selector, F: Iterable[str]
) -> dict[str, Fraction]:
    """``strategy_value_safety`` evaluated on a copy of the game with the
    unsafe states absorbing."""
    unsafe = set(game.states) - set(F)
    reach = max_reach_values(induce_mdp(make_absorbing(game, unsafe), xi1), unsafe)
    return {s: ONE - reach[s] for s in game.states}


def column_values(matrix: MatrixGame, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Expected payoff of each column against the row mixture ``weights``
    (given in row order)."""
    return tuple(
        sum((w * row[j] for w, row in zip(weights, matrix.payoff) if w), ZERO)
        for j in range(len(matrix.cols))
    )


def k_uniform_distributions(n_moves: int, k: int) -> list[tuple[Fraction, ...]]:
    """``enumerate_k_uniform``'s table read as probability tuples."""
    return [tuple(Fraction(c, denom) for c in counts) for denom, counts in enumerate_k_uniform(n_moves, k)]


def reference_k_uniform(n_moves: int, k: int) -> list[tuple[Fraction, ...]]:
    """The k-uniform distributions built as ``Fraction`` tuples and
    deduplicated by set, in the package's enumeration order."""
    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for denom in range(1, k + 1):
        for comp in _compositions(denom, n_moves):
            dist = tuple(Fraction(c, denom) for c in comp)
            if dist not in seen:
                seen.add(dist)
                out.append(dist)
    return out


def reference_pre1_k(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int
) -> tuple[Fraction, dict[str, Fraction]]:
    """``pre1_k`` scored in ``Fraction`` arithmetic, one mixture at a time."""
    matrix = one_step_matrix(game, v, s)
    best_value: Fraction | None = None
    best_dist: tuple[Fraction, ...] | None = None
    for dist in reference_k_uniform(len(matrix.rows), k):
        value = min(column_values(matrix, dist))
        if best_value is None or value > best_value:
            best_value, best_dist = value, dist
    assert best_value is not None and best_dist is not None
    return best_value, {a: p for a, p in zip(matrix.rows, best_dist) if p > 0}


def k_uniform_pairs(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int
) -> dict[tuple[tuple[str, ...], tuple[str, ...]], dict[str, Fraction]]:
    """All (support, counter-set) pairs realizable by k-uniform optimal
    mixtures at ``s``, each with the first witness in enumeration order:
    the package's k-uniform pairs in move labels."""
    matrix = one_step_matrix(game, v, s)
    return dict(_labelled(matrix, _k_uniform_position_pairs(game, matrix, k)))


def reference_k_uniform_pairs(
    game: GameStructure, v: Mapping[str, Fraction], s: str, k: int
) -> dict[tuple[tuple[str, ...], tuple[str, ...]], dict[str, Fraction]]:
    """``k_uniform_pairs`` scored in ``Fraction`` arithmetic,
    against ``reference_pre1_k``'s target."""
    matrix = one_step_matrix(game, v, s)
    target, _ = reference_pre1_k(game, v, s, k)
    out: dict[tuple[tuple[str, ...], tuple[str, ...]], dict[str, Fraction]] = {}
    for dist in reference_k_uniform(len(matrix.rows), k):
        cols = column_values(matrix, dist)
        if min(cols) != target:
            continue
        mix = {a: p for a, p in zip(matrix.rows, dist) if p > 0}
        counter = tuple(b for b, value in zip(matrix.cols, cols) if value == target)
        key = (tuple(mix), counter)
        if key not in out:
            out[key] = mix
    return out


def pre1_sel(game: GameStructure, v: Mapping[str, Fraction], s: str, xi1: Selector) -> Fraction:
    """Worst case over player 2 of the one-step expectation; the infimum is
    attained at a pure move."""
    matrix = one_step_matrix(game, v, s)
    return min(column_values(matrix, [xi1.choice[s].get(a, ZERO) for a in matrix.rows]))


def opt_sel_feasible(
    game: GameStructure,
    v: Mapping[str, Fraction],
    s: str,
    A: Iterable[str],
    B: Iterable[str],
    k: int | None = None,
) -> SupportPair | None:
    """Witness an optimal mixture at ``s`` with support exactly A whose
    counter-optimal move set is exactly B, or None if there is none.

    Unrestricted mixtures are decided by the slack linear program of
    ``oracles.slack_lp_feasible`` at every support size; k-uniform
    mixtures by enumeration against the k-restricted one-step optimum.
    """
    moves1, moves2 = game.moves1[s], game.moves2[s]
    A = tuple(a for a in moves1 if a in set(A))
    B = tuple(b for b in moves2 if b in set(B))
    if not A or not B:
        raise GameError("support and counter set must be nonempty subsets")
    if k is None:
        matrix = one_step_matrix(game, v, s)
        target = solve_matrix_game(matrix).value
        witness = slack_lp_feasible(
            matrix.payoff, target,
            tuple(moves1.index(a) for a in A), tuple(moves2.index(b) for b in B),
        )
        if witness is None:
            return None
        return SupportPair(s, A, B, dict(zip(A, witness)))
    witness = k_uniform_pairs(game, v, s, k).get((A, B))
    if witness is None:
        return None
    return SupportPair(s, A, B, witness)


def destinations(game: GameStructure, s: str, xi1: Selector, xi2: Selector) -> frozenset[str]:
    """Possible successors of ``s`` under the supports of both selectors."""
    out: set[str] = set()
    for a, pa in xi1.choice[s].items():
        for b, pb in xi2.choice[s].items():
            if pa > 0 and pb > 0:
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


def round_to_k_uniform(
    dist: Mapping[str, Fraction], eta: Fraction
) -> tuple[int, dict[str, Fraction]]:
    """Round a positive distribution to one with a small common denominator.

    Rounds each probability up to the next multiple of 1/l for
    l = ceil(m / (eta * c)) (m the support size, c the least probability),
    then renormalizes.  Both ratio distortions old/new and new/old stay
    within 1 + eta, and the returned denominator bound k is the exact common
    denominator of the result.
    """
    if eta <= 0:
        raise GameError("eta must be positive")
    items = [(a, p) for a, p in dist.items() if p != 0]
    if any(p < 0 for _, p in items):
        raise GameError("distribution must be positive on its support")
    if sum((p for _, p in items), ZERO) != 1:
        raise GameError("distribution must sum to 1")
    m = len(items)
    if m == 1:
        return 1, {items[0][0]: ONE}
    c = min(p for _, p in items)
    ratio = Fraction(m) / (eta * c)
    ell = -((-ratio.numerator) // ratio.denominator)  # ceil
    numerators = {a: -((-(p * ell).numerator) // (p * ell).denominator) for a, p in items}
    total = sum(numerators.values())
    rounded = {a: Fraction(n, total) for a, n in numerators.items()}
    for a, p in items:
        q = rounded[a]
        if p / q > 1 + eta or q / p > 1 + eta:
            raise AssertionError(f"rounding bound violated at {a!r}: {p} -> {q}")
    return total, rounded


def is_absorbing(game: GameStructure, s: str) -> bool:
    return all(
        game.delta[(s, a, b)].get(s, ZERO) == 1
        for a in game.moves1[s]
        for b in game.moves2[s]
    )


def tb_make_absorbing(tb: TurnBasedGame, keep: Iterable[str]) -> TurnBasedGame:
    """Turn the given states of a turn-based game into random self-loops."""
    keep = set(keep)
    partition = dict(tb.partition)
    edges = dict(tb.edges)
    prob = dict(tb.prob)
    for s in keep:
        partition[s] = RANDOM
        edges[s] = (s,)
        prob[s] = {s: ONE}
    return TurnBasedGame(tb.states, partition, edges, prob)


def is_turn_based(game: GameStructure) -> TurnBasedGame | None:
    """Recover a turn-based view of a concurrent game, if one exists.

    A state with several moves for both players is genuinely concurrent and
    makes the whole game non-turn-based.  States where the owning player's
    moves are all deterministic become P1/P2 states; states where both move
    sets are singletons become random states (including degenerate player
    states with a single successor).
    """
    partition: dict[str, str] = {}
    edges: dict[str, tuple[str, ...]] = {}
    prob: dict[str, dict[str, Fraction]] = {}
    for s in game.states:
        m1, m2 = game.moves1[s], game.moves2[s]
        if len(m1) > 1 and len(m2) > 1:
            return None
        if len(m1) > 1 or len(m2) > 1:
            owner, avail, other = (P1, m1, m2[0]) if len(m1) > 1 else (P2, m2, m1[0])
            succ = []
            for a in avail:
                key = (s, a, other) if owner == P1 else (s, other, a)
                dist = game.delta[key]
                support = [t for t, p in dist.items() if p > 0]
                if len(support) != 1:
                    return None
                if support[0] not in succ:
                    succ.append(support[0])
            partition[s] = owner
            edges[s] = tuple(succ)
        else:
            dist = game.delta[(s, m1[0], m2[0])]
            partition[s] = RANDOM
            edges[s] = tuple(t for t in game.states if dist.get(t, ZERO) > 0)
            prob[s] = {t: p for t, p in dist.items() if p > 0}
    return TurnBasedGame(game.states, partition, edges, prob)


@dataclass(frozen=True)
class ValueClassIndex:
    """Partition of the state space by exact valuation value."""

    classes: dict[Fraction, frozenset[str]]

    def class_of(self, r: Fraction) -> frozenset[str]:
        return self.classes.get(r, frozenset())

    def values(self) -> list[Fraction]:
        return sorted(self.classes)


def value_classes(v: Mapping[str, Fraction]) -> ValueClassIndex:
    """Group states by exact rational equality of their values."""
    buckets: dict[Fraction, set[str]] = {}
    for s, r in v.items():
        buckets.setdefault(r, set()).add(s)
    return ValueClassIndex({r: frozenset(cell) for r, cell in buckets.items()})


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
