"""Strategy improvement for reachability games.

The loop keeps a proper player-1 selector, recomputes its exact value by
solving the induced MDP, and rewrites the selector on exactly the states
where the one-step operator can beat the current value.  Starting from the
uniform selector (which is always proper) every iterate stays proper, the
values increase monotonically, and a natural stop (no improvable state)
certifies the exact game value.

On a turn-based game the same loop, started from the pure attractor
selector, is Hoffman-Karp pure strategy iteration: every one-step game has
one row or one column, so each ``Pre1`` witness is a pure move, the first
best successor.  ``TurnBasedReachRunner`` runs it on the graph itself,
with no concurrent encoding, no absorbing copy and no matrix games; it
terminates because pure strategies are finite.

``Runner`` is the capped loop every solve runs in: the improvement loops
here, in ``safety_si`` and in ``certify``, and value iteration in
``value_iter``.  Building one and calling ``run(cap)`` is the only way to
run a loop, and a finished runner is its own result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .matrix import MatrixGame, one_step_matrix, pre1
from .mdp import (
    ImproperSelectorError,
    compute_W2,
    strategy_value_reach,
    tb_attractor,
    tb_strategy_value_reach,
    tb_value_zero,
)
from .model import (
    NOOP_MOVE,
    ONE,
    P1,
    P2,
    ZERO,
    GameStructure,
    Selector,
    TurnBasedGame,
    Valuation,
    edge_move,
    uniform_selector,
)

STATUS_EXACT = "exact"
STATUS_EPS = "eps-approx"
STATUS_CAPPED = "capped"

# Denominator bits above which ``ReachSIRunner`` rounds a witness, well
# below CPython's 4300-digit (about 14 284-bit) limit on printing integers.
MAX_WITNESS_BITS = 1024


class Runner:
    """A capped loop and its history.

    ``step()`` runs one round and returns True while progress is possible;
    ``run(cap)`` steps until the fixpoint or ``cap`` rounds in all and
    returns the runner; a runner with no valuation yet needs a cap of at
    least 1.  ``iterations`` counts the rounds run, ``finished``
    says the last one found the fixpoint (status exact, else capped).
    Subclasses set ``game`` (the game they run on, as given: for a runner
    on a turn-based graph the ``TurnBasedGame`` itself) and ``valuations``
    (every valuation recorded, oldest first; ``values`` is the last) and
    implement ``_round``, which runs once, records any new valuation and
    returns True at the fixpoint.

    The improvement runners (the two here, those of ``safety_si`` and the
    ``Certifier``) also provide ``selector``, a plain ``model.Selector``
    map that achieves ``values`` (on a graph, in the move names of its
    concurrent encoding): their ``valuations`` are the exact values of the
    selectors held.  The iterates of ``value_iter.ValueIterationRunner``
    are bounds that no selector it holds achieves.
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
        if max_iters < 1 and not self.valuations:
            raise ValueError("max_iters must be at least 1 before the first round")
        while self.iterations < max_iters and not self.finished:
            self.step()
        return self


_IMPROPER_START = "initial selector is improper"
_LOST_PROPERNESS = "improvement lost properness"


def _kept_proper(runner, evaluate, strategy, broken: str) -> Valuation:
    """``evaluate(game, strategy, target, w2)`` of ``runner``'s game for a
    strategy the loop keeps proper: an improper one is a broken invariant,
    raised as an AssertionError that starts with ``broken`` and names the
    trap."""
    try:
        return evaluate(runner.game, strategy, runner.target, runner.w2)
    except ImproperSelectorError as err:
        raise AssertionError(f"{broken}; trap {sorted(err.witness)}") from None


def _dyadic_rounding(
    matrix: MatrixGame, mix: Mapping[str, Fraction], floor: Fraction
) -> tuple[dict[str, Fraction], Fraction]:
    """The coarsest dyadic rounding of ``mix`` whose one-step value in
    ``matrix`` is at least ``floor``, with that value.

    For j = 1, 2, ... every probability is rounded to the nearest multiple
    of 2^-j and the most probable move (the first on ties) takes the rest;
    the first j that gives a distribution reaching ``floor`` wins.  The
    roundings tend to ``mix``, so a ``floor`` below its own one-step value
    is met at some finite j.

    The search runs in integers and walks each probability's binary
    expansion one digit per j.  On the matrix's integer cells over its
    scale, the rounding's score in a column is the sum of each
    move's count times its entry, the top move's count being the rest,
    ``2^j`` less the others'.  Everything is carried from j to j + 1 by
    shifts and additions: the quotient and remainder of each ``p * 2^j``
    (double the remainder, and take the denominator off when the next
    digit is 1), the columns' scores with the quotients as counts (double
    them, and add a move's entries relative to the top move's when its
    quotient gains a 1), and the quotient and remainder of the threshold
    ``floor * scale * 2^j``.  The rounding adds one to a quotient whose
    remainder is past half-way, or half-way with an odd quotient, as
    ``round`` does.
    """
    top = max(mix, key=mix.__getitem__)
    scale = matrix.scale
    row = dict(zip(matrix.rows, matrix.cells))
    top_row = row[top]
    others = [a for a in mix if a != top]
    relative = [[x - t for x, t in zip(row[a], top_row)] for a in others]
    dens = [mix[a].denominator for a in others]
    quotients, remainders = [], []
    for a, den in zip(others, dens):
        q, r = divmod(mix[a].numerator, den)
        quotients.append(q)
        remainders.append(r)
    scores = [t + sum(q * rel[b] for q, rel in zip(quotients, relative)) for b, t in enumerate(top_row)]
    total, power = sum(quotients), 1
    threshold, left = divmod(floor.numerator * scale, floor.denominator)
    while True:
        power <<= 1
        total <<= 1
        scores = [x << 1 for x in scores]
        up = []
        for i, den in enumerate(dens):
            q, r = quotients[i] << 1, remainders[i] << 1
            if r >= den:
                q, r = q + 1, r - den
                total += 1
                scores = [x + d for x, d in zip(scores, relative[i])]
            quotients[i], remainders[i] = q, r
            r <<= 1
            if r > den or (r == den and q & 1):
                up.append(i)
        threshold, left = threshold << 1, left << 1
        if left >= floor.denominator:
            threshold, left = threshold + 1, left - floor.denominator
        if total + len(up) > power:
            continue
        rounded = scores
        for i in up:
            rounded = [x + d for x, d in zip(rounded, relative[i])]
        score = min(rounded)
        # score / (2^j scale) >= floor, that is score >= ceil(floor scale 2^j).
        if score >= threshold + (left > 0):
            counts = {a: q + (i in up) for i, (a, q) in enumerate(zip(others, quotients))}
            counts[top] = power - total - len(up)
            return (
                {a: Fraction(counts[a], power) for a in mix if counts[a]},
                Fraction(score, scale * power),
            )


class ReachSIRunner(Runner):
    """Reachability strategy improvement (the two-sided certifier steps it
    directly, interleaved with the safety sequence).

    It holds the current ``selector`` and the ``valuations`` of every
    selector held; each round builds a new selector map, which shares the
    old one's mixtures on the states it does not switch.  It runs on
    ``game`` as given, with no absorbing copy: the evaluation holds T and
    W2 absorbing and the rounds never look at them.  It starts from the
    uniform selector, which is proper.  A turn-based game runs on its graph
    instead, in ``TurnBasedReachRunner``.

    The witnesses taken are bounded: a switched state whose exact ``Pre1``
    witness has a probability with a denominator wider than
    ``MAX_WITNESS_BITS`` bits takes instead the coarsest dyadic rounding of
    it whose one-step value at v reaches the midpoint
    (v(s) + Pre1(v)(s)) / 2.  That value still beats v(s) strictly, so the
    selector stays proper and the values rise strictly; a fixpoint is still
    one of ``Pre1``, hence the exact value.  Without the bound, the
    iterates' bit size can double every round.
    """

    def __init__(self, game: GameStructure, T: Iterable[str]):
        self.target = frozenset(T) & frozenset(game.states)
        self.w2 = compute_W2(game, self.target)
        self.game = game
        self.selector = uniform_selector(self.game)
        value = _kept_proper(self, strategy_value_reach, self.selector, _IMPROPER_START)
        self.valuations: list[Valuation] = [value]

    def _round(self) -> bool:
        """Rewrite the selector to a one-step-optimal mixture (or its
        rounding, see the class) on the states where ``Pre1`` strictly
        beats the current value (the improvement set), keeping it
        elsewhere; an empty improvement set is the fixpoint."""
        v = self.values
        done = self.target | self.w2
        # The one-step value of each new choice at v, which the new value
        # must reach; on T and W2, which the evaluation holds absorbing, v.
        bound, witness = pre1(self.game, v, done)
        improve_set = {s for s in self.game.states if s not in done and bound[s] > v[s]}
        if not improve_set:
            return True
        choice = {s: witness[s] if s in improve_set else self.selector[s] for s in self.game.states}
        for s in improve_set:
            if any(p.denominator.bit_length() > MAX_WITNESS_BITS for p in choice[s].values()):
                midpoint = (v[s] + bound[s]) / 2
                # The matrix pre1 built at s, handed back unbuilt.
                matrix = one_step_matrix(self.game, v, s)
                choice[s], bound[s] = _dyadic_rounding(matrix, choice[s], midpoint)
                if bound[s] < midpoint:
                    raise AssertionError(f"rounded witness below the midpoint at {s!r}")
        value = _kept_proper(self, strategy_value_reach, choice, _LOST_PROPERNESS)
        for s in self.game.states:
            if value[s] < bound[s]:
                raise AssertionError(f"improvement step decreased the bound at {s!r}")
        for s in improve_set:
            if not value[s] > v[s]:
                raise AssertionError(f"no strict improvement at {s!r}")
        self.selector = choice
        self.valuations.append(value)
        return False


class TurnBasedReachRunner(Runner):
    """Hoffman-Karp strategy iteration for Reach(T) on a turn-based game.

    It holds player 1's pure strategy as ``picks``, one successor per
    player-1 node, with ``valuations`` as in ``ReachSIRunner``; ``game``
    is the ``TurnBasedGame`` and ``w2`` its value-zero nodes.  The start
    picks the attractor's successor towards T and W2, and the first edge
    where the attractor gives none; that strategy is proper.  Each round
    switches the player-1 nodes outside T and W2 whose best successor
    beats their value strictly to their first best successor in edge
    order.

    Round for round it is ``ReachSIRunner`` on the concurrent encoding
    started from the same pure selector: the same W2, values, improvement
    sets and strategies, since the ``Pre1`` witness of a one-column matrix
    game is its first best row.  ``selector`` renders ``picks`` in the
    encoding's move names.
    """

    def __init__(self, tb: TurnBasedGame, T: Iterable[str]):
        self.game = tb
        self.target = frozenset(T) & frozenset(tb.states)
        self.w2 = tb_value_zero(tb, self.target)
        _, attract = tb_attractor(tb, self.target | self.w2)
        self.picks = {
            s: attract.get(s, tb.edges[s][0]) for s in tb.states if tb.partition[s] == P1
        }
        value = _kept_proper(self, tb_strategy_value_reach, self.picks, _IMPROPER_START)
        self.valuations: list[Valuation] = [value]

    @property
    def selector(self) -> Selector:
        return {
            s: {edge_move(self.picks[s]) if s in self.picks else NOOP_MOVE: ONE}
            for s in self.game.states
        }

    def _round(self) -> bool:
        """Switch to the first best successor where it beats the current
        value strictly; no such node is the fixpoint."""
        tb, v = self.game, self.values
        done = self.target | self.w2
        switch: dict[str, str] = {}
        for s in self.picks:
            if s not in done:
                best = max(tb.edges[s], key=v.__getitem__)  # the first of the maxima
                if v[best] > v[s]:
                    switch[s] = best
        if not switch:
            return True
        picks = {**self.picks, **switch}
        value = _kept_proper(self, tb_strategy_value_reach, picks, _LOST_PROPERNESS)
        for s in tb.states:
            if value[s] < self._pre1(v, s, done):
                raise AssertionError(f"improvement step decreased the bound at {s!r}")
        for s in switch:
            if not value[s] > v[s]:
                raise AssertionError(f"no strict improvement at {s!r}")
        self.picks = picks
        self.valuations.append(value)
        return False

    def _pre1(self, v: Valuation, s: str, done: frozenset[str]) -> Fraction:
        """``Pre1(v)`` at ``s``, read off the graph; the nodes in ``done``
        are absorbing."""
        if s in done:
            return v[s]
        kind, succ = self.game.partition[s], self.game.edges[s]
        if kind == P1:
            return max(v[t] for t in succ)
        if kind == P2:
            return min(v[t] for t in succ)
        return sum((p * v[t] for t, p in self.game.prob[s].items()), ZERO)

