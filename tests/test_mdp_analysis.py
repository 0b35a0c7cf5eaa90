from __future__ import annotations

import random
from fractions import Fraction

import pytest

from congame import (
    ImproperSelectorError,
    compute_W2,
    encode_turn_based_as_concurrent,
    induce_mdp,
    max_reach_values,
    strategy_value_reach,
    strategy_value_safety,
    tb_almost_sure_safe,
    tb_attractor,
    uniform_selector,
)
from congame.gamefile import parse_game
from congame.mdp import (
    InducedMDP,
    _greatest_fixpoint,
    _trap,
    almost_sure_safe_strategy,
    tb_induce_mdp,
    tb_strategy_value_reach,
    tb_value_zero,
)
from congame.model import NOOP_MOVE, P1, GameStructure, Selector, TurnBasedGame

from conftest import ONE, ZERO, random_concurrent_game, random_selector, random_tb_game
from helpers import (
    almost_sure_safe_concurrent,
    improper_witness,
    is_absorbing,
    is_proper,
    make_absorbing,
    pure_selector,
    strategy_value_reach_by_copy,
    strategy_value_safety_by_copy,
    tb_make_absorbing,
)
from oracles import (
    brute_force_gfp,
    brute_force_mecs,
    chain_reach,
    mdp_reach_bellman_ok,
    reference_almost_sure_safe,
    reference_tb_almost_sure_safe,
    reference_trap,
    reference_w2,
    round_based_gfp,
)

F = Fraction
NOOP = "⊥"


def test_induce_mdp_pure_a(fig1):
    xi = pure_selector(fig1, 1, {"s3": "a"})
    mdp = induce_mdp(fig1, xi)
    assert mdp.delta2[("s3", NOOP)] == {"s4": ONE}
    assert mdp.delta2[("s4", NOOP)] == {"s3": ONE}


def test_induce_mdp_uniform_mixture(fig1):
    mdp = induce_mdp(fig1, uniform_selector(fig1))
    assert mdp.delta2[("s3", NOOP)] == {"s4": F(1, 2), "s2": F(1, 2)}


def test_induce_mdp_turn_based_pure(fig2_tb):
    game = encode_turn_based_as_concurrent(fig2_tb)
    xi = pure_selector(game, 1, {"s0": "to-s2"})
    mdp = induce_mdp(game, xi)
    # player-2 subgame: s1 keeps both of its choices
    assert set(mdp.actions["s1"]) == {"to-s0", "to-s3"}
    assert mdp.delta2[("s0", NOOP)] == {"s2": ONE}


# The end-component tests below check properness through the trap: the
# greatest set outside ``done`` in which every state has an action staying
# inside.  With ``done`` absorbing, it is nonempty exactly when some end
# component avoids ``done``.


def test_mec_absorbing_singleton(fig1):
    # Under the uniform selector the only end components are the absorbing
    # singletons {s0} and {s1}.
    mdp = induce_mdp(fig1, uniform_selector(fig1))
    assert _trap(mdp, {"s0", "s1"}) == frozenset()
    assert _trap(mdp, {"s0"}) == {"s1"} and _trap(mdp, {"s1"}) == {"s0"}


def test_mec_fig1_pure_a_cycle(fig1):
    xi = pure_selector(fig1, 1, {"s3": "a"})
    assert {"s3", "s4"} <= _trap(induce_mdp(fig1, xi), {"s0", "s1"})


def test_mec_fig1_mixed_no_inner_component(fig1):
    mdp = induce_mdp(fig1, uniform_selector(fig1))
    for done in ({"s0"}, {"s1"}, {"s0", "s1"}):
        assert not _trap(mdp, done) & {"s2", "s3", "s4"}


def _random_absorbing_mdp(rng, n_states):
    """Induced MDP of the uniform selector on a random game whose random
    ``done`` set is made absorbing before inducing, as properness needs."""
    game = random_concurrent_game(rng, n_states=n_states)
    done = set(rng.sample(game.states, rng.randint(0, n_states)))
    frozen = make_absorbing(game, done)
    return induce_mdp(frozen, uniform_selector(frozen)), done


def test_mec_oracle_random():
    rng = random.Random(21)
    nonempty = 0
    for _ in range(40):
        mdp, done = _random_absorbing_mdp(rng, rng.randint(2, 6))
        trap = _trap(mdp, done)
        avoiding = [c for c in brute_force_mecs(mdp) if not c & done]
        assert bool(trap) == bool(avoiding)
        assert all(c <= trap for c in avoiding)
        nonempty += bool(trap)
    assert 0 < nonempty < 40


def test_mec_witness_actions_closed():
    rng = random.Random(22)
    for _ in range(20):
        mdp, done = _random_absorbing_mdp(rng, 4)
        trap = _trap(mdp, done)
        assert not trap & done
        for s in trap:
            assert any(mdp.dest(s, b) <= trap for b in mdp.actions[s])


def test_qualitative_sets_match_brute_force_gfp():
    rng = random.Random(28)
    for _ in range(80):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 6))
        states = set(game.states)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        assert compute_W2(game, target) == brute_force_gfp(
            states - target,
            lambda s, X: any(
                all(game.dest(s, a, b) <= X for a in game.moves1[s]) for b in game.moves2[s]
            ),
        )

        def confines(s, a, X):
            return all(game.dest(s, a, b) <= X for b in game.moves2[s])

        safe = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        w1, choice = almost_sure_safe_strategy(game, safe)
        assert w1 == brute_force_gfp(
            safe, lambda s, X: any(confines(s, a, X) for a in game.moves1[s])
        )
        assert set(choice) == w1
        for s, a in choice.items():
            assert confines(s, a, w1)
            assert a == next(m for m in game.moves1[s] if confines(s, m, w1))
    for _ in range(80):
        tb = random_tb_game(rng, n_states=rng.randint(2, 6))
        safe = set(rng.sample(tb.states, rng.randint(1, len(tb.states))))
        alive, strategy = tb_almost_sure_safe(tb, safe)
        assert alive == brute_force_gfp(
            safe,
            lambda s, X: (
                any(t in X for t in tb.edges[s])
                if tb.partition[s] == P1
                else all(t in X for t in tb.edges[s])
            ),
        )
        assert set(strategy) == {s for s in alive if tb.partition[s] == P1}
        for s, t in strategy.items():
            assert t in alive and t == next(u for u in tb.edges[s] if u in alive)


def test_qualitative_sets_match_round_based_reference():
    # The counting fixpoint against the round-by-round one over supports
    # rebuilt at every test: same sets, and the same first-in-order choices.
    rng = random.Random(41)
    shrunk = 0
    for _ in range(500):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 7), max_moves=3)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        w2 = compute_W2(game, target)
        assert w2 == reference_w2(game, target)
        safe = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        w1 = almost_sure_safe_strategy(game, safe)
        assert w1 == reference_almost_sure_safe(game, safe)
        tb = random_tb_game(rng, n_states=rng.randint(2, 8))
        tb_safe = set(rng.sample(tb.states, rng.randint(1, len(tb.states))))
        alive = tb_almost_sure_safe(tb, tb_safe)
        assert alive == reference_tb_almost_sure_safe(tb, tb_safe)
        shrunk += (
            (len(w2) < len(game.states) - len(target))
            + (len(w1[0]) < len(safe))
            + (len(alive[0]) < len(tb_safe))
        )
    # Most fixpoints remove states, so broken options are exercised.
    assert shrunk > 900


def test_trap_matches_round_based_reference():
    # Random selectors, pure and mixed, on games with a random absorbing
    # set: many of them are improper.
    rng = random.Random(42)
    improper = 0
    for _ in range(500):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 7), max_moves=3)
        done = set(rng.sample(game.states, rng.randint(0, len(game.states))))
        frozen = make_absorbing(game, done)
        mdp = induce_mdp(frozen, random_selector(rng, frozen))
        trap = _trap(mdp, done)
        assert trap == reference_trap(mdp, done)
        improper += bool(trap)
    assert 100 < improper < 400


def test_induce_mdp_pure_and_mixed_match_mixture_formula():
    rng = random.Random(43)
    pure = 0
    for _ in range(200):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 6), max_moves=3)
        xi = random_selector(rng, game)
        mdp = induce_mdp(game, xi)
        for s in game.states:
            pure += len(xi.choice[s]) == 1
            for b in game.moves2[s]:
                mixed: dict = {}
                for a, pa in xi.choice[s].items():
                    for t, p in game.delta[(s, a, b)].items():
                        if p:
                            mixed[t] = mixed.get(t, ZERO) + pa * p
                assert mdp.delta2[(s, b)] == mixed
    assert pure > 200


def test_evaluation_matches_absorbing_copy():
    # Target, W2 and unsafe states keep their outgoing edges here, so the
    # self-loops the evaluation adds are what makes the values agree.
    rng = random.Random(44)
    leaky = improper = 0
    for _ in range(300):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 6), max_moves=3)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        w2 = compute_W2(game, target)
        leaky += not all(is_absorbing(game, s) for s in target | w2)
        xi = random_selector(rng, game)
        try:
            expected = strategy_value_reach_by_copy(game, xi, target, w2)
        except ImproperSelectorError as err:
            improper += 1
            with pytest.raises(ImproperSelectorError) as got:
                strategy_value_reach(game, xi, target, w2)
            assert got.value.witness == err.witness
        else:
            assert strategy_value_reach(game, xi, target, w2) == expected
        safe = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        assert strategy_value_safety(game, xi, safe) == strategy_value_safety_by_copy(
            game, xi, safe
        )
    assert leaky > 250 and 50 < improper < 250


def test_max_reach_all_targets(fig1):
    mdp = induce_mdp(fig1, uniform_selector(fig1))
    values = max_reach_values(mdp, fig1.states)
    assert all(values[s] == 1 for s in fig1.states)


def test_max_reach_fig1_pure_a(fig1):
    xi = pure_selector(fig1, 1, {"s3": "a"})
    values = max_reach_values(induce_mdp(fig1, xi), {"s0"})
    assert values["s3"] == ZERO and values["s4"] == ZERO
    assert values["s2"] == F(1, 2)


def test_max_reach_fig1_pure_b(fig1):
    xi = pure_selector(fig1, 1, {"s3": "b"})
    values = max_reach_values(induce_mdp(fig1, xi), {"s0"})
    assert values["s2"] == F(1, 2) and values["s3"] == F(1, 2)


def test_max_reach_bellman_crosscheck_random():
    rng = random.Random(23)
    for _ in range(30):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 5))
        mdp = induce_mdp(game, uniform_selector(game))
        targets = set(rng.sample(game.states, rng.randint(1, len(game.states))))
        values = max_reach_values(mdp, targets)
        assert mdp_reach_bellman_ok(mdp, targets, values)


def test_is_proper_fig1(fig1):
    frozen = make_absorbing(fig1, {"s0", "s1"})
    bad = pure_selector(frozen, 1, {"s3": "a"})
    assert improper_witness(frozen, bad, {"s0"}, {"s1"}) == {"s3", "s4"}
    assert not is_proper(frozen, bad, {"s0"}, {"s1"})
    assert is_proper(frozen, uniform_selector(frozen), {"s0"}, {"s1"})


def test_is_proper_vacuous():
    rng = random.Random(24)
    game = random_concurrent_game(rng, n_states=3)
    frozen = make_absorbing(game, game.states)
    assert is_proper(frozen, uniform_selector(frozen), {"q0"}, {"q1", "q2"})


def test_uniform_proper_random():
    rng = random.Random(25)
    for _ in range(30):
        game = random_concurrent_game(rng, n_states=rng.randint(2, 5))
        target = {rng.choice(game.states)}
        w2 = compute_W2(game, target)
        frozen = make_absorbing(game, target | w2)
        assert is_proper(frozen, uniform_selector(frozen), target, w2)


def test_compute_w2_fig1(fig1):
    assert compute_W2(fig1, {"s0"}) == {"s1"}


def test_compute_w2_full_target(fig1):
    assert compute_W2(fig1, set(fig1.states)) == frozenset()


def test_compute_w2_ex3step1(ex3step1):
    assert compute_W2(ex3step1, {"s1"}) == {"s2"}


def test_compute_w2_uniform_characterization():
    # va(Reach(T))(s) = 0 exactly when, under the uniform mixture, some pure
    # adversary response keeps the reach probability at zero.
    rng = random.Random(26)
    for _ in range(25):
        game = random_concurrent_game(rng, n_states=4)
        target = set(rng.sample(game.states, rng.randint(1, 2)))
        w2 = compute_W2(game, target)
        frozen = make_absorbing(game, target | w2)
        uniform = uniform_selector(game)
        mdp = induce_mdp(game, uniform)
        responses = [
            dict(zip([s for s in game.states], combo))
            for combo in _product_choices(game)
        ]
        for s in game.states:
            if s in target:
                continue
            floor = min(
                chain_reach(
                    game.states,
                    {t: mdp.delta2[(t, sigma[t])] for t in game.states},
                    target,
                )[s]
                for sigma in responses
            )
            assert (floor == 0) == (s in w2)


def _product_choices(game):
    import itertools

    pools = [game.moves2[s] for s in game.states]
    return itertools.product(*pools)


def test_almost_sure_safe_fig2(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    assert almost_sure_safe_concurrent(fig2, safe) == {"s5"}


def test_almost_sure_safe_everything(fig2):
    assert almost_sure_safe_concurrent(fig2, fig2.states) == set(fig2.states)


def test_almost_sure_safe_ex3full(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    assert almost_sure_safe_concurrent(ex3full, safe) == {"s1"}


def test_tb_attractor_everything(fig2_tb):
    levels, chosen = tb_attractor(fig2_tb, fig2_tb.states)
    assert levels == [frozenset(fig2_tb.states)]
    assert chosen == {}


def test_tb_attractor_fig2(fig2_tb):
    levels, chosen = tb_attractor(fig2_tb, {"s4", "s5"})
    assert levels[-1] == frozenset(fig2_tb.states)
    # s2, s3 are random with an edge into the base; s0, s1 follow.
    assert {"s2", "s3"} <= levels[1]
    assert chosen["s0"] in {"s1", "s2"}


def test_tb_attractor_forced_chain():
    from congame.model import TurnBasedGame, P1, RANDOM

    tb = TurnBasedGame(
        ("s", "t", "goal"),
        {"s": P1, "t": P1, "goal": RANDOM},
        {"s": ("t",), "t": ("goal",), "goal": ("goal",)},
        {"goal": {"goal": ONE}},
    )
    levels, chosen = tb_attractor(tb, {"goal"})
    assert chosen == {"t": "goal", "s": "t"}


def test_tb_almost_sure_safe_no_leaks():
    from congame.model import TurnBasedGame, P1, RANDOM

    tb = TurnBasedGame(
        ("x", "y"),
        {"x": P1, "y": RANDOM},
        {"x": ("y",), "y": ("x",)},
        {"y": {"x": ONE}},
    )
    alive, strategy = tb_almost_sure_safe(tb, {"x", "y"})
    assert alive == {"x", "y"}
    assert strategy == {"x": "y"}


def test_tb_almost_sure_safe_unsafe_singleton():
    from congame.model import TurnBasedGame, RANDOM

    tb = TurnBasedGame(
        ("x",), {"x": RANDOM}, {"x": ("x",)}, {"x": {"x": ONE}}
    )
    alive, strategy = tb_almost_sure_safe(tb, set())
    assert alive == frozenset() and strategy == {}


def test_strategy_value_safety_fig2_uniform(fig2):
    safe = [s for s in fig2.states if s != "s4"]
    v = strategy_value_safety(fig2, uniform_selector(fig2), safe)
    assert v["s0"] == F(1, 3)
    assert v["s2"] == F(1, 3) and v["s3"] == F(2, 3) and v["s5"] == ONE


def test_strategy_value_safety_all_safe(fig2):
    v = strategy_value_safety(fig2, uniform_selector(fig2), fig2.states)
    assert all(v[s] == 1 for s in fig2.states)


def test_strategy_value_safety_ex3full_pure_b(ex3full):
    safe = [s for s in ex3full.states if s != "s2"]
    xi = pure_selector(ex3full, 1, {"s3": "b", "s0": "a"})
    v = strategy_value_safety(ex3full, xi, safe)
    assert v["s3"] == F(3, 5)


def test_strategy_value_reach_uniform_fig1(fig1):
    w2 = compute_W2(fig1, {"s0"})
    v = strategy_value_reach(fig1, uniform_selector(fig1), {"s0"}, w2)
    assert v == {"s0": ONE, "s1": ZERO, "s2": F(1, 2), "s3": F(1, 2), "s4": F(1, 2)}


def test_strategy_value_reach_on_target(fig1):
    w2 = compute_W2(fig1, {"s0"})
    v = strategy_value_reach(fig1, uniform_selector(fig1), {"s0"}, w2)
    assert v["s0"] == ONE


def test_strategy_value_reach_rejects_improper(fig1):
    xi = pure_selector(fig1, 1, {"s3": "a"})
    with pytest.raises(ImproperSelectorError) as err:
        strategy_value_reach(fig1, xi, {"s0"}, {"s1"})
    assert err.value.witness == {"s3", "s4"}


def test_tb_attractor_selector_is_proper():
    rng = random.Random(27)
    for _ in range(25):
        tb = random_tb_game(rng, n_states=5, max_succ=2)
        target = {rng.choice(tb.states)}
        game = encode_turn_based_as_concurrent(tb)
        w2 = compute_W2(game, target)
        from congame.model import edge_move

        tb_norm = tb_make_absorbing(tb, target | w2)
        levels, chosen = tb_attractor(tb_norm, target | w2)
        assert levels[-1] == frozenset(tb.states)
        assert len(levels) <= len(tb.states) + 1
        frozen = make_absorbing(game, target | w2)
        picks = {s: edge_move(t) for s, t in chosen.items()}
        xi = pure_selector(frozen, 1, picks)
        assert is_proper(frozen, xi, target, w2)


def test_counting_fixpoint_matches_round_based_reference():
    # Random option families over a universe wider than ``start``: states
    # with no options, empty options, options naming states outside
    # ``start``, and successors listed twice in one option.
    rng = random.Random(61)
    universe = [f"q{i}" for i in range(8)]
    seen = {"no options": 0, "empty option": 0, "outside": 0, "repeat": 0, "shrunk": 0}
    for _ in range(600):
        start = rng.sample(universe, rng.randint(0, 7))
        family = {}
        for s in universe:
            family[s] = [
                [rng.choice(universe) for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4)))]
                for _ in range(rng.choice((0, 1, 1, 2, 3)))
            ]
        got = _greatest_fixpoint(start, family.__getitem__)
        assert got == round_based_gfp(
            start, lambda s, X: any(set(option) <= X for option in family[s])
        )
        options = [o for s in start for o in family[s]]
        seen["no options"] += any(not family[s] for s in start)
        seen["empty option"] += any(not o for o in options)
        seen["outside"] += any(t not in start for o in options for t in o)
        seen["repeat"] += any(len(set(o)) < len(o) for o in options)
        seen["shrunk"] += 0 < len(got) < len(start)
    assert min(seen.values()) >= 100, seen


def _with_zero_entries(rng: random.Random, game: GameStructure) -> GameStructure:
    """``game`` with a probability-0 successor added to some distributions."""
    delta = {}
    for key, dist in game.delta.items():
        off = [t for t in game.states if t not in dist]
        delta[key] = {**dist, rng.choice(off): Fraction(0)} if off and rng.random() < 0.5 else dist
    return GameStructure(game.states, game.moves, game.moves1, game.moves2, delta)


def test_induced_mdps_hold_positive_entries_only():
    # Pure, mixed (with a probability-0 move) and held states of
    # ``induce_mdp``, and every node kind of ``tb_induce_mdp``, on games
    # whose distributions list probability-0 successors.
    rng = random.Random(62)
    kinds = {"pure": 0, "mixed": 0, "held": 0, "zero move": 0, "zero tb": 0}
    for _ in range(150):
        game = _with_zero_entries(rng, random_concurrent_game(rng, rng.randint(2, 5), 3))
        choice = random_selector(rng, game).choice
        for s in game.states:
            unused = [a for a in game.moves1[s] if a not in choice[s]]
            if unused and rng.random() < 0.3:
                choice[s] = {**choice[s], unused[0]: Fraction(0)}
                kinds["zero move"] += 1
        done = set(rng.sample(game.states, rng.randint(0, 2)))
        mdp = induce_mdp(game, Selector(choice), done)
        for s in game.states:
            kinds["held" if s in done else "pure" if len(choice[s]) == 1 else "mixed"] += 1
        _assert_positive(mdp)
        tb = random_tb_game(rng, n_states=rng.randint(2, 6))
        prob = {}
        for s, dist in tb.prob.items():
            off = [t for t in tb.states if t not in dist]
            prob[s] = {**dist, off[0]: Fraction(0)} if off else dist
            kinds["zero tb"] += bool(off)
        tb = TurnBasedGame(tb.states, tb.partition, tb.edges, prob)
        picks = {s: rng.choice(tb.edges[s]) for s in tb.states if tb.partition[s] == P1}
        _assert_positive(tb_induce_mdp(tb, picks, set(rng.sample(tb.states, rng.randint(0, 2)))))
    assert min(kinds.values()) >= 50, kinds


def _assert_positive(mdp: InducedMDP) -> None:
    for s in mdp.states:
        for b in mdp.actions[s]:
            dist = mdp.delta2[(s, b)]
            assert dist and all(p > 0 for p in dist.values())
            assert sum(dist.values()) == ONE


def test_zero_entry_off_the_edges_is_no_exit():
    # The random node r lists the target with probability 0.  Player 1's
    # pick s0 -> r loops s0 -> r -> s0 forever: improper, with that loop as
    # its trap, on the graph and on the concurrent encoding alike.
    tb = parse_game(
        """
        {"type": "turn-based", "states": ["s0", "r", "T"],
         "partition": {"s0": "P1", "r": "R", "T": "P2"},
         "edges": {"s0": ["r", "T"], "r": ["s0"], "T": ["T"]},
         "prob": {"r": {"s0": "1", "T": "0"}}}
        """
    )
    assert tb.prob["r"]["T"] == 0
    w2 = tb_value_zero(tb, {"T"})
    assert not w2
    with pytest.raises(ImproperSelectorError) as err:
        tb_strategy_value_reach(tb, {"s0": "r"}, {"T"}, w2)
    assert err.value.witness == {"s0", "r"}
    game = encode_turn_based_as_concurrent(tb)
    with pytest.raises(ImproperSelectorError) as err:
        xi = pure_selector(game, 1, {"s0": "to-r"})
        strategy_value_reach(game, xi, {"T"}, compute_W2(game, {"T"}))
    assert err.value.witness == {"s0", "r"}
    assert tb_strategy_value_reach(tb, {"s0": "T"}, {"T"}, w2) == {"s0": ONE, "r": ONE, "T": ONE}
    assert tb_induce_mdp(tb, {"s0": "r"}, {"T"}).delta2[("r", NOOP_MOVE)] == {"s0": ONE}
