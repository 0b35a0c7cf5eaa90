"""The one-step layer boundary of ``src/congame``, read from the source.

``matrix`` answers every one-step question, so it is the only module that
runs the simplex or touches a game's one-step cache, and the other modules
use it through its public names and the integer cells of its matrices.  A
matrix game is those cells over a scale and nothing more: no module reads a
``Fraction`` payoff, and the one-step layer hands the simplex integer rows.
A selector, which every layer passes around, is a plain dict, and so is
the MDP that fixing one leaves player 2.
Across the package, one private name is imported outside its module:
``safety_si`` runs the non-local step on ``mdp._greatest_fixpoint``, the
counting routine behind every qualitative set.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import congame
import congame.cli
import congame.linprog
import congame.matrix
from congame.gamefile import serialize_game
from congame.matrix import MatrixGame

from conftest import random_concurrent_game

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(congame.__file__).parent.glob("*.py"))
}


def _imports(tree: ast.Module):
    """``(module, name)`` for each name imported from a package module,
    with ``module`` relative to the package ("" for the package itself)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "congame" and not module.startswith("congame."):
                    continue
                module = module.removeprefix("congame").removeprefix(".")
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("congame."):
                    yield alias.name.removeprefix("congame."), None


def test_only_matrix_imports_linprog():
    users = {
        name
        for name, tree in SOURCES.items()
        for module, imported in _imports(tree)
        if module == "linprog" or (module == "" and imported == "linprog")
    }
    assert users == {"matrix"}


def _attribute_readers(attr: str) -> set[str]:
    """The modules with an ``x.<attr>`` expression."""
    return {
        name
        for name, tree in SOURCES.items()
        if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))
    }


def test_only_matrix_reads_the_one_step_cache():
    for attr in ("one_step_cache", "one_step_rows"):
        assert _attribute_readers(attr) == {"matrix"}
        # model defines it.
        assert any(
            isinstance(node, ast.FunctionDef) and node.name == attr
            for node in ast.walk(SOURCES["model"])
        )


def test_no_module_reads_a_fraction_payoff():
    # A one-step matrix is read as integer cells over a scale everywhere,
    # the simplex programs included; no module keeps a ``Fraction`` view.
    assert _attribute_readers("payoff") == set()


def test_selectors_are_plain_maps(ex3step1):
    # A selector is a dict of mixtures, like a valuation a dict of values:
    # no module wraps one or reads a field of one.
    assert _attribute_readers("choice") == set()
    assert congame.Selector == dict[str, dict[str, F]]
    selector = congame.uniform_selector(ex3step1)
    assert type(selector) is dict
    assert selector["s0"] == {"a": F(1, 2), "b": F(1, 2)}


def test_induced_mdps_are_plain_maps(fig1):
    # An induced MDP is a dict of per-state action distributions: no module
    # names an action or keys a distribution by (state, action).
    for attr in ("delta2", "actions"):
        assert _attribute_readers(attr) == set()
    assert congame.InducedMDP == dict[str, list[dict[str, F]]]
    mdp = congame.induce_mdp(fig1, congame.uniform_selector(fig1))
    assert type(mdp) is dict
    assert mdp["s3"] == [{"s4": F(1, 2), "s2": F(1, 2)}]


def test_matrix_game_is_its_canonical_form():
    assert [f.name for f in dataclasses.fields(MatrixGame)] == ["rows", "cols", "cells", "scale"]
    rows, cols = ("a", "b"), ("c",)
    reduced = MatrixGame.of(rows, cols, ((F(1, 3),), (F(2, 3),)))
    assert reduced == MatrixGame(rows, cols, ((1,), (2,)), 3)


def test_one_step_lps_have_integer_rows(capsys, tmp_path, monkeypatch):
    # Every coefficient and right-hand side the one-step layer hands the
    # simplex during a solve on a game with a 3 x 3 state is an ``int``,
    # for both the matrix-game LP and the slack LP.
    structure = random_concurrent_game(random.Random(47), n_states=5, max_moves=3)
    assert any(len(structure.moves1[s]) == len(structure.moves2[s]) == 3 for s in structure.states)
    game = tmp_path / "three-moves.game"
    game.write_text(serialize_game(structure), encoding="utf-8")
    programs = []
    solve_lp = congame.matrix.solve_lp

    def recording(objective, rows, senses, rhs):
        programs.append((objective, rows, rhs))
        return solve_lp(objective, rows, senses, rhs)

    monkeypatch.setattr(congame.matrix, "solve_lp", recording)
    argv = ["solve", str(game), "--objective", "safe:not-q0", "--algorithm", "safety-si"]
    assert congame.cli.main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nonlocal_step_fired"] is True
    # The matrix-game LP maximizes g+ - g-, the slack LP its last variable.
    kinds = Counter("game" if program[0][-2:] == [1, -1] else "slack" for program in programs)
    assert kinds["game"] > 0 and kinds["slack"] > 0
    for objective, rows, rhs in programs:
        numbers = [*objective, *rhs, *(x for row in rows for x in row)]
        assert all(type(x) is int for x in numbers)


def test_simplex_takes_one_program_form():
    # The simplex maximizes over integer >= and == rows, the one form the
    # one-step layer builds: no objective flag, no <= sense, and no lcm
    # set-up for rational input.
    assert list(inspect.signature(congame.linprog.solve_lp).parameters) == [
        "objective", "rows", "senses", "rhs",
    ]
    assert not hasattr(congame.linprog, "LEQ")
    modules = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(SOURCES["linprog"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "math" not in modules


def test_matrix_private_names_stay_in_matrix():
    private = {
        (name, imported)
        for name, tree in SOURCES.items()
        for module, imported in _imports(tree)
        if module == "matrix" and imported and imported.startswith("_")
    }
    assert private == set()


def test_one_private_import_across_modules():
    private = {
        (name, module, imported)
        for name, tree in SOURCES.items()
        for module, imported in _imports(tree)
        if imported and imported.startswith("_")
    }
    assert private == {("safety_si", "mdp", "_greatest_fixpoint")}
