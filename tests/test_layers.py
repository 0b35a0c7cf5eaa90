"""The one-step layer boundary of ``src/congame``, read from the source.

``matrix`` answers every one-step question, so it is the only module that
runs the simplex, touches a game's one-step cache or reads a matrix game's
``Fraction`` payoff, and the other modules use it through its public names
and the integer cells of its matrices.  Across the package, one private name
is imported outside its module: ``safety_si`` runs the non-local step on
``mdp._greatest_fixpoint``, the counting routine behind every qualitative set.
"""

from __future__ import annotations

import ast
from pathlib import Path

import congame

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


def test_only_matrix_reads_the_fraction_payoff():
    # Outside ``matrix`` a one-step matrix is read as integer cells over a
    # scale; ``MatrixGame.payoff`` is the view the simplex paths build.
    assert _attribute_readers("payoff") == {"matrix"}


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
