"""Bundled example games.

Four small games ship with the package: ``fig1`` (a five-state MDP whose
one-step-optimal mixture is not reachability-optimal), ``fig2`` (a
turn-based safety game where local improvement stalls below the value),
``ex3step1`` (a three-state concurrent game whose value 2 - sqrt(2) is
irrational) and ``ex3full`` (its six-state extension on which the plain
safety improvement converges strictly below the value while the convergent
variant does not).
"""

from __future__ import annotations

from importlib import resources

EXAMPLE_NAMES = ("fig1", "fig2", "ex3step1", "ex3full")

# Objective each example is normally studied with.
EXAMPLE_OBJECTIVES = {
    "fig1": ("reach", ["s0"]),
    "fig2": ("safe-complement", ["s4"]),
    "ex3step1": ("reach", ["s1"]),
    "ex3full": ("safe-complement", ["s2"]),
}


def example_text(name: str) -> str:
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; have {', '.join(EXAMPLE_NAMES)}")
    return (
        resources.files("congame")
        .joinpath("_examples", f"{name}.game")
        .read_text(encoding="utf-8")
    )

