"""Property test: a mutated game document parses or fails cleanly.

Valid concurrent and turn-based documents are mutated a few times each
(dropped keys, values of the wrong type, unknown or renamed ids, added
entries, zero-probability entries, bad, negative or unnormalized
rationals, exponent notation).  Every outcome must be a parsed game, one
that a turn-based game also encodes as a concurrent one, or a
``GameFormatError``; anything else escapes ``congame validate`` as an
error without the file path, or as a traceback.  The run is derandomized
and bounded, so it is the same 200 documents every time.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from congame import (
    GameFormatError,
    GameStructure,
    TurnBasedGame,
    encode_turn_based_as_concurrent,
    parse_game,
)
from congame.examples import EXAMPLE_NAMES, example_text

SMALL_TB = {
    "type": "turn-based",
    "states": ["s0", "s1", "s2"],
    "partition": {"s0": "P1", "s1": "P2", "s2": "R"},
    "edges": {"s0": ["s1", "s2"], "s1": ["s0", "s2"], "s2": ["s0", "s2"]},
    "prob": {"s2": {"s0": "1/3", "s2": "2/3"}},
}
BASES = {name: json.loads(example_text(name)) for name in EXAMPLE_NAMES}
BASES["small-tb"] = SMALL_TB

IDS = st.sampled_from(["zz", "", "s0", "s2", "a", "⊥", "to-s1", "P1", "R"])
# Exponent notation is rejected before ``Fraction`` sees it, which would
# otherwise build an integer with as many digits as the exponent says.
EXPONENTS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "-1", "0", "2.5", "1/2"]),
    st.sampled_from(["e", "E"]),
    st.sampled_from(["-10000000", "+5000000", "0", "-3", "+2"]),
)
RATIONALS = EXPONENTS | st.sampled_from(
    ["1/0", "abc", "", " ", "1//2", "nan", "inf", "0.5", "-1/2", "-0", "0", "2", "3/2", "1/3"]
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | RATIONALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(IDS, inner, max_size=3),
    max_leaves=6,
)
ZEROS = st.sampled_from(["0", "-0", "0/7"])
MUTATIONS = ("drop", "replace", "rename", "add", "extend", "rational")


def _slots(node):
    """Every (container, key) pair below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _mutate(doc: dict, data) -> None:
    slots = list(_slots(doc))
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind in ("add", "extend"):
        # "extend" adds an entry, often of probability zero, to a table of
        # strings: a distribution, or the partition.
        tables = [doc] + [parent[key] for parent, key in slots if isinstance(parent[key], dict)]
        if kind == "extend":
            tables = [t for t in tables if t and all(isinstance(x, str) for x in t.values())]
            if not tables:
                return
        table = tables[data.draw(st.integers(0, len(tables) - 1))]
        table[data.draw(IDS)] = data.draw(ZEROS | RATIONALS if kind == "extend" else RATIONALS | JSON)
        return
    if not slots:
        return
    parent, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = data.draw(JSON)
    elif kind == "rational":
        parent[key] = data.draw(RATIONALS)
    elif isinstance(parent, dict):
        parent[data.draw(IDS)] = parent.pop(key)
    else:
        parent[key] = data.draw(IDS)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_mutated_documents_parse_or_fail_cleanly(name, data):
    doc = copy.deepcopy(BASES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        game = parse_game(json.dumps(doc))
    except GameFormatError:
        return
    if isinstance(game, TurnBasedGame):
        encode_turn_based_as_concurrent(game)
    else:
        assert isinstance(game, GameStructure)
