"""The text the command line writes: ``dump_json`` against the standard
library's writer, rationals printed past CPython's digit limit, and
``decimal_string`` against a ``Fraction`` reference."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congame.cli import decimal_string
from congame.gamefile import dump_json, format_fraction

TRICKY = st.sampled_from(
    ["⊥", "é", "😀", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "/", " ", "a"]
)
TEXT = st.text(max_size=6) | st.lists(TRICKY, max_size=6).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(DOCS)
def test_dump_json_writes_the_stdlib_bytes(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


@pytest.mark.parametrize(
    "doc", [1.5, {"a": [0.0]}, {1: "a"}, [{None: 1}], {"a": {True: "b"}}, (1, 2)]
)
def test_dump_json_rejects_other_types(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def _full_str(x) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "x",
    [
        Fraction(3**20000, 2**30001 + 1),
        Fraction(-(7**9000)),
        Fraction(1, 10**9000),
        Fraction(10**4299 + 1, 3),
        Fraction(10**12000 - 1, 10**4300),
        Fraction(-5, 7),
    ],
)
def test_format_fraction_prints_past_the_digit_limit(x):
    assert format_fraction(x) == _full_str(x)


def test_decimal_string_matches_a_fraction_reference():
    rng = random.Random(5)
    for _ in range(2000):
        x = Fraction(rng.randint(0, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 30)))
        digits = rng.choice([0, 1, 5, 20])
        n = math.floor(x * 10**digits + Fraction(1, 2))
        whole, frac = divmod(n, 10**digits)
        assert decimal_string(x, digits) == f"{whole}.{frac:0{digits}d}"
    assert decimal_string(Fraction(1, 8), 2) == "0.13"
    assert decimal_string(Fraction(3, 8), 2) == "0.38"
