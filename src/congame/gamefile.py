"""Reading and writing game files.

A game file is a JSON document.  Every probability is written as an exact
rational string like ``"1/2"`` or ``"1"``; decimal floats are rejected so
that parsing never loses precision, and so is exponent notation
(``"1e-3"``).

Concurrent games::

    {"type": "concurrent",
     "states": ["s0", "s1"],
     "moves1": {"s0": ["a", "b"], "s1": ["x"]},
     "moves2": {"s0": ["c"], "s1": ["x"]},
     "delta": {"s0": {"a": {"c": {"s1": "1"}},
                      "b": {"c": {"s0": "1/2", "s1": "1/2"}}},
               "s1": {"x": {"x": {"s1": "1"}}}}}

Turn-based games::

    {"type": "turn-based",
     "states": ["s0", "s1"],
     "partition": {"s0": "P1", "s1": "R"},
     "edges": {"s0": ["s1"], "s1": ["s1"]},
     "prob": {"s1": {"s1": "1"}}}

Unknown top-level keys (for instance ``back_map`` annotations emitted by
``dump-tb``) are ignored, so dumped games parse back unchanged.

Writing goes through two helpers that the command line shares:
``format_fraction`` prints a rational in full, however many digits it has,
and ``dump_json`` writes an indented document.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Callable

from .model import GameStructure, TurnBasedGame, GameError


class GameFormatError(GameError):
    """Malformed game document; the message carries the offending location."""


def parse_fraction(text: object, where: str | Callable[[], str]) -> Fraction:
    """The rational ``text`` names; ``where`` (or what it returns, called
    only to report an error) locates it in the input.

    An ASCII-digit ``n`` or ``n/d`` with nonzero ``d``, the form games are
    written in, is read with ``int``; every other string goes through
    ``Fraction``, so the accepted language and the messages do not depend
    on that shortcut.
    """
    if isinstance(text, str):
        try:
            if text.isascii():
                n, slash, d = text.partition("/")
                if n.isdigit():
                    if not slash:
                        return Fraction(int(n))
                    if d.isdigit() and d.strip("0"):
                        return Fraction(int(n), int(d))
            # Exponent notation is not the documented form, and a large
            # exponent would make ``Fraction`` build an integer of that many
            # digits.
            if "e" in text or "E" in text:
                raise ValueError("exponent notation")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"{_located(where)}: cannot parse rational {text!r}") from exc
    raise GameFormatError(
        f"{_located(where)}: probabilities must be exact rational strings, got {text!r}"
    )


def _located(where: str | Callable[[], str]) -> str:
    return where() if callable(where) else where


def format_fraction(x: Fraction) -> str:
    """``str(x)``, also past CPython's limit on printing long integers
    (``sys.get_int_max_str_digits``), which this never changes."""
    try:
        return str(x)
    except ValueError:
        numerator = _int_str(x.numerator)
        return numerator if x.denominator == 1 else f"{numerator}/{_int_str(x.denominator)}"


def _int_str(n: int) -> str:
    """Decimal digits of ``n``: halves too long for ``str`` are split at a
    power of ten and printed separately."""
    if n < 0:
        return "-" + _int_str(-n)
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(n, 10**half)
        return _int_str(high) + _int_str(low).zfill(half)


def _string_list(doc: dict, key: str) -> list[str]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise GameFormatError(f"field {key!r} must be a list of strings")
    return value


def _parse_concurrent(doc: dict) -> GameStructure:
    states = _string_list(doc, "states")
    known = set(states)
    moves1: dict[str, tuple[str, ...]] = {}
    moves2: dict[str, tuple[str, ...]] = {}
    moves: list[str] = []
    seen_moves: set[str] = set()
    for key, out in (("moves1", moves1), ("moves2", moves2)):
        table = doc.get(key)
        if not isinstance(table, dict):
            raise GameFormatError(f"field {key!r} must be an object")
        for s in table:
            if s not in known:
                raise GameFormatError(f"{key}: unknown state {s!r}")
        for s in states:
            avail = table.get(s)
            if not isinstance(avail, list) or not avail:
                raise GameFormatError(f"{key}[{s!r}] must be a nonempty move list")
            out[s] = tuple(avail)
            for a in avail:
                if not isinstance(a, str):
                    raise GameFormatError(f"{key}[{s!r}]: move ids must be strings")
            if len(set(avail)) != len(avail):
                raise GameFormatError(f"{key}[{s!r}]: duplicate move ids")
            for a in avail:
                if a not in seen_moves:
                    seen_moves.add(a)
                    moves.append(a)
    table = doc.get("delta")
    if not isinstance(table, dict):
        raise GameFormatError("field 'delta' must be an object")
    delta: dict[tuple[str, str, str], dict[str, Fraction]] = {}
    for s, by_a in table.items():
        if s not in known:
            raise GameFormatError(f"delta: unknown state {s!r}")
        if not isinstance(by_a, dict):
            raise GameFormatError(f"delta[{s!r}] must be an object")
        for a, by_b in by_a.items():
            if a not in moves1.get(s, ()):
                raise GameFormatError(f"delta[{s!r}]: move {a!r} not in moves1[{s!r}]")
            if not isinstance(by_b, dict):
                raise GameFormatError(f"delta[{s!r}][{a!r}] must be an object")
            for b, dist in by_b.items():
                if b not in moves2.get(s, ()):
                    raise GameFormatError(f"delta[{s!r}][{a!r}]: move {b!r} not in moves2[{s!r}]")
                if not isinstance(dist, dict):
                    raise GameFormatError(f"delta[{s!r}][{a!r}][{b!r}] must be an object")
                parsed = {}
                for t, p in dist.items():
                    if t not in known:
                        raise GameFormatError(
                            f"delta[{s!r}][{a!r}][{b!r}]: unknown successor {t!r}"
                        )
                    parsed[t] = parse_fraction(p, lambda: f"delta[{s!r}][{a!r}][{b!r}][{t!r}]")
                delta[(s, a, b)] = parsed
    try:
        return GameStructure(tuple(states), tuple(moves), moves1, moves2, delta)
    except GameError as exc:
        raise GameFormatError(str(exc)) from exc


def _parse_turn_based(doc: dict) -> TurnBasedGame:
    states = _string_list(doc, "states")
    known = set(states)
    table = doc.get("partition")
    if not isinstance(table, dict):
        raise GameFormatError("field 'partition' must be an object")
    partition = {}
    for s in states:
        partition[s] = table.get(s)
    edges_doc = doc.get("edges")
    if not isinstance(edges_doc, dict):
        raise GameFormatError("field 'edges' must be an object")
    edges = {}
    for s in states:
        succ = edges_doc.get(s)
        if not isinstance(succ, list) or not succ:
            raise GameFormatError(f"edges[{s!r}] must be a nonempty list")
        if not all(isinstance(t, str) for t in succ):
            raise GameFormatError(f"edges[{s!r}]: successor ids must be strings")
        edges[s] = tuple(succ)
    prob_doc = doc.get("prob", {})
    if not isinstance(prob_doc, dict):
        raise GameFormatError("field 'prob' must be an object")
    prob = {}
    for s, dist in prob_doc.items():
        if s not in known:
            raise GameFormatError(f"prob: unknown state {s!r}")
        if not isinstance(dist, dict):
            raise GameFormatError(f"prob[{s!r}] must be an object")
        prob[s] = {t: parse_fraction(p, lambda: f"prob[{s!r}][{t!r}]") for t, p in dist.items()}
    try:
        return TurnBasedGame(tuple(states), partition, edges, prob)
    except GameError as exc:
        raise GameFormatError(str(exc)) from exc


def parse_game(text: str) -> GameStructure | TurnBasedGame:
    """Parse a game document, concurrent or turn-based."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level document must be an object")
    kind = doc.get("type")
    if kind == "concurrent":
        return _parse_concurrent(doc)
    if kind == "turn-based":
        return _parse_turn_based(doc)
    raise GameFormatError(
        f"field 'type' must be 'concurrent' or 'turn-based', got {kind!r}"
    )


def load_game(path: str) -> GameStructure | TurnBasedGame:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"not valid UTF-8: {exc}") from exc
    return parse_game(text)


def serialize_game(game: GameStructure | TurnBasedGame, extra: dict | None = None) -> str:
    """Render a game back to its document form (parse/serialize round-trips).

    Probabilities print in full (``format_fraction``), and ``dump_json``
    writes the document as the standard library would with ``indent=2``
    and ``ensure_ascii=False``.  ``extra`` holds further
    top-level keys, such as ``dump-tb``'s annotations.
    """
    doc: dict = {}
    if isinstance(game, GameStructure):
        doc["type"] = "concurrent"
        doc["states"] = list(game.states)
        doc["moves1"] = {s: list(game.moves1[s]) for s in game.states}
        doc["moves2"] = {s: list(game.moves2[s]) for s in game.states}
        delta: dict = {}
        for s in game.states:
            by_a: dict = {}
            for a in game.moves1[s]:
                by_b = {}
                for b in game.moves2[s]:
                    dist = game.delta[(s, a, b)]
                    by_b[b] = {
                        t: format_fraction(p) for t, p in dist.items() if p > 0
                    }
                by_a[a] = by_b
            delta[s] = by_a
        doc["delta"] = delta
    else:
        doc["type"] = "turn-based"
        doc["states"] = list(game.states)
        doc["partition"] = {s: game.partition[s] for s in game.states}
        doc["edges"] = {s: list(game.edges[s]) for s in game.states}
        doc["prob"] = {
            s: {t: format_fraction(p) for t, p in game.prob[s].items()}
            for s in game.states
            if s in game.prob
        }
    if extra:
        doc.update(extra)
    return dump_json(doc)


def dump_json(doc) -> str:
    """The standard library's text for ``indent=2, ensure_ascii=False``,
    byte for byte, for documents of ``str``, ``int``, ``bool``, ``None``,
    ``list`` and ``dict`` with ``str`` keys; anything else raises
    ``TypeError``.

    The standard writer falls back to its pure-Python encoder whenever
    ``indent`` is set; this one does less per value and escapes strings
    with the C-backed ``encode_basestring``.
    """
    out: list[str] = []
    _write_value(doc, out, "\n")
    return "".join(out)


def _write_value(value, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out``; its nested lines start with ``newline``
    and two more spaces."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _write_value(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(item, str):
                # Most values are strings: write them without a call.
                out.append(f"{separator}{encode_basestring(key)}: {encode_basestring(item)}")
            else:
                out.append(f"{separator}{encode_basestring(key)}: ")
                _write_value(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
