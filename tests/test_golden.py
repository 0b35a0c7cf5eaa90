"""Byte-for-byte CLI output on the bundled examples.

Every case runs ``congame solve`` in process, from inside a directory the
examples were written to, with a relative input path (the report echoes
it).  ``tests/golden/index.json`` holds each case's argv and exit code;
``<case>.out`` its stdout and ``<case>.err`` its stderr when that is not
empty.

Record the cases missing from the index with::

    PYTHONPATH=src python tests/test_golden.py --record

It writes nothing, and exits non-zero naming them, if any recorded case's
argv or output differs from what the current code produces; a changed
case is re-recorded only by deleting its entry first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from congame.cli import main

GOLDEN = Path(__file__).parent / "golden"

OBJECTIVES = {
    "fig1": ("reach:s0", "safe:not-s0"),
    "fig2": ("reach:s4", "safe:not-s4"),
    "ex3step1": ("reach:s1", "safe:not-s1"),
    "ex3full": ("reach:s2", "safe:not-s2"),
}
REACH_ALGORITHMS = ("vi", "reach-si")
SAFE_ALGORITHMS = ("vi", "safety-si", "k-uniform", "convergent", "certify")
COMMON = ("--max-iters", "8", "--verify", "--trace")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, (reach, safe) in OBJECTIVES.items():
        for objective, algorithms in ((reach, REACH_ALGORITHMS), (safe, SAFE_ALGORITHMS)):
            kind = objective.partition(":")[0]
            for algorithm in algorithms:
                for fmt in ("text", "json"):
                    cases[f"{name}-{kind}-{algorithm}-{fmt}"] = [
                        "solve", f"{name}.game", "--objective", objective,
                        "--algorithm", algorithm, *COMMON, "--format", fmt,
                    ]
    # Early value-iteration stops, where the entry-time selector is no witness.
    for name, (reach, _) in OBJECTIVES.items():
        cases[f"{name}-reach-vi2-json"] = [
            "solve", f"{name}.game", "--objective", reach, "--algorithm", "vi",
            "--max-iters", "2", "--verify", "--format", "json",
        ]
    # Turn-based reach-si over two rounds (the reach:s4 cases take one),
    # and capped after the first.
    for fmt in ("text", "json"):
        cases[f"fig2-reach-s2-reach-si-{fmt}"] = [
            "solve", "fig2.game", "--objective", "reach:s2", "--algorithm", "reach-si",
            "--verify", "--format", fmt,
        ]
    cases["fig2-reach-s2-reach-si-capped-text"] = [
        "solve", "fig2.game", "--objective", "reach:s2", "--algorithm", "reach-si",
        "--max-iters", "1", "--verify",
    ]
    # Inline algorithm arguments and the --eps / --k options.
    cases["ex3full-safe-k-uniform5-text"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "k-uniform:5", "--verify",
    ]
    cases["ex3step1-safe-k-uniform-k3-json"] = [
        "solve", "ex3step1.game", "--objective", "safe:not-s1",
        "--algorithm", "k-uniform", "--k", "3", "--format", "json",
    ]
    cases["ex3full-safe-certify50-json"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "certify:1/50", "--verify", "--format", "json",
    ]
    cases["ex3full-safe-certify-eps-text"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "certify", "--eps", "1/10", "--verify",
    ]
    # Small eps: 66 convergent rounds, k from 5 to 70.
    cases["ex3full-safe-certify-1e4-json"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "certify:1/10000", "--verify", "--format", "json",
    ]
    # Smaller eps: 404 convergent rounds, so each k-uniform scan is grown
    # by hundreds of denominator layers.
    cases["ex3full-safe-certify-eps1e-5-json"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "certify:1/100000", "--verify", "--max-iters", "2000",
        "--format", "json",
    ]
    # The turn-based reduction prints every support pair and its witness,
    # at the start valuation and after two safety improvement rounds.
    for name, (_, safe) in OBJECTIVES.items():
        for iters in ("0", "2"):
            cases[f"{name}-dump-tb-si{iters}"] = [
                "dump-tb", f"{name}.game", "--objective", safe, "--si-iters", iters,
            ]
    cases["ex3full-dump-tb-si2-k3"] = [
        "dump-tb", "ex3full.game", "--objective", "safe:not-s2", "--si-iters", "2",
        "--k", "3",
    ]
    # A held state with 2 x 2 moves: s0 is unsafe here, so it is held at
    # its value.  Value iteration's safety witness plays its first move
    # there; the reduction lists every support at s0 against both columns,
    # and with k = 1 only the single moves.
    cases["ex3step1-safe-not-s0-vi-text"] = [
        "solve", "ex3step1.game", "--objective", "safe:not-s0", "--algorithm", "vi",
        "--verify",
    ]
    cases["ex3step1-dump-tb-not-s0"] = [
        "dump-tb", "ex3step1.game", "--objective", "safe:not-s0",
    ]
    cases["ex3step1-dump-tb-not-s0-k1"] = [
        "dump-tb", "ex3step1.game", "--objective", "safe:not-s0", "--k", "1",
    ]
    # Errors: each algorithm given the objective kind it does not solve,
    # an unknown algorithm and malformed inline arguments.
    for algorithm in ("reach-si", "safety-si", "k-uniform", "convergent", "certify"):
        objective = "safe:not-s0" if algorithm == "reach-si" else "reach:s0"
        cases[f"error-{algorithm}-wrong-kind"] = [
            "solve", "fig1.game", "--objective", objective, "--algorithm", algorithm,
        ]
    cases["error-unknown-algorithm"] = [
        "solve", "fig1.game", "--objective", "reach:s0", "--algorithm", "nope:3",
    ]
    cases["error-k-uniform-bad-k"] = [
        "solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "k-uniform:x",
    ]
    cases["error-certify-bad-eps"] = [
        "solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "certify:1/x",
    ]
    # Out-of-range caps and options an algorithm does not read.
    for algorithm, value in (("vi", "0"), ("safety-si", "-1"), ("convergent", "-1")):
        objective = "reach:s0" if algorithm == "vi" else "safe:not-s0"
        cases[f"error-{algorithm}-max-iters{value}"] = [
            "solve", "fig1.game", "--objective", objective, "--algorithm", algorithm,
            "--max-iters", value,
        ]
    cases["error-k-uniform-k0"] = [
        "solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "k-uniform",
        "--k", "0",
    ]
    # An enumeration over its budget: C(1002, 2) - 1 compositions at s0.
    cases["error-k-uniform-budget"] = [
        "solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "k-uniform",
        "--k", "1000",
    ]
    cases["error-vi-eps"] = [
        "solve", "fig1.game", "--objective", "reach:s0", "--algorithm", "vi", "--eps", "junk",
    ]
    cases["error-safety-si-k"] = [
        "solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "safety-si",
        "--k", "3",
    ]
    # Inline arguments to algorithms that take none.
    cases["error-vi-inline"] = [
        "solve", "fig1.game", "--objective", "reach:s0", "--algorithm", "vi:3",
    ]
    cases["error-safety-si-inline"] = [
        "solve", "fig1.game", "--objective", "safe:not-s0", "--algorithm", "safety-si:5",
    ]
    return cases


CASES = _cases()


def _run(argv: list[str], workdir: Path) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def _write_examples(directory: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["examples", "--write", str(directory)]) == 0


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _write_examples(path)
    return path


@pytest.fixture(scope="module")
def index():
    return json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def test_index_lists_every_case(index):
    assert {name: entry["argv"] for name, entry in index.items()} == CASES


def _recorded(name: str, index: dict) -> tuple[str, str, int]:
    """The stdout, stderr and exit code on file for a recorded case."""
    err_file = GOLDEN / f"{name}.err"
    err = err_file.read_text(encoding="utf-8") if err_file.exists() else ""
    return (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), err, index[name]["exit"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, index, example_dir):
    assert _run(CASES[name], example_dir) == _recorded(name, index)


def _record() -> None:
    """Write the cases missing from the index, after checking every
    recorded one still reproduces."""
    GOLDEN.mkdir(exist_ok=True)
    index_file = GOLDEN / "index.json"
    index = json.loads(index_file.read_text(encoding="utf-8")) if index_file.exists() else {}
    changed, new = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_examples(workdir)
        for name, argv in CASES.items():
            result = _run(argv, workdir)
            if name not in index:
                new[name] = result
            elif index[name]["argv"] != argv or result != _recorded(name, index):
                changed.append(name)
    if changed:
        sys.exit(f"recorded cases differ, nothing written: {', '.join(changed)}")
    for name, (out, err, code) in new.items():
        index[name] = {"argv": CASES[name], "exit": code}
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
    index_file.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(new)} new case(s): {', '.join(new) or 'none'}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
