"""Output does not depend on the hash seed.

The golden cases run in process, under one hash seed.  These run the CLI in
fresh interpreters under two ``PYTHONHASHSEED`` values, on invocations that
reach set and dict iteration in every solver layer (the certifier with its
witness audit, a k-uniform fixpoint, convergent rounds that grow cached
k-uniform scans, concurrent and turn-based reach-si, safety-si with its
non-local step, and the turn-based reduction), and compare their standard
output byte for byte.  The qualitative sets (W2, the properness trap, W1
and the non-local step's fixpoint) number their options in set order, and
these invocations reach each of them on a concurrent game: capped at five
rounds, ``safety-si`` on ex3full takes the local step every round, so the
non-local fixpoint that switches states is reached on fig2's encoding.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import congame
from congame.examples import EXAMPLE_NAMES, example_text

SRC = str(Path(congame.__file__).resolve().parents[1])
SEEDS = ("0", "777")
INVOCATIONS = {
    "certify": [
        "solve", "ex3full.game", "--objective", "safe:not-s2",
        "--algorithm", "certify:1/1000", "--verify", "--format", "json",
    ],
    "k-uniform": [
        "solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "k-uniform:5",
        "--verify",
    ],
    "convergent": [
        "solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "convergent",
        "--max-iters", "16", "--verify",
    ],
    "tb-reach-si": [
        "solve", "fig2.game", "--objective", "reach:s2", "--algorithm", "reach-si", "--verify",
    ],
    "reach-si": [
        "solve", "fig1.game", "--objective", "reach:s0", "--algorithm", "reach-si", "--verify",
    ],
    "safety-si": [
        "solve", "ex3full.game", "--objective", "safe:not-s2", "--algorithm", "safety-si",
        "--max-iters", "5", "--verify",
    ],
    "safety-si-nonlocal": [
        "solve", "fig2.game", "--objective", "safe:not-s4", "--algorithm", "safety-si", "--verify",
    ],
    "dump-tb": ["dump-tb", "ex3full.game", "--objective", "safe:not-s2", "--si-iters", "2", "--k", "3"],
}


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("examples")
    for name in EXAMPLE_NAMES:
        (directory / f"{name}.game").write_text(example_text(name), encoding="utf-8")
    return directory


def _stdout(argv: list[str], seed: str, cwd: Path) -> bytes:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "congame.cli", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=120, check=False,
    )
    assert done.returncode in (0, 2), done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("case", list(INVOCATIONS))
def test_stdout_is_the_same_under_two_hash_seeds(case, example_dir):
    first, second = (_stdout(INVOCATIONS[case], seed, example_dir) for seed in SEEDS)
    assert first
    assert first == second
