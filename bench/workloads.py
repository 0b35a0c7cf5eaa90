"""Seeded inputs and job lists for the benchmark workloads.

A workload is a finite pool of ``congame solve`` jobs that the closed loop in
``run.py`` cycles through.  Every random game is drawn from its own
``random.Random`` seeded with a string naming the workload, the seed and the
game's index, so game ``i`` is the same whatever else was generated, and it
does not depend on ``PYTHONHASHSEED``.  Game files are written lazily, just
before a job first uses them, outside the timed region.

The generators are this benchmark's own copies of the ones the tests use:
they emit the documented game-file format directly and import nothing from
``congame`` or ``tests``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Exit codes of `congame solve`: 0 exact or eps-approx, 2 capped.
EXACT_ONLY = frozenset({0})
EXACT_OR_CAPPED = frozenset({0, 2})

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` excludes the program name."""

    id: str
    argv: tuple[str, ...]
    expect_codes: frozenset[int]
    path: Path
    write_input: Callable[[Path], None] | None

    def prepare(self) -> None:
        if self.write_input is not None and not self.path.exists():
            self.write_input(self.path)


@dataclass(frozen=True)
class Workload:
    name: str
    workdir: Path  # game files are written here
    pool: tuple[Job, ...]
    # Jobs per unit of work: a unit is that many consecutive jobs of the
    # pool, and the timed loop stops only between units.
    unit_jobs: int
    trace_jobs: int  # the traced run repeats this prefix of the pool


def _cuts(rng: random.Random, den: int, parts: int) -> list[int]:
    """Split ``den`` into ``parts`` positive integer weights."""
    cuts = sorted(rng.sample(range(1, den), parts - 1)) if parts > 1 else []
    weights = []
    last = 0
    for cut in cuts + [den]:
        weights.append(cut - last)
        last = cut
    return weights


def _random_distribution(rng: random.Random, targets: list[str], max_den: int = 4) -> dict[str, str]:
    den = rng.randint(1, max_den)
    support = rng.sample(targets, rng.randint(1, min(2, len(targets), den)))
    return {t: str(Fraction(w, den)) for t, w in zip(support, _cuts(rng, den, len(support)))}


def random_concurrent_game(rng: random.Random, n_states: int, max_moves: int) -> dict:
    """Each state gets 1..max_moves moves per player and, for each move
    pair, a distribution with denominator at most 4 over one or two
    random successors."""
    pool = ("a", "b", "c")[:max_moves]
    states = [f"q{i}" for i in range(n_states)]
    moves1: dict[str, list[str]] = {}
    moves2: dict[str, list[str]] = {}
    delta: dict[str, dict] = {}
    for s in states:
        moves1[s] = list(pool[: rng.randint(1, max_moves)])
        moves2[s] = list(pool[: rng.randint(1, max_moves)])
        delta[s] = {
            a: {b: _random_distribution(rng, states) for b in moves2[s]} for a in moves1[s]
        }
    return {"type": "concurrent", "states": states, "moves1": moves1, "moves2": moves2, "delta": delta}


def random_tb_game(rng: random.Random, n_states: int, max_succ: int) -> dict:
    """Each state is owned by P1, P2 or R and has 1..max_succ distinct
    successors; random states spread over them with denominator at most
    (successors + 3)."""
    states = [f"q{i}" for i in range(n_states)]
    partition: dict[str, str] = {}
    edges: dict[str, list[str]] = {}
    prob: dict[str, dict[str, str]] = {}
    for s in states:
        partition[s] = rng.choice(("P1", "P2", "R"))
        succ = rng.sample(states, rng.randint(1, min(max_succ, n_states)))
        edges[s] = succ
        if partition[s] == "R":
            den = rng.randint(len(succ), len(succ) + 3)
            prob[s] = {t: str(Fraction(w, den)) for t, w in zip(succ, _cuts(rng, den, len(succ)))}
    return {"type": "turn-based", "states": states, "partition": partition, "edges": edges, "prob": prob}


def _writer(make: Callable[[random.Random], dict], rng_seed: str) -> Callable[[Path], None]:
    def write(path: Path) -> None:
        doc = make(random.Random(rng_seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    return write


def _solve_argv(path: Path, objective: str, algorithm: str, *extra: str) -> tuple[str, ...]:
    return (
        "solve", str(path), "--objective", objective, "--algorithm", algorithm,
        *extra, "--verify", "--format", "json",
    )


# tb-reach: turn-based reach-si, where all time is in MDP evaluation.  Job
# times are heavy-tailed; with up to 3 successors per state they average
# 63 ms with a coefficient of variation of 2.4, too few jobs per run for a
# steady mean, so states get up to 2.
TB_STATES = 30
TB_MAX_SUCC = 2
TB_POOL = 3000
TB_TRACE = 600


def tb_reach(seed: int, workdir: Path) -> Workload:
    jobs = []
    for i in range(TB_POOL):
        path = workdir / f"tb{i:04d}.game"
        write = _writer(
            lambda rng: random_tb_game(rng, TB_STATES, TB_MAX_SUCC), f"tb-reach:{seed}:{i}"
        )
        jobs.append(Job(f"tb{i:04d}", _solve_argv(path, "reach:q0", "reach-si"), EXACT_ONLY, path, write))
    return Workload("tb-reach", workdir, tuple(jobs), 1, TB_TRACE)


# concurrent-si: three capped algorithms per random concurrent game.  The
# caps bound the job time: every extra value-iteration step roughly doubles
# the bit length of the iterates, and with it the cost.  Up to 2 moves per
# player: with 3, the non-local step solves 49 LPs per state instead of 9
# and safety-si jobs cost many times the other two kinds.
CONC_STATES = 12
CONC_MAX_MOVES = 2
CONC_POOL = 300
CONC_TRACE = 60
CONC_JOBS = (
    ("vi", "reach:q0", "vi", "8"),
    ("reach-si", "reach:q0", "reach-si", "3"),
    ("safety-si", "safe:not-q0", "safety-si", "2"),
)


def concurrent_si(seed: int, workdir: Path) -> Workload:
    jobs = []
    for i in range(CONC_POOL):
        path = workdir / f"cg{i:03d}.game"
        write = _writer(
            lambda rng: random_concurrent_game(rng, CONC_STATES, CONC_MAX_MOVES),
            f"concurrent-si:{seed}:{i}",
        )
        for tag, objective, algorithm, cap in CONC_JOBS:
            argv = _solve_argv(path, objective, algorithm, "--max-iters", cap)
            jobs.append(Job(f"cg{i:03d}.{tag}", argv, EXACT_OR_CAPPED, path, write))
    return Workload("concurrent-si", workdir, tuple(jobs), len(CONC_JOBS), CONC_TRACE * len(CONC_JOBS))


# certify-kuniform: the paper's Example 3 instances (irrational values, so
# only the eps stop or the cap ends them) in every pass, plus fresh small
# random 3-move safety games.  The bundled files are written by the
# program's own `congame examples --write`.
CERT_RANDOM_STATES = 3
CERT_RANDOM_MAX_MOVES = 3
CERT_RANDOM_PER_PASS = 20
CERT_PASSES = 20


def certify_kuniform(seed: int, workdir: Path) -> Workload:
    examples = workdir / "examples"
    bundled = (
        Job("ex3full.certify", _solve_argv(examples / "ex3full.game", "safe:not-s2", "certify:1/1000"),
            EXACT_OR_CAPPED, examples / "ex3full.game", None),
        Job("ex3full.convergent",
            _solve_argv(examples / "ex3full.game", "safe:not-s2", "convergent", "--max-iters", "16"),
            EXACT_OR_CAPPED, examples / "ex3full.game", None),
        Job("ex3step1.certify", _solve_argv(examples / "ex3step1.game", "safe:not-s1", "certify:1/1000"),
            EXACT_OR_CAPPED, examples / "ex3step1.game", None),
    )
    jobs = []
    for p in range(CERT_PASSES):
        jobs.extend(bundled)
        for i in range(p * CERT_RANDOM_PER_PASS, (p + 1) * CERT_RANDOM_PER_PASS):
            path = workdir / f"cr{i:03d}.game"
            write = _writer(
                lambda rng: random_concurrent_game(rng, CERT_RANDOM_STATES, CERT_RANDOM_MAX_MOVES),
                f"certify-kuniform:{seed}:{i}",
            )
            jobs.append(Job(f"cr{i:03d}.certify", _solve_argv(path, "safe:not-q0", "certify:1/100"),
                            EXACT_OR_CAPPED, path, write))
    per_pass = len(bundled) + CERT_RANDOM_PER_PASS
    return Workload("certify-kuniform", workdir, tuple(jobs), per_pass, per_pass)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "tb-reach": tb_reach,
    "concurrent-si": concurrent_si,
    "certify-kuniform": certify_kuniform,
}
