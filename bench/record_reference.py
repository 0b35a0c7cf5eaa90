#!/usr/bin/env python3
"""Record the default seed's reference results and input properties.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs every distinct job in each workload's pool once at the default seed,
writes each job's exit code, status and values digest to
``bench/reference.json`` (keeping the other workloads' entries), and prints
the input properties quoted in ``bench/README.md`` and ``BENCHMARK.json``.
Rerun it only when the workload generators change; a program change that
alters a recorded value is what the gate exists to catch.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from collections import Counter

from run import REFERENCE, ROOT, WORK_DIR, import_cli, run_job
from gate import bits_max, signature, verified
from workloads import DEFAULT_SEED, WORKLOADS


def game_shape(path) -> tuple[int, int]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["type"] == "turn-based":
        return len(doc["states"]), max(len(e) for e in doc["edges"].values())
    return len(doc["states"]), max(len(m) for t in ("moves1", "moves2") for m in doc[t].values())


def record(cli, name: str) -> dict[str, str]:
    workdir = WORK_DIR / f"record-{name}"
    workload = WORKLOADS[name](DEFAULT_SEED, workdir)
    cli.main(["examples", "--write", str(workdir / "examples")])
    signatures: dict[str, str] = {}
    times, statuses, shapes = [], Counter(), set()
    one_round = bits = 0
    try:
        for job in workload.pool:
            if job.id in signatures:
                continue
            job.prepare()
            elapsed, code, out, err = run_job(cli, job.argv)
            if code not in job.expect_codes:
                raise SystemExit(f"{job.id}: exit {code}: {err.strip()}")
            report = json.loads(out)
            if not verified(report):
                raise SystemExit(f"{job.id}: not verified")
            signatures[job.id] = signature(code, report)
            times.append(elapsed)
            statuses[report["status"]] += 1
            one_round += report["status"] == "exact" and report.get("iterations") == 1
            bits = max(bits, bits_max(report))
            shapes.add(game_shape(job.path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(signatures)
    print(
        f"{name}: {n} jobs; states {sorted({s for s, _ in shapes})}, "
        f"max moves or successors {max(m for _, m in shapes)}; statuses {dict(statuses)}; "
        f"exact in one iteration {one_round / n:.0%}; max value bits {bits}; "
        f"job time mean {statistics.mean(times):.4f} s, p50 {statistics.median(times):.4f} s, "
        f"max {max(times):.3f} s",
        file=sys.stderr,
    )
    return signatures


def main() -> int:
    cli = import_cli()
    os.chdir(ROOT)
    names = sys.argv[1:] or list(WORKLOADS)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in names:
        reference[name] = record(cli, name)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
