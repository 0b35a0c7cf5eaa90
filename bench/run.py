#!/usr/bin/env python3
"""Benchmark for congame: a closed loop of `congame solve` jobs.

    python3 bench/run.py --workload tb-reach --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One thread runs one job at a time, calling
``congame.cli.main(argv)`` in this process with ``--format json --verify``,
and the correctness gate in ``gate.py`` checks every report.  The benchmark
drives the command line rather than the library because the CLI's flags and
report are the interface that stays fixed while the library changes.

``--trace 0`` measures the end-to-end metrics: jobs are cycled from the
workload's seeded pool until they have run for ``--seconds``, not counting
jobs stopped by the known digit-limit defect.  ``--trace 1`` runs
a fixed prefix of the pool four times -- untraced, traced, untraced, traced
-- and reports per-layer calls, self time and work counts from the first
traced pass, the tracing overhead against the untraced passes, and how many
work counts differ between the two traced passes (they should all repeat).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when ``correct`` is false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from gate import WRONG, Gate, bits_max
from hostspeed import REFERENCE_SLICE_S, HostScale
from tracer import LAYERS, LP_CALLERS, SIZE_PROBES, Tracer, work_counts
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = Path(".bench_work")
SPANS_DIR = Path(".bench_out")
SETUP_SAMPLES = 15
END_TO_END = (
    ("solves_per_s", "jobs/s"),
    ("solve_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

# Functions whose calls and self time are reported by name; the traced run
# prints every other wrapped function too, on its detail lines.
REPORTED_FUNCTIONS = (
    "linprog.solve_lp",
    "mdp.max_reach_values",
    "mdp.mec_decomposition",
    "mdp.induce_mdp",
    "mdp.compute_W2",
    "matrix.pre1_k",
    "matrix.enumerate_k_uniform",
    "matrix.solve_matrix_game",
    "matrix.pre1",
    "safety_si.run_k_uniform_si",
    "safety_si.tb_reduction",
    "safety_si.opt_sel_count",
    "safety_si.safety_si_step",
    "value_iter.reach_value_iteration",
    "reach_si.improve_step_reach",
    "reach_si.run_reach_si_turn_based",
    "certify.approximate_game_value",
    "gamefile.load_game",
    "cli.main",
)


def _per_layer_units() -> tuple[tuple[str, str], ...]:
    units = []
    for name in REPORTED_FUNCTIONS:
        units += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in SIZE_PROBES:
            units.append((f"{name}.{SIZE_PROBES[name][0]}", "count"))
    units += [
        ("linprog.solve_lp.infeasible", "count"),
        *((f"linprog.solve_lp.under_{caller.split('.')[1]}_s", "s") for caller in LP_CALLERS),
        ("mdp.max_reach_values.lp_cells", "count"),
        ("matrix.enumerate_k_uniform.repeat_frac", "ratio"),
        ("matrix.solve_matrix_game.lp_calls", "count"),
        ("safety_si.opt_sel_count.pairs_per_lp", "ratio"),
        *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
        ("cli.values.bits_max", "bits"),
        ("trace.pass_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
        ("trace.repeat_mismatches", "count"),
    ]
    return tuple(units)


PER_LAYER = _per_layer_units()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import congame.cli from this checkout's src/, or exit with 2."""
    src = ROOT / "src"
    if not (src / "congame" / "cli.py").is_file():
        sys.stderr.write(f"error: no congame sources at {src}; run from a congame checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    from congame import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"error: imported congame from {cli.__file__}, not from {src}\n")
        sys.exit(2)
    return cli


# A fresh interpreter imports congame.cli and builds its parser (`congame
# --help`), with a reference slice before and after, whose times it prints.
SETUP_CHILD = """
import sys
from hostspeed import reference_slice
before = reference_slice()
import congame.cli
try:
    congame.cli.main(['--help'])
except SystemExit:
    pass
print(before, reference_slice(), file=sys.stderr)
"""


def time_setup() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing congame.cli and building
    its parser, less the slices it runs; returns it raw and scaled to the
    reference host speed by those slices, which run on the same CPU."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH_DIR))))
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, check=True)
    elapsed = time.perf_counter() - start
    before, after = map(float, child.stderr.split())
    elapsed -= before + after
    return elapsed, elapsed * 2 * REFERENCE_SLICE_S / (before + after)


def run_job(cli, argv: tuple[str, ...]):
    """Run one CLI invocation in process; returns (seconds, exit code or the
    escaped exception, stdout, stderr).  Timed from argv to written report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:
            code = exc
        elapsed = time.perf_counter() - start
    if not isinstance(code, int):
        traceback.print_exception(code, file=sys.stderr)
    return elapsed, code, out.getvalue(), err.getvalue()


class Tally:
    """Outcomes, job times and report hashes of the jobs run so far."""

    def __init__(self, gate: Gate) -> None:
        self.gate = gate
        self.outcomes: Counter = Counter()
        self.times: list[float] = []
        self.bits_max = 0

    def run(self, cli, job, host: HostScale, measure_bits: bool = False) -> str:
        """Run and check one job; returns its outcome."""
        job.prepare()
        start = time.perf_counter()
        _, code, out, err = run_job(cli, job.argv)
        elapsed = host.add(start, time.perf_counter())
        first = job.id not in self.gate.report_sha
        outcome, report, sha = self.gate.check(job, code, out, err)
        self.outcomes[outcome] += 1
        self.times.append(elapsed)
        if first or outcome != "ok":
            shown = code if isinstance(code, int) else type(code).__name__
            print(f"report {job.id} exit={shown} outcome={outcome} sha256={sha}")
            if outcome != "ok" and err:
                print(f"  stderr: {err.strip().splitlines()[-1][:200]}")
        if measure_bits and report is not None:
            self.bits_max = max(self.bits_max, bits_max(report))
        return outcome

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def correct(self) -> bool:
        return self.outcomes["ok"] > 0 and not any(self.outcomes[o] for o in WRONG)


def timed_run(cli, workload: Workload, tally: Tally, seconds: float) -> dict[str, float]:
    """Cycle the pool until the jobs have run for ``seconds`` of wall time,
    finishing the last unit of work started.

    Times are scaled to the reference host speed (``HostScale``).  A valid
    solve that ends in the digit-limit error can take a minute, so those
    jobs are kept out of both the time budget and ``solves_per_s``
    (``ok_frac`` and ``failed`` count them); no new input starts after
    twice ``seconds`` of wall time.  The loop stops only between units of
    work, and ``solve_s.p50`` is the median time of a unit: one game's
    jobs, or for certify-kuniform one pass.  A per-job median swung with
    the seed: concurrent-si's three job kinds differ several-fold in cost,
    so it fell in the gap between them, and certify-kuniform's random games
    spread too widely for the hundred of them in a run."""
    time_setup()  # warm-up: writes the bytecode caches
    # Set-up is timed in two bursts, before and after the loop, so that its
    # median sees host-speed drift over the run without a process start
    # between two jobs.
    setup_times = [time_setup() for _ in range(SETUP_SAMPLES // 2)]
    pool = workload.pool
    wall_limit = time.perf_counter() + 2 * seconds
    counted_s = 0.0
    outcomes: list[str] = []
    with HostScale(interrupt=True) as host:
        while counted_s < seconds and time.perf_counter() < wall_limit:
            for j in range(len(outcomes), len(outcomes) + workload.unit_jobs):
                outcomes.append(tally.run(cli, pool[j % len(pool)], host))
                if outcomes[-1] != "digit_limit":
                    counted_s += tally.times[-1]
    setup_times += [time_setup() for _ in range(SETUP_SAMPLES - len(setup_times))]
    scaled = host.scaled()
    unit = workload.unit_jobs
    unit_times = [sum(scaled[j:j + unit]) for j in range(0, len(scaled), unit)]
    counted = [t for t, outcome in zip(scaled, outcomes) if outcome != "digit_limit"]
    scales = host.scales()
    times = sorted(tally.times)
    n = len(times)
    # The highest percentile with at least ten jobs above it.
    tail = f", p{100 * (n - 10) // n} {times[n - 11]:.6f} s" if n > 10 else ""
    print(
        f"jobs {n} (wall time): p50 {statistics.median(times):.6f} s{tail}, max {times[-1]:.6f} s, "
        f"busy {sum(times):.3f} s; units of {unit} jobs {len(unit_times)}"
    )
    print(
        f"host scale over {len(scales)} slices: median {statistics.median(scales):.4f}, "
        f"min {min(scales):.4f}, max {max(scales):.4f}; "
        f"set-up wall time median {statistics.median(raw for raw, _ in setup_times):.6f} s"
    )
    return {
        "solves_per_s": tally.outcomes["ok"] / sum(counted) if counted else 0.0,
        "solve_s.p50": statistics.median(unit_times),
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": tally.outcomes["ok"] / n,
    }


def _pass(cli, jobs, tally: Tally, tracer: Tracer | None = None) -> tuple[float, list]:
    """Run the jobs once; returns the summed time, scaled to the reference
    host speed, of the jobs not stopped by the digit limit, and those jobs.
    Slices run only between jobs here, so that none lands in a span."""
    kept, counted = [], []
    with HostScale(interrupt=False) as host:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            if tally.run(cli, job, host, measure_bits=tracer is None) != "digit_limit":
                kept.append(job)
                counted.append(index)
    scaled = host.scaled()
    return sum(scaled[i] for i in counted), kept


def traced_run(cli, workload: Workload, tally: Tally, spans_path: Path) -> dict[str, float]:
    """Untraced and traced passes alternate over the same jobs, so the
    overhead estimate sees the same drift in host speed on both sides.
    Jobs stopped by the digit limit in the first pass are left out of the
    later ones: such a valid solve can run for a minute."""
    untraced_s, jobs = _pass(cli, workload.pool[: workload.trace_jobs], tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _ = _pass(cli, jobs, tally, tracer)
        first = tracer.summarize()
        tracer.write_spans(spans_path)
        n_spans = len(tracer.spans)
        tracer.reset()
        tracer.uninstall()
        untraced_s += _pass(cli, jobs, tally)[0]
        tracer.install()
        traced_s += _pass(cli, jobs, tally, tracer)[0]
        second = tracer.summarize()
    finally:
        tracer.uninstall()
    counts_a, counts_b = work_counts(first), work_counts(second)
    mismatches = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
    for key in mismatches:
        print(f"repeat mismatch {key}: {counts_a.get(key)} then {counts_b.get(key)}")
    traced_s /= 2
    untraced_s /= 2
    print(f"traced {len(jobs)} jobs: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s per pass, "
          f"{n_spans} spans -> {spans_path}")
    # Shares are of the wall time inside spans, which holds all of cli.main.
    spanned_s = sum(first["self_s"].values()) or 1.0
    for name in sorted(first["calls"], key=lambda n: -first["self_s"][n]):
        print(f"  {name:45s} calls {first['calls'][name]:8d}  self {first['self_s'][name]:9.4f} s "
              f"({first['self_s'][name] / spanned_s:6.1%})")
    for caller, seconds in sorted(first["lp_under_s"].items()):
        print(f"  solve_lp under {caller}: {seconds:.4f} s ({seconds / spanned_s:.1%})")
    return layer_metrics(tracer, first, traced_s, untraced_s, n_spans, len(mismatches), tally.bits_max)


def layer_metrics(tracer, summary, traced_s, untraced_s, n_spans, mismatches, bits) -> dict[str, float]:
    calls, self_s, sizes = summary["calls"], summary["self_s"], summary["sizes"]
    absent = [name for name in REPORTED_FUNCTIONS if name not in tracer.names]
    absent += [f"{name}.{SIZE_PROBES[name][0]}" for name in tracer.probe_failures if name in SIZE_PROBES]
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    metrics: dict[str, float] = {}
    for name in REPORTED_FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        if name in SIZE_PROBES:
            metrics[f"{name}.{SIZE_PROBES[name][0]}"] = sizes[name]
    metrics["linprog.solve_lp.infeasible"] = summary["errors"]["linprog.solve_lp:LPInfeasible"]
    for caller in LP_CALLERS:
        metrics[f"linprog.solve_lp.under_{caller.split('.')[1]}_s"] = summary["lp_under_s"][caller]
    metrics["mdp.max_reach_values.lp_cells"] = summary["lp_under_cells"]["mdp.max_reach_values"]
    total, distinct = summary["kuniform_keys"]
    metrics["matrix.enumerate_k_uniform.repeat_frac"] = 1 - distinct / total if total else 0.0
    metrics["matrix.solve_matrix_game.lp_calls"] = summary["lp_under_calls"]["matrix.solve_matrix_game"]
    lps = summary["lp_under_calls"]["safety_si.opt_sel_count"]
    metrics["safety_si.opt_sel_count.pairs_per_lp"] = sizes["safety_si.opt_sel_count"] / lps if lps else 0.0
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(s for n, s in self_s.items() if n.split(".")[0] == layer)
    metrics["cli.values.bits_max"] = bits
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics["trace.spans"] = n_spans
    metrics["trace.repeat_mismatches"] = mismatches
    return metrics


def load_reference(workload: str) -> dict[str, str]:
    with REFERENCE.open(encoding="utf-8") as handle:
        return json.load(handle)[workload]


def measure(cli, workload: Workload, gate: Gate, trace: bool, seconds: float):
    """Run one workload; returns (metric values, metric units, tally)."""
    tally = Tally(gate)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["examples", "--write", str(workload.workdir / "examples")])
    if trace:
        spans_path = SPANS_DIR / f"spans-{workload.workdir.name}.tsv"
        return traced_run(cli, workload, tally, spans_path), PER_LAYER, tally
    return timed_run(cli, workload, tally, seconds), END_TO_END, tally


def emit(values: dict[str, float], units, tally: Tally) -> None:
    """Print every metric with its unit, then the result object last."""
    print(f"failed_frac = {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted} jobs; "
          f"outcomes {dict(tally.outcomes)})")
    for name, unit in units:
        print(f"metric {name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR / f"{args.workload}-s{args.seed}")
    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else None
    try:
        values, units, tally = measure(cli, workload, Gate(reference), args.trace, args.seconds)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    emit(values, units, tally)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
