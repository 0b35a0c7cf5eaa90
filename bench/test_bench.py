"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import time

import pytest

import run
from gate import WRONG, Gate
from hostspeed import HostScale
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def cli():
    cli = run.import_cli()
    old = os.getcwd()
    os.chdir(run.ROOT)
    yield cli
    os.chdir(old)


def tiny(name: str, jobs: int, seed: int = DEFAULT_SEED):
    workload = WORKLOADS[name](seed, run.WORK_DIR / f"test-{name}-s{seed}")
    return dataclasses.replace(workload, pool=workload.pool[:jobs], trace_jobs=jobs)


def smoke(cli, workload, trace: bool) -> tuple[str, dict]:
    gate = Gate(run.load_reference(workload.name))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            values, units, tally = run.measure(cli, workload, gate, trace, seconds=0.01)
            run.emit(values, units, tally)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(cli, trace):
    text, result = smoke(cli, tiny("concurrent-si", 3), trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(units)
    for name, unit in units:
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert f"metric {name} = " in text and text.split(f"metric {name} = ")[1].split("\n")[0].endswith(f" {unit}")
    if trace:
        assert result["metrics"]["trace.repeat_mismatches"]["value"] == 0
        assert result["metrics"]["linprog.solve_lp.calls"]["value"] > 0


def test_corrupted_reference_fails_the_gate(cli):
    workload = tiny("tb-reach", 1)
    job = workload.pool[0]
    reference = run.load_reference(workload.name)
    code, status, digest = reference[job.id].split(":")
    corrupted = {job.id: f"{code}:{status}:{'0' if digest[0] != '0' else '1'}{digest[1:]}"}
    try:
        job.prepare()
        _, code, out, err = run.run_job(cli, job.argv)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    assert Gate(reference).check(job, code, out, err)[0] == "ok"
    outcome = Gate(corrupted).check(job, code, out, err)[0]
    assert outcome == "mismatch" and outcome in WRONG


def test_digit_limit_counts_as_failed_not_wrong():
    job = tiny("concurrent-si", 1).pool[0]
    err = "error: Exceeds the limit (4300 digits) for integer string conversion; use sys.set_int_max_str_digits()\n"
    assert Gate(None).check(job, 1, "", err)[0] == "digit_limit" not in WRONG
    assert Gate(None).check(job, 1, "", "error: something else\n")[0] == "error" in WRONG
    assert Gate(None).check(job, RuntimeError("boom"), "", "")[0] == "exception" in WRONG
    # At the default seed the reference records every job's exit code.
    reference = run.load_reference("concurrent-si")
    assert Gate(reference).check(job, 1, "", err)[0] == "mismatch"


def test_incorrect_run_exits_nonzero(cli, monkeypatch):
    monkeypatch.setattr(run, "load_reference", lambda name: {})
    monkeypatch.setattr(run, "Gate", lambda reference: _AlwaysError())
    monkeypatch.setattr(run, "WORKLOADS", {"tb-reach": lambda seed, workdir: tiny("tb-reach", 1, seed)})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tb-reach", "--seconds", "0.01", "--trace", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False and code != 0


class _AlwaysError(Gate):
    def __init__(self):
        super().__init__(None)

    def check(self, job, code, out, err):
        return "error", None, ""


def test_host_scale_leaves_out_the_slices_run_inside_a_job():
    with HostScale(interrupt=True) as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
        seconds = host.add(start, end)
    inside = [d for t, d in host.slices if start <= t <= end]
    assert len(inside) >= 2
    assert seconds == pytest.approx(end - start - sum(inside))
    assert host.scaled()[0] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_rebinds_imported_names_and_restores_them(cli):
    import congame.linprog
    import congame.mdp

    original = congame.linprog.solve_lp
    tracer = Tracer()
    tracer.install()
    try:
        assert congame.mdp.solve_lp is congame.linprog.solve_lp is not original
    finally:
        tracer.uninstall()
    assert congame.mdp.solve_lp is congame.linprog.solve_lp is original


def test_absent_function_is_reported_not_fatal():
    tracer = Tracer()
    summary = tracer.summarize()
    metrics = run.layer_metrics(tracer, summary, 1.0, 1.0, 0, 0, 0)
    assert metrics["matrix.pre1_k.calls"] == 0
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_inputs_depend_only_on_the_seed():
    base = run.ROOT / run.WORK_DIR / "test-seeds"
    try:
        jobs = [WORKLOADS["concurrent-si"](seed, base / tag).pool[0] for seed, tag in ((7, "a"), (7, "b"), (8, "c"))]
        for job in jobs:
            job.prepare()
        first, again, other = (job.path.read_text() for job in jobs)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert first == again != other
