"""Per-layer tracing of congame from outside the package.

The layers are the modules of ``src/congame``.  ``Tracer.install`` wraps
every public function defined in a layer module, except the per-element
helpers in ``NOT_WRAPPED``, and rebinds every ``congame.*`` module
attribute that *is* the original function object: modules import each
other's functions by name (``from .linprog import solve_lp``), so patching
only the defining module would miss most calls.
Each call records a span (function, start, end, parent span, job) in memory,
plus one size number for the functions listed in ``SIZE_PROBES`` and, for
``enumerate_k_uniform``, its (moves, k) arguments, to count repeated work.
``summarize`` turns the spans into calls, self time (duration minus the
time covered by child spans) and work counts.

Nothing inside ``src/`` changes.  A function that a later version renames or
removes, or whose arguments or result no longer fit its size probe, is
reported as absent rather than breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "linprog", "matrix", "mdp", "value_iter", "reach_si", "safety_si", "certify", "gamefile", "cli",
)

# Work sizes recorded per call: function -> (size name, probe).  A probe is
# called with (args, kwargs, result) and returns a number.
SIZE_PROBES = {
    "linprog.solve_lp": ("cells", lambda a, k, r: len(_arg(a, k, 1, "rows")) * len(_arg(a, k, 0, "objective"))),
    "mdp.max_reach_values": ("states", lambda a, k, r: len(_arg(a, k, 0, "mdp").states)),
    "matrix.enumerate_k_uniform": ("mixtures", lambda a, k, r: len(r)),
    "safety_si.run_k_uniform_si": ("inner_steps", lambda a, k, r: r.iterations),
    "safety_si.tb_reduction": ("tb_states", lambda a, k, r: len(r.game.states)),
    "safety_si.opt_sel_count": ("pairs", lambda a, k, r: len(r)),
    "safety_si.safety_si_step": ("nonlocal_fired", lambda a, k, r: int(r.fired_nonlocal)),
    "value_iter.reach_value_iteration": ("steps", lambda a, k, r: r.steps()),
    "reach_si.improve_step_reach": ("improved_states", lambda a, k, r: len(r.improve_set)),
    "reach_si.run_reach_si_turn_based": ("iterations", lambda a, k, r: r.iterations),
    "certify.approximate_game_value": ("rounds", lambda a, k, r: r.rounds),
}

KUNIFORM = "matrix.enumerate_k_uniform"
PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)

# Helpers called once per mixture, matrix cell or printed value.  They are
# not wrapped: a span per call would cost more than the call, and their
# time stays in their caller's self time (pre_mix_move in pre1_k's).
NOT_WRAPPED = frozenset({
    "matrix.pre_mix_move", "matrix.pre1_sel", "matrix.pre_sel_sel",
    "gamefile.parse_fraction", "gamefile.format_fraction", "cli.decimal_string",
})

LP = "linprog.solve_lp"
# The simplex is attributed to the nearest of these callers.
LP_CALLERS = ("safety_si.tb_reduction", "mdp.max_reach_values", "matrix.solve_matrix_game")


def _arg(args, kwargs, index: int, name: str):
    """The argument at ``index`` or passed as ``name``."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (fid, start, end, parent, job, size, error)
        self.kuniform_keys: list = []  # (n_moves, k) of each enumerate_k_uniform call
        self.probe_failures: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"congame.{layer}")
                for attr, value in vars(module).items():
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    if value.__module__ == module.__name__ and f"{layer}.{attr}" not in NOT_WRAPPED:
                        self._wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if name != "congame" and not name.startswith("congame."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.kuniform_keys = []
        self.probe_failures = Counter()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        size_probe = SIZE_PROBES[name][1] if name in SIZE_PROBES else None
        record_key = name == KUNIFORM
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (fid, start, clock(), parent, self.job, None, type(exc).__name__)
                raise
            finally:
                stack.pop()
            end = clock()
            size = None
            if size_probe is not None:
                try:
                    size = size_probe(args, kwargs, result)
                    if record_key:
                        self.kuniform_keys.append((_arg(args, kwargs, 0, "n_moves"), _arg(args, kwargs, 1, "k")))
                except PROBE_ERRORS:
                    self.probe_failures[name] += 1
            spans[index] = (fid, start, end, parent, self.job, size, None)
            return result

        return traced

    def summarize(self) -> dict:
        """Per-function calls, self time and size sums, plus the simplex
        attribution by caller.  Counts are deterministic; times are not."""
        spans = self.spans
        names = self.names
        child_time = [0.0] * len(spans)
        for fid, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        sizes: Counter = Counter()
        errors: Counter = Counter()
        for i, (fid, start, end, parent, job, size, error) in enumerate(spans):
            name = names[fid]
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if size is not None:
                sizes[name] += size
            if error is not None:
                errors[f"{name}:{error}"] += 1
        lp_fid = names.index(LP) if LP in names else -1
        under_s: dict[str, float] = defaultdict(float)
        under_calls: Counter = Counter()
        under_cells: Counter = Counter()
        for fid, start, end, parent, job, size, error in spans:
            if fid != lp_fid:
                continue
            nearest = None
            seen = set()
            while parent >= 0:
                ancestor = names[spans[parent][0]]
                if ancestor not in seen:
                    seen.add(ancestor)
                    under_calls[ancestor] += 1
                    under_cells[ancestor] += size or 0
                if nearest is None and ancestor in LP_CALLERS:
                    nearest = ancestor
                parent = spans[parent][3]
            under_s[nearest or "other"] += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "sizes": sizes,
            "errors": errors,
            "lp_under_s": under_s,
            "lp_under_calls": under_calls,
            "lp_under_cells": under_cells,
            "kuniform_keys": (len(self.kuniform_keys), len(set(self.kuniform_keys))),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\tjob\tsize\terror\n")
            for i, (fid, start, end, parent, job, size, error) in enumerate(self.spans):
                out.write(
                    f"{i}\t{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t"
                    f"{'' if size is None else size}\t{error or ''}\n"
                )


def work_counts(summary: dict) -> dict[str, int]:
    """The deterministic part of a summary, flattened for exact comparison."""
    counts = {}
    for group in ("calls", "sizes", "errors", "lp_under_calls", "lp_under_cells"):
        for name, value in summary[group].items():
            counts[f"{group}:{name}"] = value
    counts["kuniform_keys"] = summary["kuniform_keys"]
    return counts
