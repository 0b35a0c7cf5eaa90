"""Command-line front end.

Subcommands:

* ``solve``: run a solver on a game file and print per-state values
  (exact rationals plus 20-digit decimal approximations), the witness
  memoryless strategy, iteration count and status.  ``ALGORITHMS`` maps
  each ``--algorithm`` name to a function returning a ``Solve`` record, its
  default iteration cap, the objective kind it solves and the option it
  reads; the report is built from that record.
* ``dump-tb``: emit the turn-based reduction of a game at a valuation,
  round-trippable in the input format, with back-map annotations.
* ``validate``: parse and check a game file.
* ``examples``: list or write the bundled example games.

Exit codes: 0 success, 1 input error, 2 iteration cap reached without the
requested guarantee, 3 internal error (an ``AssertionError`` or
``RuntimeError`` escaped a solver: a broken invariant, printed as
``internal error: <message>`` rather than a traceback).  Identical
invocations produce byte-identical output; nothing here depends on wall
time, machine, or hash order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .certify import Certifier
from .examples import EXAMPLE_NAMES, EXAMPLE_OBJECTIVES, example_text
from .gamefile import GameFormatError, load_game, parse_fraction, serialize_game
from .mdp import (
    compute_W2,
    strategy_value_reach,
    strategy_value_safety,
    tb_almost_sure_safe,
)
from .model import (
    GameError,
    GameStructure,
    Selector,
    TurnBasedGame,
    Valuation,
    encode_turn_based_as_concurrent,
    swap_players,
)
from .reach_si import (
    STATUS_CAPPED,
    STATUS_EPS,
    STATUS_EXACT,
    ReachSIRunner,
    TurnBasedReachRunner,
)
from .safety_si import (
    ConvergentSafetyRunner,
    SafetySIRunner,
    normalize_safety,
    run_k_uniform_si,
    tb_reduction,
)
from .value_iter import (
    HypothesisViolation,
    eta_achieved_values,
    extract_eta_selector,
    extract_optimal_safety_selector,
    reach_value_iteration,
    safety_value_iteration_upper,
)

APPROX_DIGITS = 20


class CliError(Exception):
    """User-facing input problem; printed and mapped to exit code 1."""


def decimal_string(x: Fraction, digits: int = APPROX_DIGITS) -> str:
    """Round-to-nearest decimal rendering of a nonnegative exact rational."""
    scale = 10**digits
    scaled = x * scale
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(n, scale)
    return f"{whole}.{frac:0{digits}d}"


def parse_objective(text: str, states: tuple[str, ...]) -> tuple[str, list[str]]:
    """Parse ``reach:s0,s1`` / ``safe:not-s4`` into a kind and a state list.

    A leading ``not-`` complements the comma-separated list against the
    declared states.
    """
    if ":" not in text:
        raise CliError("objective must look like reach:STATES or safe:STATES")
    kind, _, expr = text.partition(":")
    if kind not in ("reach", "safe"):
        raise CliError(f"objective kind must be reach or safe, got {kind!r}")
    complement = False
    if expr.startswith("not-"):
        complement = True
        expr = expr[len("not-") :]
    names = [s for s in expr.split(",") if s]
    if not names:
        raise CliError("objective needs at least one state")
    unknown = [s for s in names if s not in states]
    if unknown:
        raise CliError(f"objective names unknown states: {', '.join(unknown)}")
    if complement:
        chosen = [s for s in states if s not in set(names)]
    else:
        chosen = [s for s in states if s in set(names)]
    if not chosen:
        raise CliError("objective resolves to the empty state set")
    return kind, chosen


def _strategy_doc(game: GameStructure, selector: Selector | None) -> dict | None:
    if selector is None:
        return None
    return {
        s: {a: str(p) for a, p in selector.choice[s].items() if p > 0}
        for s in game.states
    }


def _values_doc(game: GameStructure, values) -> dict:
    return {
        s: {"exact": str(values[s]), "approx": decimal_string(values[s])}
        for s in game.states
    }


def _split_algorithm(raw: str) -> tuple[str, str | None]:
    name, _, arg = raw.partition(":")
    return name, (arg or None)


def _load(path: str) -> tuple[GameStructure, TurnBasedGame | None]:
    try:
        game = load_game(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except GameFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if isinstance(game, TurnBasedGame):
        return encode_turn_based_as_concurrent(game), game
    return game, None


@dataclass(frozen=True)
class Problem:
    """One ``solve`` invocation, parsed: the game (and its turn-based form,
    if it was given as one), the objective and the algorithm's options."""

    game: GameStructure
    tb: TurnBasedGame | None
    kind: str
    chosen: list[str]
    max_iters: int | None  # None only for algorithms that ignore the cap
    eps: Fraction
    k: int


@dataclass
class Solve:
    """What one algorithm reports.

    ``witness2`` and ``witness2_values`` are certify's player-2 strategy
    and the reach values it guarantees.  ``before`` holds the report fields
    printed between ``iterations`` and ``status``; ``after`` those printed
    after ``trace``.
    """

    status: str
    values: Valuation
    iterations: int
    witness: Selector | None = None
    witness_values: Valuation | None = None
    trace: list[Valuation] | None = None
    witness2: Selector | None = None
    witness2_values: Valuation | None = None
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)


def _improvement(runner, **fields) -> Solve:
    """An improvement runner after its run: its selector achieves its values."""
    return Solve(
        runner.status, runner.values, runner.iterations, runner.selector,
        runner.values, runner.valuations, **fields,
    )


def _vi(p: Problem) -> Solve:
    if p.kind == "reach":
        result = reach_value_iteration(p.game, p.chosen, max_steps=p.max_iters)
        last = result.steps()
        try:
            achieved = eta_achieved_values(result, last)
        except HypothesisViolation:
            achieved = None
        witness = extract_eta_selector(result, last) if achieved is not None else None
        status = STATUS_EXACT if result.converged else STATUS_CAPPED
        return Solve(
            status, result.valuations[-1], last, witness, achieved, result.valuations,
            after={"w2": sorted(result.w2)},
        )
    iterates = safety_value_iteration_upper(p.game, p.chosen, steps=p.max_iters)
    exact = len(iterates) >= 2 and iterates[-1] == iterates[-2]
    values = iterates[-1]
    witness = witness_values = None
    if exact:
        witness = extract_optimal_safety_selector(p.game, values, p.chosen)
        witness_values = strategy_value_safety(p.game, witness, p.chosen)
    return Solve(
        STATUS_EXACT if exact else STATUS_CAPPED, values, len(iterates) - 1,
        witness, witness_values, iterates,
        after={"bound_side": "exact" if exact else "upper"},
    )


def _reach_si(p: Problem) -> Solve:
    if p.tb is None:
        return _improvement(ReachSIRunner(p.game, p.chosen).run(p.max_iters))
    runner = TurnBasedReachRunner(p.tb, p.chosen).run(p.max_iters)
    # Turn-based reports name the pure strategy's successor edges and, to
    # keep their bytes, print no trace.
    frozen = runner.target | runner.w2
    pure = {s: runner.picks[s] for s in sorted(runner.picks) if s not in frozen}
    return Solve(
        runner.status, runner.values, runner.iterations, runner.selector, runner.values,
        after={"pure_strategy": pure},
    )


def _safety_si(p: Problem) -> Solve:
    runner = SafetySIRunner(p.game, p.chosen).run(p.max_iters)
    return _improvement(runner, after={"nonlocal_step_fired": runner.fired_nonlocal})


def _k_uniform(p: Problem) -> Solve:
    """A k-uniform fixpoint is exact for the whole game only if it is
    ``optimal``: the unrestricted stopping condition also holds there."""
    runner = run_k_uniform_si(p.game, p.chosen, p.k)
    return Solve(
        STATUS_EXACT if runner.optimal else STATUS_CAPPED, runner.values, runner.iterations,
        runner.selector, runner.values,
        before={"k": runner.k}, after={"nonlocal_step_fired": runner.fired_nonlocal},
    )


def _convergent(p: Problem) -> Solve:
    runner = ConvergentSafetyRunner(p.game, p.chosen).run(p.max_iters)
    return _improvement(runner, before={"ks": runner.ks})


def _certify(p: Problem) -> Solve:
    game = p.game
    runner = Certifier(game, p.chosen, p.eps).run(p.max_iters)
    gap = runner.gap
    before: dict = {
        "bracket": {
            "safety_lower": _values_doc(game, runner.values),
            "reach_lower": _values_doc(game, runner.reach.values),
            "upper": _values_doc(
                game, {s: 1 - runner.reach.values[s] for s in game.states}
            ),
            "gap": {"exact": str(gap), "approx": decimal_string(gap)},
        }
    }
    exact = runner.exact_values
    if exact is not None:
        before["exact_values"] = _values_doc(game, exact)
    return Solve(
        runner.status, runner.values, runner.iterations, runner.selector, runner.values,
        witness2=runner.reach.selector, witness2_values=runner.reach.values, before=before,
    )


class Algorithm(NamedTuple):
    run: Callable[[Problem], Solve]
    max_iters: int | None  # the default --max-iters; None if it runs to its fixpoint
    kind: str | None = None  # the objective kind it solves; None for both
    wrong_kind: str = ""  # the error for the other kind
    inline: str = ""  # the one option it reads, "K" or "EPS", also as ALGORITHM:ARG


ALGORITHMS = {
    "vi": Algorithm(_vi, 100),
    "reach-si": Algorithm(
        _reach_si, 1000, "reach",
        "reach-si solves reach objectives; use a safety algorithm for safe",
    ),
    "safety-si": Algorithm(_safety_si, 100, "safe", "safety-si solves safe objectives"),
    "k-uniform": Algorithm(_k_uniform, None, "safe", "k-uniform solves safe objectives", "K"),
    "convergent": Algorithm(_convergent, 50, "safe", "convergent solves safe objectives"),
    "certify": Algorithm(
        _certify, 200, "safe", "certify takes a safe objective (the reach side is derived)",
        "EPS",
    ),
}


def _solve(args: argparse.Namespace) -> tuple[dict, int]:
    game, tb = _load(args.input)
    name, inline = _split_algorithm(args.algorithm)
    kind, chosen = parse_objective(args.objective, game.states)
    algorithm = ALGORITHMS.get(name)
    if algorithm is None:
        raise CliError(f"unknown algorithm {args.algorithm!r}")
    if inline is not None and not algorithm.inline:
        raise CliError(f"{name} takes no inline argument")
    if args.max_iters is not None and args.max_iters < 1:
        raise CliError(f"--max-iters must be >= 1, got {args.max_iters}")
    for option, given in (("EPS", args.eps), ("K", args.k)):
        if given is not None and algorithm.inline != option:
            raise CliError(f"{name} does not read --{option.lower()}")
    takes = algorithm.inline if inline else ""
    if takes == "EPS":
        eps = parse_fraction(inline, f"--algorithm {name}:EPS")
    else:
        eps = parse_fraction(args.eps, "--eps") if args.eps is not None else Fraction(1, 100)
    if takes == "K":
        try:
            k = int(inline)
        except ValueError as exc:
            raise CliError(f"--algorithm {name}:K needs an integer, got {inline!r}") from exc
    else:
        k = args.k if args.k is not None else len(game.moves)
    if algorithm.kind not in (None, kind):
        raise CliError(algorithm.wrong_kind)
    max_iters = args.max_iters if args.max_iters is not None else algorithm.max_iters
    solve = algorithm.run(Problem(game, tb, kind, chosen, max_iters, eps, k))

    report: dict = {
        "input": args.input,
        "objective": {"kind": kind, "states": chosen},
        "algorithm": name,
        "iterations": solve.iterations,
    }
    report.update(solve.before)
    if solve.witness2 is not None:
        report["strategy2"] = _strategy_doc(game, solve.witness2)
    report["status"] = solve.status
    report["values"] = _values_doc(game, solve.values)
    report["strategy"] = _strategy_doc(game, solve.witness)
    if solve.witness_values is not None:
        report["witness_values"] = {s: str(solve.witness_values[s]) for s in game.states}
    if args.trace and solve.trace is not None:
        report["trace"] = [{s: str(v[s]) for s in game.states} for v in solve.trace]
    report.update(solve.after)
    if solve.witness2_values is not None:
        report["reach_witness_values"] = {
            s: str(solve.witness2_values[s]) for s in game.states
        }

    if args.verify:
        if solve.witness is None or solve.witness_values is None:
            report["verify_note"] = "no witness strategy to verify"
        else:
            report["verified"] = _verify(game, kind, chosen, solve)

    exit_code = 0 if solve.status in (STATUS_EXACT, STATUS_EPS) else 2
    return report, exit_code


def _verify(game: GameStructure, kind: str, chosen: list[str], solve: Solve) -> bool:
    """Self-audit: rerun the reported witness strategies from scratch and
    compare with the reported values, exactly."""
    if kind == "reach":
        w2 = compute_W2(game, chosen)
        return strategy_value_reach(game, solve.witness, chosen, w2) == solve.witness_values
    if strategy_value_safety(game, solve.witness, chosen) != solve.witness_values:
        return False
    if solve.witness2 is None:
        return True
    swapped = swap_players(game)
    complement = [s for s in game.states if s not in set(chosen)]
    w2 = compute_W2(swapped, complement)
    u = strategy_value_reach(swapped, solve.witness2, complement, w2)
    return u == solve.witness2_values


def _render_text(report: dict) -> str:
    lines = []
    lines.append(f"input: {report['input']}")
    objective = report["objective"]
    lines.append(f"objective: {objective['kind']} {{{', '.join(objective['states'])}}}")
    lines.append(f"algorithm: {report['algorithm']}")
    lines.append(f"status: {report['status']}")
    if "iterations" in report:
        lines.append(f"iterations: {report['iterations']}")
    if "k" in report:
        lines.append(f"k: {report['k']}")
    lines.append("values:")
    for s, cell in report["values"].items():
        lines.append(f"  {s} = {cell['exact']} ~ {cell['approx']}")
    if report.get("bracket"):
        bracket = report["bracket"]
        lines.append("bracket:")
        for s in report["values"]:
            lo = bracket["safety_lower"][s]["exact"]
            hi = bracket["upper"][s]["exact"]
            lines.append(f"  {s} in [{lo}, {hi}]")
        lines.append(
            f"  gap = {bracket['gap']['exact']} ~ {bracket['gap']['approx']}"
        )
    if report.get("strategy") is not None:
        lines.append("strategy (player 1):")
        for s, dist in report["strategy"].items():
            inner = ", ".join(f"{a}={p}" for a, p in dist.items())
            lines.append(f"  {s}: {inner}")
    if report.get("strategy2") is not None:
        lines.append("strategy (player 2):")
        for s, dist in report["strategy2"].items():
            inner = ", ".join(f"{a}={p}" for a, p in dist.items())
            lines.append(f"  {s}: {inner}")
    if report.get("witness_values") is not None:
        lines.append("witness values:")
        for s, p in report["witness_values"].items():
            lines.append(f"  {s} = {p}")
    if "trace" in report:
        lines.append("trace:")
        for i, step in enumerate(report["trace"]):
            cells = ", ".join(f"{s}={p}" for s, p in step.items())
            lines.append(f"  [{i}] {cells}")
    if "verified" in report:
        lines.append(f"verify: {'ok' if report['verified'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write(_render_text(report))


def _dump_tb(args: argparse.Namespace) -> int:
    game, _ = _load(args.input)
    kind, chosen = parse_objective(args.objective, game.states)
    if kind != "safe":
        raise CliError("dump-tb takes a safe objective")
    ctx = normalize_safety(game, chosen)
    if args.valuation:
        try:
            with open(args.valuation, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read valuation {args.valuation}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("valuation file must map states to rationals")
        missing = [s for s in game.states if s not in doc]
        if missing:
            raise CliError(f"valuation missing states: {', '.join(missing)}")
        v = {s: parse_fraction(doc[s], f"valuation[{s!r}]") for s in game.states}
        for s, value in v.items():
            if not (0 <= value <= 1):
                raise CliError(f"valuation[{s!r}] = {value} outside [0, 1]")
    else:
        v = SafetySIRunner(game, chosen).run(args.si_iters).values
    reduction = tb_reduction(ctx.game, v, ctx.safe, args.k)
    winning, _ = tb_almost_sure_safe(reduction.game, reduction.safe_bar)
    back_map_doc = {}
    for node, origin in reduction.back_map.items():
        if origin[0] == "state":
            back_map_doc[node] = ["state", origin[1]]
        elif origin[0] == "pair":
            back_map_doc[node] = ["pair", origin[1], list(origin[2]), list(origin[3])]
        else:
            back_map_doc[node] = ["resp", origin[1], list(origin[2]), origin[3]]
    extra = {
        "back_map": back_map_doc,
        "safe_states": [s for s in reduction.game.states if s in reduction.safe_bar],
        "almost_sure_safe": [s for s in reduction.game.states if s in winning],
        "valuation": {s: str(v[s]) for s in game.states},
    }
    sys.stdout.write(serialize_game(reduction.game, extra=extra) + "\n")
    return 0


def _validate(args: argparse.Namespace) -> int:
    game, tb = _load(args.input)
    kind = "turn-based" if tb is not None else "concurrent"
    sys.stdout.write(
        f"ok: {kind} game, {len(game.states)} states, {len(game.moves)} moves\n"
    )
    return 0


def _examples(args: argparse.Namespace) -> int:
    if args.write:
        import os

        os.makedirs(args.write, exist_ok=True)
        for name in EXAMPLE_NAMES:
            path = os.path.join(args.write, f"{name}.game")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(example_text(name))
            sys.stdout.write(path + "\n")
        return 0
    for name in EXAMPLE_NAMES:
        kind, states = EXAMPLE_OBJECTIVES[name]
        if kind == "safe-complement":
            objective = f"safe:not-{','.join(states)}"
        else:
            objective = f"reach:{','.join(states)}"
        sys.stdout.write(f"{name}\t--objective {objective}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congame",
        description="Exact solvers for concurrent stochastic reachability and safety games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a game file")
    solve.add_argument("input")
    solve.add_argument("--objective", required=True, help="reach:STATES or safe:STATES (not- complements)")
    solve.add_argument(
        "--algorithm",
        required=True,
        help=" | ".join(
            f"{name}[:{algorithm.inline}]" if algorithm.inline else name
            for name, algorithm in ALGORITHMS.items()
        ),
    )
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--eps", default=None, help="rational like 1/100")
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--verify", action="store_true", help="recompute the witness value and compare")
    solve.add_argument("--trace", action="store_true", help="include the valuation trace")
    solve.add_argument("--format", choices=("text", "json"), default="text")

    dump = sub.add_parser("dump-tb", help="emit the turn-based reduction at a valuation")
    dump.add_argument("input")
    dump.add_argument("--objective", required=True)
    dump.add_argument("--valuation", default=None, help="JSON file state -> rational")
    dump.add_argument("--si-iters", type=int, default=0, help="derive the valuation by running this many safety improvement iterations")
    dump.add_argument("--k", type=int, default=None, help="restrict mixtures to k-uniform")

    validate = sub.add_parser("validate", help="parse and check a game file")
    validate.add_argument("input")

    examples = sub.add_parser("examples", help="list or write the bundled example games")
    examples.add_argument("--write", default=None, metavar="DIR")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            report, code = _solve(args)
            _emit(report, args.format)
            return code
        if args.command == "dump-tb":
            return _dump_tb(args)
        if args.command == "validate":
            return _validate(args)
        if args.command == "examples":
            return _examples(args)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, GameError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (AssertionError, RuntimeError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
