"""Command-line front end.

Subcommands:

    eval                per-strategy utilities and the gap for a scenario
    best-response       chosen strategy and the switching delta
    equilibrium         grid-search optimum over the scenario's weight domain
    sweep               parameter sweep to CSV (and optionally an SVG map)
    reproduce-examples  recompute the built-in worked examples and verify them

Scenario arguments accept a JSON file path or a preset name (example1,
example2, example3, tiktok-like, youtube-like); an existing file wins over
a preset of the same name. Output is fixed key=value lines; reals use 9
significant digits, but best-response's delta_star has 9 fixed decimals.
Exit codes: 0 success, 1 I/O failure, 2 invalid scenario or flags, 3 example
checks failed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from pathlib import Path

from .core import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    GameTable,
    InvalidScenarioError,
    Strategy,
    creator_utility,
)
from .leader import check_grid_budget, stackelberg_solve
from .response import Exact, best_response, switching_delta
from .scenario import PRESETS, Scenario, ScenarioError, load_scenario, preset_scenario
from .sweep import SweepAxis, SweepSpec, _csv_writer, _emit, _fmt, _Lattice, _svg_writer, _Writer

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3


def _resolve_scenario(arg: str) -> Scenario:
    if Path(arg).exists():
        return load_scenario(arg)
    if arg in PRESETS:
        return preset_scenario(arg)
    raise FileNotFoundError(f"no scenario file or preset named {arg!r}")


def _cmd_eval(scenario: Scenario) -> int:
    utilities = [creator_utility(scenario.weights, scenario.creator, scenario.table.profiles[s]) for s in Strategy]
    for strategy, value in zip(Strategy, utilities):
        print(f"{strategy.value}={_fmt(value)}")
    print(f"gap={_fmt(utilities[1] - utilities[0])}")  # Beefing's minus Collaboration's, as utility_gap
    return EXIT_OK


def _cmd_best_response(scenario: Scenario) -> int:
    chosen = best_response(scenario.weights, scenario.creator, scenario.table)
    boundary = switching_delta(scenario.weights, scenario.creator.model, scenario.table)
    print(f"chosen={chosen.value}")
    if boundary is None or boundary < 0.0:
        # No admissible threshold: beefing is never preferred for delta >= 0,
        # or the gap does not depend on delta at all.
        print("delta_star=none")
    else:
        print(f"delta_star={boundary:.9f}")
    return EXIT_OK


def _cmd_equilibrium(scenario: Scenario) -> int:
    try:
        check_grid_budget(scenario.domain, len(scenario.population))
    except InvalidScenarioError as exc:
        raise ScenarioError(f"scenario.domain: {exc}") from exc
    result = stackelberg_solve(scenario.domain, scenario.population, scenario.rule, scenario.table)
    print(f"alpha={_fmt(result.weights.alpha)}")
    print(f"beta={_fmt(result.weights.beta)}")
    print(f"gamma={_fmt(result.weights.gamma)}")
    for strategy in Strategy:
        print(f"share_{strategy.value}={_fmt(result.shares.share[strategy])}")
    print(f"leader_value={_fmt(result.leader_value)}")
    print(f"grid_points={result.grid_points_evaluated}")
    return EXIT_OK


def _parse_axis(flag: str) -> SweepAxis:
    parts = flag.split(":")
    if len(parts) != 4:
        raise InvalidScenarioError(f"axis flag must be name:lo:hi:steps, got {flag!r}")
    name, lo, hi, steps = parts
    try:
        return SweepAxis(name=name, lo=float(lo), hi=float(hi), steps=int(steps))
    except ValueError as exc:
        if isinstance(exc, InvalidScenarioError):
            raise
        raise InvalidScenarioError(f"axis flag must be name:lo:hi:steps, got {flag!r}") from exc


def _write_all(lattice: _Lattice, outputs: list[tuple[str, _Writer]]) -> None:
    """Evaluate the lattice block by block and write each block straight into
    a temporary file beside each output's target, then move them into place
    only once every output is written."""
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            streams = []
            for path, writer in outputs:
                if os.path.isdir(path):  # os.replace would fail only after earlier outputs were moved
                    raise IsADirectoryError(errno.EISDIR, "is a directory", path)
                temp = f"{path}.{os.urandom(6).hex()}.tmp"
                streams.append((writer, stack.enter_context(open(temp, "xb"))))
                temps.append(temp)
            _emit(streams, lattice.blocks())
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):  # already moved into place
                os.remove(temp)


def _cmd_sweep(scenario: Scenario, axis1: str, axis2: str | None, out: str, svg: str | None) -> int:
    if svg is not None and os.path.realpath(svg) == os.path.realpath(out):  # the SVG would replace the CSV
        raise InvalidScenarioError(f"--out and --svg name the same file, {os.path.realpath(out)!r}")
    if not isinstance(scenario.rule, Exact):
        raise ScenarioError(f"scenario.rule: sweeps use the exact rule only, got {scenario.rule!r}")
    spec = SweepSpec(
        axis1=_parse_axis(axis1),
        axis2=_parse_axis(axis2) if axis2 is not None else None,
        weights=scenario.weights,
        creator=scenario.creator,
        table=scenario.table,
        rule=scenario.rule,
    )
    lattice = _Lattice(spec)  # raises the first invalid cell's error before any file is opened
    formats = [(path, writer) for path, writer in ((out, _csv_writer), (svg, _svg_writer)) if path is not None]
    outputs = [(path, writer(lattice.names, lattice.values)) for path, writer in formats]  # one-axis --svg raises
    _write_all(lattice, outputs)
    print(f"rows={lattice.cells}")
    return EXIT_OK


def run_example_checks(table: GameTable | None = None) -> tuple[list[str], bool]:
    """Recompute the three built-in worked examples via the public API.

    Returns one report row per check and whether all six checks passed,
    each at tolerance 1e-12. `table` overrides the built-in metrics (used
    by tests as a negative control).
    """
    table = table if table is not None else DEFAULT_TABLE
    tol = 1e-12
    rows: list[str] = []
    all_ok = True

    cases = [
        ("ex1", AlgorithmWeights(1.0, 2.0, 1.5), CreatorParams(1.0), (16.5, 12.0), Strategy.COLLABORATION),
        ("ex2", AlgorithmWeights(1.0, 2.0, 1.5), CreatorParams(2.5), (None, 7.5), Strategy.COLLABORATION),
        ("ex3", AlgorithmWeights(2.5, 0.5, 2.0), CreatorParams(1.0), (13.5, 18.5), Strategy.BEEFING),
    ]
    for name, weights, creator, (expect_collab, expect_beef), expect_choice in cases:
        u_collab = creator_utility(weights, creator, table.profiles[Strategy.COLLABORATION])
        u_beef = creator_utility(weights, creator, table.profiles[Strategy.BEEFING])
        if expect_collab is None:
            ok = abs(u_beef - expect_beef) <= tol
            rows.append(
                f"check={name}_beefing_utility expected={_fmt(expect_beef)} "
                f"actual={_fmt(u_beef)} status={'pass' if ok else 'fail'}"
            )
        else:
            ok = abs(u_collab - expect_collab) <= tol and abs(u_beef - expect_beef) <= tol
            rows.append(
                f"check={name}_utilities expected={_fmt(expect_collab)},{_fmt(expect_beef)} "
                f"actual={_fmt(u_collab)},{_fmt(u_beef)} status={'pass' if ok else 'fail'}"
            )
        all_ok &= ok

        chosen = best_response(weights, creator, table)
        ok = chosen is expect_choice
        rows.append(
            f"check={name}_choice expected={expect_choice.value} "
            f"actual={chosen.value} status={'pass' if ok else 'fail'}"
        )
        all_ok &= ok

    return rows, all_ok


def _cmd_reproduce_examples(table: GameTable | None = None) -> int:
    rows, all_ok = run_example_checks(table)
    for row in rows:
        print(row)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creatorgame",
        description="Engagement-weight game solver: creator best responses and platform optima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="per-strategy utilities and the gap")
    p.add_argument("scenario", help="scenario JSON path or preset name")

    p = sub.add_parser("best-response", help="chosen strategy and switching delta")
    p.add_argument("scenario", help="scenario JSON path or preset name")

    p = sub.add_parser("equilibrium", help="grid-search optimum over the weight domain")
    p.add_argument("scenario", help="scenario JSON path or preset name")

    p = sub.add_parser("sweep", help="parameter sweep to CSV (and optional SVG map)")
    p.add_argument("scenario", help="scenario JSON path or preset name")
    p.add_argument("--axis1", required=True, metavar="name:lo:hi:steps")
    p.add_argument("--axis2", default=None, metavar="name:lo:hi:steps")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="SVG region-map output path (2-axis sweeps)")

    sub.add_parser("reproduce-examples", help="verify the built-in worked examples")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-examples":
            return _cmd_reproduce_examples()
        scenario = _resolve_scenario(args.scenario)
        if args.command == "eval":
            return _cmd_eval(scenario)
        if args.command == "best-response":
            return _cmd_best_response(scenario)
        if args.command == "equilibrium":
            return _cmd_equilibrium(scenario)
        if args.command == "sweep":
            return _cmd_sweep(scenario, args.axis1, args.axis2, args.out, args.svg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ScenarioError, InvalidScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
