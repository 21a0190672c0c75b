"""Command-line front end.

Subcommands:

    eval                per-strategy utilities and the gap for a scenario
    best-response       chosen strategy and the switching delta
    equilibrium         grid-search optimum over the scenario's weight domain
    sweep               parameter sweep to CSV (and optionally an SVG map)
    reproduce-examples  recompute the built-in worked examples and verify them

Scenario arguments accept a JSON file path or a preset name (example1,
example2, example3, tiktok-like, youtube-like); an existing file wins over
a preset of its name, a preset over a directory. Output is fixed key=value
lines; reals use 9 significant digits, but best-response's delta_star has
9 fixed decimals. Exit codes: 0 success, 1 I/O failure, 2 invalid scenario
or flags, 3 example checks failed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from .core import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    InvalidScenarioError,
    Strategy,
    _fmt,
    creator_utility,
)
from .leader import check_grid_budget, stackelberg_solve
from .response import Exact, best_response, switching_delta
from .scenario import PRESETS, Scenario, ScenarioError, load_scenario, preset_scenario

if TYPE_CHECKING:  # the sweep module is imported by the sweep subcommand alone
    from .sweep import SweepAxis, SweepResult

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3


def _resolve_scenario(arg: str) -> Scenario:
    if Path(arg).exists() and not (arg in PRESETS and os.path.isdir(arg)):  # a directory holds no scenario
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
    for name in ("alpha", "beta", "gamma"):
        print(f"{name}={_fmt(getattr(result.weights, name))}")
    for strategy in Strategy:
        print(f"share_{strategy.value}={_fmt(result.shares.share[strategy])}")
    print(f"leader_value={_fmt(result.leader_value)}")
    print(f"grid_points={result.grid_points_evaluated}")
    return EXIT_OK


def _parse_axis(flag: str) -> SweepAxis:
    from .sweep import SweepAxis

    try:  # a wrong number of fields fails to unpack with a ValueError too
        name, lo, hi, steps = flag.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise InvalidScenarioError(f"axis flag must be name:lo:hi:steps, got {flag!r}") from exc
    return SweepAxis(name=name, lo=lo, hi=hi, steps=steps)


def _write_all(cells: SweepResult, outputs: list[tuple[str, str] | None]) -> None:
    """Write the sweep's CSV and, unless its output is None, its SVG in one
    walk of the lattice, each straight into a temporary file beside its
    target, then move them into place only once every output is written. An
    output is (path asked for, resolved target); an OSError names only the
    path asked for."""
    from .sweep import write_sweep

    def naming(path: str, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from exc

    def open_temp(path: str, target: str) -> BinaryIO:
        # os.replace fails on a directory after earlier outputs moved; realpath drops a final "/", "." or ".."
        if os.path.isdir(target) or os.path.basename(path) in ("", ".", ".."):
            raise IsADirectoryError(errno.EISDIR, "is a directory", path)
        if os.path.lexists(target) and not os.path.isfile(target):  # a FIFO, a device or a looping symlink
            raise OSError(errno.EINVAL, "not a regular file", path)
        temp = f"{target}.{os.urandom(6).hex()}.tmp"
        sink = stack.enter_context(naming(path, open, temp, "xb"))
        temps.append((temp, path, target))
        return sink

    temps = []
    try:
        with contextlib.ExitStack() as stack:
            write_sweep(cells, *(functools.partial(open_temp, *out) if out else None for out in outputs))
        for temp, path, target in temps:
            naming(path, os.replace, temp, target)
    finally:
        for temp, _, _ in temps:
            with contextlib.suppress(FileNotFoundError):  # already moved into place
                os.remove(temp)


def _cmd_sweep(scenario: Scenario, axis1: str, axis2: str | None, out: str, svg: str | None) -> int:
    from .sweep import SweepSpec, run_sweep

    # each output is resolved once: its target is compared, checked, written and replaced, so a symlink stays
    outputs = [None if path is None else (path, os.path.realpath(path)) for path in (out, svg)]
    if svg is not None and outputs[0][1] == outputs[1][1]:  # the SVG would replace the CSV
        raise InvalidScenarioError(f"--out and --svg name the same file, {outputs[0][1]!r}")
    if not isinstance(scenario.rule, Exact):
        raise ScenarioError(f"scenario.rule: sweeps use the exact rule only, got {scenario.rule!r}")
    axes = (_parse_axis(axis1), None if axis2 is None else _parse_axis(axis2))
    spec = SweepSpec(*axes, scenario.weights, scenario.creator, scenario.table, scenario.rule)
    cells = run_sweep(spec)  # raises the first invalid cell's error before any file is opened
    _write_all(cells, outputs)  # so does a one-axis --svg
    print(f"rows={len(cells)}")
    return EXIT_OK


def run_example_checks() -> tuple[list[str], bool]:
    """Recompute the three built-in worked examples on DEFAULT_TABLE via the public API.

    Returns one report row per check and whether all six checks passed,
    each at tolerance 1e-12.
    """
    tol = 1e-12
    rows: list[str] = []
    all_ok = True

    cases = [
        ("ex1", AlgorithmWeights(1.0, 2.0, 1.5), CreatorParams(1.0), (16.5, 12.0), Strategy.COLLABORATION),
        ("ex2", AlgorithmWeights(1.0, 2.0, 1.5), CreatorParams(2.5), (None, 7.5), Strategy.COLLABORATION),
        ("ex3", AlgorithmWeights(2.5, 0.5, 2.0), CreatorParams(1.0), (13.5, 18.5), Strategy.BEEFING),
    ]
    for name, weights, creator, expected_utilities, expect_choice in cases:
        # (expected, actual) per strategy, Collaboration first; ex2 checks Beefing's alone
        pairs = [(expected, creator_utility(weights, creator, DEFAULT_TABLE.profiles[s]))
                 for s, expected in zip(Strategy, expected_utilities) if expected is not None]
        ok = all(abs(actual - expected) <= tol for expected, actual in pairs)
        rows.append(
            f"check={name}_{'utilities' if len(pairs) == 2 else 'beefing_utility'} "
            f"expected={','.join(_fmt(expected) for expected, _ in pairs)} "
            f"actual={','.join(_fmt(actual) for _, actual in pairs)} status={'pass' if ok else 'fail'}"
        )
        all_ok &= ok

        chosen = best_response(weights, creator, DEFAULT_TABLE)
        ok = chosen is expect_choice
        rows.append(
            f"check={name}_choice expected={expect_choice.value} "
            f"actual={chosen.value} status={'pass' if ok else 'fail'}"
        )
        all_ok &= ok

    return rows, all_ok


def _cmd_reproduce_examples() -> int:
    rows, all_ok = run_example_checks()
    for row in rows:
        print(row)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_SCENARIO = ("scenario", {"help": "scenario JSON path or preset name"})

# subcommand -> (help, its arguments as (name or flag, add_argument options)), in the order --help lists them
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...]]] = {
    "eval": ("per-strategy utilities and the gap", (_SCENARIO,)),
    "best-response": ("chosen strategy and switching delta", (_SCENARIO,)),
    "equilibrium": ("grid-search optimum over the weight domain", (_SCENARIO,)),
    "sweep": (
        "parameter sweep to CSV (and optional SVG map)",
        (
            _SCENARIO,
            ("--axis1", {"required": True, "metavar": "name:lo:hi:steps"}),
            ("--axis2", {"default": None, "metavar": "name:lo:hi:steps"}),
            ("--out", {"required": True, "help": "CSV output path"}),
            ("--svg", {"default": None, "help": "SVG region-map output path (2-axis sweeps)"}),
        ),
    ),
    "reproduce-examples": ("verify the built-in worked examples", ()),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for an argv whose first item is command: only that subcommand's
    subparser when command names one, every subparser otherwise (no command,
    -h, or an unknown name), so help and errors list them all. A lone
    subparser lists every name as its metavar, which keeps the root usage line
    of an error such as "unrecognized arguments" the same."""
    parser = argparse.ArgumentParser(
        prog="creatorgame",
        description="Engagement-weight game solver: creator best responses and platform optima.",
    )
    if command in _COMMANDS:
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
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
    except ValueError as exc:  # ScenarioError and InvalidScenarioError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
