"""Parameter sweeps and strategy-region maps over (weights, delta) space.

A sweep fixes a full scenario and varies one or two of alpha, beta, gamma,
delta over inclusive, evenly spaced grids. The whole lattice is evaluated in
one numpy pass: each cell holds both creator utilities, their gap, and the
chosen (exact best-response) strategy. Cells can be emitted as CSV or, for
two-axis sweeps, as a deterministic SVG region map.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .core import (
    AlgorithmWeights,
    CreatorParams,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
    _checked,
    creator_utility,
    features,
)
from .population import MAX_GRID_EVALUATIONS
from .response import Exact, switching_delta

SWEEPABLE_PARAMS = ("alpha", "beta", "gamma", "delta")

COLLABORATION_COLOR = "#4f9d69"
BEEFING_COLOR = "#c0504d"

# Rows (cells) each emitter formats and writes at once.
_EMIT_ROWS = 16384


class MalformedLatticeError(ValueError):
    """Cells do not form the complete 2-axis lattice an operation needs."""


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: `steps` evenly spaced values over [lo, hi],
    endpoints included (steps = 1 means the single value lo)."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in SWEEPABLE_PARAMS:
            raise InvalidScenarioError(
                f"axis name must be one of {SWEEPABLE_PARAMS}, got {self.name!r}"
            )
        lo = _checked(f"{self.name} axis lo", self.lo, minimum=None)
        hi = _checked(f"{self.name} axis hi", self.hi, minimum=None)
        if not (lo <= hi):
            raise InvalidScenarioError(f"axis range must have lo <= hi, got [{lo!r}, {hi!r}]")
        if not math.isfinite(hi - lo):  # linspace would give nan and inf values
            raise InvalidScenarioError(f"{self.name} axis range [{lo!r}, {hi!r}] is too wide: hi - lo overflows")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not isinstance(self.steps, int) or self.steps < 1:
            raise InvalidScenarioError(f"steps must be an integer >= 1, got {self.steps!r}")
        if self.steps > MAX_GRID_EVALUATIONS:  # refused before anything is allocated
            raise InvalidScenarioError(
                f"{self.name} axis steps must be <= {MAX_GRID_EVALUATIONS}, "
                f"the limit of grid evaluations, got {self.steps}"
            )

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.lo, self.hi, self.steps)]


@dataclass(frozen=True)
class SweepSpec:
    """Axes plus the fixed scenario supplying every non-swept value.

    Sweeps map exact best responses only; rule.tie_tol sets the band of
    gaps that count as a tie and go to collaboration. The lattice may hold
    at most MAX_GRID_EVALUATIONS cells."""

    axis1: SweepAxis
    axis2: SweepAxis | None
    weights: AlgorithmWeights
    creator: CreatorParams
    table: GameTable
    rule: Exact = Exact()

    def __post_init__(self) -> None:
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidScenarioError(f"axis1 and axis2 both sweep {self.axis1.name!r}")
        if not isinstance(self.rule, Exact):
            raise InvalidScenarioError(f"sweeps use the exact rule only, got {self.rule!r}")
        if self.axis2 is not None and self.axis1.steps * self.axis2.steps > MAX_GRID_EVALUATIONS:
            raise InvalidScenarioError(
                f"{self.axis1.steps} x {self.axis2.steps} = {self.axis1.steps * self.axis2.steps} sweep cells "
                f"exceeds the limit of {MAX_GRID_EVALUATIONS}; lower the steps"
            )


@dataclass(frozen=True)
class SweepCell:
    """One lattice point: swept values, both utilities, gap, and the choice."""

    param_values: dict[str, float]
    utilities: dict[Strategy, float]
    chosen: Strategy
    gap: float


@dataclass(frozen=True, eq=False)
class SweepResult(Sequence[SweepCell]):
    """Read-only sweep cells held as columns; a SweepCell is built on access.

    names[a] is the a-th swept parameter, values[a] its values and
    position[a, k] the place of cell k's value in values[a]. u_collab,
    u_beef, gap and beefing (the chosen strategy is Beefing) hold one
    entry per cell. Indexing, slicing (a list of cells) and iteration
    yield SweepCell values.
    """

    names: tuple[str, ...]
    values: tuple[np.ndarray, ...]
    position: np.ndarray
    u_collab: np.ndarray
    u_beef: np.ndarray
    gap: np.ndarray
    beefing: np.ndarray

    def __post_init__(self) -> None:
        for column in (*self.values, self.position, self.u_collab, self.u_beef, self.gap, self.beefing):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.gap)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[k] for k in range(len(self))[key]]
        k = range(len(self))[key]
        return SweepCell(
            param_values={
                name: float(values[i]) for name, values, i in zip(self.names, self.values, self.position[:, k])
            },
            utilities={
                Strategy.COLLABORATION: float(self.u_collab[k]),
                Strategy.BEEFING: float(self.u_beef[k]),
            },
            chosen=Strategy.BEEFING if self.beefing[k] else Strategy.COLLABORATION,
            gap=float(self.gap[k]),
        )


def _utility(params: dict, model: UtilityModel, profile: EngagementProfile) -> np.ndarray:
    """creator_utility over arrays of swept values, with its operations in its
    order, so that every value is bit-identical to the scalar one."""
    f1, f2, f3, risk = features(profile, model)
    return (params["alpha"] * f1 + params["beta"] * f2 + params["gamma"] * f3 - params["delta"] * risk).ravel()


def _fixed_params(spec: SweepSpec) -> dict[str, float]:
    return {
        "alpha": spec.weights.alpha,
        "beta": spec.weights.beta,
        "gamma": spec.weights.gamma,
        "delta": spec.creator.delta,
    }


def _raise_cell_error(spec: SweepSpec, cell: SweepCell) -> None:
    """Evaluate one invalid cell on the scalar path, which raises its error."""
    params = {**_fixed_params(spec), **cell.param_values}
    weights = AlgorithmWeights(params["alpha"], params["beta"], params["gamma"])
    creator = CreatorParams(params["delta"], spec.creator.model)
    for strategy in Strategy:
        creator_utility(weights, creator, spec.table.profiles[strategy])
    raise AssertionError(f"cell {cell} was flagged invalid but evaluates")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every lattice point, axis1 outer and axis2 inner, both ascending.

    Raises the error the first invalid cell raises in that order: a swept
    value that is negative or non-finite, or a non-finite utility.
    """
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    names = tuple(axis.name for axis in axes)
    shape = tuple(axis.steps for axis in axes)
    params = _fixed_params(spec)
    with np.errstate(all="ignore"):  # invalid cells are found and reported below
        values = tuple(np.linspace(axis.lo, axis.hi, axis.steps) for axis in axes)
        for a, (name, axis_values) in enumerate(zip(names, values)):
            params[name] = axis_values.reshape([-1 if b == a else 1 for b in range(len(axes))])
        u_collab = _utility(params, spec.creator.model, spec.table.profiles[Strategy.COLLABORATION])
        u_beef = _utility(params, spec.creator.model, spec.table.profiles[Strategy.BEEFING])
        gap = u_beef - u_collab
    result = SweepResult(
        names,
        values,
        np.indices(shape).reshape(len(shape), -1),
        u_collab,
        u_beef,
        gap,
        gap > spec.rule.tie_tol,
    )
    ok = np.isfinite(u_collab) & np.isfinite(u_beef)
    for axis_values, position in zip(values, result.position):  # _checked's test, -0.0 included
        ok &= (np.isfinite(axis_values) & (axis_values >= 0.0))[position]
    if not ok.all():
        _raise_cell_error(spec, result[int(np.argmin(ok))])
    return result


def region_boundary(spec: SweepSpec) -> float | None:
    """The switching delta of the fixed scenario, or None when it is
    undefined or falls outside the swept range. Requires a pure delta sweep."""
    if spec.axis1.name != "delta" or spec.axis2 is not None:
        raise InvalidScenarioError("region_boundary needs axis1 = delta and no axis2")
    boundary = switching_delta(spec.weights, spec.creator.model, spec.table)
    if boundary is None or not (spec.axis1.lo <= boundary <= spec.axis1.hi):
        return None
    return boundary


def _row_blocks(cells: int) -> Iterator[slice]:
    """Consecutive blocks of at most _EMIT_ROWS cells, which bound the
    memory the emitters' strings take."""
    return (slice(lo, lo + _EMIT_ROWS) for lo in range(0, cells, _EMIT_ROWS))


def _fmt(value: float) -> str:
    """9 significant digits, no trailing zeros (exact for all golden values)."""
    return format(float(value), ".9g")


def emit_csv(cells: SweepResult, sink: BinaryIO) -> None:
    """Write a header row then one row per cell of a run_sweep result.

    Columns: the swept parameter names (sorted), then u_collab, u_beef,
    gap, chosen. Reals use 9 significant digits; chosen is the strategy
    name; rows end with LF. Rows are formatted and written in blocks of
    _EMIT_ROWS cells. Any input but a SweepResult raises TypeError.
    """
    if not isinstance(cells, SweepResult):
        raise TypeError(f"emit_csv takes the SweepResult of run_sweep, got {type(cells).__name__}")
    if not len(cells):
        raise InvalidScenarioError("no cells to emit")
    order = sorted(range(len(cells.names)), key=cells.names.__getitem__)
    params = [(np.array([_fmt(v) for v in cells.values[a].tolist()], dtype=object), cells.position[a]) for a in order]
    chosen = np.array([Strategy.COLLABORATION.value, Strategy.BEEFING.value], dtype=object)
    # "%.9g" formats a float exactly as _fmt does.
    row = ",".join(["%s"] * len(order) + ["%.9g"] * 3 + ["%s"])
    header = ",".join([cells.names[a] for a in order] + ["u_collab", "u_beef", "gap", "chosen"])
    sink.write((header + "\n").encode("utf-8"))
    for rows in _row_blocks(len(cells)):
        lines = map(
            row.__mod__,
            zip(
                *(formatted[position[rows]].tolist() for formatted, position in params),
                cells.u_collab[rows].tolist(),
                cells.u_beef[rows].tolist(),
                cells.gap[rows].tolist(),
                chosen[cells.beefing[rows].astype(np.intp)].tolist(),
            ),
        )
        sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def _check_region_lattice(cells: SweepResult) -> None:
    """Raise the error emit_region_svg raises for input it cannot map."""
    if not isinstance(cells, SweepResult):
        raise TypeError(f"emit_region_svg takes the SweepResult of run_sweep, got {type(cells).__name__}")
    if not len(cells):
        raise MalformedLatticeError("no cells")
    if len(cells.names) != 2:
        raise MalformedLatticeError(f"cells must come from a 2-axis sweep, got axes {list(cells.names)}")


def emit_region_svg(cells: SweepResult, sink: BinaryIO) -> None:
    """Write a standalone SVG region map of a 2-axis run_sweep result.

    One filled rectangle per cell of the steps1 x steps2 lattice, colored
    by the chosen strategy (collaboration green, beefing red); axes are
    labeled with the parameter names and their ranges. Rects are formatted
    and written in blocks of _EMIT_ROWS cells. Output is
    byte-deterministic for identical input. Any input but a SweepResult
    raises TypeError; an empty or one-axis result raises
    MalformedLatticeError.
    """
    _check_region_lattice(cells)
    name1, name2 = cells.names
    values1, values2 = cells.values

    width, height = 640, 480
    left, right, top, bottom = 90.0, 620.0, 30.0, 420.0
    cell_w = (right - left) / len(values1)
    cell_h = (bottom - top) / len(values2)

    # A rect is the head of its column i followed by the tail of its row j in its color.
    heads = np.array([f'<rect x="{left + i * cell_w:.2f}" y="' for i in range(len(values1))], dtype=object)
    tails = np.array(
        [
            [
                f'{bottom - (j + 1) * cell_h:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '  # axis2 ascends upward
                f'fill="{color}"/>'
                for j in range(len(values2))
            ]
            for color in (COLLABORATION_COLOR, BEEFING_COLOR)
        ],
        dtype=object,
    )
    sink.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'.encode("utf-8")
    )
    for rows in _row_blocks(len(cells)):
        rects = heads[cells.position[0, rows]] + tails[cells.beefing[rows].astype(np.intp), cells.position[1, rows]]
        sink.write(("\n".join(rects.tolist()) + "\n").encode("utf-8"))

    mid_x = (left + right) / 2.0
    mid_y = (top + bottom) / 2.0
    labels = [
        f'<text x="{mid_x:.2f}" y="{height - 14}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{name1}: {_fmt(values1[0])} to {_fmt(values1[-1])}</text>',
        f'<text x="20" y="{mid_y:.2f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {mid_y:.2f})">'
        f"{name2}: {_fmt(values2[0])} to {_fmt(values2[-1])}</text>",
        "</svg>",
    ]
    sink.write(("\n".join(labels) + "\n").encode("utf-8"))
