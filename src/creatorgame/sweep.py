"""Parameter sweeps and strategy-region maps over (weights, delta) space.

A sweep fixes a full scenario and varies one or two of alpha, beta, gamma,
delta over inclusive, evenly spaced grids. The lattice is evaluated with
numpy, one block of cells at a time: each cell holds both creator utilities,
their gap, and the chosen (exact best-response) strategy. Cells can be
emitted as CSV or, for two-axis sweeps, as a deterministic SVG region map;
run_sweep materialises the whole lattice, while the CLI evaluates and writes
it block by block.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

import numpy as np

from .core import (
    AlgorithmWeights,
    CreatorParams,
    GameTable,
    InvalidScenarioError,
    Strategy,
    _checked,
    _engagement,
    creator_utility,
    features,
)
from .population import MAX_GRID_EVALUATIONS
from .response import Exact, switching_delta

SWEEPABLE_PARAMS = ("alpha", "beta", "gamma", "delta")

COLLABORATION_COLOR = "#4f9d69"
BEEFING_COLOR = "#c0504d"

# Rows (cells) evaluated, formatted and written at once, set by measurement
# on a 2-vCPU Xeon: a 1000 x 1000 CLI sweep with --svg peaks 1.8 MiB above
# its post-import memory (8.4 MiB at 16384 rows), and 100-200 step two-axis
# sweeps ran faster than at 1024 or 16384 rows.
_EMIT_ROWS = 2048


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


class _Lattice:
    """The cells of a sweep, axis1 outer and axis2 inner, both ascending,
    evaluated in blocks: cell k sits at position (k // steps2, k % steps2)."""

    def __init__(self, spec: SweepSpec) -> None:
        axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
        self.spec = spec
        self.names = tuple(axis.name for axis in axes)
        with np.errstate(all="ignore"):  # a subnormal step underflows; SweepAxis keeps the values finite
            self.values = tuple(np.linspace(axis.lo, axis.hi, axis.steps) for axis in axes)
        self.cells = math.prod(axis.steps for axis in axes)
        self._phi = [features(spec.table.profiles[s], spec.creator.model) for s in Strategy]
        # The first invalid cell raises. Values are >= lo, so a negative one shows in cell 0. Else weights,
        # features and deltas are >= 0, rounding is monotone and values pass hi only below 1e-300 (a subnormal
        # step), so a utility is non-finite only if one of the last cell's is (leader._values_stay_finite).
        if not all(values[0] >= 0.0 for values in self.values):  # _checked's test, which -0.0 passes
            _raise_cell_error(spec, self.evaluate(0, 1)[0])
        last = self.evaluate(self.cells - 1, self.cells)
        if not np.isfinite([last.u_collab, last.u_beef]).all():
            for block in self.blocks():
                ok = np.isfinite([block.u_collab, block.u_beef]).all(axis=0)
                if not ok.all():
                    _raise_cell_error(spec, block[int(np.argmin(ok))])

    def evaluate(self, lo: int, hi: int) -> SweepResult:
        """Cells lo..hi-1. Each utility is creator_utility's sum over the
        swept arrays, core._engagement(w, φ) - delta*r, so every value has
        the scalar bits."""
        k = np.arange(lo, hi)
        if len(self.values) == 2:
            steps2 = len(self.values[1])
            i = k // steps2  # on int64, // by a scalar is several times faster than np.divmod
            position = np.stack([i, k - i * steps2])
        else:
            position = k[np.newaxis]
        params = _fixed_params(self.spec)
        for name, values, i in zip(self.names, self.values, position):
            params[name] = values[i]
        with np.errstate(all="ignore"):
            u_collab, u_beef = (
                _engagement(params["alpha"], params["beta"], params["gamma"], phi) - params["delta"] * phi[3]
                for phi in self._phi
            )
            gap = u_beef - u_collab
        return SweepResult(self.names, self.values, position, u_collab, u_beef, gap, gap > self.spec.rule.tie_tol)

    def blocks(self) -> Iterator[SweepResult]:
        """Every cell in consecutive blocks of at most _EMIT_ROWS, in lattice order."""
        return (self.evaluate(lo, min(lo + _EMIT_ROWS, self.cells)) for lo in range(0, self.cells, _EMIT_ROWS))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every lattice point, axis1 outer and axis2 inner, both ascending.

    Raises the error the first invalid cell raises in that order: a swept
    value that is negative or non-finite, or a non-finite utility.
    """
    lattice = _Lattice(spec)
    return lattice.evaluate(0, lattice.cells)


def region_boundary(spec: SweepSpec) -> float | None:
    """The switching delta of the fixed scenario, or None when it is
    undefined or falls outside the swept range. Requires a pure delta sweep."""
    if spec.axis1.name != "delta" or spec.axis2 is not None:
        raise InvalidScenarioError("region_boundary needs axis1 = delta and no axis2")
    boundary = switching_delta(spec.weights, spec.creator.model, spec.table)
    if boundary is None or not (spec.axis1.lo <= boundary <= spec.axis1.hi):
        return None
    return boundary


def _fmt(value: float) -> str:
    """9 significant digits, no trailing zeros (exact for all golden values)."""
    return format(float(value), ".9g")


def _layout_tables() -> tuple[np.ndarray, ...]:
    """The masks and fixed bytes of _format_9g's two words, indexed by
    c = (e + 4) * 10 + last for a decimal exponent e in [-4, 9] and the
    index last of the last digit written, max(e, last nonzero); e and last
    of 9 occur only for values that take the slow path."""
    e = np.arange(-4, 10)[:, np.newaxis, np.newaxis]
    last = np.arange(10)[np.newaxis, :, np.newaxis]
    byte = np.arange(8)
    dot = last > e  # a digit follows the point
    # low word: "0." and -e - 1 zeros ending at byte 5 when e < 0, the point at byte 7 when e = 0
    prefix = (e < 0) & (byte >= 5 + e) & (byte <= 5)
    low = np.where(prefix, np.where(byte == 6 + e, ord("."), ord("0")), 0) + ((e == 0) & dot & (byte == 7)) * ord(".")
    # digit k >= 1 sits at byte k - 1 of the high word; the head d1..de moves down a byte to make room for the point
    head = (byte < e) * 255
    tail = ((byte >= np.maximum(e, 0)) & (byte < last)) * 255
    point = ((e >= 1) & dot & (byte == e - 1)) * ord(".")
    shifts = np.uint64(8) * np.arange(8, dtype=np.uint64)  # byte i of a little-endian word
    tables = (np.broadcast_to(t, (14, 10, 8)).astype(np.uint64) << shifts for t in (low, head, tail, point))
    return tuple(t.sum(axis=-1, dtype=np.uint64).ravel() for t in tables)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For q in [0, 9999]: its 4 decimal digits as ASCII at bytes 0-3 of a
    uint64, and the count of their trailing zeros."""
    q = np.arange(10_000)
    ascii_digits = np.zeros(len(q), dtype=np.uint64)
    zeros = np.zeros(len(q), dtype=np.intp)
    trailing = np.ones(len(q), dtype=bool)
    for k in range(4):  # the last digit first
        digit = q // 10**k % 10
        ascii_digits |= (digit + ord("0")).astype(np.uint64) << np.uint64(8 * (3 - k))
        trailing &= digit == 0
        zeros += trailing
    return ascii_digits, zeros


_QUAD, _QUAD_ZEROS = _quad_tables()
_LEAD = (np.uint64(ord("0")) + np.arange(10, dtype=np.uint64)) << np.uint64(48)  # digit d at byte 6
_SIGN = np.array([0, ord("-")], dtype=np.uint64)  # at byte 0
_SCALE = np.array([float(10 ** (8 - e)) for e in range(-4, 9)])  # exact: 10**k < 2**53
_LOW, _HEAD, _TAIL, _POINT = _layout_tables()


def _format_9g(values: np.ndarray) -> np.ndarray:
    """An (n, 16) uint8 array whose row i, with its NUL bytes deleted, is
    _fmt(values[i]), the "%.9g" of the value.

    The fast path takes e = floor(log10|v|), clamped to [-4, 8] where %.9g
    writes fixed notation, and the 9-digit integer m = round(p), with
    p = fl(|v| * 10**(8 - e)). It is exact. 10**(8 - e) is exact, so p is
    the product rounded once, within half an ulp of it. With p < 2**30 the
    ulp is at most 2**-23, so frac(p) and 0.5 are both multiples of it:
    unless frac(p) == 0.5, the product lies on the same side of the half
    as p, and rounding p to nearest gives %.9g's round-half-even of the
    product. An m of 10**9 carries into 10**8 with e + 1. A p whose floor
    falls outside [1e8, 1e9) (±0, inf, nan, exponents outside [-4, 8], a
    log10 that is one off), a frac(p) of exactly 0.5 (an exact or a near
    tie), and a carry into e = 9 go to _fmt one at a time.

    Two little-endian uint64 words hold the string: the sign at byte 0,
    "0." and its zeros at bytes 1-5, d0 at byte 6 and d1..d8 at bytes
    8-15. For the point after de, d1..de move down one byte; the trailing
    zeros of the fraction are cleared. The caller deletes the NULs left.
    """
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # ±0, inf and nan go to the slow path
        a = np.abs(v)
        e = np.fmax(np.fmin(np.floor(np.log10(a)), 8.0), -4.0)  # nan becomes 8: never cast a non-finite value
        p = a * _SCALE[(e + 4.0).astype(np.intp)]
        whole = np.floor(p)
        frac = p - whole
        m = whole + (frac > 0.5)
        carry = m == 1e9
        fast = (whole >= 1e8) & (whole < 1e9) & (frac != 0.5) & ~(carry & (e == 8.0))
    e = e.astype(np.intp) + carry
    m = np.where(fast & ~carry, m, 1e8).astype(np.intp)
    lead = m // 100_000_000
    rest = m - lead * 100_000_000
    q1 = rest // 10_000
    q2 = rest - q1 * 10_000
    last = np.maximum(e, 8 - _QUAD_ZEROS[q2] - (q2 == 0) * _QUAD_ZEROS[q1])
    c = (e + 4) * 10 + last
    digits = _QUAD[q1] | (_QUAD[q2] << np.uint64(32))
    head = digits & _HEAD[c]
    words = np.empty((len(v), 2), dtype="<u8")
    words[:, 0] = _LOW[c] | _SIGN[np.signbit(v).view(np.uint8)] | _LEAD[lead] | (head << np.uint64(56))
    words[:, 1] = (head >> np.uint64(8)) | (digits & _TAIL[c]) | _POINT[c]
    out = words.view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        out[i] = np.frombuffer(_fmt(v[i]).encode().ljust(16, b"\0"), dtype=np.uint8)
    return out


class _Writer(NamedTuple):
    """One output format: its head, the bytes of each block's rows, its tail."""

    head: bytes
    rows: Callable[[SweepResult], bytes]
    tail: bytes


def _emit(outputs: Sequence[tuple[_Writer, BinaryIO]], blocks: Iterable[SweepResult]) -> None:
    """Write each writer's head, then every block's rows, then its tail, to its sink."""
    for writer, sink in outputs:
        sink.write(writer.head)
    for block in blocks:
        for writer, sink in outputs:
            sink.write(writer.rows(block))
    for writer, sink in outputs:
        if writer.tail:
            sink.write(writer.tail)


def _slices(cells: SweepResult) -> Iterator[SweepResult]:
    """Consecutive blocks of at most _EMIT_ROWS cells, which bound the
    memory the emitters' strings take."""
    for lo in range(0, len(cells), _EMIT_ROWS):
        rows = slice(lo, lo + _EMIT_ROWS)
        columns = (cells.u_collab, cells.u_beef, cells.gap, cells.beefing)
        yield SweepResult(cells.names, cells.values, cells.position[:, rows], *(column[rows] for column in columns))


def _csv_writer(names: tuple[str, ...], values: tuple[np.ndarray, ...]) -> _Writer:
    """emit_csv's format for a lattice with these axes. A block's rows are
    one array of NUL-padded fixed-width fields, the NULs deleted at the end."""
    order = sorted(range(len(names)), key=names.__getitem__)
    params = [(f"axis{a}", np.array([f"{_fmt(v)},".encode() for v in values[a].tolist()])) for a in order]
    chosen = np.array([f"{strategy.value}\n".encode() for strategy in (Strategy.COLLABORATION, Strategy.BEEFING)])
    real = np.dtype([("value", "S16"), ("comma", "S1")])
    row = np.dtype([*((field, column.dtype) for field, column in params), ("reals", real, 3), ("chosen", chosen.dtype)])
    header = ",".join([names[a] for a in order] + ["u_collab", "u_beef", "gap", "chosen"])

    def rows(block: SweepResult) -> bytes:
        lines = np.zeros(len(block), dtype=row)
        for (field, column), i in zip(params, block.position[order]):
            lines[field] = column[i]
        reals = _format_9g(np.stack([block.u_collab, block.u_beef, block.gap], axis=1).ravel())
        lines["reals"]["value"] = reals.view("S16").reshape(len(block), 3)
        lines["reals"]["comma"] = b","
        lines["chosen"] = chosen[block.beefing.view(np.uint8)]
        return lines.tobytes().translate(None, b"\0")

    return _Writer((header + "\n").encode("utf-8"), rows, b"")


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
    _emit([(_csv_writer(cells.names, cells.values), sink)], _slices(cells))


def _svg_writer(names: tuple[str, ...], values: tuple[np.ndarray, ...]) -> _Writer:
    """emit_region_svg's format for a lattice with these axes; raises
    MalformedLatticeError unless there are two."""
    if len(names) != 2:
        raise MalformedLatticeError(f"cells must come from a 2-axis sweep, got axes {list(names)}")
    name1, name2 = names
    values1, values2 = values

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

    def rows(block: SweepResult) -> bytes:
        rects = heads[block.position[0]] + tails[block.beefing.astype(np.intp), block.position[1]]
        return ("\n".join(rects.tolist()) + "\n").encode("utf-8")

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
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    return _Writer(head.encode("utf-8"), rows, ("\n".join(labels) + "\n").encode("utf-8"))


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
    if not isinstance(cells, SweepResult):
        raise TypeError(f"emit_region_svg takes the SweepResult of run_sweep, got {type(cells).__name__}")
    if not len(cells):
        raise MalformedLatticeError("no cells")
    _emit([(_svg_writer(cells.names, cells.values), sink)], _slices(cells))
