"""Sweeps, region boundaries, CSV emission, and the SVG region map."""

import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    Exact,
    GameTable,
    InvalidScenarioError,
    MAX_GRID_EVALUATIONS,
    MalformedLatticeError,
    Quantal,
    Satisficing,
    Strategy,
    SweepAxis,
    SweepCell,
    SweepSpec,
    UtilityModel,
    best_response,
    creator_utility,
    emit_csv,
    emit_region_svg,
    region_boundary,
    run_sweep,
    utility_gap,
    write_sweep,
)
from creatorgame import sweep
from creatorgame.cli import EXIT_OK, main
from creatorgame.sweep import BEEFING_COLOR, COLLABORATION_COLOR, SWEEPABLE_PARAMS

W_BASE = AlgorithmWeights(1.0, 2.0, 1.5)
W_VIRAL = AlgorithmWeights(2.5, 0.5, 2.0)


def _spec(axis1, axis2=None, weights=W_VIRAL, delta=1.0):
    return SweepSpec(
        axis1=axis1,
        axis2=axis2,
        weights=weights,
        creator=CreatorParams(delta),
        table=DEFAULT_TABLE,
        rule=Exact(),
    )


def test_delta_sweep_chosen_sequence():
    cells = run_sweep(_spec(SweepAxis("delta", 0.0, 4.0, 5)))
    assert [c.param_values["delta"] for c in cells] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [c.chosen for c in cells] == [
        Strategy.BEEFING,
        Strategy.BEEFING,
        Strategy.BEEFING,
        Strategy.COLLABORATION,
        Strategy.COLLABORATION,
    ]


def test_single_cell_sweep_baseline_scenario():
    cells = run_sweep(_spec(SweepAxis("delta", 1.0, 1.0, 1), weights=W_BASE))
    assert len(cells) == 1
    cell = cells[0]
    assert cell.chosen is Strategy.COLLABORATION
    assert cell.utilities[Strategy.COLLABORATION] == pytest.approx(16.5, abs=1e-12)
    assert cell.utilities[Strategy.BEEFING] == pytest.approx(12.0, abs=1e-12)
    assert cell.gap == pytest.approx(-4.5, abs=1e-12)


def test_two_axis_corner_sweep():
    # beta = delta = 0 so the gap reduces to 3*alpha + gamma
    spec = SweepSpec(
        axis1=SweepAxis("alpha", 0.0, 1.0, 2),
        axis2=SweepAxis("gamma", 0.0, 1.0, 2),
        weights=AlgorithmWeights(0.0, 0.0, 0.0),
        creator=CreatorParams(0.0),
        table=DEFAULT_TABLE,
        rule=Exact(),
    )
    cells = run_sweep(spec)
    assert len(cells) == 4
    # axis1 outer, axis2 inner, both ascending
    assert [(c.param_values["alpha"], c.param_values["gamma"]) for c in cells] == [
        (0.0, 0.0),
        (0.0, 1.0),
        (1.0, 0.0),
        (1.0, 1.0),
    ]
    assert [c.chosen for c in cells] == [
        Strategy.COLLABORATION,  # gap exactly 0 at the origin: tie rule
        Strategy.BEEFING,
        Strategy.BEEFING,
        Strategy.BEEFING,
    ]


def test_custom_tie_tolerance_widens_the_collaboration_band():
    # beta = delta = 0 so the gap is 3*alpha + gamma: 0, 1, 3, 4 over the corners
    spec = SweepSpec(
        axis1=SweepAxis("alpha", 0.0, 1.0, 2),
        axis2=SweepAxis("gamma", 0.0, 1.0, 2),
        weights=AlgorithmWeights(0.0, 0.0, 0.0),
        creator=CreatorParams(0.0),
        table=DEFAULT_TABLE,
        rule=Exact(tie_tol=2.0),
    )
    assert [c.chosen for c in run_sweep(spec)] == [
        Strategy.COLLABORATION,
        Strategy.COLLABORATION,
        Strategy.BEEFING,
        Strategy.BEEFING,
    ]


def test_sweeps_reject_non_exact_rules():
    for rule in (Quantal(0.0), Satisficing(1.0)):
        with pytest.raises(InvalidScenarioError, match="exact rule only"):
            SweepSpec(
                axis1=SweepAxis("delta", 0.0, 1.0, 2),
                axis2=None,
                weights=W_BASE,
                creator=CreatorParams(1.0),
                table=DEFAULT_TABLE,
                rule=rule,
            )


def _reference_cells(spec):
    """The per-cell scalar path the columnar kernel must match bit for bit."""
    axis2_values = spec.axis2.values() if spec.axis2 is not None else [None]
    cells = []
    for v1 in spec.axis1.values():
        for v2 in axis2_values:
            swept = {spec.axis1.name: v1}
            if spec.axis2 is not None:
                swept[spec.axis2.name] = v2
            weights = dataclasses.replace(spec.weights, **{k: v for k, v in swept.items() if k != "delta"})
            creator = dataclasses.replace(spec.creator, **{k: v for k, v in swept.items() if k == "delta"})
            cells.append(
                SweepCell(
                    param_values=swept,
                    utilities={s: creator_utility(weights, creator, spec.table.profiles[s]) for s in Strategy},
                    chosen=best_response(weights, creator, spec.table, tie_tol=spec.rule.tie_tol),
                    gap=utility_gap(weights, creator, spec.table),
                )
            )
    return cells


def _reference_csv(cells):
    """CSV bytes written cell by cell with format(value, ".9g")."""
    names = sorted(cells[0].param_values)
    lines = [",".join(names + ["u_collab", "u_beef", "gap", "chosen"])]
    for cell in cells:
        reals = [cell.param_values[n] for n in names] + [cell.utilities[s] for s in Strategy] + [cell.gap]
        lines.append(",".join([format(v, ".9g") for v in reals] + [cell.chosen.value]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_svg(spec, cells):
    """SVG bytes written cell by cell: one rect per cell of the
    spec.axis1 x spec.axis2 lattice, axis1 outer and axis2 inner."""
    values1, values2 = spec.axis1.values(), spec.axis2.values()
    left, right, top, bottom = 90.0, 620.0, 30.0, 420.0
    cell_w, cell_h = (right - left) / len(values1), (bottom - top) / len(values2)
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">']
    for k, cell in enumerate(cells):
        i, j = divmod(k, len(values2))
        color = BEEFING_COLOR if cell.chosen is Strategy.BEEFING else COLLABORATION_COLOR
        lines.append(
            f'<rect x="{left + i * cell_w:.2f}" y="{bottom - (j + 1) * cell_h:.2f}" '
            f'width="{cell_w:.2f}" height="{cell_h:.2f}" fill="{color}"/>'
        )
    lines.append(
        '<text x="355.00" y="466" text-anchor="middle" font-size="14" font-family="sans-serif">'
        f'{spec.axis1.name}: {values1[0]:.9g} to {values1[-1]:.9g}</text>'
    )
    lines.append(
        '<text x="20" y="225.00" text-anchor="middle" font-size="14" font-family="sans-serif" '
        f'transform="rotate(-90 20 225.00)">{spec.axis2.name}: {values2[0]:.9g} to {values2[-1]:.9g}</text>'
    )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emitted(emit, cells):
    sink = io.BytesIO()
    emit(cells, sink)
    return sink.getvalue()


def test_columnar_kernel_matches_scalar_path_bit_for_bit():
    rng = np.random.default_rng(53)

    def random_profile():
        return EngagementProfile(*rng.integers(0, 4, size=3) * rng.choice([1.0, 0.5, 0.37]), rng.integers(0, 3) * 0.7)

    pairs = [(a, b) for a in SWEEPABLE_PARAMS for b in SWEEPABLE_PARAMS + (None,) if a != b]
    for model in UtilityModel:
        for name1, name2 in pairs:
            profile = random_profile()
            # every fifth table gives both strategies one profile: the gap is exactly 0 everywhere
            same = rng.random() < 0.2
            table = GameTable({Strategy.COLLABORATION: profile, Strategy.BEEFING: profile if same else random_profile()})
            axes = [
                SweepAxis(name, lo, lo + rng.uniform(0.0, 5.0), int(rng.integers(1, 12)))
                for name, lo in ((name1, rng.uniform(0.0, 1.0)), (name2, rng.uniform(0.0, 1.0)))
                if name is not None
            ]
            spec = SweepSpec(
                axis1=axes[0],
                axis2=axes[1] if len(axes) == 2 else None,
                weights=AlgorithmWeights(*rng.uniform(0.0, 3.0, size=3).round(int(rng.integers(0, 4)))),
                creator=CreatorParams(round(rng.uniform(0.0, 4.0), 1), model),
                table=table,
                rule=Exact(),
            )
            result, reference = run_sweep(spec), _reference_cells(spec)
            assert len(result) == len(reference)
            assert list(result) == reference  # every cell's values, utilities, gap and choice
            if same:
                assert not any(cell.gap for cell in result)
                assert all(cell.chosen is Strategy.COLLABORATION for cell in result)  # ties go to collaboration
            assert _emitted(emit_csv, result) == _reference_csv(reference)
            if len(axes) == 2:
                assert _emitted(emit_region_svg, result) == _reference_svg(spec, reference)


class _RecordingSink(io.BytesIO):
    """A sink that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


@pytest.mark.parametrize("steps", [(9, 11), (1, 11), (9, 1), (1, 1)])  # blocks start and end mid-column
@pytest.mark.parametrize("rows", [1, 2, 7, 50, 10_000])
def test_emitters_write_bounded_row_blocks_with_the_same_bytes(rows, steps, monkeypatch):
    monkeypatch.setattr(sweep, "_EMIT_ROWS", rows)
    spec = _spec(SweepAxis("alpha", 0.0, 4.0, steps[0]), SweepAxis("delta", 0.0, 5.0, steps[1]))
    result, reference = run_sweep(spec), _reference_cells(spec)
    blocks = -(-len(result) // rows)
    expected = {emit_csv: (_reference_csv(reference), 0), emit_region_svg: (_reference_svg(spec, reference), 1)}
    both = _RecordingSink(), _RecordingSink()
    write_sweep(result, csv=lambda: both[0], svg=lambda: both[1])  # both outputs in one walk
    for (emit, (reference_bytes, trailer)), written in zip(expected.items(), both):
        sink = _RecordingSink()
        emit(result, sink)
        for sink in (sink, written):
            assert sink.getvalue() == reference_bytes
            # a header, one write per block of at most `rows` cells (under 128 bytes each), the SVG's labels
            assert len(sink.sizes) == 1 + blocks + trailer
            assert max(sink.sizes[1 : 1 + blocks]) < rows * 128


def test_invalid_cells_raise_the_first_scalar_error():
    def sweep(axis1, axis2=None):
        return run_sweep(_spec(axis1, axis2=axis2, weights=W_BASE))

    with pytest.raises(InvalidScenarioError, match=r"^alpha must be >= 0.0, got -1.0$"):
        sweep(SweepAxis("alpha", -1.0, 1.0, 3))
    with pytest.raises(InvalidScenarioError, match=r"^beta must be >= 0.0, got -2.0$"):
        sweep(SweepAxis("delta", 0.0, 1.0, 3), SweepAxis("beta", -2.0, 0.0, 2))
    # both values of the first cell are negative: weights are checked before delta
    with pytest.raises(InvalidScenarioError, match=r"^alpha must be >= 0.0, got -2.0$"):
        sweep(SweepAxis("delta", -1.0, 1.0, 3), SweepAxis("alpha", -2.0, 0.0, 2))
    with pytest.raises(InvalidScenarioError, match=r"non-finite \(inf\)"):
        sweep(SweepAxis("gamma", 0.0, 1e308, 3), SweepAxis("beta", 0.0, 1e308, 3))


_LOS = st.sampled_from([-1.0, -1e-300, -0.0, 0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.5, 0.5, 1e307])
_WIDTHS = st.sampled_from([0.0, 7e-323, 1.0, 3.0, 3.0, 1e300, 1e308, 1.7e308])
_SMALL = st.sampled_from([0.0, 0.5, 1.0, 3.0])


_TINY = 2.2250738585072014e-308  # the smallest normal float


def _step_refusal(name, lo, hi, steps):
    """SweepAxis' message for an axis whose step is below the smallest normal float."""
    return f"{name} axis step {(hi - lo) / (steps - 1)!r} is below the smallest normal float {_TINY!r}; lower the steps"


@st.composite
def _lattice_specs(draw):
    """Small lattices, some of which fail: at a negative lo, or where a utility
    overflows, from large swept values or a large metric (a nonlinear
    drama_risk**2 of 1e200 overflows, to nan at delta 0 and to -inf above).
    Returns the axes' (name, lo, hi, steps) and the spec's other fields: an
    axis of a width of 7e-323 and more than one step has a subnormal step,
    which SweepAxis refuses."""
    names = draw(st.permutations(SWEEPABLE_PARAMS))[: draw(st.integers(1, 2))]
    axes = []
    for name in names:
        lo = draw(_LOS)
        hi = lo + draw(_WIDTHS)
        assume(math.isfinite(hi))
        axes.append((name, lo, hi, draw(st.integers(1, 6))))
    metrics = [[draw(_SMALL) for _ in range(4)] for _ in Strategy]
    metrics[draw(st.integers(0, 1))][draw(st.integers(0, 3))] = draw(st.sampled_from([0.0, 2.0, 1e154, 1e200, 1e308]))
    return axes, {
        "weights": AlgorithmWeights(*(draw(_SMALL) for _ in range(3))),
        "creator": CreatorParams(draw(_SMALL), draw(st.sampled_from(UtilityModel))),
        "table": GameTable({s: EngagementProfile(*m) for s, m in zip(Strategy, metrics)}),
    }


def _lattice_blocks(spec):
    """The cells as the writers take them: the lattice, then its blocks."""
    lattice = sweep._Lattice(spec)
    return [[lattice.cell(block, k) for k in range(len(block.gap))] for block in lattice.blocks()]


_WALKS = (
    lambda spec: [run_sweep(spec)],  # the view's iteration
    lambda spec: [[cells[k] for k in range(len(cells))] for cells in [run_sweep(spec)]],  # its indexing
    lambda spec: [run_sweep(spec)[::-1][::-1]],  # a slice whose cells descend through the blocks
    _lattice_blocks,
)


# a later cell overflows while cell 0 is finite, in the second block when rows is 2
@example(([("gamma", 0.0, 1e308, 5)], {"weights": W_BASE, "creator": CreatorParams(1.0), "table": DEFAULT_TABLE}), 2)
@settings(max_examples=250, deadline=None)
@given(_lattice_specs(), st.sampled_from([1, 2, 7, 2048]))
def test_property_sweeps_fail_exactly_where_the_scalar_walk_first_fails(drawn, rows):
    fields, others = drawn
    refused = [(name, lo, hi, k) for name, lo, hi, k in fields if k > 1 and lo < hi and (hi - lo) / (k - 1) < _TINY]
    if refused:  # the first axis with a subnormal step is refused, with its step in the message
        with pytest.raises(InvalidScenarioError) as info:
            [SweepAxis(*axis) for axis in fields]
        assert str(info.value) == _step_refusal(*refused[0])
        return
    axes = [SweepAxis(*axis) for axis in fields]
    spec = SweepSpec(axes[0], axes[1] if len(axes) == 2 else None, **others)
    try:
        reference, expected = _reference_cells(spec), None
    except InvalidScenarioError as exc:
        reference, expected = None, str(exc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_EMIT_ROWS", rows)
        for evaluate in _WALKS:
            if expected is not None:
                with pytest.raises(InvalidScenarioError) as info:
                    evaluate(spec)
                assert str(info.value) == expected
                continue
            assert [cell for block in evaluate(spec) for cell in block] == reference  # values, utilities, gap, choice


_NEAR_ZERO = st.floats(-1e-300, 1e-300)
_NEAR_TINY = st.floats(_TINY / 4, 4 * _TINY).flatmap(lambda x: st.sampled_from([x, -x]))
_ULPS = st.integers(1, 200).map(lambda k: k * 5e-324)  # a subnormal width: linspace misorders about 1 in 4


# np.linspace(0, 7e-323, 10) ends 8e-323, 7e-323; np.linspace(_TINY, 2.2250738585072083e-308, 10) is not monotone
@example(0.0, 7e-323, 10)
@example(_TINY, 2.2250738585072083e-308 - _TINY, 10)
@example(0.0, 5e-324, 3)  # a step that underflows to 0.0 is refused too
@example(0.0, 7e-323, 1)  # one step has no step: the value is lo
@example(0.0, 9 * _TINY, 10)  # the smallest normal step
@example(-1e308, 1.7976931348623157e308, 4)  # hi - lo is the largest float: linspace's (steps - 1) * step overflows
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(_NEAR_ZERO, _NEAR_TINY, st.sampled_from([-1e308, 1e308])),
    st.one_of(_ULPS, st.floats(0.0, 1e-300), st.floats(0.0, 1.7976931348623157e308)),
    st.one_of(st.integers(1, 60), st.integers(1, 10**4)),
)
def test_property_accepted_axes_ascend_within_lo_and_hi(lo, width, steps):
    hi = lo + width
    assume(math.isfinite(hi) and math.isfinite(hi - lo))
    try:
        axis = SweepAxis("delta", lo, hi, steps)
    except InvalidScenarioError as exc:  # only a subnormal step is refused
        assert steps > 1 and lo < hi and (hi - lo) / (steps - 1) < _TINY
        assert str(exc) == _step_refusal("delta", lo, hi, steps)
        return
    values = np.array(axis.values())
    assert len(values) == steps and values[0] == lo and (steps == 1 or values[-1] == hi)
    assert (np.diff(values) >= 0.0).all() and lo <= values.min() and values.max() <= hi


def test_overflowing_axis_values_raise_the_scalar_error():
    # hi - lo overflows, so linspace would give nan, inf, ..., hi: the range is refused up front
    for steps in (4, 1):
        with pytest.raises(InvalidScenarioError) as info:
            SweepAxis("beta", -1e308, 1e308, steps)
        assert str(info.value) == "beta axis range [-1e+308, 1e+308] is too wide: hi - lo overflows"
    widest = SweepAxis("beta", -1e308, 7e307, 4)
    assert widest.values()[0] == -1e308 and widest.values()[-1] == 7e307
    assert all(np.isfinite(widest.values()))


def test_negative_zero_is_a_valid_swept_value():
    # linspace ends on hi exactly, so hi = -0.0 gives a last value of -0.0
    spec = _spec(SweepAxis("delta", -0.0, -0.0, 2), axis2=SweepAxis("gamma", 0.0, -0.0, 2))
    result, reference = run_sweep(spec), _reference_cells(spec)
    assert [np.signbit(v).tolist() for v in result.values] == [[False, True]] * 2
    assert _emitted(emit_csv, result) == _reference_csv(reference)
    assert b"\n-0,-0," in _reference_csv(reference)


def test_result_is_a_read_only_sequence_of_cells():
    spec = _spec(SweepAxis("alpha", 0.0, 3.0, 4), axis2=SweepAxis("delta", 0.0, 4.0, 3))
    result, reference = run_sweep(spec), _reference_cells(spec)
    assert len(result) == 12
    assert result[0] == reference[0]
    assert result[-1] == reference[-1]
    assert result[-12] == reference[0]
    assert result[2:9:3] == reference[2:9:3]
    assert result[::-1] == reference[::-1]
    assert list(result) == reference
    assert list(reversed(result)) == reference[::-1]
    for bad in (12, -13):
        with pytest.raises(IndexError):
            result[bad]
    with pytest.raises(ValueError):
        result.values[0][0] = 1.0  # the axes the view's cells are evaluated from
    with pytest.raises(AttributeError):
        result.names = ("beta", "delta")


def test_the_view_evaluates_only_the_cells_it_touches(monkeypatch):
    calls = []
    evaluate = sweep._Lattice.evaluate

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return evaluate(self, lo, hi)

    monkeypatch.setattr(sweep._Lattice, "evaluate", counted)
    monkeypatch.setattr(sweep, "_EMIT_ROWS", 7)
    result = run_sweep(_spec(SweepAxis("alpha", 0.0, 3.0, 4), axis2=SweepAxis("delta", 0.0, 4.0, 5)))
    assert calls == [(19, 20)]  # the probe of the last cell
    touched = {
        "len": lambda: len(result),
        "index": lambda: result[-9],
        "slice": lambda: result[12:5:-2],  # cells 12, 10, 8 | 6: one evaluation per block of 7 it touches
        "iteration": lambda: list(result),
        "reversed": lambda: list(reversed(result)),
    }
    expected = {"len": [], "index": [(11, 12)], "slice": [(8, 13), (6, 7)], "iteration": [(0, 7), (7, 14), (14, 20)]}
    expected["reversed"] = expected["iteration"][::-1]
    for name, touch in touched.items():
        calls.clear()
        touch()
        assert calls == expected[name], name


def test_region_boundary_inside_and_outside_range():
    assert region_boundary(_spec(SweepAxis("delta", 0.0, 10.0, 11))) == pytest.approx(
        8.0 / 3.0, abs=1e-12
    )
    assert region_boundary(_spec(SweepAxis("delta", 0.0, 10.0, 11), weights=W_BASE)) is None
    assert region_boundary(_spec(SweepAxis("delta", 3.0, 10.0, 8))) is None


def test_region_boundary_requires_pure_delta_axis():
    with pytest.raises(InvalidScenarioError):
        region_boundary(_spec(SweepAxis("alpha", 0.0, 1.0, 2)))
    with pytest.raises(InvalidScenarioError):
        region_boundary(_spec(SweepAxis("delta", 0.0, 1.0, 2), axis2=SweepAxis("alpha", 0.0, 1.0, 2)))


def test_emit_csv_golden_bytes():
    cells = run_sweep(_spec(SweepAxis("delta", 1.0, 1.0, 1), weights=W_BASE))
    sink = io.BytesIO()
    emit_csv(cells, sink)
    assert sink.getvalue() == b"delta,u_collab,u_beef,gap,chosen\n1,16.5,12,-4.5,Collaboration\n"


def test_emitters_take_only_a_sweep_result():
    cells = run_sweep(_spec(SweepAxis("alpha", 0.0, 2.0, 3), axis2=SweepAxis("delta", 0.0, 4.0, 3)))
    emitters = {
        "emit_csv": emit_csv,
        "emit_region_svg": emit_region_svg,
        "write_sweep": lambda cells, sink: write_sweep(cells, csv=lambda: sink),
    }
    for name, emit in emitters.items():
        for cell_list in (list(cells), cells[:-1], cells[:], []):
            with pytest.raises(TypeError, match=f"^{name} takes the SweepResult of run_sweep, got list$"):
                emit(cell_list, io.BytesIO())


def test_emit_csv_line_count_and_lf():
    cells = run_sweep(_spec(SweepAxis("delta", 0.0, 4.0, 5)))
    sink = io.BytesIO()
    emit_csv(cells, sink)
    data = sink.getvalue()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert len(lines) == 6
    assert lines[0] == "delta,u_collab,u_beef,gap,chosen"


def test_csv_round_trip_to_nine_significant_digits():
    spec = _spec(
        SweepAxis("delta", 0.0, 3.7, 7),
        axis2=SweepAxis("gamma", 0.1, 2.9, 5),
        weights=AlgorithmWeights(1.234567891, 0.777, 2.0),
    )
    cells = run_sweep(spec)
    sink = io.BytesIO()
    emit_csv(cells, sink)
    lines = sink.getvalue().decode().splitlines()
    header = lines[0].split(",")
    assert header == ["delta", "gamma", "u_collab", "u_beef", "gap", "chosen"]
    for line, cell in zip(lines[1:], cells):
        fields = dict(zip(header, line.split(",")))
        reference = {
            "delta": cell.param_values["delta"],
            "gamma": cell.param_values["gamma"],
            "u_collab": cell.utilities[Strategy.COLLABORATION],
            "u_beef": cell.utilities[Strategy.BEEFING],
            "gap": cell.gap,
        }
        for key, expected in reference.items():
            parsed = float(fields[key])
            assert abs(parsed - expected) <= 5e-9 * max(1.0, abs(expected))
        assert fields["chosen"] == cell.chosen.value


def test_delta_sweeps_are_monotone():
    rng = np.random.default_rng(29)
    for _ in range(50):
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        cells = run_sweep(_spec(SweepAxis("delta", 0.0, 8.0, 33), weights=weights))
        seen_collab = False
        for cell in cells:
            if cell.chosen is Strategy.COLLABORATION:
                seen_collab = True
            else:
                assert not seen_collab  # no beefing after collaboration starts
        assert len(cells) == 33


def test_cells_are_self_consistent():
    import dataclasses

    spec = _spec(SweepAxis("alpha", 0.0, 3.0, 4), axis2=SweepAxis("delta", 0.0, 4.0, 3))
    for cell in run_sweep(spec):
        weights = dataclasses.replace(spec.weights, alpha=cell.param_values["alpha"])
        creator = dataclasses.replace(spec.creator, delta=cell.param_values["delta"])
        assert cell.chosen is best_response(weights, creator, spec.table)
        assert cell.gap == utility_gap(weights, creator, spec.table)


def test_svg_rect_count_and_colors():
    spec = SweepSpec(
        axis1=SweepAxis("alpha", 0.0, 1.0, 2),
        axis2=SweepAxis("gamma", 0.0, 1.0, 2),
        weights=AlgorithmWeights(0.0, 0.0, 0.0),
        creator=CreatorParams(0.0),
        table=DEFAULT_TABLE,
        rule=Exact(),
    )
    cells = run_sweep(spec)
    sink = io.BytesIO()
    emit_region_svg(cells, sink)
    svg = sink.getvalue().decode()
    assert svg.count("<rect") == 4
    assert svg.count(BEEFING_COLOR) == 3
    assert svg.count(COLLABORATION_COLOR) == 1
    assert svg.startswith("<svg")
    assert "alpha: 0 to 1" in svg
    assert "gamma: 0 to 1" in svg
    assert sink.getvalue() == (
        b'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
        b'<rect x="90.00" y="225.00" width="265.00" height="195.00" fill="#4f9d69"/>\n'
        b'<rect x="90.00" y="30.00" width="265.00" height="195.00" fill="#c0504d"/>\n'
        b'<rect x="355.00" y="225.00" width="265.00" height="195.00" fill="#c0504d"/>\n'
        b'<rect x="355.00" y="30.00" width="265.00" height="195.00" fill="#c0504d"/>\n'
        b'<text x="355.00" y="466" text-anchor="middle" font-size="14" '
        b'font-family="sans-serif">alpha: 0 to 1</text>\n'
        b'<text x="20" y="225.00" text-anchor="middle" font-size="14" font-family="sans-serif" '
        b'transform="rotate(-90 20 225.00)">gamma: 0 to 1</text>\n'
        b"</svg>\n"
    )


def test_svg_degenerate_single_cell_lattice():
    spec = _spec(SweepAxis("alpha", 0.5, 0.5, 1), axis2=SweepAxis("delta", 2.0, 2.0, 1))
    sink = io.BytesIO()
    emit_region_svg(run_sweep(spec), sink)
    assert sink.getvalue().decode().count("<rect") == 1
    # lo == hi with several steps: the result keeps its axes' step counts
    cells = run_sweep(_spec(SweepAxis("alpha", 0.5, 0.5, 3), axis2=SweepAxis("delta", 0.0, 2.0, 2)))
    assert _emitted(emit_region_svg, cells).decode().count("<rect") == 6


def test_svg_is_byte_deterministic():
    spec = _spec(SweepAxis("alpha", 0.0, 2.0, 5), axis2=SweepAxis("delta", 0.0, 4.0, 7))
    first, second = io.BytesIO(), io.BytesIO()
    emit_region_svg(run_sweep(spec), first)
    emit_region_svg(run_sweep(spec), second)
    assert first.getvalue() == second.getvalue()


def test_svg_rejects_malformed_lattices():
    one_axis = run_sweep(_spec(SweepAxis("delta", 0.0, 4.0, 5)))
    with pytest.raises(MalformedLatticeError, match=r"^cells must come from a 2-axis sweep, got axes \['delta'\]$"):
        emit_region_svg(one_axis, io.BytesIO())
    with pytest.raises(MalformedLatticeError):  # before either sink is opened
        write_sweep(one_axis, csv=lambda: pytest.fail("CSV opened"), svg=lambda: pytest.fail("SVG opened"))


def test_axis_and_spec_validation():
    with pytest.raises(InvalidScenarioError):
        SweepAxis("epsilon", 0.0, 1.0, 2)
    with pytest.raises(InvalidScenarioError):
        SweepAxis("delta", 2.0, 1.0, 2)
    with pytest.raises(InvalidScenarioError):
        SweepAxis("delta", 0.0, 1.0, 0)
    with pytest.raises(InvalidScenarioError):
        _spec(SweepAxis("delta", 0.0, 1.0, 2), axis2=SweepAxis("delta", 0.0, 2.0, 2))
    # the lattice budget: checked when the axes and the spec are built
    SweepAxis("delta", 0.0, 1.0, MAX_GRID_EVALUATIONS)
    too_many = r"^delta axis steps must be <= 10000000, the limit of grid evaluations, got 10000001$"
    with pytest.raises(InvalidScenarioError, match=too_many):
        SweepAxis("delta", 0.0, 1.0, MAX_GRID_EVALUATIONS + 1)
    _spec(SweepAxis("alpha", 0.0, 1.0, 10**4), axis2=SweepAxis("delta", 0.0, 1.0, 10**3))
    too_many = r"^10000 x 1001 = 10010000 sweep cells exceeds the limit of 10000000; lower the steps$"
    with pytest.raises(InvalidScenarioError, match=too_many):
        _spec(SweepAxis("alpha", 0.0, 1.0, 10**4), axis2=SweepAxis("delta", 0.0, 1.0, 1001))


def _formatted(values):
    """_format_9g's rows with their NUL bytes deleted, as bytes."""
    rows = sweep._format_9g(np.array(values, dtype=np.float64))
    assert rows.dtype == np.uint8 and rows.shape == (len(values), 16)
    return [row.tobytes().replace(b"\0", b"") for row in rows]


def _powers_of_ten_and_neighbours():
    for k in range(-7, 12):
        power = float(f"1e{k}")
        yield from (math.nextafter(power, 0.0), power, math.nextafter(power, math.inf))


# |v| * 10**(8 - e) rounds to a p with frac(p) == 0.5; the exact product lies above the half, below it, or on it
# (round half to even). At e = 8 the product is |v| itself, so only exact halves occur there.
NEAR_TIES = [
    0.00045678912350000003, 0.0001234567895, 0.0003662109375, 0.0001220703125,  # e = -4
    3.141592655, 9.876543215, 1.005859375, 1.001953125,  # e = 0
    31415926.55, 12345678.95, 123456789.5, 123456788.5,  # e = 7 and 8
    0.0009999999995,  # above the half: carries to 0.001
]

FORMAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan,  # outside fixed notation
    *NEAR_TIES, *(-v for v in NEAR_TIES),
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9.9999999995e-5, -9.9999999995e-5,
    # halves at the ninth digit
    12345678.25, 12345678.75, -12345678.25, 0.5, 2.5, 1.0000000005, 99999999.95, 999999999.5, 1e9,
    # nines that round up and carry; the last does not
    9.9999999997, -0.00099999999996, 99999999.97, 999999999.7, 999999999.4,
    1200.0, 0.1, -0.001, 123456789.0, 0.000123456789, *_powers_of_ten_and_neighbours(),
]


def test_format_9g_edges_match_format():
    assert _formatted(FORMAT_EDGES) == [format(v, ".9g").encode() for v in FORMAT_EDGES]
    assert _formatted([]) == []


def test_format_9g_rounds_near_ties_without_python(monkeypatch):
    sides = set()
    for v in NEAR_TIES:
        e = min(math.floor(math.log10(v)), 8)
        p = v * 10.0 ** (8 - e)
        assert p % 1.0 == 0.5
        exact = Fraction(v) * 10 ** (8 - e) - Fraction(p)
        sides.add((exact > 0) - (exact < 0))
    assert sides == {-1, 0, 1}
    calls = []
    monkeypatch.setattr(sweep, "_fmt", lambda value: calls.append(value) or format(value, ".9g"))
    values = [sign * v for v in NEAR_TIES for sign in (1.0, -1.0)] * 50
    assert _formatted(values) == [format(v, ".9g").encode() for v in values]
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-2e9, max_value=2e9),
            st.floats(min_value=-2e-4, max_value=2e-4),
            # binary fractions with few digits: exact halves at the 9th digit
            st.builds(lambda n, k: n / 2**k, st.integers(-(2**40), 2**40), st.integers(0, 12)),
        ),
        max_size=60,
    )
)
def test_format_9g_matches_format(values):
    assert _formatted(values) == [format(v, ".9g").encode() for v in values]


def test_csv_rows_with_slow_path_values_match_the_reference(tmp_path, capsys):
    # alpha up to 2e9 gives utilities of 1e9 and more (exponent notation); at alpha 0
    # gamma 1e-5 gives utilities and gaps below 1e-4, and Beefing's utility crosses zero
    doc = {"weights": {"alpha": 1.0, "beta": 0.0, "gamma": 1e-5}, "creator": {"delta": 1.0}}
    weights = AlgorithmWeights(**doc["weights"])
    spec = _spec(SweepAxis("alpha", 0.0, 2e9, 5), SweepAxis("delta", 0.0, 2.0, 9), weights=weights)
    result, reference = run_sweep(spec), _reference_cells(spec)
    expected = _reference_csv(reference)
    text = expected.decode()
    assert "e+09" in text and "e-05" in text and ",0," in text and ",-0.7" in text
    assert _emitted(emit_csv, result) == expected

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out_csv = tmp_path / "out.csv"
    argv = ["sweep", str(path), "--axis1", "alpha:0:2e9:5", "--axis2", "delta:0:2:9", "--out", str(out_csv)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "rows=45\n"
    assert out_csv.read_bytes() == expected
