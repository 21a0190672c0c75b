"""Sweeps, region boundaries, CSV emission, and the SVG region map."""

import dataclasses
import io

import numpy as np
import pytest

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
)
from creatorgame import sweep
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


def _empty(result):
    """The result with every per-cell column cut to no cells."""
    return dataclasses.replace(
        result,
        position=result.position[:, :0],
        u_collab=result.u_collab[:0],
        u_beef=result.u_beef[:0],
        gap=result.gap[:0],
        beefing=result.beefing[:0],
    )


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
            assert result.u_collab.tolist() == [c.utilities[Strategy.COLLABORATION] for c in reference]
            assert result.u_beef.tolist() == [c.utilities[Strategy.BEEFING] for c in reference]
            assert result.gap.tolist() == [c.gap for c in reference]
            assert [c.chosen for c in result] == [c.chosen for c in reference]
            if same:
                assert not result.gap.any()
                assert not result.beefing.any()  # ties go to collaboration
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


@pytest.mark.parametrize("rows", [1, 2, 7, 50, 10_000])
def test_emitters_write_bounded_row_blocks_with_the_same_bytes(rows, monkeypatch):
    monkeypatch.setattr(sweep, "_EMIT_ROWS", rows)
    spec = _spec(SweepAxis("alpha", 0.0, 4.0, 9), SweepAxis("delta", 0.0, 5.0, 11))
    result, reference = run_sweep(spec), _reference_cells(spec)
    blocks = -(-len(result) // rows)
    expected = {emit_csv: (_reference_csv(reference), 0), emit_region_svg: (_reference_svg(spec, reference), 1)}
    for emit, (reference_bytes, trailer) in expected.items():
        sink = _RecordingSink()
        emit(result, sink)
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
    for bad in (12, -13):
        with pytest.raises(IndexError):
            result[bad]
    with pytest.raises(ValueError):
        result.gap[0] = 1.0


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


def test_emit_csv_empty_is_an_error():
    empty = _empty(run_sweep(_spec(SweepAxis("delta", 0.0, 4.0, 5))))
    assert len(empty) == 0
    with pytest.raises(InvalidScenarioError, match="^no cells to emit$"):
        emit_csv(empty, io.BytesIO())


def test_emitters_take_only_a_sweep_result():
    cells = run_sweep(_spec(SweepAxis("alpha", 0.0, 2.0, 3), axis2=SweepAxis("delta", 0.0, 4.0, 3)))
    for emit in (emit_csv, emit_region_svg):
        for cell_list in (list(cells), cells[:-1], cells[:], []):
            with pytest.raises(TypeError, match=f"^{emit.__name__} takes the SweepResult of run_sweep, got list$"):
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
    cells = run_sweep(_spec(SweepAxis("alpha", 0.0, 2.0, 3), axis2=SweepAxis("delta", 0.0, 4.0, 3)))
    with pytest.raises(MalformedLatticeError, match="^no cells$"):
        emit_region_svg(_empty(cells), io.BytesIO())


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
