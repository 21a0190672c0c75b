"""CLI subcommands: output format, exit codes, determinism."""

import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    SweepAxis,
    SweepSpec,
    creator_utility,
    emit_csv,
    emit_region_svg,
    run_sweep,
    sweep,
)
from creatorgame.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    main,
    run_example_checks,
)
from creatorgame.scenario import preset_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")

BASELINE = {
    "weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5},
    "creator": {"delta": 1.0, "model": "linear"},
}


def _write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_eval_baseline_scenario(tmp_path, capsys):
    path = _write_scenario(tmp_path, BASELINE)
    assert main(["eval", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["Collaboration=16.5", "Beefing=12", "gap=-4.5"]


def test_eval_presets(capsys):
    assert main(["eval", "example2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "Beefing=7.5" in out
    assert "Collaboration=16.5" in out

    assert main(["eval", "example3"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["Collaboration=13.5", "Beefing=18.5", "gap=5"]


def test_eval_zero_weights(tmp_path, capsys):
    doc = {"weights": {"alpha": 0, "beta": 0, "gamma": 0}, "creator": {"delta": 0}}
    assert main(["eval", _write_scenario(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["Collaboration=0", "Beefing=0", "gap=0"]


def test_best_response_lines(tmp_path, capsys):
    assert main(["best-response", "example1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["chosen=Collaboration", "delta_star=none"]

    assert main(["best-response", "example3"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["chosen=Beefing", "delta_star=2.666666667"]

    # 9 fixed decimals, not 9 significant digits: 1e6 * 3 clicks / 3 drama risk
    doc = {"weights": {"alpha": 1e6, "beta": 0, "gamma": 0}, "creator": {"delta": 1}}
    assert main(["best-response", _write_scenario(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["chosen=Beefing", "delta_star=1000000.000000000"]


def test_best_response_tie_scenario(tmp_path, capsys):
    doc = {"weights": {"alpha": 1, "beta": 1, "gamma": 3}, "creator": {"delta": 1}}
    assert main(["best-response", _write_scenario(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chosen=Collaboration"


def test_equilibrium_output(tmp_path, capsys):
    doc = dict(BASELINE, creator={"delta": 2.5}, domain={"simplex": {"resolution": 10}})
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "alpha=0" in out and "beta=1" in out and "gamma=0" in out
    assert "share_Collaboration=1" in out and "share_Beefing=0" in out
    assert "leader_value=5" in out
    assert "grid_points=66" in out


def test_equilibrium_default_domain(capsys):
    assert main(["equilibrium", "example2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "grid_points=5151" in out  # simplex resolution 100
    assert "leader_value=5" in out


def test_equilibrium_corner_domain(tmp_path, capsys):
    doc = dict(BASELINE, domain={"simplex": {"resolution": 1}})
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "grid_points=3" in out
    assert "leader_value=5" in out


def test_equilibrium_population_threshold_partition(tmp_path, capsys):
    doc = dict(BASELINE, population={"deltas": [0.5, 1.5, 3.0]}, domain={"simplex": {"resolution": 10}})
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    # shares at the optimum must re-derive from the members' best responses
    from creatorgame import AlgorithmWeights, CreatorParams, Exact, Population, population_shares

    weights = AlgorithmWeights(float(out["alpha"]), float(out["beta"]), float(out["gamma"]))
    pop = Population(tuple(CreatorParams(d) for d in (0.5, 1.5, 3.0)))
    shares = population_shares(pop, Exact(), weights, DEFAULT_TABLE)
    assert float(out["share_Beefing"]) == pytest.approx(shares.share[Strategy.BEEFING], abs=1e-9)
    assert float(out["share_Collaboration"]) == pytest.approx(
        shares.share[Strategy.COLLABORATION], abs=1e-9
    )


def test_equilibrium_over_grid_budget_exits_invalid(tmp_path, capsys):
    doc = dict(BASELINE, domain={"box": {"alpha_max": 1, "beta_max": 1, "gamma_max": 1, "resolution": 10**6}})
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario.domain: ")
    assert "exceeds the limit" in captured.err


def test_sweep_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "example3", "--axis1", "delta:0:4:5", "--out", str(out_csv)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "rows=5"
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 6
    chosen = [line.split(",")[-1] for line in lines[1:]]
    assert chosen == ["Beefing", "Beefing", "Beefing", "Collaboration", "Collaboration"]


def test_sweep_two_axes_with_svg(tmp_path, capsys):
    doc = {"weights": {"alpha": 0, "beta": 0, "gamma": 0}, "creator": {"delta": 0}}
    path = _write_scenario(tmp_path, doc)
    out_csv, out_svg = tmp_path / "grid.csv", tmp_path / "grid.svg"
    rc = main(
        [
            "sweep", path,
            "--axis1", "alpha:0:1:2",
            "--axis2", "gamma:0:1:2",
            "--out", str(out_csv),
            "--svg", str(out_svg),
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "rows=4"
    svg = out_svg.read_text()
    assert svg.count("<rect") == 4


def test_sweep_single_step_axes(tmp_path, capsys):
    out_csv = tmp_path / "one.csv"
    rc = main(
        ["sweep", "example1", "--axis1", "delta:1:1:1", "--axis2", "alpha:1:1:1", "--out", str(out_csv)]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "rows=1"
    assert len(out_csv.read_text().splitlines()) == 2


@pytest.mark.parametrize("out", ["P", "./P", "sub/../P"])
def test_sweep_refuses_one_path_for_csv_and_svg(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "example1", "--axis1", "alpha:0:4:3", "--axis2", "delta:0:5:3", "--out", out, "--svg", "P"]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out and --svg name the same file, {os.path.realpath(tmp_path / 'P')!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_malformed_axis_flag(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    assert main(["sweep", "example1", "--axis1", "delta:0:4", "--out", str(out_csv)]) == EXIT_INVALID
    assert main(["sweep", "example1", "--axis1", "zeta:0:4:5", "--out", str(out_csv)]) == EXIT_INVALID
    assert main(["sweep", "example1", "--axis1", "delta:a:b:5", "--out", str(out_csv)]) == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize(
    "axis, given", [("gamma:0:inf:3", "inf"), ("gamma:nan:1:3", "nan"), ("delta:-inf:1:3", "-inf")]
)
def test_sweep_rejects_non_finite_axis_bounds(tmp_path, axis, given):
    # run as a user would, so that a numpy warning would show on stderr
    out_csv = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "creatorgame", "sweep", "example1", "--axis1", axis, "--out", str(out_csv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr.endswith(f"must be finite, got {given}\n")
    assert "RuntimeWarning" not in proc.stderr
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["eval", "equilibrium", "sweep"])
def test_overflowing_ranges_exit_invalid_without_warnings(tmp_path, command):
    # an infinite grid bound, or an axis range whose width overflows, would
    # make linspace give nan: both are refused before numpy sees them
    infinite_grid = dict(BASELINE, population={"grid": {"min": 0, "max": float("inf"), "count": 3}})
    out_csv = tmp_path / "x.csv"
    argv = [command, _write_scenario(tmp_path, infinite_grid)]
    message = "error: scenario.population: delta_max must be finite, got inf\n"
    if command == "sweep":
        argv = ["sweep", "example1", "--axis1", "beta:-1e308:1e308:4", "--out", str(out_csv)]
        message = "error: beta axis range [-1e+308, 1e+308] is too wide: hi - lo overflows\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "creatorgame", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr == message
    assert not out_csv.exists()


HUGE = "1" + "0" * 400
WEIGHTS = '"weights": {"alpha": 1, "beta": 2, "gamma": 1.5}'
TOO_LARGE = "expected a number, got an integer too large for a float"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (
            '{"weights": {"alpha": %s, "beta": 2, "gamma": 1.5}, "creator": {"delta": 1}}' % HUGE,
            f"scenario.weights.alpha: {TOO_LARGE}",
        ),
        (
            '{%s, "creator": {"delta": 1}, "population": {"deltas": [1, %s]}}' % (WEIGHTS, HUGE),
            f"scenario.population.deltas[1]: {TOO_LARGE}",
        ),
        (
            '{%s, "creator": {"delta": 1}, "population": {"grid": {"min": 0, "max": %s, "count": 3}}}' % (WEIGHTS, HUGE),
            f"scenario.population.grid.max: {TOO_LARGE}",
        ),
        (
            '{"weights": {"alpha": 1, "beta": 2, "gamma": 1.5, "alpha": 9}, "creator": {"delta": 1}}',
            "scenario: invalid JSON: duplicate key 'alpha'",
        ),
        (
            '{%s, "creator": {"delta": 1}, "creator": {"delta": 3}}' % WEIGHTS,
            "scenario: invalid JSON: duplicate key 'creator'",
        ),
    ],
)
def test_unreadable_numbers_and_duplicate_keys_exit_invalid(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["eval", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_integer_literal_past_the_digit_limit_exits_invalid(tmp_path, capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    path = tmp_path / "scenario.json"
    path.write_text('{%s, "creator": {"delta": 1%s}}' % (WEIGHTS, "0" * sys.get_int_max_str_digits()))
    assert main(["eval", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario: invalid JSON: Exceeds the limit")
    assert captured.err.count("\n") == 1


def test_deeply_nested_json_exits_invalid(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["eval", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scenario: invalid JSON: maximum recursion depth exceeded")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "best-response", "equilibrium", "sweep"])
def test_nonlinear_drama_risk_overflow_exits_invalid(tmp_path, command):
    # drama_risk**2 overflows a float for a nonlinear creator; every command
    # must report it as an invalid scenario, not die with a traceback
    doc = {
        "weights": {"alpha": 1, "beta": 1, "gamma": 1},
        "creator": {"delta": 1.0, "model": "nonlinear"},
        "table": {
            "collaboration": {"clicks": 1, "watch_time": 1, "shares": 1, "drama_risk": 0},
            "beefing": {"clicks": 1, "watch_time": 1, "shares": 1, "drama_risk": 1e200},
        },
        "domain": {"simplex": {"resolution": 4}},
    }
    out_csv = tmp_path / "x.csv"
    argv = [command, _write_scenario(tmp_path, doc)]
    if command == "sweep":
        argv += ["--axis1", "delta:0:1:3", "--out", str(out_csv)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "creatorgame", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "non-finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["eval", "best-response", "equilibrium", "sweep"])
def test_oversized_population_grid_exits_invalid(tmp_path, command):
    # a count this large must be refused before numpy is asked for the array
    doc = dict(BASELINE, population={"grid": {"min": 0, "max": 1, "count": 10**13}})
    out_csv = tmp_path / "x.csv"
    argv = [command, _write_scenario(tmp_path, doc)]
    if command == "sweep":
        argv += ["--axis1", "delta:0:1:3", "--out", str(out_csv)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "creatorgame", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: scenario.population: count must be <= 10000000, ")
    assert "Traceback" not in proc.stderr
    assert not out_csv.exists()


def test_equilibrium_non_finite_utility_at_the_optimum_names_the_member(tmp_path, capsys):
    # Collaboration meets the aspiration everywhere, so the search succeeds;
    # the member's Beefing utility, -inf from its overflowing risk cost,
    # fails the mean utilities at the optimum.
    doc = {
        "weights": {"alpha": 1, "beta": 1, "gamma": 1},
        "creator": {"delta": 1e10},
        "table": {
            "collaboration": {"clicks": 2, "watch_time": 5, "shares": 3, "drama_risk": 0},
            "beefing": {"clicks": 5, "watch_time": 2, "shares": 4, "drama_risk": 1e300},
        },
        "rule": {"satisficing": {"aspiration": 0}},
        "domain": {"simplex": {"resolution": 10}},
    }
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: member 0: creator utility is non-finite (-inf); inputs too extreme\n"


def test_equilibrium_overflowing_mean_utility_names_the_strategy(tmp_path, capsys):
    # each member's Collaboration utility is 1e308; their sum overflows
    doc = {
        "weights": {"alpha": 1, "beta": 1, "gamma": 1},
        "creator": {"delta": 1},
        "table": {
            "collaboration": {"clicks": 1e308, "watch_time": 0, "shares": 0, "drama_risk": 0},
            "beefing": {"clicks": 0, "watch_time": 0, "shares": 0, "drama_risk": 1},
        },
        "population": {"deltas": [1, 2]},
        "domain": {"simplex": {"total": 1, "resolution": 2}},
    }
    assert main(["equilibrium", _write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: population-mean Collaboration utility is non-finite (inf); inputs too extreme\n"


OVERSIZED_SWEEPS = {
    "two-axes": (
        ["--axis1", "alpha:0:1:1000000", "--axis2", "delta:0:1:1000000"],
        "error: 1000000 x 1000000 = 1000000000000 sweep cells exceeds the limit of 10000000; lower the steps\n",
    ),
    "one-axis": (
        ["--axis1", "delta:0:1:10000001"],
        "error: delta axis steps must be <= 10000000, the limit of grid evaluations, got 10000001\n",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_SWEEPS))
def test_oversized_sweep_exits_invalid_before_allocating(tmp_path, capsys, case):
    axes, message = OVERSIZED_SWEEPS[case]
    argv = ["sweep", "example1", *axes, "--out", str(tmp_path / "x.csv")]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == message
    assert peak < 2**20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "creatorgame", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr == message
    assert list(tmp_path.iterdir()) == []


def test_sweep_svg_needs_two_axes(tmp_path, capsys):
    rc = main(
        [
            "sweep", "example1",
            "--axis1", "delta:0:4:5",
            "--out", str(tmp_path / "a.csv"),
            "--svg", str(tmp_path / "a.svg"),
        ]
    )
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: cells must come from a 2-axis sweep, got axes ['delta']\n"
    assert list(tmp_path.iterdir()) == []  # no partial output


def test_failed_sweep_keeps_earlier_outputs_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # the one-axis --svg error comes before any output is emitted
    monkeypatch.setattr("creatorgame.cli._emit", lambda outputs, blocks: pytest.fail("output emitted"))
    out_csv, out_svg = tmp_path / "a.csv", tmp_path / "a.svg"
    out_csv.write_bytes(b"old csv\n")
    out_svg.write_bytes(b"old svg\n")
    rc = main(["sweep", "example1", "--axis1", "delta:0:4:5", "--out", str(out_csv), "--svg", str(out_svg)])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == "error: cells must come from a 2-axis sweep, got axes ['delta']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.svg"]
    assert out_csv.read_bytes() == b"old csv\n" and out_svg.read_bytes() == b"old svg\n"


def _sweep_spec(preset, axis1, axis2=None):
    scenario = preset_scenario(preset)
    return SweepSpec(
        axis1=SweepAxis(*axis1),
        axis2=SweepAxis(*axis2) if axis2 is not None else None,
        weights=scenario.weights,
        creator=scenario.creator,
        table=scenario.table,
        rule=scenario.rule,
    )


def _emitted(emit, cells):
    sink = io.BytesIO()
    emit(cells, sink)
    return sink.getvalue()


STREAMED_SWEEPS = {
    "one-axis": ("example3", ("delta", 0.0, 4.0, 23), None),
    "9x11": ("example1", ("alpha", 0.0, 4.0, 9), ("delta", 0.0, 5.0, 11)),
    "degenerate-3x2": ("example3", ("alpha", 0.5, 0.5, 3), ("delta", 0.0, 4.0, 2)),
}


@pytest.mark.parametrize("rows", [1, 7, 50])
@pytest.mark.parametrize("case", sorted(STREAMED_SWEEPS))
def test_streamed_sweep_writes_the_bytes_of_the_materialised_emitters(tmp_path, capsys, monkeypatch, case, rows):
    preset, axis1, axis2 = STREAMED_SWEEPS[case]
    cells = run_sweep(_sweep_spec(preset, axis1, axis2))
    expected = {"out.csv": _emitted(emit_csv, cells)}
    argv = ["sweep", preset, "--axis1", ":".join(map(str, axis1)), "--out", str(tmp_path / "out.csv")]
    if axis2 is not None:
        expected["out.svg"] = _emitted(emit_region_svg, cells)
        argv += ["--axis2", ":".join(map(str, axis2)), "--svg", str(tmp_path / "out.svg")]
    monkeypatch.setattr("creatorgame.sweep._EMIT_ROWS", rows)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"rows={len(cells)}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("rows", [1, 7, 50])
def test_invalid_cell_in_a_later_block_writes_nothing(tmp_path, capsys, monkeypatch, rows):
    def fails(gamma, delta):
        weights, creator = AlgorithmWeights(1.0, 2.0, gamma), CreatorParams(delta)  # example1's alpha and beta
        try:
            for profile in DEFAULT_TABLE.profiles.values():
                creator_utility(weights, creator, profile)
        except InvalidScenarioError:
            return True
        return False

    axis1, axis2 = SweepAxis("gamma", 0.0, 1e308, 25), SweepAxis("delta", 0.0, 1.0, 10)
    cells = itertools.product(axis1.values(), axis2.values())  # in lattice order
    # on the scalar path, cell 110 (gamma 4.58e307) is the first whose Beefing utility overflows
    assert [fails(*cell) for cell in cells].index(True) == 110
    monkeypatch.setattr("creatorgame.sweep._EMIT_ROWS", rows)
    out_csv, out_svg = tmp_path / "a.csv", tmp_path / "a.svg"
    out_csv.write_bytes(b"old csv\n")
    out_svg.write_bytes(b"old svg\n")
    argv = ["sweep", "example1", "--axis1", "gamma:0:1e308:25", "--axis2", "delta:0:1:10"]
    assert main([*argv, "--out", str(out_csv), "--svg", str(out_svg)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: creator utility is non-finite (inf); inputs too extreme\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.svg"]
    assert out_csv.read_bytes() == b"old csv\n" and out_svg.read_bytes() == b"old svg\n"


def test_a_sweep_evaluates_each_block_once(tmp_path, capsys, monkeypatch):
    calls = []
    evaluate = sweep._Lattice.evaluate

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return evaluate(self, lo, hi)

    monkeypatch.setattr(sweep._Lattice, "evaluate", counted)
    monkeypatch.setattr(sweep, "_EMIT_ROWS", 7)
    argv = ["sweep", "example1", "--axis1", "alpha:0:4:9", "--axis2", "delta:0:5:11"]
    assert main([*argv, "--out", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg")]) == EXIT_OK
    assert capsys.readouterr().out == "rows=99\n"
    # the one-cell probe of the last cell, then the 15 blocks as they are written
    assert calls == [(98, 99), *((lo, min(lo + 7, 99)) for lo in range(0, 99, 7))]


# VmHWM, not ru_maxrss: Linux keeps the forking process's peak in ru_maxrss
# across exec, so ru_maxrss would read this test process's own peak.
MEASURE_SWEEP_RSS = """
import sys
from creatorgame.cli import main

def peak_rss_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

imported = peak_rss_kib()
code = main(sys.argv[1:])
print(code, imported, peak_rss_kib(), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc (Linux)")
def test_sweep_memory_is_bounded_by_a_block_not_the_lattice(tmp_path):
    # 490,000 cells: the materialised lattice alone would take about 20 MiB
    argv = ["sweep", "example1", "--axis1", "alpha:0:4:700", "--axis2", "delta:0:5:700"]
    argv += ["--out", str(tmp_path / "big.csv"), "--svg", str(tmp_path / "big.svg")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE_SWEEP_RSS, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    code, imported, peak = map(int, proc.stderr.split())
    assert (code, proc.stdout) == (EXIT_OK, "rows=490000\n")
    assert peak - imported <= 12 * 1024


def test_sweep_degenerate_axis_maps_every_step(tmp_path, capsys):
    out_csv, out_svg = tmp_path / "flat.csv", tmp_path / "flat.svg"
    rc = main(
        [
            "sweep", "example3",
            "--axis1", "alpha:0.5:0.5:3",
            "--axis2", "delta:0:4:2",
            "--out", str(out_csv),
            "--svg", str(out_svg),
        ]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "rows=6"
    assert out_svg.read_text().count("<rect") == 6
    assert "alpha: 0.5 to 0.5" in out_svg.read_text()
    assert len(out_csv.read_text().splitlines()) == 7


@pytest.mark.parametrize(
    "rule", [{"quantal": {"lambda": 0}}, {"satisficing": {"aspiration": 1.0}}]
)
def test_sweep_rejects_non_exact_rules(tmp_path, capsys, rule):
    path = _write_scenario(tmp_path, dict(BASELINE, rule=rule))
    out_csv = tmp_path / "q.csv"
    assert main(["sweep", path, "--axis1", "delta:0:4:5", "--out", str(out_csv)]) == EXIT_INVALID
    assert "scenario.rule" in capsys.readouterr().err
    assert not out_csv.exists()


def test_sweep_write_failure_exits_io(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "out.csv"
    rc = main(["sweep", "example1", "--axis1", "delta:0:4:5", "--out", str(missing_dir)])
    assert rc == EXIT_IO
    # an unwritable --svg path leaves no CSV behind either
    rc = main(
        [
            "sweep", "example1",
            "--axis1", "delta:0:4:5",
            "--axis2", "alpha:0:1:2",
            "--out", str(tmp_path / "grid.csv"),
            "--svg", str(tmp_path / "nope" / "grid.svg"),
        ]
    )
    assert rc == EXIT_IO
    assert list(tmp_path.iterdir()) == []
    # nor does an --svg path that names a directory
    (tmp_path / "maps").mkdir()
    rc = main(
        [
            "sweep", "example1",
            "--axis1", "delta:0:4:5",
            "--axis2", "alpha:0:1:2",
            "--out", str(tmp_path / "grid.csv"),
            "--svg", str(tmp_path / "maps"),
        ]
    )
    assert rc == EXIT_IO
    assert [p.name for p in tmp_path.iterdir()] == ["maps"]
    assert list((tmp_path / "maps").iterdir()) == []
    capsys.readouterr()


def test_unknown_scenario_key_exits_invalid(tmp_path, capsys):
    doc = dict(BASELINE, extra={"oops": 1})
    assert main(["eval", _write_scenario(tmp_path, doc)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "scenario.extra" in err


def test_missing_scenario_file_exits_io(capsys):
    assert main(["eval", "/no/such/scenario.json"]) == EXIT_IO
    capsys.readouterr()


def test_reproduce_examples_passes_on_fresh_build(capsys):
    assert main(["reproduce-examples"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 6
    assert all("status=pass" in row for row in rows)
    assert all("expected=" in row and "actual=" in row for row in rows)


def test_reproduce_examples_negative_control(capsys):
    perturbed = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(2.0, 5.0, 3.0, 0.0),
            Strategy.BEEFING: EngagementProfile(5.0, 2.0, 4.0, 2.0),  # wrong drama risk
        }
    )
    rows, all_ok = run_example_checks(table=perturbed)
    assert not all_ok
    assert any("status=fail" in row for row in rows)
    from creatorgame.cli import _cmd_reproduce_examples

    assert _cmd_reproduce_examples(table=perturbed) == EXIT_CHECK_FAILED
    capsys.readouterr()


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["sweep", "example3", "--axis1", "delta:0:4:9", "--axis2", "alpha:0:3:7"]
    assert main(args + ["--out", str(csv_a), "--svg", str(svg_a)]) == EXIT_OK
    assert main(args + ["--out", str(csv_b), "--svg", str(svg_b)]) == EXIT_OK
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()
