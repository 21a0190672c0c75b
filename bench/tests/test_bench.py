"""Tests of the benchmark itself: generator, oracle, tracing and the result line.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import client  # noqa: E402

client.pin_threads()
cli = client.load_cli()

import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _check(requests, workdir, scenario_of=lambda r: r):
    """Run each request through the CLI (optionally with a changed scenario)
    and check the outcome against the oracle for the original request."""
    runner = client.Client(cli, workdir)
    verifier = bench_run.Verifier()
    for request in requests:
        runner.write([scenario_of(request)])
        verifier.check(request, runner.call(request, 0))
    return verifier


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_requests(workload):
    assert workloads.block(workload, 7, 3) == workloads.block(workload, 7, 3)
    assert workloads.block(workload, 7, 3) != workloads.block(workload, 8, 3)
    assert workloads.list_digest(workload, 7) == workloads.list_digest(workload, 7)
    assert workloads.list_digest(workload, 7) != workloads.list_digest(workload, 8)


def test_blocks_are_stratified():
    for index in range(5):
        block = workloads.block("equilibrium-population", 11, index)
        assert sorted(r["rule"] for r in block) == sorted(workloads.RULES * 5)
        assert sum("box" in r["scenario"]["domain"] for r in block) == 3
        counts = sorted(r["scenario"]["population"]["grid"]["count"] for r in block)
        assert counts[0] >= 21 and counts[-1] <= 61
        # one member count per stratum of width 41/15
        assert all(21 + k * 41 / 15 - 1 < c < 21 + (k + 1) * 41 / 15 for k, c in enumerate(counts))
    for request in workloads.block("sweep-map", 11, 0):
        assert all(100 <= axis[3] <= 200 for axis in request["axes"])
        assert request["axes"][0][0] != request["axes"][1][0]


# Request ids are unique within a workload, so each workload gets its own verifier.
def _some_requests(seed):
    return (
        workloads.trace_window("equilibrium-population", seed),
        workloads.block("equilibrium-small", seed, 0),
        workloads.trace_window("sweep-map", seed)[:1],
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_agrees_with_program(seed, tmp_path):
    for requests in _some_requests(seed):
        verifier = _check(requests, tmp_path)
        assert verifier.failed == 0, verifier.reasons
        assert verifier.attempted == len(requests)


def _perturbed_table(request):
    """The same request, but with every engagement metric of the table scaled by 1.1."""
    changed = copy.deepcopy(request)
    table = changed["scenario"].setdefault("table", copy.deepcopy(workloads.DEFAULT_TABLE_DOC))
    for profile in table.values():
        for key in ("clicks", "watch_time", "shares"):
            profile[key] *= 1.1
    return changed


def test_answer_from_perturbed_table_counts_as_failed(tmp_path):
    population, small, sweep = _some_requests(1)
    for requests in (population[:1], small[:6], sweep):
        verifier = _check(requests, tmp_path, scenario_of=_perturbed_table)
        assert verifier.failed == verifier.attempted == len(requests)


def test_repeat_with_different_bytes_counts_as_failed(tmp_path):
    request = workloads.block("equilibrium-small", 1, 0)[0]
    runner = client.Client(cli, tmp_path)
    runner.write([request])
    verifier = bench_run.Verifier()
    outcome = runner.call(request, 0)
    verifier.check(request, outcome)
    outcome.stdout += "\n"
    verifier.check(request, outcome)
    assert (verifier.attempted, verifier.failed) == (2, 1)


def test_oracle_process_gives_the_in_process_verdicts(tmp_path):
    _, small, sweep = _some_requests(1)
    runner = client.Client(cli, tmp_path)
    with oracle.OracleProcess() as judge:
        for request in small[:3] + sweep:
            runner.write([request])
            good = runner.call(request, 0)
            for stdout in (good.stdout, good.stdout.replace("=", "=1", 1)):
                args = (request, stdout, good.csv, good.svg)
                assert judge(*args) == oracle.judge(*args)
            assert judge(request, good.stdout, good.csv, good.svg) is None


def test_peak_rss_is_the_call_alone(tmp_path):
    class Allocating:
        megabytes = 0

        @classmethod
        def main(cls, argv):
            np.ones(cls.megabytes * 2**20 // 8).sum()  # touched, then freed before the call returns
            return 0

    request = workloads.block("equilibrium-small", 1, 0)[0]
    runner = client.Client(Allocating, tmp_path)
    runner.write([request])
    Allocating.megabytes = 64
    big = runner.call(request, 0).peak_rss_mib
    Allocating.megabytes = 0
    small = runner.call(request, 0).peak_rss_mib
    assert 60 < big - small < 70


def test_self_times_subtract_direct_children():
    columns = {
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "start": np.array([0, 10, 20, 60], dtype=np.int64) * 10**9,
        "end": np.array([100, 50, 30, 90], dtype=np.int64) * 10**9,
    }
    assert spans.self_times(columns).tolist() == [30.0, 30.0, 10.0, 30.0]


def test_percentile_leaves_named_samples_beyond():
    assert bench_run.percentile([float(v) for v in range(1, 41)], 75.0) == (30.0, 10)
    assert bench_run.percentile([float(v) for v in range(1, 1001)], 99.0) == (990.0, 10)


def test_tracing_wraps_every_binding_and_restores_it():
    import creatorgame.core
    import creatorgame.leader
    import creatorgame.population

    originals = (creatorgame.population.respond, creatorgame.leader.population_shares, creatorgame.core.creator_utility)
    store = spans.SpanStore()
    uninstall = spans.install(store)
    try:
        assert creatorgame.population.respond is not originals[0]
        assert creatorgame.leader.population_shares is not originals[1]
        assert creatorgame.core.creator_utility is not originals[2]
    finally:
        uninstall()
    assert (creatorgame.population.respond, creatorgame.leader.population_shares, creatorgame.core.creator_utility) == originals


def test_end_to_end_result_line():
    proc = _run_bench("--workload", "equilibrium-small", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(report_line)
    assert report["request_list_sha256"] == workloads.list_digest("equilibrium-small", 3)
    assert report["latency_tail"]["beyond"] >= 10
    assert report["environment"]["seed"] == 3


def test_traced_counts_repeat_for_a_seed():
    results = []
    for _ in range(2):
        proc = _run_bench("--workload", "equilibrium-small", "--seed", "4", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] for r in results)
    metrics = [r["metrics"] for r in results]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in metrics[0].items()}
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "bytes")} for m in metrics]
    assert counts[0] == counts[1]
    assert counts[0]["core.utility_calls"] > 0 and counts[0]["scenario.calls"] == 27


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "equilibrium-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
