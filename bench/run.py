"""Benchmark of creatorgame: seeded closed-loop workloads through the CLI, in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process, one client, closed loop. The next request goes to
creatorgame.cli.main only after the previous one returned; numpy/BLAS run
on one thread. Requests come from the seed (bench/workloads.py) as blocks of
a stratified mix; a run executes whole blocks until the requests have taken
at least S seconds and the workload's tail percentile has at least ten
samples beyond it. Every answer is checked against an independent numpy
oracle (bench/oracle.py) outside the timed call; a nonzero exit or a
disagreement counts as a failed request.

--trace 0 prints the end-to-end metrics:
    setup_s          median over 7 fresh processes of: process start ->
                     creatorgame imported, the seed's first block of scenario
                     files written, one warm-up request done
    latency_p50_ms   median cli.main call time
    latency_tail_ms  the workload's tail percentile of that time (named in
                     the report with its sample count)
    evals_per_s      (weight vector, creator) pairs per second of request time:
                     grid points x members, or lattice cells for sweeps
    peak_rss_mb      the process's highest resident memory during any cli.main
                     call of the loop (VmHWM, reset before each call); the
                     oracle runs in a process of its own, so this is the
                     interpreter, numpy, creatorgame and the request's work
Times are corrected for CPU contention from other tenants (bench/speed.py);
the report keeps the measured ones.

--trace 1 runs the workload's trace window (a few requests of the first
block) alternately untraced and traced (bench/spans.py) for S seconds and
prints per-layer metrics per window: *_s are self times (span duration minus
child spans) averaged over traced windows, of the whole module for
core.utility_s, response.*_self_s, scenario.load_s and cli.self_s and of the
named function otherwise; counts are per window and must repeat exactly;
trace.overhead_frac is traced / untraced request time - 1. The first
traced window's spans go to bench/out/spans-<workload>-seed<N>.npz.

The last stdout line is the JSON result {"correct", "attempted", "failed",
"metrics"}; the line before it is a JSON report with the environment, the
request-list digest and the tail percentile. Exit status 2 when the
checkout has no creatorgame sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import client

client.pin_threads()  # before anything imports numpy

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
WALL_CAP_S = 140.0  # no new block after this much wall time, so a run ends within 180 s

COUNT_METRICS = (
    "core.utility_calls",
    "response.calls",
    "population.calls",
    "population.member_evals",
    "leader.algorithm_utility_calls",
    "leader.points",
    "scenario.calls",
    "cli.errors",
    "sweep.cells",
    "sweep.csv_bytes",
    "sweep.svg_bytes",
)


class Verifier:
    """Checks every outcome: exit 0, agreement with the oracle, and byte-identical
    output whenever a request id is run again. judge is the oracle: oracle.judge
    in this process, or an oracle.OracleProcess."""

    def __init__(self, judge=oracle.judge) -> None:
        self.judge = judge
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._digests: dict[int, str] = {}

    def check(self, request: dict, outcome: client.Outcome) -> None:
        self.attempted += 1
        reason = self._reason(request, outcome)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"request {request['id']}: {reason}")

    def _reason(self, request: dict, outcome: client.Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}"
        digest = oracle.output_digest(outcome.stdout.encode(), outcome.csv, outcome.svg)
        known = self._digests.get(request["id"])
        if known is not None:
            return None if known == digest else "output differs from an earlier run of the same request"
        self._digests[request["id"]] = digest
        return self.judge(request, outcome.stdout, outcome.csv, outcome.svg)


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = client.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in client.THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, workdir) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to its set-up being done, SETUP_PROBES
    times, each with the speed kernel's time around it (parent before, child after)."""
    samples, kernel = [], []
    for k in range(SETUP_PROBES):
        command = [sys.executable, str(client.BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir / f"probe{k}")]
        before = speed.median_kernel_s()
        start = time.monotonic_ns()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=client.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        done, after = proc.stdout.split()[-2:]
        samples.append((int(done) - start) / 1e9)
        kernel.append((before + float(after)) / 2.0)
    return samples, kernel


def warm_up(runner: client.Client, verifier: Verifier, workload: str) -> None:
    request = workloads.warmup_request(workload)
    runner.write([request])
    verifier.check(request, runner.call(request, 0))


def run_end_to_end(workload: str, seed: int, seconds: float, cli, workdir, judge) -> tuple[dict, dict, Verifier]:
    spec = workloads.WORKLOADS[workload]
    setup_raw, setup_kernel = measure_setup(workload, seed, workdir)
    began = time.monotonic()
    runner = client.Client(cli, workdir / "main")
    verifier = Verifier(judge)
    warm_up(runner, verifier, workload)

    intervals: list[tuple[float, float]] = []
    busy = 0.0
    peak_rss = 0.0
    evals = 0
    index = 0
    with speed.SpeedSampler() as sampler:
        while True:
            requests = workloads.block(workload, seed, index % spec.blocks)
            runner.write(requests)
            for slot, request in enumerate(requests):
                outcome = runner.call(request, slot)
                intervals.append((outcome.start, outcome.start + outcome.seconds))
                busy += outcome.seconds
                peak_rss = max(peak_rss, outcome.peak_rss_mib)
                evals += request["evals"]
                verifier.check(request, outcome)
                del outcome  # its output files are not resident during the next call
            index += 1
            if busy >= seconds and len(intervals) >= spec.min_samples:
                break
            if time.monotonic() - began > WALL_CAP_S:
                break

    # The first request once more: its output must repeat byte for byte.
    first = workloads.block(workload, seed, 0)[0]
    runner.write([first])
    verifier.check(first, runner.call(first, 0))

    quiet = sampler.quiet_kernel_s()
    latencies = sorted(sampler.corrected(intervals))
    raw = sorted(end - start for start, end in intervals)
    setup = [t * quiet / k for t, k in zip(setup_raw, setup_kernel)]
    tail, beyond = percentile(latencies, spec.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "evals_per_s": (evals / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    report = {
        "requests": len(latencies),
        "blocks": index,
        "evals": evals,
        "latency_tail": {"percentile": spec.tail_percentile, "samples": len(latencies), "beyond": beyond},
        "failed_frac": verifier.failed / verifier.attempted,
        "measured": {
            "setup_s": statistics.median(setup_raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, spec.tail_percentile)[0] * 1e3,
            "evals_per_s": evals / busy,
            "request_s": busy,
        },
        "cpu_slowdown": sampler.mean_slowdown(),
        "quiet_kernel_s": quiet,
        "speed_samples": len(sampler.kernel),
    }
    return metrics, report, verifier


def window_metrics(names: list[str], columns: dict, window: list[dict], outcomes: list[client.Outcome]) -> dict:
    """Per-layer self times and counts of one traced window."""
    self_t = spans.self_times(columns)
    name, parent, request = columns["name"], columns["parent"], columns["request"]
    ids = {n: i for i, n in enumerate(names)}

    def is_fn(fn: str) -> np.ndarray:
        return name == ids[fn]

    def in_module(module: str) -> np.ndarray:
        return np.isin(name, [i for n, i in ids.items() if n.startswith(module + ".")])

    def seconds(mask: np.ndarray) -> float:
        return float(self_t[mask].sum())

    def count(fn: str) -> int:
        return int(np.count_nonzero(is_fn(fn)))

    response = in_module("response")
    respond = is_fn("response.respond")
    respond_parent = parent[respond]
    evals = sum(r["evals"] for r in window)
    stdout = [dict(line.split("=", 1) for line in o.stdout.splitlines() if "=" in line) for o in outcomes]
    metrics = {
        "core.utility_s": seconds(in_module("core")),
        "core.utility_calls": count("core.creator_utility"),
        "core.utility_calls_per_eval": count("core.creator_utility") / evals,
        "response.respond_self_s": seconds(response),
        "response.calls": count("response.respond"),
    }
    for kind in workloads.RULES:
        ids_of_kind = [r["id"] for r in window if r["rule"] == kind]
        metrics[f"response.{kind}_self_s"] = seconds(response & np.isin(request, ids_of_kind))
    metrics.update(
        {
            "population.shares_self_s": seconds(is_fn("population.population_shares")),
            "population.calls": count("population.population_shares"),
            "population.member_evals": int(
                np.count_nonzero(name[respond_parent[respond_parent >= 0]] == ids["population.population_shares"])
            ),
            "leader.solve_self_s": seconds(is_fn("leader.stackelberg_solve")),
            "leader.algorithm_utility_s": seconds(is_fn("leader.algorithm_utility")),
            "leader.algorithm_utility_calls": count("leader.algorithm_utility"),
            "leader.enumerate_s": seconds(is_fn("leader.enumerate_domain")),
            "leader.points": sum(int(out.get("grid_points", 0)) for out in stdout),
            "scenario.load_s": seconds(in_module("scenario")),
            "scenario.calls": count("scenario.load_scenario"),
            "cli.self_s": seconds(in_module("cli")),
            "cli.errors": sum(1 for o in outcomes if o.code != 0),
            "sweep.run_self_s": seconds(is_fn("sweep.run_sweep")),
            "sweep.cells": sum(int(out.get("rows", 0)) for out in stdout),
            "sweep.emit_csv_s": seconds(is_fn("sweep.emit_csv")),
            "sweep.csv_bytes": sum(len(o.csv) for o in outcomes),
            "sweep.emit_svg_s": seconds(is_fn("sweep.emit_region_svg")),
            "sweep.svg_bytes": sum(len(o.svg) for o in outcomes),
        }
    )
    return metrics


def layer_shares(names: list[str], columns: dict) -> dict:
    """Each module's self time as a share of the top-level request spans' time."""
    self_t = spans.self_times(columns)
    top = columns["parent"] < 0
    total = float((columns["end"][top] - columns["start"][top]).sum()) / 1e9
    modules = np.array([n.split(".")[0] for n in names])[columns["name"]]
    return {m: float(self_t[modules == m].sum()) / total for m in spans.MODULES}


def run_traced(workload: str, seed: int, seconds: float, cli, workdir, judge) -> tuple[dict, dict, Verifier]:
    began = time.monotonic()
    window = workloads.trace_window(workload, seed)
    runner = client.Client(cli, workdir / "main")
    verifier = Verifier(judge)
    warm_up(runner, verifier, workload)
    runner.write(window)

    store = spans.SpanStore()
    per_window: list[dict] = []
    first_columns = None
    shares = None
    untraced = traced = 0.0
    while True:
        for slot, request in enumerate(window):
            outcome = runner.call(request, slot)
            untraced += outcome.seconds
            verifier.check(request, outcome)
        store.clear()
        uninstall = spans.install(store)
        try:
            outcomes = []
            for slot, request in enumerate(window):
                store.current_request = request["id"]
                outcomes.append(runner.call(request, slot))
        finally:
            uninstall()
        traced += sum(o.seconds for o in outcomes)
        for request, outcome in zip(window, outcomes):
            verifier.check(request, outcome)
        columns = store.columns()
        per_window.append(window_metrics(store.names, columns, window, outcomes))
        if first_columns is None:
            first_columns, shares = columns, layer_shares(store.names, columns)
        if untraced + traced >= seconds or time.monotonic() - began > WALL_CAP_S:
            break

    first = per_window[0]
    unstable = [k for k in COUNT_METRICS if any(w[k] != first[k] for w in per_window)]
    metrics = {}
    for key in first:
        if key in COUNT_METRICS:
            metrics[key] = (first[key], "bytes" if key.endswith("_bytes") else "count")
        elif key == "core.utility_calls_per_eval":
            metrics[key] = (first[key], "ratio")
        else:
            metrics[key] = (statistics.fmean(w[key] for w in per_window), "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")

    spans_path = client.OUT / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(spans_path, names=np.array(store.names), **first_columns)
    report = {
        "trace_requests": [r["id"] for r in window],
        "windows": len(per_window),
        "untraced_s": untraced,
        "traced_s": traced,
        "layer_share_of_request_time": shares,
        "counts_repeat_exactly": not unstable,
        "spans_file": str(spans_path.relative_to(client.ROOT)),
        "spans": len(first_columns["name"]),
    }
    if unstable:
        verifier.failed += 1
        verifier.reasons.append(f"counts differ between traced windows: {unstable}")
    return metrics, report, verifier


class Terminated(BaseException):
    """SIGTERM arrived. Not an Exception, and not SystemExit, so that the client
    does not count it as a failed request: the run unwinds and the oracle
    process is waited for."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)

    try:
        cli = client.load_cli()
    except client.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = client.OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        with oracle.OracleProcess() as judge:
            metrics, report, verifier = run(args.workload, args.seed, args.seconds, cli, workdir, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "request_list_sha256": workloads.list_digest(args.workload, args.seed),
        **report,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failures": verifier.reasons,
        "wall_s": time.monotonic() - began,
        "environment": environment(args.seed),
    }
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:.6g} {unit}")
    if not args.trace:
        tail = report["latency_tail"]
        print(f"  latency_tail_ms is p{tail['percentile']:g} of {tail['samples']} samples ({tail['beyond']} beyond)")
        print(f"{'failed_frac':32s} {report['failed_frac']:.6g} ratio ({verifier.failed} of {verifier.attempted})")
    print(json.dumps(report))
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
