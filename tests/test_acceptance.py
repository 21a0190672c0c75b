"""Release acceptance suite.

One test per criterion, each enforcing its stated tolerance (and runtime
bound where one applies) and printing a single PASS line on success:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    Exact,
    GameTable,
    Population,
    Quantal,
    SimplexDomain,
    Strategy,
    UtilityModel,
    best_response,
    creator_utility,
    enumerate_domain,
    make_delta_grid_population,
    population_shares,
    respond,
    stackelberg_solve,
    switching_delta,
    utility_gap,
)
from creatorgame.cli import main

COLLAB = DEFAULT_TABLE.profiles[Strategy.COLLABORATION]
BEEF = DEFAULT_TABLE.profiles[Strategy.BEEFING]


def _report(number, label):
    print(f"\nACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_baseline_example_exact_and_fast():
    weights, creator = AlgorithmWeights(1.0, 2.0, 1.5), CreatorParams(1.0)
    # warm-up, then time one full evaluation round
    creator_utility(weights, creator, COLLAB)
    start = time.perf_counter()
    u_collab = creator_utility(weights, creator, COLLAB)
    u_beef = creator_utility(weights, creator, BEEF)
    chosen = best_response(weights, creator, DEFAULT_TABLE)
    elapsed = time.perf_counter() - start
    assert abs(u_collab - 16.5) <= 1e-12
    assert abs(u_beef - 12.0) <= 1e-12
    assert chosen is Strategy.COLLABORATION
    assert elapsed < 1e-3
    _report(1, "baseline example (16.5 / 12.0 / Collaboration)")


def test_criterion_02_higher_sponsor_sensitivity():
    weights = AlgorithmWeights(1.0, 2.0, 1.5)
    creator = CreatorParams(2.5)
    assert abs(creator_utility(weights, creator, BEEF) - 7.5) <= 1e-12
    assert abs(creator_utility(weights, creator, COLLAB) - 16.5) <= 1e-12
    _report(2, "sponsor-sensitivity example (7.5 / 16.5)")


def test_criterion_03_clicks_shares_heavy_example():
    weights, creator = AlgorithmWeights(2.5, 0.5, 2.0), CreatorParams(1.0)
    assert abs(creator_utility(weights, creator, COLLAB) - 13.5) <= 1e-12
    assert abs(creator_utility(weights, creator, BEEF) - 18.5) <= 1e-12
    assert best_response(weights, creator, DEFAULT_TABLE) is Strategy.BEEFING
    _report(3, "clicks/shares-heavy example (13.5 / 18.5 / Beefing)")


def test_criterion_04_threshold_law():
    rng = np.random.default_rng(2024)
    grid_params = [CreatorParams(float(d)) for d in np.linspace(0.0, 10.0, 101)]
    start = time.perf_counter()
    for _ in range(1000):
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        threshold = switching_delta(weights, UtilityModel.LINEAR, DEFAULT_TABLE)
        assert threshold is not None
        if threshold >= 0.0:
            lo, hi = 0.0, threshold + 1.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if utility_gap(weights, CreatorParams(mid), DEFAULT_TABLE) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - threshold) <= 1e-9
        chosen = [best_response(weights, p, DEFAULT_TABLE) for p in grid_params]
        flips = [(a, b) for a, b in zip(chosen, chosen[1:]) if a is not b]
        assert len(flips) <= 1
        assert all(flip == (Strategy.BEEFING, Strategy.COLLABORATION) for flip in flips)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"threshold law on 1000 random weight vectors ({elapsed:.2f}s)")


def test_criterion_05_leader_oracle_equivalence():
    rng = np.random.default_rng(77)
    resolutions = (1, 5, 10, 20)
    domains = {n: SimplexDomain(1.0, n) for n in resolutions}
    grids = {n: enumerate_domain(domains[n]) for n in resolutions}
    start = time.perf_counter()
    for _ in range(100):
        creator = CreatorParams(rng.uniform(0.0, 5.0))
        pop = Population((creator,))
        for n in resolutions:
            result = stackelberg_solve(domains[n], pop, Exact(), DEFAULT_TABLE)
            # independent exhaustive loop: direct utility comparison and a
            # direct dot product with the chosen profile
            best_value, best_idx = -np.inf, -1
            for idx, w in enumerate(grids[n]):
                u_c = creator_utility(w, creator, COLLAB)
                u_b = creator_utility(w, creator, BEEF)
                profile = BEEF if u_b - u_c > 1e-9 else COLLAB
                value = w.alpha * profile.clicks + w.beta * profile.watch_time + w.gamma * profile.shares
                if best_idx < 0 or value > best_value + 1e-9:
                    best_value, best_idx = value, idx
            assert result.weights == grids[n][best_idx]
            assert abs(result.leader_value - best_value) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"grid-search solver matches exhaustive oracle ({elapsed:.2f}s)")


def test_criterion_06_best_response_scale_invariance():
    rng = np.random.default_rng(91)
    for _ in range(1000):
        a, b, g, d = rng.uniform(0.0, 10.0, size=4)
        table = GameTable(
            {
                Strategy.COLLABORATION: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
                Strategy.BEEFING: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
            }
        )
        c = 10.0 * (1.0 - rng.random())  # in (0, 10]
        base = best_response(AlgorithmWeights(a, b, g), CreatorParams(d), table)
        scaled = best_response(
            AlgorithmWeights(c * a, c * b, c * g), CreatorParams(c * d), table
        )
        assert scaled is base
    _report(6, "best response invariant under positive scaling")


def test_criterion_07_quantal_limits():
    for weights in (AlgorithmWeights(1.0, 2.0, 1.5), AlgorithmWeights(0.0, 0.0, 0.0)):
        dist = respond(Quantal(0.0), weights, CreatorParams(1.0), DEFAULT_TABLE)
        assert dist.prob[Strategy.COLLABORATION] == 0.5
        assert dist.prob[Strategy.BEEFING] == 0.5

    rng = np.random.default_rng(55)
    checked = 0
    while checked < 100:
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        creator = CreatorParams(rng.uniform(0.0, 5.0))
        gap = abs(utility_gap(weights, creator, DEFAULT_TABLE))
        if gap <= 1e-9:
            continue  # strict preferences only
        target = best_response(weights, creator, DEFAULT_TABLE)
        dist = respond(Quantal(50.0 / gap), weights, creator, DEFAULT_TABLE)
        assert dist.prob[target] >= 1.0 - 1e-9
        checked += 1
    _report(7, "quantal rule: uniform at lambda 0, sharp at lambda 50/|gap|")


def test_criterion_08_population_threshold_partition():
    rng = np.random.default_rng(808)
    pop = make_delta_grid_population(0.0, 5.0, 101)
    for _ in range(100):
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        threshold = switching_delta(weights, UtilityModel.LINEAR, DEFAULT_TABLE)
        beef_count = sum(1 for m in pop.members if m.delta < threshold)
        shares = population_shares(pop, Exact(), weights, DEFAULT_TABLE)
        assert shares.share[Strategy.BEEFING] == beef_count / 101
        assert shares.share[Strategy.COLLABORATION] == (101 - beef_count) / 101
    _report(8, "population shares equal the delta-threshold partition exactly")


def test_criterion_09_sweep_outputs_byte_identical(tmp_path):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["sweep", "example3", "--axis1", "delta:0:5:11", "--axis2", "beta:0:2:9"]
    assert main(args + ["--out", str(csv_a), "--svg", str(svg_a)]) == 0
    assert main(args + ["--out", str(csv_b), "--svg", str(svg_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    _report(9, "repeated sweeps produce byte-identical CSV and SVG")


def test_criterion_10_example_reproduction_exits_zero():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "creatorgame", "reproduce-examples"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert len(rows) == 6
    assert all("status=pass" in row for row in rows)
    _report(10, "end-to-end example reproduction exits 0")
