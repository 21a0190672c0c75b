"""Seeded request generator for the benchmark workloads.

A workload's request list is a sequence of blocks. All blocks share one
layout, the same for every seed: which slot gets which rule, model, table
kind and domain kind, and which equal-width stratum of each size range
(resolution, members, sweep steps) it draws from. The seed and the block
index draw everything else: the sizes within their strata, the random
tables, lambda, aspiration, delta ranges, box bounds, sweep axes, and the
order of the requests in the block. So every block of every seed holds
different inputs, while any run of whole blocks sees nearly the same mix of
request costs, which keeps the latency median and tail comparable across
seeds and run lengths.

A request is a plain dict:

    id        position in the list
    command   "equilibrium" or "sweep"
    scenario  the scenario document written to a JSON file for the CLI
    axes      sweep only: [[name, lo, hi, steps], [name, lo, hi, steps]]
    rule      "exact" | "quantal" | "satisficing"
    evals     evaluated (weight vector, creator) pairs: grid points x
              members for equilibrium, lattice cells for sweep
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

RULES = ("exact", "quantal", "satisficing")


@dataclass(frozen=True)
class WorkloadSpec:
    """How a workload's requests are laid out; why each workload exists is in BENCHMARK.json."""

    name: str
    block: int  # requests per block; odd, so the median and p75 fall inside one slot's copies
    blocks: int  # blocks in the seed's request list; a run that needs more wraps around
    tail_percentile: float  # fixed per workload; a run takes at least min_samples requests
    min_samples: int  # so that >= 10 samples lie beyond tail_percentile
    trace_requests: int  # requests in one traced window


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "equilibrium-population",
            block=15,
            blocks=16,
            tail_percentile=75.0,
            min_samples=40,
            trace_requests=3,
        ),
        WorkloadSpec(
            "equilibrium-small",
            block=27,
            blocks=400,
            tail_percentile=99.0,
            min_samples=1000,
            trace_requests=27,
        ),
        WorkloadSpec(
            "sweep-map",
            block=9,
            blocks=16,
            tail_percentile=75.0,
            min_samples=40,
            trace_requests=2,
        ),
    )
}


def _r(value: float) -> float:
    """Round generated reals to 4 decimals so scenario files stay readable."""
    return round(float(value), 4)


def _int_strata(design: np.random.Generator, rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], one per equal-width stratum: the layout fixes
    which slot gets which stratum, the seed the value inside it."""
    width = (hi + 1 - lo) / n
    return [min(hi, int(math.floor(lo + (k + u) * width))) for k, u in zip(design.permutation(n), rng.random(n))]


def _balanced(design: np.random.Generator, n: int, kinds: tuple) -> list:
    """n labels cycling through kinds (counts differ by at most one), in layout order."""
    labels = [kinds[i % len(kinds)] for i in range(n)]
    design.shuffle(labels)
    return labels


def _random_table(rng: np.random.Generator) -> dict:
    def profile(risk_lo: float, risk_hi: float) -> dict:
        return {
            "clicks": _r(rng.uniform(0.5, 6.0)),
            "watch_time": _r(rng.uniform(0.5, 8.0)),
            "shares": _r(rng.uniform(0.5, 6.0)),
            "drama_risk": _r(rng.uniform(risk_lo, risk_hi)),
        }

    return {"collaboration": profile(0.0, 1.0), "beefing": profile(1.0, 4.0)}


DEFAULT_TABLE_DOC = {
    "collaboration": {"clicks": 2.0, "watch_time": 5.0, "shares": 3.0, "drama_risk": 0.0},
    "beefing": {"clicks": 5.0, "watch_time": 2.0, "shares": 4.0, "drama_risk": 3.0},
}


def engagement_features(profile: dict, model: str) -> tuple[float, float, float, float]:
    """(clicks term, watch term, shares term, risk term) a creator's utility weighs."""
    if model == "linear":
        return profile["clicks"], profile["watch_time"], profile["shares"], profile["drama_risk"]
    return (
        math.log1p(profile["clicks"]),
        math.sqrt(profile["watch_time"]),
        profile["shares"],
        profile["drama_risk"] ** 2,
    )


def _rule_doc(rng: np.random.Generator, kind: str, table: dict, model: str, domain: dict):
    if kind == "exact":
        return "exact"
    if kind == "quantal":
        return {"quantal": {"lambda": _r(rng.uniform(0.5, 4.0))}}
    # An aspiration inside the range of collaboration utilities over the domain,
    # so some grid points accept a strategy and others fall back to the argmax.
    feats = engagement_features(table["collaboration"], model)[:3]
    if "simplex" in domain:
        total = domain["simplex"]["total"]
        lo, hi = total * min(feats), total * max(feats)
    else:
        box = domain["box"]
        lo, hi = 0.0, sum(m * f for m, f in zip((box["alpha_max"], box["beta_max"], box["gamma_max"]), feats))
    return {"satisficing": {"aspiration": _r(lo + rng.uniform(0.2, 0.8) * (hi - lo))}}


def _domain_points(domain: dict) -> int:
    if "simplex" in domain:
        n = domain["simplex"]["resolution"]
        return (n + 1) * (n + 2) // 2
    n = domain["box"]["resolution"]
    return (n + 1) ** 3


def _equilibrium_block(
    design: np.random.Generator,
    rng: np.random.Generator,
    size: int,
    members: list[int],
    simplex_res: tuple[int, int],
    box_res: tuple[int, int],
    box_count: int,
    delta_grid: bool,
) -> list[dict]:
    rules = _balanced(design, size, RULES)
    models = _balanced(design, size, ("linear", "nonlinear"))
    tables = _balanced(design, size, ("default", "random"))
    is_box = _balanced(design, size, (True,) * box_count + (False,) * (size - box_count))
    simplex_n = iter(_int_strata(design, rng, size - box_count, *simplex_res))
    box_n = iter(_int_strata(design, rng, box_count, *box_res))
    out = []
    for i in range(size):
        table = DEFAULT_TABLE_DOC if tables[i] == "default" else _random_table(rng)
        if is_box[i]:
            domain = {
                "box": {
                    "alpha_max": _r(rng.uniform(0.5, 2.0)),
                    "beta_max": _r(rng.uniform(0.5, 2.0)),
                    "gamma_max": _r(rng.uniform(0.5, 2.0)),
                    "resolution": next(box_n),
                }
            }
        else:
            domain = {"simplex": {"total": 1.0, "resolution": next(simplex_n)}}
        scenario = {
            "table": table,
            "weights": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
            "creator": {"delta": _r(rng.uniform(0.0, 5.0)), "model": models[i]},
            "rule": _rule_doc(rng, rules[i], table, models[i], domain),
            "domain": domain,
        }
        count = members[i]
        if delta_grid:
            scenario["population"] = {
                "grid": {"min": _r(rng.uniform(0.0, 0.5)), "max": _r(rng.uniform(4.5, 5.0)), "count": count}
            }
        elif count > 1:
            scenario["population"] = {"deltas": [_r(rng.uniform(0.0, 5.0)) for _ in range(count)]}
        out.append(
            {
                "command": "equilibrium",
                "scenario": scenario,
                "rule": rules[i],
                "evals": _domain_points(domain) * count,
            }
        )
    return out


def _population_block(design: np.random.Generator, rng: np.random.Generator, size: int) -> list[dict]:
    return _equilibrium_block(
        design,
        rng,
        size,
        _int_strata(design, rng, size, 21, 61),
        simplex_res=(30, 60),
        box_res=(8, 12),
        box_count=size // 4,
        delta_grid=True,
    )


def _small_block(design: np.random.Generator, rng: np.random.Generator, size: int) -> list[dict]:
    members = _balanced(design, size, (1, 2, 3))
    return _equilibrium_block(
        design, rng, size, members, simplex_res=(2, 20), box_res=(2, 6), box_count=size // 3, delta_grid=False
    )


SWEEP_RANGES = {"alpha": (1.0, 4.0), "beta": (1.0, 4.0), "gamma": (1.0, 4.0), "delta": (2.0, 6.0)}


def _sweep_block(design: np.random.Generator, rng: np.random.Generator, size: int) -> list[dict]:
    steps1 = _int_strata(design, rng, size, 100, 200)
    steps2 = _int_strata(design, rng, size, 100, 200)
    models = _balanced(design, size, ("linear", "nonlinear"))
    tables = _balanced(design, size, ("default", "random"))
    names = list(SWEEP_RANGES)
    out = []
    for i in range(size):
        pair = rng.choice(len(names), size=2, replace=False)
        axes = []
        for name, steps in zip((names[pair[0]], names[pair[1]]), (steps1[i], steps2[i])):
            lo = _r(rng.uniform(0.0, 0.5))
            width_lo, width_hi = SWEEP_RANGES[name]
            axes.append([name, lo, _r(lo + rng.uniform(width_lo, width_hi)), steps])
        scenario = {
            "table": DEFAULT_TABLE_DOC if tables[i] == "default" else _random_table(rng),
            "weights": {
                "alpha": _r(rng.uniform(0.0, 3.0)),
                "beta": _r(rng.uniform(0.0, 3.0)),
                "gamma": _r(rng.uniform(0.0, 3.0)),
            },
            "creator": {"delta": _r(rng.uniform(0.0, 4.0)), "model": models[i]},
        }
        out.append(
            {
                "command": "sweep",
                "scenario": scenario,
                "axes": axes,
                "rule": "exact",
                "evals": steps1[i] * steps2[i],
            }
        )
    return out


_BLOCK_MAKERS = {
    "equilibrium-population": _population_block,
    "equilibrium-small": _small_block,
    "sweep-map": _sweep_block,
}


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Block `index` of the seed's request list; the same seed gives the same block."""
    spec = WORKLOADS[workload]
    kind = list(WORKLOADS).index(workload)
    design = np.random.default_rng(kind)  # the layout: the same for every block and every seed
    rng = np.random.default_rng([seed, kind, index])
    requests = _BLOCK_MAKERS[workload](design, rng, spec.block)
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    for slot, request in enumerate(requests):
        request["id"] = index * spec.block + slot
    return requests


def list_digest(workload: str, seed: int) -> str:
    """sha256 of the canonical JSON of the seed's whole request list (spec.blocks blocks)."""
    h = hashlib.sha256()
    for index in range(WORKLOADS[workload].blocks):
        text = json.dumps(block(workload, seed, index), sort_keys=True, separators=(",", ":"))
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def trace_window(workload: str, seed: int) -> list[dict]:
    """The requests one traced window runs: block 0 reordered so rule kinds
    alternate (exact, quantal, satisficing, ...), cut to trace_requests, so
    a window of three equilibrium requests covers every rule."""
    queues = [[r for r in block(workload, seed, 0) if r["rule"] == kind] for kind in RULES]
    order: list[dict] = []
    while any(queues):
        for queue in queues:
            if queue:
                order.append(queue.pop(0))
    return order[: WORKLOADS[workload].trace_requests]


def warmup_request(workload: str) -> dict:
    """A fixed tiny request of the workload's command, run once before timing."""
    scenario = {
        "weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5},
        "creator": {"delta": 1.0, "model": "linear"},
        "domain": {"simplex": {"total": 1.0, "resolution": 4}},
    }
    if workload == "sweep-map":
        return {
            "id": -1,
            "command": "sweep",
            "scenario": scenario,
            "axes": [["alpha", 0.0, 2.0, 3], ["delta", 0.0, 4.0, 3]],
            "rule": "exact",
            "evals": 9,
        }
    return {"id": -1, "command": "equilibrium", "scenario": scenario, "rule": "exact", "evals": 15}
