"""The byte corpus: CLI requests whose exit code, stdout, stderr and written
files are pinned by sha256 in tests/data/golden.json.

    PYTHONPATH=src python tests/golden.py

rewrites the manifest from three sources: block 0 of one fixed seed per
benchmark workload (read from bench/workloads.py here, never by the test),
every command on every preset, and the CLI's error paths. test_golden.py
replays the manifest through cli.main.

Each request runs in an empty directory of its own, with its scenario
document written to scenario.json and every other path in its argv
relative to that directory. Its record holds the sha256 of stdout and of
stderr, in which the directory's real path reads "<dir>", and of every
file the request left there besides scenario.json, so a request that
writes anything else (a *.tmp file, say) no longer matches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from creatorgame.cli import main
from creatorgame.scenario import PRESETS

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "golden.json"
SCENARIO = "scenario.json"
SEED = 1  # the seed of every workload's block 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(request: dict, workdir: Path) -> dict:
    """Run request's argv through cli.main in the new directory workdir and
    return its record: request's fields plus exit, stdout, stderr and files."""
    workdir.mkdir()
    scenario = request["scenario"]
    if scenario is not None:
        text = scenario if isinstance(scenario, str) else json.dumps(scenario)  # a str is the file's raw text
        (workdir / SCENARIO).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(request["argv"])
    finally:
        os.chdir(cwd)
    here = os.path.realpath(workdir)
    written = sorted(p for p in workdir.rglob("*") if p.is_file() and p.name != SCENARIO)
    return {
        **request,
        "exit": code,
        "stdout": _sha(out.getvalue().replace(here, "<dir>").encode("utf-8")),
        "stderr": _sha(err.getvalue().replace(here, "<dir>").encode("utf-8")),
        "files": {p.relative_to(workdir).as_posix(): _sha(p.read_bytes()) for p in written},
    }


def _workload_requests() -> list[dict]:
    """Block 0 of seed SEED of every workload, with the benchmark client's argv."""
    sys.path.insert(0, str(ROOT))
    try:
        from bench import workloads
    finally:
        sys.path.remove(str(ROOT))
    requests = []
    for workload in workloads.WORKLOADS:
        for request in workloads.block(workload, SEED, 0):
            argv = [request["command"], SCENARIO]
            for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), request.get("axes", [])):
                argv += [flag, f"{name}:{lo!r}:{hi!r}:{steps}"]
            if request["command"] == "sweep":
                argv += ["--out", "out.csv", "--svg", "out.svg"]
            requests.append({"name": f"{workload}/{request['id']}", "argv": argv, "scenario": request["scenario"]})
    return requests


def _preset_requests() -> list[dict]:
    """Every command on every preset: the one-axis sweep on example3, the
    two-axis one with an SVG map on all."""
    requests = [{"name": "reproduce-examples", "argv": ["reproduce-examples"], "scenario": None}]
    for preset in sorted(PRESETS):
        for command in ("eval", "best-response", "equilibrium"):
            requests.append({"name": f"{command}/{preset}", "argv": [command, preset], "scenario": None})
        sweep = ["sweep", preset, "--axis1", "alpha:0:4:9", "--axis2", "delta:0:5:11"]
        requests.append(
            {"name": f"sweep/{preset}", "argv": [*sweep, "--out", "out.csv", "--svg", "out.svg"], "scenario": None}
        )
    one_axis = ["sweep", "example3", "--axis1", "delta:0:4:23", "--out", "out.csv"]
    requests.append({"name": "sweep/example3/one-axis", "argv": one_axis, "scenario": None})
    return requests


BASE = {"weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5}, "creator": {"delta": 1.0, "model": "linear"}}
NONLINEAR_OVERFLOW = {  # drama_risk**2 overflows: r = inf
    "weights": BASE["weights"],
    "creator": {"delta": 0.0, "model": "nonlinear"},
    "table": {
        "collaboration": {"clicks": 2.0, "watch_time": 5.0, "shares": 3.0, "drama_risk": 0.0},
        "beefing": {"clicks": 5.0, "watch_time": 2.0, "shares": 4.0, "drama_risk": 1e200},
    },
}

ONE_ULP_GAP = {  # (0.1 + 0.2) + 0.3 is 0.6 + 1 ulp, but 0.1 + (0.2 + 0.3) is 0.6: the gap shows the order
    "weights": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
    "creator": {"delta": 0.0, "model": "linear"},
    "table": {
        "collaboration": {"clicks": 0.1, "watch_time": 0.2, "shares": 0.3, "drama_risk": 0.0},
        "beefing": {"clicks": 0.6, "watch_time": 0.0, "shares": 0.0, "drama_risk": 0.0},
    },
}


def _edge_requests() -> list[dict]:
    """The CLI's error paths, in the order it checks them, and the sweep's
    edge cases: swept values at -0.0, a negative lo and utilities at the
    edge of overflow; then a subnormal axis step and outputs that cannot be
    written."""
    out = ["--out", "out.csv", "--svg", "out.svg"]

    def sweep(scenario: str, axis1: str, axis2: str | None = None) -> list[str]:
        return ["sweep", scenario, "--axis1", axis1, *(["--axis2", axis2] if axis2 else []), *out]

    budget = {**BASE, "domain": {"simplex": {"total": 1.0, "resolution": 10**6}}}
    quantal = {**BASE, "rule": {"quantal": {"lambda": 1.0}}}
    no_members = {**BASE, "population": {"grid": {"min": 0, "max": 1, "count": 0}}}
    same = ["sweep", "example1", "--axis1", "alpha:0:1:3", "--axis2", "delta:0:1:3", "--out", "a.csv", "--svg", "a.csv"]
    cases = {
        "missing-scenario": (["eval", "no-such-scenario"], None),
        "bad-json": (["eval", SCENARIO], "{"),
        "population-count-zero": (["equilibrium", SCENARIO], no_members),
        "over-budget-equilibrium": (["equilibrium", SCENARIO], budget),
        "same-out-and-svg": (same, None),
        "sweep-quantal-rule": (sweep(SCENARIO, "alpha:0:1:3"), quantal),
        "zero-steps": (["sweep", "example1", "--axis1", "delta:0:4:0", "--out", "out.csv"], None),
        "oversized-sweep": (sweep("example1", "alpha:0:1:4000", "delta:0:1:4000"), None),
        "too-wide-axis": (sweep("example1", "alpha:-1e308:1e308:3", "delta:0:1:3"), None),
        "negative-lo-axis1": (sweep("example1", "alpha:-1:1:4", "delta:0:1:5"), None),
        "negative-lo-axis2": (sweep("example1", "alpha:0:1:4", "delta:-1e-300:1:5"), None),
        "negative-zero-lo": (sweep("example1", "alpha:-0.0:1:4", "delta:-0.0:1:5"), None),
        "finite-near-overflow": (sweep("example1", "gamma:0:1e307:5", "delta:0:1:3"), None),
        "invalid-cell-in-a-later-block": (sweep("example1", "gamma:0:1e308:25", "delta:0:1:10"), None),
        "nonlinear-overflow-nan": (sweep(SCENARIO, "alpha:0:1:3", "delta:0:0:2"), NONLINEAR_OVERFLOW),
        "nonlinear-overflow-inf": (sweep(SCENARIO, "alpha:0:1:3", "delta:1:2:3"), NONLINEAR_OVERFLOW),
        "one-axis-svg": (sweep("example1", "delta:0:4:5"), None),
        "one-ulp-gap-eval": (["eval", SCENARIO], ONE_ULP_GAP),
        "one-ulp-gap-sweep": (sweep(SCENARIO, "alpha:0:1:3", "beta:0:1:3"), ONE_ULP_GAP),
        "subnormal-step": (["sweep", "example1", "--axis1", "delta:0:7e-323:10", "--out", "out.csv"], None),
        "io-error-out": (["sweep", "example1", "--axis1", "delta:0:4:5", "--out", "no/such/dir.csv"], None),
        "io-error-svg": (sweep("example1", "alpha:0:4:5", "delta:0:1:3")[:-1] + ["no/such/dir.svg"], None),
    }
    return [{"name": f"edge/{name}", "argv": argv, "scenario": scenario} for name, (argv, scenario) in cases.items()]


def requests() -> list[dict]:
    return [*_workload_requests(), *_preset_requests(), *_edge_requests()]


def rewrite(scratch: Path) -> None:
    """Replay every request in its own directory under scratch, write the
    manifest, and print the names of the records added, removed and changed."""
    records = [replay(request, scratch / str(k)) for k, request in enumerate(requests())]
    old = {r["name"]: r for r in json.loads(MANIFEST.read_text(encoding="utf-8"))} if MANIFEST.exists() else {}
    new = {r["name"]: r for r in records}
    for status, names in (
        ("added", [name for name in new if name not in old]),
        ("removed", [name for name in old if name not in new]),
        ("changed", [name for name in new if name in old and new[name] != old[name]]),
    ):
        print(f"{status}: {len(names)}", *(f"  {name}" for name in names), sep="\n")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {MANIFEST}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        rewrite(Path(scratch))
