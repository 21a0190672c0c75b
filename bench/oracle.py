"""Independent numpy oracle for the benchmark's requests.

It recomputes every answer from the request description alone (the scenario
document and the sweep axes), without calling creatorgame, and compares it
with what the CLI printed or wrote. Each check returns None when the answer
agrees and a one-line reason when it does not.

Reference semantics it encodes:
  * creator utility U = alpha*f1 + beta*f2 + gamma*f3 - delta*r, with
    f = (clicks, watch, shares), r = risk (linear) or
    f = (ln(1+clicks), sqrt(watch), shares), r = risk**2 (nonlinear);
  * collaboration wins gap ties: beefing only when U_b - U_c > 1e-9;
  * quantal shares are softmax probabilities averaged over members;
  * satisficing takes collaboration, then beefing, at the first utility
    >= aspiration, else the exact best response;
  * the leader's value is sum_s share_s * (alpha*clicks + beta*watch +
    gamma*shares), and a later grid point wins only when it beats the
    incumbent by more than 1e-9.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import re
import subprocess
import sys

import numpy as np

from workloads import DEFAULT_TABLE_DOC, engagement_features

GAP_TIE_TOL = 1e-9
LEADER_TIE_TOL = 1e-9
COLORS = {False: "#4f9d69", True: "#c0504d"}  # beefing? -> fill
SVG_LEFT, SVG_RIGHT, SVG_TOP, SVG_BOTTOM = 90.0, 620.0, 30.0, 420.0


def _close(got: float, want: float) -> bool:
    """Agreement to 1e-9 beyond the 9-significant-digit rounding of the output."""
    return abs(got - want) <= 1e-9 + 5e-9 * abs(want)


def _table(scenario: dict) -> dict:
    return scenario.get("table", DEFAULT_TABLE_DOC)


def _grid(domain: dict) -> np.ndarray:
    """Grid points (P x 3) in the solver's lexicographic (i, j, k) order."""
    if "simplex" in domain:
        total, n = domain["simplex"]["total"], domain["simplex"]["resolution"]
        idx = [(i, j, n - i - j) for i in range(n + 1) for j in range(n - i + 1)]
        return np.array(idx, dtype=float) * total / n
    box = domain["box"]
    n = box["resolution"]
    idx = np.array(list(itertools.product(range(n + 1), repeat=3)), dtype=float)
    return idx * np.array([box["alpha_max"], box["beta_max"], box["gamma_max"]]) / n


def _deltas(scenario: dict) -> np.ndarray:
    population = scenario.get("population")
    if population is None:
        return np.array([float(scenario["creator"]["delta"])])
    if "deltas" in population:
        return np.array(population["deltas"], dtype=float)
    grid = population["grid"]
    return np.linspace(grid["min"], grid["max"], grid["count"])


def _utility(a, b, g, d, feats) -> np.ndarray:
    f1, f2, f3, r = feats
    return a * f1 + b * f2 + g * f3 - d * r


def solve_equilibrium(scenario: dict) -> dict:
    """The expected `equilibrium` output values for a scenario document."""
    table = _table(scenario)
    model = scenario["creator"].get("model", "linear")
    weights = _grid(scenario.get("domain", {"simplex": {"total": 1.0, "resolution": 100}}))
    a, b, g = (weights[:, k : k + 1] for k in range(3))
    d = _deltas(scenario)[None, :]
    u_c = _utility(a, b, g, d, engagement_features(table["collaboration"], model))
    u_b = _utility(a, b, g, d, engagement_features(table["beefing"], model))

    rule = scenario.get("rule", "exact")
    if rule == "exact":
        p_b = (u_b - u_c > GAP_TIE_TOL).astype(float)
        p_c = 1.0 - p_b
    elif "quantal" in rule:
        lam = rule["quantal"]["lambda"]
        top = np.maximum(u_c, u_b)
        e_c, e_b = np.exp(lam * (u_c - top)), np.exp(lam * (u_b - top))
        p_c, p_b = e_c / (e_c + e_b), e_b / (e_c + e_b)
    else:
        aspiration = rule["satisficing"]["aspiration"]
        take_c = u_c >= aspiration
        take_b = ~take_c & (u_b >= aspiration)
        fallback_b = ~take_c & ~take_b & (u_b - u_c > GAP_TIE_TOL)
        p_b = (take_b | fallback_b).astype(float)
        p_c = 1.0 - p_b
    members = d.shape[1]
    share_c, share_b = p_c.sum(axis=1) / members, p_b.sum(axis=1) / members

    def engagement(profile: dict) -> np.ndarray:
        return a[:, 0] * profile["clicks"] + b[:, 0] * profile["watch_time"] + g[:, 0] * profile["shares"]

    values = share_c * engagement(table["collaboration"]) + share_b * engagement(table["beefing"])
    best = 0
    best_value = values[0]
    for p, value in enumerate(values.tolist()):
        if value > best_value + LEADER_TIE_TOL:
            best, best_value = p, value
    return {
        "alpha": weights[best, 0],
        "beta": weights[best, 1],
        "gamma": weights[best, 2],
        "share_Collaboration": share_c[best],
        "share_Beefing": share_b[best],
        "leader_value": best_value,
        "grid_points": len(values),
    }


def _parse_lines(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in out:
            raise ValueError(f"malformed output line {line!r}")
        out[key] = value
    return out


def check_equilibrium(expected: dict, stdout: str) -> str | None:
    """Compare `equilibrium` stdout with solve_equilibrium's values."""
    try:
        got = _parse_lines(stdout)
    except ValueError as exc:
        return str(exc)
    if list(got) != list(expected):
        return f"output keys {list(got)} != {list(expected)}"
    if got["grid_points"] != str(expected["grid_points"]):
        return f"grid_points={got['grid_points']} expected {expected['grid_points']}"
    for key, want in expected.items():
        if key == "grid_points":
            continue
        try:
            value = float(got[key])
        except ValueError:
            return f"{key}={got[key]!r} is not a number"
        if not _close(value, float(want)):
            return f"{key}={got[key]} expected {float(want)!r}"
    return None


def sweep_lattice(request: dict) -> dict:
    """Expected per-cell values of a two-axis sweep, axis1 outer and axis2 inner."""
    scenario = request["scenario"]
    table = _table(scenario)
    model = scenario["creator"].get("model", "linear")
    (name1, lo1, hi1, steps1), (name2, lo2, hi2, steps2) = request["axes"]
    params = {key: float(v) for key, v in scenario["weights"].items()}
    params["delta"] = float(scenario["creator"]["delta"])
    params = {key: np.full(steps1 * steps2, v) for key, v in params.items()}
    params[name1] = np.repeat(np.linspace(lo1, hi1, steps1), steps2)
    params[name2] = np.tile(np.linspace(lo2, hi2, steps2), steps1)
    args = params["alpha"], params["beta"], params["gamma"], params["delta"]
    u_c = _utility(*args, engagement_features(table["collaboration"], model))
    u_b = _utility(*args, engagement_features(table["beefing"], model))
    gap = u_b - u_c
    return {
        "names": (name1, name2),
        "shape": (steps1, steps2),
        "params": params,
        "u_collab": u_c,
        "u_beef": u_b,
        "gap": gap,
        "beef": gap > GAP_TIE_TOL,
    }


def _close_array(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= 1e-9 + 5e-9 * np.abs(want)))


def check_sweep_csv(lattice: dict, data: bytes) -> str | None:
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        return "CSV does not end with LF"
    lines = text[:-1].split("\n")
    names = sorted(lattice["names"])
    header = ",".join(names + ["u_collab", "u_beef", "gap", "chosen"])
    if lines[0] != header:
        return f"CSV header {lines[0]!r} != {header!r}"
    cells = lattice["shape"][0] * lattice["shape"][1]
    if len(lines) - 1 != cells:
        return f"CSV has {len(lines) - 1} rows, expected {cells}"
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(names) + 4 for row in rows):
        return "CSV row with the wrong number of columns"
    columns = list(zip(*rows))
    try:
        numeric = [np.array(col, dtype=float) for col in columns[:-1]]
    except ValueError as exc:
        return f"CSV value is not a number: {exc}"
    wants = [lattice["params"][n] for n in names] + [lattice["u_collab"], lattice["u_beef"], lattice["gap"]]
    for label, got, want in zip(names + ["u_collab", "u_beef", "gap"], numeric, wants):
        if not _close_array(got, want):
            return f"CSV column {label} disagrees with the oracle"
    chosen = np.array(columns[-1])
    expected = np.where(lattice["beef"], "Beefing", "Collaboration")
    if not np.array_equal(chosen, expected):
        return f"CSV chosen disagrees in {int(np.sum(chosen != expected))} rows"
    return None


_RECT = re.compile(rb'<rect x="([^"]*)" y="([^"]*)" width="[^"]*" height="[^"]*" fill="([^"]*)"/>')


def check_sweep_svg(lattice: dict, data: bytes) -> str | None:
    """One <rect> per lattice cell, at that cell's place, filled by the chosen strategy."""
    steps1, steps2 = lattice["shape"]
    rects = _RECT.findall(data)
    if len(rects) != data.count(b"<rect"):
        return "SVG has a rect without x, y, width, height and fill"
    if len(rects) != steps1 * steps2:
        return f"SVG has {len(rects)} rects, expected {steps1 * steps2}"
    xs, ys, fills = zip(*rects)
    try:
        x = np.array(xs).astype(float)
        y = np.array(ys).astype(float)
    except ValueError as exc:
        return f"SVG rect position is not a number: {exc}"
    fills = np.array(fills).astype(str)
    cell_w = (SVG_RIGHT - SVG_LEFT) / steps1
    cell_h = (SVG_BOTTOM - SVG_TOP) / steps2
    i = np.rint((x - SVG_LEFT) / cell_w).astype(int)
    j = np.rint((SVG_BOTTOM - y) / cell_h - 1.0).astype(int)
    if i.min() < 0 or i.max() >= steps1 or j.min() < 0 or j.max() >= steps2:
        return "SVG rect outside the lattice"
    cell = i * steps2 + j
    if len(np.unique(cell)) != len(cell):
        return "SVG draws some lattice cell twice"
    expected = np.where(lattice["beef"][cell], COLORS[True], COLORS[False])
    if not np.array_equal(fills, expected):
        return f"SVG fill disagrees in {int(np.sum(fills != expected))} cells"
    return None


def check_sweep(lattice: dict, stdout: str, csv_bytes: bytes, svg_bytes: bytes) -> str | None:
    cells = lattice["shape"][0] * lattice["shape"][1]
    if stdout != f"rows={cells}\n":
        return f"sweep stdout {stdout!r} != 'rows={cells}'"
    return check_sweep_csv(lattice, csv_bytes) or check_sweep_svg(lattice, svg_bytes)


def output_digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def judge(request: dict, stdout: str, csv_bytes: bytes, svg_bytes: bytes) -> str | None:
    """The oracle's verdict on one request's output: None, or why it is wrong."""
    if request["command"] == "equilibrium":
        return check_equilibrium(solve_equilibrium(request["scenario"]), stdout)
    return check_sweep(sweep_lattice(request), stdout, csv_bytes, svg_bytes)


def serve(requests, replies) -> None:
    """Answer judge() jobs pickled on the binary stream requests, one pickled
    verdict each on replies, until None or the end of the stream arrives."""
    pickle.dump("ready", replies)
    replies.flush()
    while True:
        try:
            job = pickle.load(requests)
        except EOFError:  # the parent is gone
            return
        if job is None:
            return
        pickle.dump(judge(*job), replies)
        replies.flush()


class OracleProcess:
    """judge() in a process of its own, so that the oracle's arrays never count
    toward the measured process's memory. Used as a context manager, which
    waits for the process to end on the way out; calls are synchronous, so the
    oracle never runs while a request is being timed."""

    def __enter__(self) -> "OracleProcess":
        self._process = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            pickle.load(self._process.stdout)  # started and imported: it takes no CPU from what is measured next
        except BaseException:
            self.__exit__()
            raise
        return self

    def __call__(self, request: dict, stdout: str, csv_bytes: bytes, svg_bytes: bytes) -> str | None:
        pickle.dump((request, stdout, csv_bytes, svg_bytes), self._process.stdin, pickle.HIGHEST_PROTOCOL)
        self._process.stdin.flush()
        return pickle.load(self._process.stdout)

    def __exit__(self, *exc) -> None:
        try:
            pickle.dump(None, self._process.stdin)
            self._process.stdin.close()
        except OSError:  # the oracle process is already gone
            pass
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    # Verdicts go over the real stdout; anything printed goes to stderr.
    replies, sys.stdout = sys.stdout.buffer, sys.stderr
    serve(sys.stdin.buffer, replies)
