"""Closed-loop client: one request at a time through creatorgame.cli.main, in-process.

The program sees only the scenario JSON files this client writes and the
CLI argv. A request's time is the cli.main call alone; writing inputs,
capturing stdout and reading the output files happen outside it. So does
its memory: the process's resident-memory high-water mark (VmHWM) is reset
to the current resident size just before the call and read just after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# numpy/BLAS pools pinned to one thread: the load model is one client in one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no creatorgame sources to benchmark."""


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    """Import creatorgame.cli from the checkout's src/, never from an installed copy."""
    if not (SRC / "creatorgame" / "__init__.py").is_file():
        raise ProgramMissing(f"no creatorgame package under {SRC}")
    sys.path.insert(0, str(SRC))
    import creatorgame.cli

    if Path(creatorgame.cli.__file__).resolve().parent != SRC / "creatorgame":
        raise ProgramMissing(f"creatorgame imported from {creatorgame.cli.__file__}, not {SRC}")
    return creatorgame.cli


def reset_peak_rss() -> None:
    """Restart the process's VmHWM from its current resident size (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mib() -> float:
    """VmHWM of this process since the last reset_peak_rss(), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Outcome:
    start: float  # perf_counter at the call
    seconds: float
    peak_rss_mib: float  # the process's resident-memory high-water mark during the call
    code: int
    stdout: str
    stderr: str
    csv: bytes = b""
    svg: bytes = b""


class Client:
    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _path(self, slot: int, suffix: str) -> str:
        return str(self.workdir / f"r{slot}{suffix}")

    def write(self, requests: list[dict]) -> None:
        """Write each request's scenario file, at the request's slot in the list."""
        for slot, request in enumerate(requests):
            with open(self._path(slot, ".json"), "w") as handle:
                json.dump(request["scenario"], handle)

    def argv(self, request: dict, slot: int) -> list[str]:
        argv = [request["command"], self._path(slot, ".json")]
        if request["command"] == "sweep":
            for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), request["axes"]):
                argv += [flag, f"{name}:{lo!r}:{hi!r}:{steps}"]
            argv += ["--out", self._path(slot, ".csv"), "--svg", self._path(slot, ".svg")]
        return argv

    def call(self, request: dict, slot: int) -> Outcome:
        argv = self.argv(request, slot)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            reset_peak_rss()
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed request, not a failed benchmark
                code = -1
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - start
            peak = peak_rss_mib()
        outcome = Outcome(start, seconds, peak, code, out.getvalue(), err.getvalue())
        if request["command"] == "sweep":
            for suffix in (".csv", ".svg"):
                path = self._path(slot, suffix)
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        setattr(outcome, suffix[1:], handle.read())
                    os.remove(path)
        return outcome
