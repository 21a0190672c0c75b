"""Mutation checks: each mutant of the package must make its named tests fail.

pytest does not collect this file. Run it from anywhere:

    python tests/mutants.py

For each row of MUTANTS the script copies src/ to a temporary directory,
replaces the row's old text, which must occur exactly once in its file, with
its new text, and runs the row's tests with that copy first on PYTHONPATH and
on pytest's pythonpath. A mutant whose tests all pass survives. The last row
changes nothing: it must survive, which shows that a surviving mutant is
seen. The script prints one line per row and exits 1 if a mutant survives,
the control is killed, or a row's old text does not occur exactly once, so a
change that moves or rewrites a listed line must update its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/creatorgame
    old: str
    new: str
    tests: tuple[str, ...]


_ORACLE = "tests/test_kernel_oracle.py::test_property_kernel_equals_the_oracle"

MUTANTS = (
    Mutant(
        "exact rule: a gap equal to tie_tol chooses Beefing",
        "response.py",
        "beef, reads_beef = gap > rule.tie_tol, True",
        "beef, reads_beef = gap >= rule.tie_tol, True",
        ("tests/test_kernel.py::test_near_ties_match_the_reference_bit_for_bit",),
    ),
    Mutant(
        "satisficing: Beefing's utility fails a member even when respond does not read it",
        "response.py",
        "~np.isfinite(u_collab) | (reads_beef & ~np.isfinite(u_beef))",
        "~np.isfinite(u_collab) | ~np.isfinite(u_beef)",
        ("tests/test_kernel.py::test_chunked_satisficing_suspects_that_never_fail",),
    ),
    Mutant(
        "quantal: a +inf utility keeps finite probabilities",
        "response.py",
        "            collab[overflow] = beef[overflow] = np.nan\n",
        "",
        (_ORACLE,),
    ),
    Mutant(
        "quantal: finite utilities never fail, at lam = 0 too",
        "response.py",
        "if finite and rule.lam > 0.0:",
        "if finite:",
        ("tests/test_choose.py::test_quantal_at_lam_0_fails_where_finite_utilities_overflow_their_gap",),
    ),
    Mutant(
        "engagement sum regrouped",
        "core.py",
        "return (alpha * phi[0] + beta * phi[1]) + gamma * phi[2]",
        "return alpha * phi[0] + (beta * phi[1] + gamma * phi[2])",
        ("tests/test_core.py::test_engagement_sums_in_one_written_out_order",),
    ),
    Mutant(
        "sweep: the failure probe reads cell 0, not the last cell",
        "sweep.py",
        "last = self.evaluate(self.cells - 1, self.cells)",
        "last = self.evaluate(0, 1)",
        ("tests/test_sweep.py::test_invalid_cells_raise_the_first_scalar_error",),
    ),
    Mutant(
        "identity (control: must survive)",
        "core.py",
        "def _engagement(",
        "def _engagement(",
        ("tests/test_core.py::test_engagement_sums_in_one_written_out_order",),
    ),
)


def _killed(mutant: Mutant, scratch: Path) -> bool:
    """Whether the mutant's tests fail against a mutated copy of src/."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "creatorgame" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise LookupError(f"the old text occurs {text.count(mutant.old)} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}"]
    proc = subprocess.run([*command, *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 is a failed test; anything else is a broken run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="creatorgame-mutants-") as scratch:
        for mutant in MUTANTS:
            control = mutant.old == mutant.new
            try:
                killed = _killed(mutant, Path(scratch))
            except (LookupError, RuntimeError) as exc:
                print(f"ERROR     {mutant.name}: {exc}")
                failures += 1
                continue
            ok = killed != control
            print(f"{'killed' if killed else 'SURVIVED':9} {mutant.name}{'' if ok else '  <- unexpected'}")
            failures += not ok
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} rows as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
