"""Every demo script runs to completion against the package in src/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(script, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True)


def test_all_six_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", [d for d in DEMOS if not d.name.startswith("06")], ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_region_map_demo_writes_beside_its_copy(tmp_path):
    # demo 06 writes into out/ next to itself, so it runs from a copy
    (demo,) = [d for d in DEMOS if d.name.startswith("06")]
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    proc = _run(copy, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "alpha_delta_regions.csv",
        "alpha_delta_regions.svg",
    ]
