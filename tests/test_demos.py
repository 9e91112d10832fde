"""The four demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_four_demos():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    argv = [sys.executable, str(demo)]
    if demo.name.startswith("01_"):
        argv.append(str(tmp_path / "out"))
    proc = subprocess.run(argv, cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("01_"):
        assert "fronts" in proc.stdout
        for name in ("field.csv", "front.csv"):
            assert (tmp_path / "out" / name).exists()
