"""Package surface and the end-to-end experiment script."""

import os
import pathlib
import subprocess
import sys

import dptradeoff

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_exports_resolve_without_duplicates():
    names = dptradeoff.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dptradeoff, name, None) is not None, name


def test_hull_experiment_script_writes_artifacts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "run_hull_experiment.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("curve.svg", "s2.svg", "curve.json"):
        assert (tmp_path / name).is_file(), name
