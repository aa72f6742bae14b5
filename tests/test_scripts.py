"""Smoke test of the two scripts under scripts/, each run as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_scripts_write_outputs_and_report(tmp_path):
    out = tmp_path / "out"
    run = run_script("reproduce_outputs.py", "--exact-overlay", "--out-dir", str(out),
                     cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "Warning" not in run.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "figure2.csv", "figure2.svg", "figure3.csv", "figure3.svg", "table1.csv"]

    # three checks fail on their leading-order clauses, so the exit code is 1
    run = run_script("run_verification.py", str(out / "report.json"), cwd=tmp_path)
    assert run.returncode == 1, run.stderr
    assert "Warning" not in run.stderr
    report = json.loads((out / "report.json").read_text())
    assert len(report) == 9
    assert sum(check["passed"] for check in report) == 6
