"""Smoke runs of the example scripts and of `python -m gbspline`, so a removed
or renamed name breaks a test."""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_refinement_demo_runs():
    proc = run_script("refinement_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_make_plot_data_writes_csv(tmp_path):
    proc = run_script("make_plot_data.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("*.csv"))


def test_module_entry_point_checks_a_curve(tmp_path):
    src = tmp_path / "c.json"
    src.write_text(json.dumps({
        "degree": 3,
        "knots": [0, 0, 0, 0, 0.5, 1, 1, 1, 1],
        "families": [{"kind": "trigonometric", "omega": 1.5}] * 2,
        "control_points": [[0, 0], [1, 2], [2, -1], [3, 1], [4, 0]],
    }))
    proc = run_python("-m", "gbspline", "check", "--curve", str(src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "OK"
