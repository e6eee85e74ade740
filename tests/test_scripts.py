"""Smoke runs of the example scripts, so a removed or renamed name breaks a test."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_refinement_demo_runs():
    proc = run_script("refinement_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_make_plot_data_writes_csv(tmp_path):
    proc = run_script("make_plot_data.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("*.csv"))
