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


def write_run(directory, workload, seed, trace, metrics, commit):
    directory.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "environment": {"commit": commit},
              "result": {"correct": True, "attempted": 100, "failed": 0,
                         "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}
    (directory / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))


def test_collect_bench_pairs_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in enumerate([(10.0, 30.0), (12.0, 11.0), (14.0, 50.0)], start=1):
        write_run(parent, "refine", seed, False, {"ops_per_s": old, "op_ms_p50": 1 / old}, "aaa")
        write_run(change, "refine", seed, False, {"ops_per_s": new, "op_ms_p50": 1 / new}, "bbb")
    write_run(parent, "refine", 1, True, {"knots.value.calls": 4390.0}, "aaa")
    write_run(change, "refine", 1, True, {"knots.value.calls": 23.0}, "bbb")
    write_run(change, "cli", 1, False, {"ops_per_s": 1.0}, "bbb")
    out = tmp_path / "BENCH_test.json"
    proc = run_script("collect_bench.py", "--parent", str(parent), "--change", str(change),
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["environments"] == {"parent": [{"commit": "aaa"}], "change": [{"commit": "bbb"}]}
    assert len(bench["runs"]) == 8
    assert {(r["seed"], r["side"]) for r in bench["runs"] if not r["trace"]} == {
        (s, side) for s in (1, 2, 3) for side in ("parent", "change")}
    assert bench["unpaired"] == [["cli", 0, 1]]
    ops = bench["summary"]["refine"]["trace0"]["ops_per_s"]
    assert ops["pairs"] == 3 and ops["better"] == "higher" and ops["change_wins"] == 2
    assert ops["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "iqr": 2.0}
    assert ops["change"]["median"] == 30.0
    assert bench["summary"]["refine"]["trace0"]["op_ms_p50"]["change_wins"] == 2
    calls = bench["summary"]["refine"]["trace1"]["knots.value.calls"]
    assert calls["parent"]["median"] == 4390.0 and calls["change_wins"] == 1
