"""Smoke runs of the example scripts, of the README's library quick start and
of `python -m gbspline`, so a removed or renamed name breaks a test."""
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def test_readme_quick_start_runs():
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```",
                      (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M)
    proc = run_python("-c", block.group(1))
    assert proc.returncode == 0, proc.stderr


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
    # ten pairs: the interval runs from the 2nd to the 9th smallest ratio
    ratios = [1.3, 0.9, 1.2, 1.25, 1.1, 1.15, 1.4, 1.05, 1.35, 1.22]
    for seed, r in enumerate(ratios, start=11):
        write_run(parent, "evaluate", seed, False,
                  {"ops_per_s": 100.0, "op_ms_p50": 2.0, "op_ms_p90": 4.0, "setup_s": 0.5}, "aaa")
        write_run(change, "evaluate", seed, False,
                  {"ops_per_s": 100.0 * r, "op_ms_p50": 2.0 / r, "op_ms_p90": 4.0 * r,
                   "setup_s": 0.5 * (2.1 - r)}, "bbb")
    out = tmp_path / "BENCH_test.json"
    proc = run_script("collect_bench.py", "--parent", str(parent), "--change", str(change),
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["environments"] == {"parent": [{"commit": "aaa"}], "change": [{"commit": "bbb"}]}
    assert len(bench["runs"]) == 28
    assert {(r["seed"], r["side"]) for r in bench["runs"]
            if not r["trace"] and r["workload"] == "refine"} == {
        (s, side) for s in (1, 2, 3) for side in ("parent", "change")}
    assert bench["unpaired"] == [["cli", 0, 1]]
    ops = bench["summary"]["refine"]["trace0"]["ops_per_s"]
    assert ops["pairs"] == 3 and ops["better"] == "higher" and ops["change_wins"] == 2
    assert ops["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "iqr": 2.0}
    assert ops["change"]["median"] == 30.0
    assert bench["summary"]["refine"]["trace0"]["op_ms_p50"]["change_wins"] == 2
    calls = bench["summary"]["refine"]["trace1"]["knots.value.calls"]
    assert calls["parent"]["median"] == 4390.0 and calls["change_wins"] == 1
    # fewer than six pairs give no 95% interval, so no verdict
    assert ops["ratio"] == {"median": 3.0, "ci95": None, "verdict": None}
    assert calls["ratio"]["ci95"] is None
    evaluate = bench["summary"]["evaluate"]["trace0"]
    ops = evaluate["ops_per_s"]["ratio"]
    assert ops["median"] == pytest.approx(1.21) and ops["verdict"] == "gain"
    assert ops["ci95"] == pytest.approx([1.05, 1.35])
    p50 = evaluate["op_ms_p50"]["ratio"]
    assert p50["ci95"] == pytest.approx([1 / 1.35, 1 / 1.05]) and p50["verdict"] == "gain"
    assert evaluate["op_ms_p90"]["ratio"]["verdict"] == "loss"
    setup = evaluate["setup_s"]["ratio"]   # 0.7 to 1.2 by pair: the interval holds 1
    assert setup["ci95"][0] < 1 < setup["ci95"][1] and setup["verdict"] is None
    # a written file's summary is recomputed from its runs alone
    summary = bench.pop("summary")
    out.write_text(json.dumps(bench))
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import collect_bench
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    collect_bench.resummarize(out, collect_bench.directions(ROOT / "BENCHMARK.json"))
    assert json.loads(out.read_text())["summary"] == summary


@pytest.mark.parametrize("workload, count", [("evaluate", 6), ("refine", 4), ("cli", 11)])
def test_output_hashes_lists_every_operation_alike_in_two_processes(workload, count):
    """One line per operation of the tiny grids: its label, a tab, then a
    SHA-256 or an error; a second process prints the same listing."""
    args = ("output_hashes.py", "--workload", workload, "--seed", "1", "--tiny")
    first, second = run_script(*args), run_script(*args)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == count
    for line in lines:
        label, digest = line.split("\t")
        assert label and re.fullmatch(r"[0-9a-f]{64}|\w+: .*", digest), line
    assert second.stdout == first.stdout
