"""Self-test of the benchmark: every workload at a tiny size, and proof that
its checks reject wrong outputs.

    python3 -m pytest -q perfbench/selftest
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def gb():
    return run.Package()


def tiny_run(name, trace, tmp_path, seed=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    result, record, _ = run.run_workload(name, seed, 0.2, trace, tiny=True, workdir=str(tmp_path))
    return result, record


def tiny_ops(gb, name, tmp_path, seed=3):
    return workloads.SETUPS[name](gb, seed, tiny=True, workdir=str(tmp_path))


def first_output(op):
    return op.capture(op.run())[1]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SETUPS)


@pytest.mark.parametrize("name", list(workloads.SETUPS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, record = tiny_run(name, False, tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= record["ops_per_round"]
    assert result["attempted"] % record["ops_per_round"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.SETUPS))
def test_traced_run_reports_every_layer_metric_with_repeatable_counts(name, tmp_path):
    first, _ = tiny_run(name, True, tmp_path / "a")
    second, _ = tiny_run(name, True, tmp_path / "b", seed=4)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and first["failed"] == 0
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    assert first["metrics"]["knots.value.calls"]["value"] > 0


def test_tracer_restores_the_package(gb):
    import tracing
    before = (gb.refine.build_local_basis, gb.knots.KnotFunctionFamily.value)
    with tracing.Tracer():
        assert gb.refine.build_local_basis is not before[0]
    assert (gb.refine.build_local_basis, gb.knots.KnotFunctionFamily.value) == before


def test_self_time_excludes_children():
    import tracing
    tracer = tracing.Tracer()
    tracer.name_ids.extend([0, 1, 1])
    tracer.starts.extend([0, 10, 50])
    tracer.ends.extend([100, 30, 60])
    tracer.parents.extend([-1, 0, 0])
    summary = tracer.summary()
    assert summary["op"]["self_ms"] == pytest.approx(70 / 1e6)
    assert summary["knots.value"]["calls"] == 2
    assert summary["knots.value"]["ms"] == pytest.approx(30 / 1e6)


# the independent computations agree with their textbook definitions ---------

def recursive_basis(knots, i, p, t):
    if p == 0:
        return 1.0 if knots[i] <= t < knots[i + 1] else 0.0
    val = 0.0
    if knots[i + p] > knots[i]:
        val += (t - knots[i]) / (knots[i + p] - knots[i]) * recursive_basis(knots, i, p - 1, t)
    if knots[i + p + 1] > knots[i + 1]:
        val += ((knots[i + p + 1] - t) / (knots[i + p + 1] - knots[i + 1])
                * recursive_basis(knots, i + 1, p - 1, t))
    return val


def test_cox_de_boor_matches_recursion():
    knots = [0, 0, 0, 0, 0.2, 0.5, 0.5, 0.9, 1, 1, 1, 1]
    for t in np.linspace(0, 0.999, 37):
        first, vals = checks.cox_de_boor(knots, 3, float(t))
        for r, v in enumerate(vals):
            assert v == pytest.approx(recursive_basis(knots, first + r, 3, float(t)), abs=1e-14)


def test_boehm_insertion_and_knot_averages_are_classical():
    rng = np.random.default_rng(0)
    knots = workloads.uniform_knots(3, 5)
    cpts = rng.uniform(-1, 1, 8)
    ts = np.linspace(0, 1, 41)
    knots1, cpts1 = checks.boehm_insert(knots, 3, cpts, 0.33)
    assert knots1 == checks.refined_knots(knots, 3, [0.33], 0)
    np.testing.assert_allclose(checks.classical_curve(knots1, 3, cpts1, ts),
                               checks.classical_curve(knots, 3, cpts, ts), atol=1e-14)
    g = checks.knot_averages(knots, 3)
    np.testing.assert_allclose(checks.classical_curve(knots, 3, g, ts), ts, atol=1e-14)


# the checks reject perturbed outputs ------------------------------------------

def test_refine_check_rejects_nudged_control_point(gb, tmp_path):
    for op in tiny_ops(gb, "refine", tmp_path):
        out = first_output(op)
        op.check(out)
        cpts = np.array(out.cpts)
        cpts[len(cpts) // 2] += 1e-6
        bad = gb.basis.SplineCurve(kv=out.kv, fam=out.fam, cpts=cpts)
        with pytest.raises(checks.CheckFailed):
            op.check(bad)


def test_evaluate_check_rejects_nudged_value(gb, tmp_path):
    for op in tiny_ops(gb, "evaluate", tmp_path):
        values = first_output(op)
        op.check(values)
        bad = values.copy()
        bad[1] += 1e-6
        with pytest.raises(checks.CheckFailed):
            op.check(bad)


def test_cli_checks_reject_changed_files(gb, tmp_path):
    rejected = set()
    for op in tiny_ops(gb, "cli", tmp_path):
        code, stdout, text = first_output(op)
        op.check((code, stdout, text))
        cmd = op.label.split()[0]
        if cmd in ("insert", "elevate"):
            doc = json.loads(text)
            doc["control_points"][len(doc["control_points"]) // 2][0] += 1e-6
            bad = (code, stdout, json.dumps(doc))
        elif cmd == "eval":
            lines = text.splitlines()
            cells = lines[5].split(",")
            cells[1] = repr(float(cells[1]) + 1e-6)
            lines[5] = ",".join(cells)
            bad = (code, stdout, "\n".join(lines) + "\n")
        elif cmd == "greville":
            lines = stdout.splitlines()
            lines[1] = repr(float(lines[1]) + 1e-6)
            bad = (code, "\n".join(lines) + "\n", text)
        else:
            lines = stdout.splitlines()
            lines[0] = "partition of unity: max deviation 1.000e-06"
            bad = (code, "\n".join(lines) + "\n", text)
        with pytest.raises(checks.CheckFailed):
            op.check(bad)
        rejected.add(cmd)
    assert rejected == {"insert", "elevate", "eval", "greville", "check"}


def test_run_without_package_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
