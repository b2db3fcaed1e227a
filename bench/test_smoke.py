"""Smoke tests of the benchmark harness: tiny inputs, every check, no timing bound.

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    ops = workloads.build_ops(workload, smoke=True)
    passes = 2 if trace else 1
    assert result["attempted"] == passes * len(ops)
    assert result["failed"] <= passes * sum(op.known_fault for op in ops)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "quick-session", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closed_form_matches_generic_oracle():
    assert abs(oracles.cglmp_closed_form(2) - 2 * math.sqrt(2)) < 1e-12
    assert abs(oracles.cglmp_closed_form(3) - 2.8729341) < 1e-7
    for dim in range(2, 13):
        tables = oracles.cglmp_tables(np.eye(dim) / math.sqrt(dim))
        assert abs(oracles.cglmp_value(tables) - oracles.cglmp_closed_form(dim)) < 1e-12


def _run_op(op, out):
    proc = subprocess.run([sys.executable, "-m", "talbotlab", *op.argv, "--out-dir", str(out)],
                          capture_output=True, text=True, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=300)
    return workloads.Result(proc.returncode, proc.stdout, proc.stderr, out)


def _op(workload, name):
    return next(op for op in workloads.build_ops(workload, smoke=True) if op.name == name)


def test_corrupted_bell_value_fails_its_check(tmp_path):
    op = _op("quick-session", "bell-analytic")
    res = _run_op(op, tmp_path)
    op.check(res, op.params, {})
    path = tmp_path / "bell.json"
    payload = json.loads(path.read_text())
    payload["I"] += 1e-6
    path.write_text(json.dumps(payload))
    with pytest.raises(workloads.CheckFailed):
        op.check(res, op.params, {})


def test_corrupted_csv_entry_fails_its_check(tmp_path):
    op = _op("quick-session", "carpet")
    res = _run_op(op, tmp_path)
    op.check(res, op.params, {})
    path = tmp_path / "carpet.csv"
    lines = path.read_text().splitlines(True)
    values = lines[5].rstrip("\n").split(",")
    values[7] = repr(float(values[7]) * (1 + 1e-6))
    lines[5] = ",".join(values) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(workloads.CheckFailed):
        op.check(res, op.params, {})
