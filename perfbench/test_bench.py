"""Tests of the benchmark itself on the tiny ``smoke`` workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import run_process  # noqa: E402
from workloads import CheckFailed, check  # noqa: E402

COUNTS = (
    "linalg.factor_calls",
    "linalg.trisolve_calls",
    "icdd.schur_apply_calls",
    "linalg.krylov_iterations",
    "linalg.krylov_breakdowns",
    "linalg.factor_nnz",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(trace: int) -> dict:
    proc = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_pair():
    return result(1), result(1)


def test_counts_repeat_across_traced_runs(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["linalg.factor_calls"]["value"] == 2
    assert first["linalg.factor_nnz"]["value"] > 0
    assert first["icdd.schur_apply_calls"]["value"] >= first["linalg.krylov_iterations"]["value"] > 0


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, table, declared, traced_pair):
    metrics = (traced_pair[0] if trace else result(0))["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in declared[table]
    }
    for value in metrics.values():
        assert isinstance(value["value"], (int, float))


def test_changed_output_fails_the_check():
    caught = []

    def corrupt_then_check(name, out_dir):
        check(name, out_dir)
        path = out_dir / "solution.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = repr(float(cells[4]) * 1.01 - 1e-9)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckFailed):
            check(name, out_dir)
        caught.append(True)

    rep = run_process("smoke", 0, time.monotonic() + 120, verify=corrupt_then_check)
    assert rep["ok"] and caught


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
