"""The names the benchmark's tracer (``perfbench/tracer.py``) wraps.

The tracer replaces functions, methods and cached properties of the
package by name, so renaming one of them breaks the benchmark without
failing any other test here.  This runs a traced coupled solve and a
traced unit-cell solve the way the benchmark does, each in a fresh
process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
tracing = tracer.Tracer()
tracer.install(tracing)
from stokesdarcy import cli
code = cli.main([sys.argv[3], "--config", sys.argv[4], "--out", sys.argv[5]])
print(json.dumps({"code": code, **tracing.summary()}))
"""

ICDD_CONFIG = """\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
order = 1
hx = 0.020833333333333332  # 1/48
"""

CELL_CONFIG = """\
[case]
preset = 1
configuration = C2

[discretization]
cell_resolution = 10
"""


def traced_run(tmp_path, command: str, config_text: str) -> dict:
    """Summary of a traced ``command`` run on ``config_text``."""
    config = tmp_path / f"{command}.ini"
    config.write_text(config_text)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "src"),
            str(ROOT / "perfbench"),
            command,
            str(config),
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["code"] == 0
    return summary


def test_traced_icdd_counts_its_two_factors(tmp_path):
    summary = traced_run(tmp_path, "icdd", ICDD_CONFIG)
    assert summary["linalg.factor_calls"] == 2
    assert summary["linalg.factor_nnz"] > 0


def test_traced_cell_counts_its_factor_and_assemblies(tmp_path):
    # The tracer counts the cell system's unknowns from its matrix, as
    # returned by assembly: the Stokes system it is folded from plus
    # the folded operator.  One factor serves both directions.
    summary = traced_run(tmp_path, "cell", CELL_CONFIG)
    assert summary["linalg.factor_calls"] == 1
    assert summary["linalg.trisolve_calls"] == 2
    assert summary["fem.assemble_calls"] == 2
    assert summary["fem.dofs"] == 2066
