"""The names the benchmark's tracer (``perfbench/tracer.py``) wraps.

The tracer replaces functions, methods and cached properties of the
package by name, so renaming one of them breaks the benchmark without
failing any other test here.  This runs a traced coupled solve the way
the benchmark does, in a fresh process.
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
code = cli.main(["icdd", "--config", sys.argv[3], "--out", sys.argv[4]])
print(json.dumps({"code": code, **tracing.summary()}))
"""

CONFIG = """\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
order = 1
hx = 0.020833333333333332  # 1/48
"""


def test_traced_icdd_counts_its_two_factors(tmp_path):
    config = tmp_path / "icdd.ini"
    config.write_text(CONFIG)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "src"),
            str(ROOT / "perfbench"),
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
    assert summary["linalg.factor_calls"] == 2
    assert summary["linalg.factor_nnz"] > 0
