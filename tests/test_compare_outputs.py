"""``tools/compare_outputs.py`` on two copies of one small ``dns`` run."""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stokesdarcy.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"

DNS_INI = """\
[case]
preset = 1
configuration = C2
ell = 0.25

[discretization]
dns_cells = 5
dns_order = 1
"""


@pytest.fixture(scope="module")
def dns_run(tmp_path_factory):
    """Output directory of one small pore-scale run."""
    base = tmp_path_factory.mktemp("dns")
    config = base / "run.ini"
    config.write_text(DNS_INI)
    out = base / "out"
    assert main(["dns", "--config", str(config), "--out", str(out)]) == 0
    return out


def compare(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_copy_is_identical(dns_run, tmp_path):
    copy = shutil.copytree(dns_run, tmp_path / "copy")
    done = compare(dns_run, copy)
    assert done.returncode == 0, done.stdout + done.stderr
    names = sorted(p.name for p in dns_run.iterdir())
    assert names == ["manifest.json", "solution.csv", "solution.vtk", "speeds.csv"]
    assert done.stdout.splitlines() == [
        *(f"{name}\tidentical" for name in names),
        "within tolerance 1e-06",
    ]


def _perturb_csv(path: Path, column: str, relative: float) -> None:
    """Move the middle cell of ``column`` by ``relative`` of the
    column's range."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    values = [float(row[j]) for row in rows[1:]]
    middle = rows[1 + len(values) // 2]
    middle[j] = "%.8e" % (float(middle[j]) + relative * (max(values) - min(values)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_manifest(path: Path, key: str, value) -> None:
    manifest = json.loads(path.read_text())
    manifest["parameters"]["factor"][key] = value
    path.write_text(json.dumps(manifest, indent=2))


def _all_floats(line: str) -> bool:
    """Whether ``line`` holds floats in exponent notation only."""
    tokens = line.split()
    try:
        return bool(tokens) and all("e" in t and math.isfinite(float(t)) for t in tokens)
    except ValueError:
        return False


def _perturb_vtk(path: Path, relative: float) -> None:
    """Move the first float of the file's last line of floats by
    ``relative`` of the file's largest float."""
    lines = path.read_text().split("\n")
    floats = [i for i, line in enumerate(lines) if _all_floats(line)]
    largest = max(abs(float(t)) for i in floats for t in lines[i].split())
    tokens = lines[floats[-1]].split()
    tokens[0] = "%.8e" % (float(tokens[0]) + relative * largest)
    lines[floats[-1]] = " ".join(tokens)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    ("edit", "code", "line"),
    [
        (lambda d: _perturb_csv(d / "solution.csv", "u1", 1e-3), 1,
         "solution.csv\tu1\t1.0e-03"),
        (lambda d: _perturb_csv(d / "solution.csv", "p", 1e-7), 0,
         "solution.csv\tp\t"),
        (lambda d: _perturb_vtk(d / "solution.vtk", 1e-3), 1,
         "solution.vtk\tvalues\t1.0e-03"),
        (lambda d: _set_manifest(d / "manifest.json", "lu_nnz", 1), 1,
         "manifest.json\tparameters.factor.lu_nnz\tmismatch"),
        (lambda d: _set_manifest(d / "manifest.json", "backward_error", "9.99e-13"), 0,
         "manifest.json\tparameters.factor.backward_error\t"),
        (lambda d: (d / "speeds.csv").unlink(), 1, "speeds.csv\tmissing in "),
    ],
    ids=["csv_above", "csv_below", "vtk_above", "manifest_count", "manifest_roundoff",
         "missing_file"],
)
def test_difference_reported_and_checked(dns_run, tmp_path, edit, code, line):
    copy = shutil.copytree(dns_run, tmp_path / "copy")
    edit(copy)
    done = compare(dns_run, copy)
    assert done.returncode == code, done.stdout + done.stderr
    assert any(out.startswith(line) for out in done.stdout.splitlines()), done.stdout
    assert done.stdout.splitlines()[-1] == (
        f"{'within' if code == 0 else 'above'} tolerance 1e-06"
    )


@pytest.mark.parametrize(
    ("k_11", "code", "line"),
    [("6.37000000e-03", 0, "cell.csv\tk_hat_12\t1.6e-16"),
     ("6.38000000e-03", 1, "cell.csv\tk_hat_11\t1.6e-03")],
    ids=["roundoff_entry", "changed_entry"],
)
def test_one_row_table_relative_to_row(tmp_path, k_11, code, line):
    # A record of scalars has no column range: each cell is taken
    # relative to the row's largest magnitude, so a roundoff-sized
    # entry may move by its own size.
    header = "k_hat_11,k_hat_12\n"
    for name, row in (("a", "6.37000000e-03,7.90000000e-19"), ("b", f"{k_11},1.80e-18")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "cell.csv").write_text(f"{header}{row}\n")
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == code, done.stdout + done.stderr
    assert line in done.stdout.splitlines(), done.stdout
