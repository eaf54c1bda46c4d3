"""Benchmark workloads: generated configs and output checks.

Each workload is one ``stokes-darcy`` command on a config generated
from the workload seed, which goes to ``[solver] seed`` (the
shadow-residual perturbation of the interface solver's breakdown
restart).  Why each workload exists:

- ``dns-q2``: the pore-scale reference with Q2 and 10 cells per pore
  at period 1/10 (``configs/dns.ini``).  One factorization does about
  85% of the work and one solve follows; no Krylov work.  It writes
  the largest CSV and VTK output.
- ``validate-2t``: the paper's convergence experiment at periods 1/10
  and 1/20 on two threads (Q1 reference, Q2 coupled).  It is the only
  workload with the cell solve, the error quadrature and the thread
  pool; two factorizations held at once set its memory peak.  Its
  coupled solves (hx=1/72) are the benchmark's triangular-solve,
  BiCGStab and Schur-operator work: 68 triangular solves, 5 iterations
  and 1 breakdown restart at the seed.  With hx=1/72 rather than 1/144
  a repetition takes about 10 s instead of 36 s, so a run holds several.
- ``smoke``: a tiny coupled Q1 solve (with one breakdown restart)
  for the benchmark's own test.

Outputs are compared with values recorded in ``reference.json`` under
relative tolerances, never byte for byte, because a change of pivot
order legitimately moves the last printed digits.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Interface solver tolerance written into the coupled configs.
KRYLOV_TOL = 1e-8
#: Rows of ``solution.csv`` sampled for the field check.
N_SAMPLES = 16
#: Checked columns of ``solution.csv``.
COLUMNS = ("x", "y", "u1", "u2", "p")
#: Relative tolerance of sampled fields, scaled by each column's range.
FIELD_RTOL = 1e-5
#: Relative tolerance of the ``validate`` errors and of ``divergence_l2``.
VALUE_RTOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    command : str
        ``stokes-darcy`` subcommand.
    config : str
        INI text with a ``{seed}`` placeholder.
    threads : int
        Value of ``--threads``.
    """

    command: str
    config: str
    threads: int = 1

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)


WORKLOADS = {
    "dns-q2": Workload(
        "dns",
        """\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
dns_cells = 10
dns_order = 2

[solver]
seed = {seed}
""",
    ),
    "validate-2t": Workload(
        "validate",
        f"""\
[case]
preset = 1
configuration = C1

[discretization]
order = 2
hx = 0.013888888888888888
dns_order = 1

[solver]
tolerance = {KRYLOV_TOL!r}
seed = {{seed}}

[study]
ells = 0.1 0.05
""",
        threads=2,
    ),
    "smoke": Workload(
        "icdd",
        f"""\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
order = 1
hx = 0.020833333333333332

[solver]
tolerance = {KRYLOV_TOL!r}
seed = {{seed}}
""",
    ),
}


class CheckFailed(Exception):
    """An output disagrees with the recorded reference."""


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sample_solution(out_dir: Path) -> dict:
    rows = _read_csv(out_dir / "solution.csv")
    picks = sorted({round(i * (len(rows) - 1) / (N_SAMPLES - 1)) for i in range(N_SAMPLES)})
    return {
        "rows": len(rows),
        "scale": {c: max(abs(float(r[c])) for r in rows) for c in COLUMNS},
        "samples": {
            str(i): [float(rows[i][c]) for c in COLUMNS] for i in picks
        },
    }


def extract(command: str, out_dir: Path) -> dict:
    """The checked values of one run's outputs."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if command == "dns":
        return {
            "divergence_l2": manifest["parameters"]["divergence_l2"],
            **_sample_solution(out_dir),
        }
    if command == "icdd":
        residuals = _read_csv(out_dir / "residuals.csv")
        return {
            "final_residual": float(residuals[-1]["relative_residual"]),
            "matching_velocity": manifest["parameters"]["matching_velocity"],
            "matching_pressure": manifest["parameters"]["matching_pressure"],
            **_sample_solution(out_dir),
        }
    if command == "validate":
        return {
            "errors": {
                f"{r['config']}/{r['ell']}/{r['metric']}": float(r["value"])
                for r in _read_csv(out_dir / "errors.csv")
            },
            "slopes": {
                r["metric"]: float(r["slope"])
                for r in _read_csv(out_dir / "slopes.csv")
            },
        }
    raise ValueError(f"no check for command {command!r}")


def _close(name, value, ref, rtol, atol=0.0):
    if not abs(value - ref) <= rtol * abs(ref) + atol:
        raise CheckFailed(f"{name} = {value!r}, reference {ref!r}")


def _check_samples(got: dict, ref: dict) -> None:
    if got["rows"] != ref["rows"]:
        raise CheckFailed(f"solution.csv has {got['rows']} rows, reference {ref['rows']}")
    for i, ref_row in ref["samples"].items():
        for c, value, ref_value in zip(COLUMNS, got["samples"][i], ref_row):
            atol = FIELD_RTOL * ref["scale"][c]
            _close(f"solution.csv row {i} {c}", value, ref_value, FIELD_RTOL, atol)


def check(name: str, out_dir: Path) -> None:
    """Raise :class:`CheckFailed` unless a run's outputs match the reference."""
    command = WORKLOADS[name].command
    got = extract(command, out_dir)
    ref = json.loads(REFERENCE.read_text())[name]
    if command == "dns":
        _close("divergence_l2", got["divergence_l2"], ref["divergence_l2"], VALUE_RTOL)
        _check_samples(got, ref)
    elif command == "icdd":
        if not got["final_residual"] < KRYLOV_TOL:
            raise CheckFailed(f"interface solve not converged: {got['final_residual']!r}")
        for key in ("matching_velocity", "matching_pressure"):
            if not got[key] <= 10.0 * KRYLOV_TOL:
                raise CheckFailed(f"{key} = {got[key]!r} exceeds 10 * tol")
        _check_samples(got, ref)
    else:
        # Errors are positive and checked relative to themselves; a
        # slope is a difference of logarithms and may lie near zero.
        for table, atol in (("errors", 0.0), ("slopes", VALUE_RTOL)):
            if set(got[table]) != set(ref[table]):
                raise CheckFailed(f"{table}.csv keys differ from the reference")
            for key, ref_value in ref[table].items():
                _close(f"{table} {key}", got[table][key], ref_value, VALUE_RTOL, atol)
