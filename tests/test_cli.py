"""Command line front end: config parsing, outputs, reruns, failures."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import inspect
import io
import json
import logging
import multiprocessing
import os
import re
import sys
import tempfile
import weakref
from concurrent.futures import process
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import cli, icdd, linalg, mesh, validate
from stokesdarcy.cli import CliError, load_run_config, main
from stokesdarcy.icdd import CompositeSolution
from stokesdarcy.io import format_value

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def recording(monkeypatch, name):
    """Replace ``cli.<name>`` by a wrapper; returns the list of its results."""
    results = []
    inner = getattr(cli, name)

    def wrapper(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return results


CELL_INI = """\
[case]
preset = 1
configuration = C2

[discretization]
cell_resolution = 10
"""

ICDD_INI = """\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
order = 1
hx = 0.1

[solver]
tolerance = 1e-10
"""


#: How a manifest prints a residual or a backward error: ``%.2e`` text.
RESIDUAL_TEXT = r"\d\.\d\de[+-]\d\d"


#: The Q1 coupled solve at hx = 1/48 that tests/test_tracer_contract.py runs.
ICDD_FINE_INI = """\
[case]
preset = 1
configuration = C1
ell = 0.1

[discretization]
order = 1
hx = 0.020833333333333332  # 1/48
"""


class TestLoadRunConfig:
    def test_unknown_entries_listed(self, tmp_path):
        path = write_config(
            tmp_path,
            "[case]\npreset = 1\ntypo_key = 3\n\n[mystery]\nx = 1\n",
        )
        with pytest.raises(CliError, match="unknown configuration entries"):
            load_run_config(path)
        try:
            load_run_config(path)
        except CliError as err:
            message = str(err)
        assert "[case] typo_key" in message
        assert "[mystery]" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read config"):
            load_run_config(tmp_path / "absent.ini")

    def test_syntax_error(self, tmp_path):
        path = write_config(tmp_path, "case]\npreset\n")
        with pytest.raises(CliError, match="config syntax error"):
            load_run_config(path)

    def test_missing_required_key(self, tmp_path):
        config = load_run_config(write_config(tmp_path, "[case]\nell = 0.1\n"))
        with pytest.raises(CliError, match=r"missing required key \[case\] preset"):
            cli._preset(config)

    def test_bad_cast(self, tmp_path):
        path = write_config(tmp_path, "[case]\npreset = 1\nell = fast\n")
        with pytest.raises(CliError, match=r"bad value for \[case\] ell"):
            load_run_config(path)

    def test_configuration_and_s_hat_conflict(self, tmp_path):
        config = load_run_config(
            write_config(
                tmp_path, "[case]\npreset = 1\nconfiguration = C1\ns_hat = 0.7\n"
            )
        )
        with pytest.raises(CliError, match="not both"):
            cli._configuration(config, need_mesh=False)

    def test_circle_configuration_rejected_for_meshing(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1\nconfiguration = C3\n")
        )
        with pytest.raises(CliError, match="square"):
            cli._configuration(config, need_mesh=True)

    def test_custom_s_hat_builds_configuration(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1\ns_hat = 0.7\n")
        )
        porous = cli._configuration(config, need_mesh=True)
        assert porous.size_ratio == pytest.approx(0.7)
        assert porous.porosity == pytest.approx(1.0 - 0.49)

    def test_inline_comments_ignored(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1  # lid driven\n")
        )
        assert cli._preset(config).identifier == 1

    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_workload_configs_load(self, tmp_path, monkeypatch, seed):
        """Every config the benchmark writes (perfbench/workloads.py)
        loads, so dropping a key that it sets, such as ``[solver]
        seed``, fails here and not only in every benchmark run."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", REPO / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for @dataclass
        spec.loader.exec_module(workloads)
        assert workloads.WORKLOADS
        for name, workload in workloads.WORKLOADS.items():
            path = write_config(tmp_path, workload.config_text(seed), f"{name}.ini")
            load_run_config(path)
            assert workload.command in cli.COMMANDS, name


class TestCellCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        config_path = write_config(tmp_path, CELL_INI)
        out = tmp_path / "out"
        code = main(["cell", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert "cell: s_hat=0.6" in capsys.readouterr().out
        with open(out / "cell.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header[:2] == ["s_hat", "porosity"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(1.0 - 0.36)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "cell"
        assert manifest["outputs"] == ["cell.csv", "manifest.json"]
        cell_factor = manifest["parameters"]["cell_factor"]
        assert cell_factor["row_interchanges"] <= 2
        digest = hashlib.sha256(config_path.read_text().encode()).hexdigest()
        assert manifest["config_sha256"] == digest
        assert "stokesdarcy" in manifest["versions"]

    def test_rerun_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, CELL_INI)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["cell", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["cell", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("cell.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    ("ini", "status"),
    [(CELL_INI, 0), (CELL_INI + "\n[case2]\nz = 1\n", 2)],
    ids=["ok", "error"],
)
def test_main_leaves_the_package_logger_as_it_was(tmp_path, ini, status):
    """``main`` prints the package's records only while it runs."""
    logger = logging.getLogger("stokesdarcy")
    level = logger.level
    logger.setLevel(logging.WARNING)
    try:
        argv = ["cell", "--config", str(write_config(tmp_path, ini))]
        assert main(argv + ["--out", str(tmp_path / "out")]) == status
        assert logger.handlers == []
        assert logger.level == logging.WARNING
    finally:
        logger.setLevel(level)


class TestIcddCommand:
    def test_outputs(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ICDD_INI)
        out = tmp_path / "out"
        code = main(["icdd", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        log = capsys.readouterr().out
        assert "icdd: interface at y=" in log
        assert "iterations=" in log
        for name in (
            "solution.csv",
            "residuals.csv",
            "stokes.vtk",
            "darcy.vtk",
            "manifest.json",
        ):
            assert (out / name).exists()
        with open(out / "solution.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["x", "y", "u1", "u2", "p", "domain"]
        assert {r[5] for r in rows} == {"stokes", "darcy"}
        with open(out / "residuals.csv", newline="") as f:
            _, *res_rows = csv.reader(f)
        assert float(res_rows[-1][1]) < 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        parameters = manifest["parameters"]
        assert "iterations" not in manifest
        # residuals.csv row 0 records the initial residual before iterating
        assert parameters["iterations"] == len(res_rows) - 1
        assert re.fullmatch(RESIDUAL_TEXT, parameters["true_residual"])
        # The matching residuals stay JSON numbers, within icdd_solve's bound.
        bound = icdd.MATCHING_FACTOR * 1e-10  # ICDD_INI's tolerance
        for name in ("matching_velocity", "matching_pressure"):
            assert type(parameters[name]) is float
            assert parameters[name] <= bound
        for name in ("stokes_factor", "darcy_factor"):
            factor = parameters[name]
            assert sorted(factor) == [
                "backward_error", "lu_nnz", "precision", "refinement_steps",
                "row_interchanges", "unknowns",
            ]
            # The Stokes subdomain is factored in single precision and
            # its solves refined in double; the Darcy subdomain's
            # tensor-product solver works in double precision.
            if name == "stokes_factor":
                assert factor["precision"] == "float32"
                assert 1 <= factor["refinement_steps"] <= linalg.MAX_REFINEMENT_STEPS
            else:
                assert factor["precision"] == "float64"
                assert factor["refinement_steps"] == 0
            # Only the pressure-mean multiplier's pair, if any, leaves
            # the diagonal.
            assert factor["row_interchanges"] <= 2
            assert float(factor["backward_error"]) <= linalg.BACKWARD_ERROR_BOUND
            assert re.fullmatch(RESIDUAL_TEXT, factor["backward_error"])

    def test_solution_csv_matches_row_by_row_rendering(self, tmp_path, monkeypatch):
        """End to end, the column writer gives ``solution.csv`` the bytes
        of its table rendered row by row, cell by cell."""
        tables = []
        inner = CompositeSolution.sample_rows

        def recording(solution):
            tables.append(inner(solution))
            return tables[-1]

        monkeypatch.setattr(CompositeSolution, "sample_rows", recording)
        config_path, out = write_config(tmp_path, ICDD_FINE_INI), tmp_path / "out"
        assert main(["icdd", "--config", str(config_path), "--out", str(out)]) == 0
        (table,) = tables
        lines = [",".join(table)]
        lines += [",".join(map(format_value, row)) for row in zip(*table.values())]
        written = (out / "solution.csv").read_text().split("\n")
        # Name the first differing line; a diff of the whole file takes minutes.
        bad = next((i for i, (a, b) in enumerate(zip(written, lines)) if a != b), None)
        assert bad is None, f"line {bad}: {written[bad]!r} != {lines[bad]!r}"
        assert len(written) == len(lines) + 1 and written[-1] == ""
        assert len(lines) > 1000 and lines[1].endswith(",darcy")

    def test_systems_freed_before_outputs(self, tmp_path, monkeypatch):
        """Both assembled subdomain systems are gone when the outputs
        are built (the solution rows sampled) and written; the manifest
        still reports both factors."""
        systems, alive = [], []
        assemble = cli.assemble_problem

        def recording(*args):
            problem = assemble(*args)
            systems.extend(weakref.ref(s) for s in (problem.stokes, problem.darcy))
            return problem

        def checking(inner):
            def wrapper(*args):
                alive.append([ref() is not None for ref in systems])
                return inner(*args)

            return wrapper

        monkeypatch.setattr(cli, "assemble_problem", recording)
        monkeypatch.setattr(
            CompositeSolution, "sample_rows", checking(CompositeSolution.sample_rows)
        )
        for name in ("write_csv", "write_vtk"):
            monkeypatch.setattr(cli, name, checking(getattr(cli, name)))
        config_path, out = write_config(tmp_path, ICDD_INI), tmp_path / "out"
        assert main(["icdd", "--config", str(config_path), "--out", str(out)]) == 0
        assert len(systems) == 2 and alive == [[False, False]] * 5
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert {"stokes_factor", "darcy_factor"} <= set(parameters)


DNS_INI = """\
[case]
preset = 1
configuration = C2
ell = 0.25

[discretization]
dns_cells = 5
dns_order = 1
"""

STUDY_DISCRETIZATION = """\
[discretization]
order = 1
hx = 0.125
dns_cells = 10
dns_order = 1
cell_resolution = 10
"""

VALIDATE_INI = (
    "[case]\npreset = 1\nconfiguration = C1\n\n[study]\nells = 0.25 0.125\n\n"
    + STUDY_DISCRETIZATION
)

SWEEP_INI = "[case]\npreset = 1\nconfiguration = C2\nell = 0.25\n\n" + STUDY_DISCRETIZATION


@pytest.mark.parametrize(
    ("command", "ini"), [("validate", VALIDATE_INI), ("sweep", SWEEP_INI)]
)
def test_outputs_independent_of_thread_count(tmp_path, monkeypatch, command, ini):
    studies = recording(monkeypatch, "convergence_study")
    config_path = write_config(tmp_path, ini)
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out in zip((1, 2), outs):
        argv = [command, "--config", str(config_path), "--out", str(out)]
        assert main(argv + ["--threads", str(threads)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    if command == "validate":
        with open(outs[0] / "errors.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["config", "ell", "metric", "value", "relative"]
        reports = studies[0].reports
        expected = [
            format_value(r.relative(metric)) for r in reports for metric in r.errors
        ]
        assert [row[4] for row in rows] == expected


@pytest.mark.parametrize(
    ("command", "ini"),
    [("validate", VALIDATE_INI), ("sweep", SWEEP_INI)],
    ids=["validate", "sweep"],
)
def test_studies_use_configured_cell_resolution(tmp_path, monkeypatch, command, ini):
    resolutions, cells = [], []
    inner = validate.solve_cell_problem

    def wrapper(*args, **kwargs):
        bound = inspect.signature(inner).bind(*args, **kwargs)
        bound.apply_defaults()
        resolutions.append(bound.arguments["resolution"])
        cells.append(inner(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(validate, "solve_cell_problem", wrapper)
    argv = [command, "--config", str(write_config(tmp_path, ini))]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert resolutions == [10]  # STUDY_DISCRETIZATION's cell_resolution
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["parameters"]["cell_factor"] == cells[0].factor_health


@pytest.mark.parametrize(
    ("command", "ini"),
    [("validate", VALIDATE_INI), ("sweep", SWEEP_INI)],
    ids=["validate", "sweep"],
)
def test_member_factor_health_in_manifest(tmp_path, monkeypatch, command, ini):
    """Every study member's health is in the manifest under ``members``,
    keyed by period (validate) or by thickness (sweep, whose one
    pore-scale reference is recorded once), exactly as the study
    returned it: the coupled solve's iterations and matching and true
    residuals, the pore-scale and Stokes factors in single precision,
    refined, and the Darcy tensor-product solver in double."""
    studies = recording(
        monkeypatch, "convergence_study" if command == "validate" else "delta_sweep"
    )
    argv = [command, "--config", str(write_config(tmp_path, ini))]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    parameters = manifest["parameters"]
    assert "iterations" not in manifest
    assert not {"member_factors", "member_interfaces"} & set(parameters)
    (study,) = studies
    members = parameters["members"]
    record_keys = [
        "darcy_factor", "iterations", "matching_pressure", "matching_velocity",
        "stokes_factor", "true_residual",
    ]
    if command == "validate":
        expected = {f"ell={r.ell:g}": r.health for r in study.reports}
        assert sorted(members) == ["ell=0.125", "ell=0.25"]
        record_keys = sorted(record_keys + ["dns_factor"])
        dns = [member["dns_factor"] for member in members.values()]
    else:
        keys = [f"delta={format_value(d)}" for d in study.deltas]
        expected = dict(zip(keys, study.health))
        assert len(members) == 3
        dns = [parameters["dns_factor"]]
        assert dns == [study.dns_factor_health]
    assert sorted(members) == sorted(expected)
    for key, member in members.items():
        assert member == expected[key], key
    for factor in dns + [member["stokes_factor"] for member in members.values()]:
        assert factor["precision"] == "float32"
        assert 1 <= factor["refinement_steps"] <= linalg.MAX_REFINEMENT_STEPS
    # Each member's coupled solve: at least one interface iteration,
    # matching residuals within the bound icdd_solve checks, and the
    # Krylov true residual, as %.2e text.
    bound = icdd.MATCHING_FACTOR * linalg.KrylovConfig.tol
    for member in members.values():
        assert sorted(member) == record_keys
        assert member["darcy_factor"]["precision"] == "float64"
        assert type(member["iterations"]) is int and member["iterations"] >= 1
        for name in ("matching_velocity", "matching_pressure", "true_residual"):
            assert re.fullmatch(RESIDUAL_TEXT, member[name])
        assert float(member["matching_velocity"]) <= bound
        assert float(member["matching_pressure"]) <= bound


class TestWorkerProcesses:
    """``--threads N`` runs study members in forked worker processes."""

    @staticmethod
    def validate(tmp_path, threads):
        config_path = write_config(tmp_path, VALIDATE_INI)
        out = tmp_path / "out"
        argv = ["validate", "--config", str(config_path), "--out", str(out)]
        return main(argv + ["--threads", str(threads)]), out

    def test_pool_capped_at_member_count(self, tmp_path, monkeypatch):
        built = []

        class PoolBuilt(Exception):
            pass

        def spy(*args, **kwargs):
            built.append(kwargs)
            raise PoolBuilt

        monkeypatch.setattr(process, "ProcessPoolExecutor", spy)
        with pytest.raises(PoolBuilt):
            self.validate(tmp_path, 64)
        assert [kw["max_workers"] for kw in built] == [2]  # two periods
        assert built[0]["mp_context"].get_start_method() == "fork"

    def test_members_run_in_separate_workers(self, tmp_path, monkeypatch):
        # Each member waits for the other, so one worker cannot run both.
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
        inner = validate.solve_dns

        def reporting(preset, lattice, resolution):
            (tmp_path / f"pid-{lattice.period:g}").write_text(str(os.getpid()))
            barrier.wait()
            return inner(preset, lattice, resolution)

        monkeypatch.setattr(validate, "solve_dns", reporting)
        code, _ = self.validate(tmp_path, 2)
        assert code == 0
        pids = [int(path.read_text()) for path in tmp_path.glob("pid-*")]
        assert len(pids) == 2 and len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_progress_lines_written_whole(self, tmp_path, monkeypatch, caplog):
        # Workers share stdout; a line written in parts can interleave.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", Recorder())
        caplog.set_level(logging.INFO, logger="stokesdarcy")
        code, _ = self.validate(tmp_path, 1)
        assert code == 0
        assert writes[0] == "unit cell s_hat=0.8\n"
        assert all(w.endswith("\n") for w in writes)
        assert writes[-1].startswith("slope u_fluid = ")  # the summary, whole
        # Each line printed is one record of the package's logger.
        records = [r for r in caplog.records if r.name.startswith("stokesdarcy")]
        assert writes == [r.getMessage() + "\n" for r in records]

    @pytest.mark.parametrize(
        ("killed", "message"),
        [(True, "study worker process died"), (False, "no reference at ell=0.125")],
        ids=["killed_worker", "raising_worker"],
    )
    def test_failed_member_exits_2_without_outputs(
        self, tmp_path, capsys, monkeypatch, killed, message
    ):
        inner = validate.solve_dns

        def failing(preset, lattice, resolution):
            if lattice.period < 0.2:
                if killed:  # as the kernel's out-of-memory killer would
                    os._exit(137)
                raise ValueError(f"no reference at ell={lattice.period:g}")
            return inner(preset, lattice, resolution)

        monkeypatch.setattr(validate, "solve_dns", failing)
        code, out = self.validate(tmp_path, 2)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not out.exists()


class TestFailureModes:
    def test_unknown_key_exits_2_without_outputs(self, tmp_path, capsys):
        config_path = write_config(tmp_path, CELL_INI + "\n[case2]\nz = 1\n")
        out = tmp_path / "out"
        code = main(["cell", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_value_exits_2_without_outputs(self, tmp_path, capsys):
        bad = CELL_INI.replace("configuration = C2", "s_hat = 1.5")
        out = tmp_path / "out"
        code = main(
            ["cell", "--config", str(write_config(tmp_path, bad)), "--out", str(out)]
        )
        assert code == 2
        assert "s_hat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "ini", "message"),
        [
            (
                "icdd",
                ICDD_INI.replace("tolerance = 1e-10", "tolerance = -1"),
                "tol must be positive",
            ),
            (
                "icdd",
                ICDD_INI + "max_iterations = 0\n",
                "maxiter must be at least 1",
            ),
            (
                "cell",
                CELL_INI.replace("cell_resolution = 10", "cell_resolution = 1"),
                "does not align",
            ),
            (
                "cell",
                CELL_INI.replace("cell_resolution = 10", "cell_resolution = 0"),
                "at least one element per cell edge",
            ),
            (
                "cell",
                CELL_INI.replace("cell_resolution = 10", "cell_resolution = -10"),
                "at least one element per cell edge",
            ),
            (
                "icdd",
                ICDD_INI.replace("tolerance = 1e-10", "tolerance = 1e-14")
                + "max_iterations = 1\n",
                "interface solver failed",
            ),
            (
                "icdd",
                ICDD_INI.replace("tolerance = 1e-10", "tolerance = nan"),
                "[solver] tolerance must be finite",
            ),
            (
                "icdd",
                ICDD_INI.replace("hx = 0.1", "hx = inf"),
                "[discretization] hx must be finite",
            ),
            (
                "validate",
                VALIDATE_INI.replace("ells = 0.25 0.125", "ells = 0.25 nan"),
                "[study] ells must be finite",
            ),
            (
                "icdd",
                ICDD_INI.replace("hx = 0.1", "hx = 0.9"),
                "hx = 0.9 and delta = ",
            ),
            ("icdd", ICDD_INI.replace("preset = 1", "preset = 9"), "unknown preset 9"),
            (
                "icdd",
                ICDD_INI.replace("configuration = C1", "configuration = X"),
                "unknown configuration 'X'; choose from C1, C2, C3, C4",
            ),
            (
                "icdd",
                ICDD_INI.replace("configuration = C1\n", ""),
                "need [case] configuration or s_hat",
            ),
            (
                "validate",
                VALIDATE_INI.replace("ells = 0.25 0.125", "ells ="),
                "[study] ells is empty",
            ),
            (
                "validate",
                VALIDATE_INI.replace("ells = 0.25 0.125", "ells = 0.25 x"),
                "bad value for [study] ells: '0.25 x'",
            ),
            (
                "icdd",
                ICDD_INI.replace("ell = 0.1", "ell = -0.1"),
                "period must be positive, got -0.1",
            ),
            (
                "icdd",
                ICDD_INI.replace("order = 1", "order = 3"),
                "order must be 1 or 2, got 3",
            ),
            ("cell", CELL_INI + "order = 3\n", "order must be 1 or 2, got 3"),
            (
                "validate",
                VALIDATE_INI.replace("\norder = 1\n", "\norder = 3\n"),
                "order must be 1 or 2, got 3",
            ),
            (
                "sweep",
                SWEEP_INI.replace("\norder = 1\n", "\norder = 3\n"),
                "order must be 1 or 2, got 3",
            ),
            (
                "icdd",
                ICDD_INI.replace("hx = 0.1", "hx = 0"),
                "hx must be positive, got 0.0",
            ),
            (
                "validate",
                VALIDATE_INI.replace("hx = 0.125", "hx = 0"),
                "hx must be positive, got 0.0",
            ),
            (
                "sweep",
                SWEEP_INI.replace("hx = 0.125", "hx = 0"),
                "hx must be positive, got 0.0",
            ),
            (
                "icdd",
                ICDD_INI.replace("ell = 0.1\n", ""),
                "missing required key [case] ell",
            ),
            (
                "dns",
                DNS_INI.replace("ell = 0.25\n", ""),
                "missing required key [case] ell",
            ),
            (
                "sweep",
                SWEEP_INI.replace("ell = 0.25\n", ""),
                "missing required key [case] ell",
            ),
            (
                "validate",
                VALIDATE_INI.replace("ells = 0.25 0.125\n", ""),
                "missing required key [study] ells",
            ),
        ],
        ids=[
            "negative_tolerance",
            "zero_iterations",
            "coarse_cell",
            "zero_cell_resolution",
            "negative_cell_resolution",
            "no_convergence",
            "nan_tolerance",
            "inf_hx",
            "nan_period",
            "no_interface_unknowns",
            "unknown_preset",
            "unknown_configuration",
            "no_configuration",
            "empty_periods",
            "bad_period",
            "negative_period",
            "bad_order",
            "bad_order_cell",
            "bad_order_validate",
            "bad_order_sweep",
            "zero_hx_icdd",
            "zero_hx_validate",
            "zero_hx_sweep",
            "no_period_icdd",
            "no_period_dns",
            "no_period_sweep",
            "no_periods_validate",
        ],
    )
    def test_run_failure_exits_2_without_outputs(
        self, tmp_path, capsys, command, ini, message
    ):
        out = tmp_path / "out"
        code = main(
            [command, "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "out_name", ["taken", "taken/sub"], ids=["out_is_a_file", "out_below_a_file"]
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, out_name):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = tmp_path / out_name
        code = main(
            ["cell", "--config", str(write_config(tmp_path, CELL_INI)),
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {out}: "), err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize(
        ("command", "ini", "threads"),
        [("validate", VALIDATE_INI, "0"), ("validate", VALIDATE_INI, "-3"),
         ("dns", DNS_INI, "-1")],
        ids=["validate_zero", "validate_negative", "dns_negative"],
    )
    def test_threads_below_one_exits_2(self, tmp_path, capsys, command, ini, threads):
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, ini))]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out), "--threads", threads])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --threads: must be at least 1, got {threads}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "ini", "threads"),
        [("dns", DNS_INI, 1), ("validate", VALIDATE_INI, 2)],
        ids=["dns", "validate_workers"],
    )
    def test_factor_out_of_memory_exits_2(
        self, tmp_path, capsys, monkeypatch, command, ini, threads
    ):
        # With --threads 2 the unit cell is factored in this process and
        # the members' factors run out of memory in the workers.
        parent = os.getpid()
        real = linalg.spla.splu

        def exhausted(*args, **kwargs):
            if threads > 1 and os.getpid() == parent:
                return real(*args, **kwargs)
            raise MemoryError("Can't expand MemType 1: jcol 0")

        monkeypatch.setattr(linalg.spla, "splu", exhausted)
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, ini))]
        code = main(argv + ["--out", str(out), "--threads", str(threads)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(
            r"error: sparse factorization of \d+ unknowns ran out of memory", err
        )
        assert not out.exists()

    def test_backward_error_above_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # No real solve reaches the bound, so it is lowered below any
        # nonzero backward error.  The single-precision pore-scale factor
        # is then refactored in double precision first, with a warning.
        monkeypatch.setattr(linalg, "BACKWARD_ERROR_BOUND", 1e-300)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="refactoring in double precision"):
            code = main(
                ["dns", "--config", str(write_config(tmp_path, DNS_INI)),
                 "--out", str(out)]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(
            r"error: backward error \d\.\d\de-\d\d of a sparse direct solve with "
            r"\d+ unknowns exceeds 1e-300",
            err,
        ), err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "ini", "threads"),
        [("icdd", ICDD_INI, 1), ("validate", VALIDATE_INI, 2)],
        ids=["icdd", "validate_workers"],
    )
    def test_allocation_out_of_memory_exits_2(
        self, tmp_path, capsys, monkeypatch, command, ini, threads
    ):
        # An array numpy cannot allocate outside SuperLU, as for a mesh
        # at hx = 1e-6.  With --threads 2 the parent builds its meshes
        # and the members' meshes fail in the workers.
        parent = os.getpid()
        real = mesh.StructuredMesh.__init__

        def exhausted(self, *args, **kwargs):
            if threads > 1 and os.getpid() == parent:
                return real(self, *args, **kwargs)
            raise MemoryError("Unable to allocate 242. GiB for an array")

        monkeypatch.setattr(mesh.StructuredMesh, "__init__", exhausted)
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, ini))]
        code = main(argv + ["--out", str(out), "--threads", str(threads)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {command} ran out of memory (Unable to allocate 242. GiB"
        )
        assert not out.exists()

    def test_unaligned_dns_exits_2(self, tmp_path, capsys):
        ini = (
            "[case]\npreset = 1\nconfiguration = C1\nell = 0.2\n\n"
            "[discretization]\ndns_cells = 5\ndns_order = 1\n"
        )
        out = tmp_path / "out"
        code = main(
            ["dns", "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_coarse_hx_exits_2_before_the_cell_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        """With ``s_hat`` the coupled solve takes its permeability from
        a unit-cell solve; an ``hx`` that leaves a subdomain without
        interface unknowns stops the run before it."""
        monkeypatch.setattr(cli, "solve_cell_problem", reach_solve)
        ini = (
            "[case]\npreset = 1\ns_hat = 0.7\nell = 0.1\n\n"
            "[discretization]\norder = 1\nhx = 0.9\n"
        )
        out = tmp_path / "out"
        code = main(
            ["icdd", "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hx = 0.9 and delta = " in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "ini", "message"),
        [
            ("icdd", ICDD_INI.replace("configuration = C1", "s_hat = 0.6")
             .replace("tolerance = 1e-10", "tolerance = -1"), "tol must be positive"),
            ("icdd", ICDD_INI + "seed = -1\n", "seed must be non-negative"),
            ("validate", VALIDATE_INI + "\n[solver]\nseed = -1\n",
             "seed must be non-negative"),
            ("sweep", SWEEP_INI + "\n[solver]\nseed = -1\n",
             "seed must be non-negative"),
            ("icdd", ICDD_INI.replace("tolerance = 1e-10", "tolerance = 1"),
             "tol must be positive and below 1, got 1.0"),
            ("icdd", ICDD_INI.replace("tolerance = 1e-10", "tolerance = 1e300"),
             "tol must be positive and below 1, got 1e+300"),
        ],
        ids=[
            "icdd_cell_tolerance", "icdd_seed", "validate_seed", "sweep_seed",
            "icdd_tolerance_one", "icdd_tolerance_huge",
        ],
    )
    def test_bad_solver_setting_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, ini, message
    ):
        """``[solver]`` is checked before the unit-cell solve and the
        assembly of any system."""
        calls = []
        for module, name in (
            (cli, "solve_cell_problem"), (cli, "assemble_problem"),
            (validate, "solve_cell_problem"), (validate, "solve_dns"),
        ):
            monkeypatch.setattr(
                module, name, lambda *args, name=name, **kw: calls.append(name)
            )
        out = tmp_path / "out"
        code = main(
            [command, "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert calls == []
        assert not out.exists()

    def test_repeated_period_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every study member is checked before the cell solve: a
        repeated period or factor, a period that does not tile the band,
        a pore-scale mesh that misses the obstacle edges, an overlap
        outside the band and an ``hx`` that leaves a coupled subdomain
        without interface unknowns all stop the run before it."""
        calls = []
        for name in ("solve_cell_problem", "solve_dns"):
            monkeypatch.setattr(
                validate, name, lambda *args, name=name, **kw: calls.append(name)
            )
        ells = "ells = 0.25 0.125"
        cases = [
            ("validate", VALIDATE_INI.replace(ells, "ells = 0.25 0.25"),
             "two distinct periods"),
            ("validate", VALIDATE_INI.replace(ells, "ells = 0.25 0.125 0.25"),
             "period 0.25 is given twice"),
            ("validate", VALIDATE_INI.replace(ells, "ells = 0.1 0.03"),
             "not a positive integer multiple of the period 0.03"),
            ("validate", VALIDATE_INI.replace("dns_cells = 10", "dns_cells = 5"),
             "does not align with 5 elements per cell"),
            ("sweep", SWEEP_INI + "\n[study]\nfactors = 1 0.5 1\n",
             "factor 1 is given twice"),
            # Members that the output tables would print alike.
            ("validate", VALIDATE_INI.replace(ells, "ells = 0.25 0.2500000000001"),
             "period 0.25 is given twice"),
            ("sweep", SWEEP_INI + "\n[study]\nfactors = 0.5 1 1.0000000001\n",
             "factor 1 is given twice"),
            ("sweep", SWEEP_INI + "\n[study]\nfactors = 1 -0.5\n",
             "overlap thickness must be positive"),
            ("sweep", SWEEP_INI + "\n[study]\nfactors = 1 10\n",
             "overlap must stay inside the porous band"),
            ("sweep", SWEEP_INI.replace("C2", "C1").replace("cells = 10", "cells = 5"),
             "does not align with 5 elements per cell"),
            ("validate", VALIDATE_INI.replace("hx = 0.125", "hx = 0.9"),
             "hx = 0.9 and delta = "),
            ("sweep", SWEEP_INI.replace("hx = 0.125", "hx = 0.9"),
             "hx = 0.9 and delta = "),
        ]
        for i, (command, ini, message) in enumerate(cases):
            out = tmp_path / f"out{i}"
            config = write_config(tmp_path, ini, name=f"run{i}.ini")
            code = main([command, "--config", str(config), "--out", str(out)])
            assert code == 2, ini
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, err
            assert calls == []
            assert not out.exists()


class SolveReached(Exception):
    """Raised by a stubbed solver: the run got past every check."""


def reach_solve(*args, **kwargs):
    """Stub of a solver: raises :class:`SolveReached`."""
    raise SolveReached


#: Study values that the property test below draws from: the ones
#: that a study of ``VALIDATE_INI``/``SWEEP_INI`` accepts, then edge
#: values (zero, negative, not finite, huge, and for periods, ones that
#: do not tile the 1 x 0.5 band).
STUDY_VALUES = {
    "validate": ("ells", (0.25, 0.125, 0.1), (0.0, -0.25, 0.03, 0.3, 1e300)),
    "sweep": ("factors", (0.5, 1.0, 1.5), (0.0, -0.5, 10.0, 1e300)),
}
NON_FINITE = (float("nan"), float("inf"), -float("inf"))

#: ``[discretization] order`` and ``hx`` pairs that the property test
#: below draws from: ones that leave both coupled subdomains of every
#: study member interface unknowns, then ones that fail a check (too
#: coarse for the overlap, not positive, not finite).
GOOD_DISCRETIZATIONS = ((1, 0.125), (2, 0.125), (2, 0.9))
BAD_DISCRETIZATIONS = (
    (1, 0.9), (1, 0.0), (2, -0.125), (1, float("nan")), (2, float("inf")),
)


@pytest.mark.parametrize("command", ["validate", "sweep"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_study_list_exits_2_or_reaches_first_solve(command, data):
    """A study list and discretization either fail their checks (exit
    2, ``error:``, no solve, no output directory) or are valid and
    reach the first solve: at least two periods, or a factor 1, none
    repeated, every one accepted, and an accepted order and ``hx``."""
    key, good, bad = STUDY_VALUES[command]
    values = data.draw(
        st.lists(st.sampled_from(good + bad + NON_FINITE), min_size=1, max_size=4)
    )
    order, hx = data.draw(
        st.sampled_from(GOOD_DISCRETIZATIONS + BAD_DISCRETIZATIONS)
    )
    valid = (
        all(v in good for v in values)
        and len(set(values)) == len(values)
        and (len(values) >= 2 if command == "validate" else 1.0 in values)
        and (order, hx) in GOOD_DISCRETIZATIONS
    )
    listed = f"{key} = {' '.join(map(repr, values))}"
    if command == "validate":
        ini = VALIDATE_INI.replace("ells = 0.25 0.125", listed)
    else:
        ini = f"{SWEEP_INI}\n[study]\n{listed}\n"
    ini = ini.replace("order = 1\nhx = 0.125", f"order = {order}\nhx = {hx!r}")
    calls, err = [], io.StringIO()

    def stub(*args, **kwargs):
        calls.append(1)
        raise SolveReached

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "solve_cell_problem", stub)
        mp.setattr(validate, "solve_dns", stub)
        config, out = write_config(Path(tmp), ini), Path(tmp) / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SolveReached:
                code = None
        assert not out.exists()
    if valid:
        assert code is None and calls == [1], err.getvalue()
    else:
        assert code == 2 and calls == [], ini
        assert err.getvalue().startswith("error: ")


#: Values that the config property test below draws for each key of
#: :data:`cli.SCHEMA`: ones that the commands accept on cheap meshes.
ACCEPTED_VALUES = {
    ("case", "preset"): ("1", "2", "3"),
    ("case", "configuration"): ("C1", "C2", "C3"),
    ("case", "s_hat"): ("0.6", "0.8"),
    ("case", "ell"): ("0.25", "0.125"),
    ("discretization", "order"): ("1", "2"),
    ("discretization", "hx"): ("0.125", "0.0625"),
    ("discretization", "cell_resolution"): ("10",),
    ("discretization", "dns_cells"): ("10",),
    ("discretization", "dns_order"): ("1", "2"),
    ("solver", "tolerance"): ("1e-8",),
    ("solver", "max_iterations"): ("40",),
    ("solver", "seed"): ("0", "7"),
    ("study", "ells"): ("0.25 0.125", "0.125, 0.25"),
    ("study", "factors"): ("0.5 1 1.5", "1"),
}

#: Edge values drawn for every key of each parser: those that no key of
#: that parser accepts at load, and those that parse (zero, negative,
#: huge, repeated members), which a key may still reject later.
MALFORMED_VALUES = {
    int: ("nan", "inf", "1e300", "1.5", ""),
    float: ("nan", "inf", "-inf", "x", ""),
    str: (),
    cli._floats: ("", ",", "nan 1", "1 inf", "x"),
}
PARSED_EDGE_VALUES = {
    int: ("0", "-1", "3"),
    float: ("0", "-0.5", "1e300"),
    str: ("X", "c1", ""),
    cli._floats: ("0.25 0.25", "1 1", "0 -0.5", "1e300 1", "0.03 0.1"),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_config_exits_2_or_reaches_first_solve(command, data):
    """Each key of :data:`cli.SCHEMA` takes an accepted value (one of
    ``configuration`` and ``s_hat``), except up to two keys, each left
    out or given an edge value.  Every run either exits 2 with
    ``error:`` and no output directory, or reaches its first (stubbed)
    solve; a value that does not parse, is not finite or is an empty
    list exits 2 at load, whether or not the command reads its key."""
    keys = list(ACCEPTED_VALUES)
    assert set(keys) == {(s, k) for s, names in cli.SCHEMA.items() for k in names}
    edged = data.draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    obstacle = data.draw(st.sampled_from(["configuration", "s_hat"]))
    drawn, malformed = {}, False
    for section, key in keys:
        parser = cli.SCHEMA[section][key]
        if (section, key) in edged:  # left out, or an edge value
            edge = MALFORMED_VALUES[parser] + PARSED_EDGE_VALUES[parser]
            value = data.draw(st.sampled_from((None,) + edge))
            malformed |= value in MALFORMED_VALUES[parser]
        elif key in ("configuration", "s_hat") and key != obstacle:
            value = None
        else:
            value = data.draw(st.sampled_from(ACCEPTED_VALUES[section, key]))
        if value is not None:
            drawn.setdefault(section, []).append(f"{key} = {value}")
    ini = "".join(
        f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
        for section, lines in drawn.items()
    )
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for module in (cli, validate):
            for name in ("solve_cell_problem", "solve_dns", "assemble_problem"):
                mp.setattr(module, name, reach_solve)
        config, out = write_config(Path(tmp), ini), Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", str(config), "--out", str(out)])
            except SolveReached:
                code = None
        assert not out.exists()
    if code is not None or malformed:
        assert code == 2, ini
        assert err.getvalue().startswith("error: "), ini
    if malformed:
        load_error = r"error: (bad value for|\[\w+\] \w+ (is empty|must be finite))"
        assert re.match(load_error, err.getvalue()), (ini, err.getvalue())


class TestDnsCommand:
    def test_outputs(self, tmp_path, capsys, monkeypatch, dns_systems):
        solves = recording(monkeypatch, "solve_dns")
        out = tmp_path / "out"
        code = main(
            ["dns", "--config", str(write_config(tmp_path, DNS_INI)), "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        with open(out / "solution.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["x", "y", "u1", "u2", "p", "domain"]
        assert {r[5] for r in rows} == {"dns"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["cells"] == 5
        (solution,) = solves
        (system,) = dns_systems
        assert printed.startswith(f"dns: {system.n_dofs} unknowns,")
        factor = system.factor
        n = system.interior_dofs.size
        assert manifest["parameters"]["factor"] == {
            "unknowns": n,
            "precision": "float32",
            "lu_nnz": factor._lu.nnz,
            "row_interchanges": int(np.sum(factor._lu.perm_r != np.arange(n))),
            "refinement_steps": factor.refinement_steps,
            "backward_error": f"{factor.backward_error:.2e}",
        }
        assert 1 <= factor.refinement_steps <= linalg.MAX_REFINEMENT_STEPS
        assert manifest["parameters"]["factor"]["row_interchanges"] <= 2
        assert (out / "solution.vtk").read_text().startswith(
            "# vtk DataFile Version 3.0"
        )
        # Mean speed on each cell-boundary line of the band, top first.
        with open(out / "speeds.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["y", "mean_speed"]
        assert [r[0] for r in rows] == ["0.00000000e+00", "-2.50000000e-01"]
        for y, speed in rows:
            assert speed == format_value(solution.mean_speed(float(y)))
        assert "speeds.csv" in manifest["outputs"]


def readme_commands():
    """``(command, config path)`` of every README command line."""
    return re.findall(
        r"stokes-darcy\s+(\S+)\s+--config\s+(configs/[\w.-]+\.ini)",
        (REPO / "README.md").read_text(),
    )


def test_readme_commands_cover_every_config():
    """Every README command line names a command and a loadable config,
    and every checked-in config appears in one."""
    lines = readme_commands()
    assert lines
    for command, path in lines:
        assert command in cli.COMMANDS, command
        assert (REPO / path).is_file(), path
        load_run_config(REPO / path)
    configs = {f"configs/{p.name}" for p in (REPO / "configs").glob("*.ini")}
    assert configs <= {path for _, path in lines}


@pytest.mark.parametrize(
    ("command", "path"),
    sorted(set(readme_commands())),
    ids=lambda v: v.removeprefix("configs/"),
)
def test_readme_config_reaches_first_solve(tmp_path, monkeypatch, command, path):
    """Every README command passes all its up-front checks on its
    config and reaches its first solve, stubbed here."""
    for module in (cli, validate):
        for name in ("solve_cell_problem", "solve_dns", "assemble_problem"):
            monkeypatch.setattr(module, name, reach_solve)
    out = tmp_path / "out"
    with pytest.raises(SolveReached):
        main([command, "--config", str(REPO / path), "--out", str(out)])
    assert not out.exists()


def test_readme_config_keys_match_schema():
    """README's "Config keys" block lists exactly the sections and keys
    that the parser accepts, in the order of :data:`cli.SCHEMA`."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"Config keys.*?```ini\n(.*?)```", readme, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
            keys = listed.setdefault(header.group(1), [])
        elif line.strip():
            keys.append(line.split("=")[0].strip())
    assert list(listed.items()) == [(s, list(k)) for s, k in cli.SCHEMA.items()]
