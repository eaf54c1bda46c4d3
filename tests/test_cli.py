"""Command line front end: config parsing, outputs, reruns, failures."""

from __future__ import annotations

import hashlib
import inspect
import json
import multiprocessing
import os
import re
from concurrent.futures import process
from pathlib import Path

import pytest

from stokesdarcy import cli, validate
from stokesdarcy.cli import CliError, load_run_config, main
from stokesdarcy.io import format_value, read_csv

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
            config.preset()

    def test_bad_cast(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1\nell = fast\n")
        )
        with pytest.raises(CliError, match=r"bad value for \[case\] ell"):
            config.ell()

    def test_configuration_and_s_hat_conflict(self, tmp_path):
        config = load_run_config(
            write_config(
                tmp_path, "[case]\npreset = 1\nconfiguration = C1\ns_hat = 0.7\n"
            )
        )
        with pytest.raises(CliError, match="not both"):
            config.configuration(need_mesh=False)

    def test_circle_configuration_rejected_for_meshing(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1\nconfiguration = C3\n")
        )
        with pytest.raises(CliError, match="square"):
            config.configuration(need_mesh=True)

    def test_custom_s_hat_builds_configuration(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1\ns_hat = 0.7\n")
        )
        porous = config.configuration(need_mesh=True)
        assert porous.size_ratio == pytest.approx(0.7)
        assert porous.porosity == pytest.approx(1.0 - 0.49)

    def test_inline_comments_ignored(self, tmp_path):
        config = load_run_config(
            write_config(tmp_path, "[case]\npreset = 1  # lid driven\n")
        )
        assert config.preset().identifier == 1


class TestCellCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        config_path = write_config(tmp_path, CELL_INI)
        out = tmp_path / "out"
        code = main(["cell", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert "cell: s_hat=0.6" in capsys.readouterr().out
        header, rows = read_csv(out / "cell.csv")
        assert header[:2] == ["s_hat", "porosity"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(1.0 - 0.36)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "cell"
        assert manifest["outputs"] == ["cell.csv", "manifest.json"]
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
        header, rows = read_csv(out / "solution.csv")
        assert header == ["x", "y", "u1", "u2", "p", "domain"]
        assert {r[5] for r in rows} == {"stokes", "darcy"}
        _, res_rows = read_csv(out / "residuals.csv")
        assert float(res_rows[-1][1]) < 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        # residuals.csv row 0 records the initial residual before iterating
        assert manifest["iterations"]["interface"] == len(res_rows) - 1


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
        header, rows = read_csv(outs[0] / "errors.csv")
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
    resolutions = []
    inner = validate.solve_cell_problem

    def wrapper(*args, **kwargs):
        bound = inspect.signature(inner).bind(*args, **kwargs)
        bound.apply_defaults()
        resolutions.append(bound.arguments["resolution"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(validate, "solve_cell_problem", wrapper)
    argv = [command, "--config", str(write_config(tmp_path, ini))]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert resolutions == [10]  # STUDY_DISCRETIZATION's cell_resolution


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

    def test_progress_lines_written_whole(self, tmp_path, monkeypatch):
        # Workers share stdout; a line written in parts can interleave.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", Recorder())
        code, _ = self.validate(tmp_path, 1)
        assert code == 0
        assert writes[0] == "unit cell s_hat=0.8\n"
        assert all(w.endswith("\n") for w in writes)
        assert writes[-1].startswith("slope u_fluid = ")  # the summary, whole

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

    def test_repeated_period_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        for name in ("solve_cell_problem", "solve_dns"):
            monkeypatch.setattr(
                validate, name, lambda *args, name=name, **kw: calls.append(name)
            )
        ini = VALIDATE_INI.replace("ells = 0.25 0.125", "ells = 0.25 0.25")
        out = tmp_path / "out"
        code = main(
            ["validate", "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 2
        assert "two distinct periods" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestDnsCommand:
    def test_outputs(self, tmp_path, capsys, monkeypatch):
        solves = recording(monkeypatch, "solve_dns")
        ini = (
            "[case]\npreset = 1\nconfiguration = C2\nell = 0.25\n\n"
            "[discretization]\ndns_cells = 5\ndns_order = 1\n"
        )
        out = tmp_path / "out"
        code = main(
            ["dns", "--config", str(write_config(tmp_path, ini)), "--out", str(out)]
        )
        assert code == 0
        assert "dns:" in capsys.readouterr().out
        header, rows = read_csv(out / "solution.csv")
        assert header == ["x", "y", "u1", "u2", "p", "domain"]
        assert {r[5] for r in rows} == {"dns"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["cells"] == 5
        assert (out / "solution.vtk").read_text().startswith(
            "# vtk DataFile Version 3.0"
        )
        # Mean speed on each cell-boundary line of the band, top first.
        header, rows = read_csv(out / "speeds.csv")
        assert header == ["y", "mean_speed"]
        assert [r[0] for r in rows] == ["0.00000000e+00", "-2.50000000e-01"]
        (solution,) = solves
        for y, speed in rows:
            assert speed == format_value(solution.mean_speed(float(y)))
        assert "speeds.csv" in manifest["outputs"]


def test_readme_commands_cover_every_config():
    """Every README command line names a command and a loadable config,
    and every checked-in config appears in one."""
    lines = re.findall(
        r"stokes-darcy\s+(\S+)\s+--config\s+(configs/[\w.-]+\.ini)",
        (REPO / "README.md").read_text(),
    )
    assert lines
    for command, path in lines:
        assert command in cli.COMMANDS, command
        assert (REPO / path).is_file(), path
        load_run_config(REPO / path)
    configs = {f"configs/{p.name}" for p in (REPO / "configs").glob("*.ini")}
    assert configs <= {path for _, path in lines}
