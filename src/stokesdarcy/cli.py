"""Configuration-driven command line for the coupled-flow toolkit.

Five subcommands cover the workflow: ``cell`` homogenizes one unit
cell, ``icdd`` runs one coupled solve, ``dns`` runs one pore-scale
solve, ``validate`` runs the period-refinement study and ``sweep``
scans the layer thickness.  Every run is described by a flat INI file
(``key = value`` under a few fixed sections); unknown sections or keys
abort before any output is written.  Each command only computes and
returns its results; :func:`run` writes them and the manifest, and
:func:`main` turns every failure into a message and exit status 2.
Outputs are deterministic: identical configurations yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import platform
import sys
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dns import DnsResolution, solve_dns
from .fem import FemConfig
from .homogenize import (
    DEFAULT_CELL_RESOLUTION,
    delta_star,
    permeability_dimensional,
    solve_cell_problem,
)
from .icdd import IcddGeometry, IcddPhysics, assemble_problem, icdd_solve
from .io import config_digest, write_csv, write_manifest, write_vtk
from .linalg import KrylovConfig
from .presets import CONFIGURATIONS, PRESETS, PorousConfiguration
from .validate import convergence_study, delta_sweep


class CliError(Exception):
    """Configuration, setting or solver problem that aborts the run."""


#: Allowed sections and keys of the run configuration.
SCHEMA: dict[str, tuple[str, ...]] = {
    "case": ("preset", "configuration", "s_hat", "ell"),
    "discretization": (
        "order",
        "hx",
        "cell_resolution",
        "dns_cells",
        "dns_order",
    ),
    "solver": ("tolerance", "max_iterations", "seed"),
    "study": ("ells", "factors"),
}


class RunConfig:
    """Validated run configuration.

    Parameters
    ----------
    parser : ConfigParser
        Parsed INI content, already schema-checked.
    text : str
        Raw file text (hashed into the manifest).
    """

    def __init__(self, parser: ConfigParser, text: str):
        self._p = parser
        self.digest = config_digest(text)

    def _get(self, section, key, cast, default=None, required=False):
        if not self._p.has_option(section, key):
            if required:
                raise CliError(f"missing required key [{section}] {key}")
            return default
        raw = self._p.get(section, key)
        try:
            value = cast(raw)
        except ValueError as err:
            raise CliError(f"bad value for [{section}] {key}: {raw!r}") from err
        if cast is float and not np.isfinite(value):
            raise CliError(f"[{section}] {key} must be finite, got {raw!r}")
        return value

    # -- case --------------------------------------------------------------

    def preset(self):
        pid = self._get("case", "preset", int, required=True)
        if pid not in PRESETS:
            raise CliError(f"unknown preset {pid}; choose from 1, 2, 3")
        return PRESETS[pid]

    def configuration(self, need_mesh: bool) -> PorousConfiguration:
        """Resolve the microstructure row or a custom square obstacle."""
        name = self._get("case", "configuration", str)
        s_hat = self._get("case", "s_hat", float)
        if name is not None and s_hat is not None:
            raise CliError("give either [case] configuration or s_hat, not both")
        if name is not None:
            if name not in CONFIGURATIONS:
                raise CliError(
                    f"unknown configuration {name!r}; choose from "
                    + ", ".join(CONFIGURATIONS)
                )
            cfg = CONFIGURATIONS[name]
            if need_mesh and not cfg.meshable:
                raise CliError(
                    f"configuration {name} has circular obstacles and cannot "
                    "be meshed; use a square row or give s_hat"
                )
            return cfg
        if s_hat is None:
            raise CliError("need [case] configuration or s_hat")
        if not 0.0 < s_hat < 1.0:
            raise CliError(f"s_hat must lie in (0, 1), got {s_hat}")
        return PorousConfiguration(
            name=f"square(s_hat={s_hat:g})",
            shape="square",
            size_ratio=s_hat,
            porosity=1.0 - s_hat**2,
            k_hat=float("nan"),
        )

    def ell(self) -> float:
        ell = self._get("case", "ell", float, required=True)
        if ell <= 0:
            raise CliError(f"ell must be positive, got {ell}")
        return ell

    # -- discretization -----------------------------------------------------

    def fem_config(self) -> FemConfig:
        order = self._get("discretization", "order", int, default=2)
        if order not in (1, 2):
            raise CliError(f"order must be 1 or 2, got {order}")
        return FemConfig(order=order)

    def hx(self) -> float:
        hx = self._get("discretization", "hx", float, default=1.0 / 144.0)
        if hx <= 0:
            raise CliError(f"hx must be positive, got {hx}")
        return hx

    def cell_resolution(self) -> int:
        return self._get(
            "discretization", "cell_resolution", int, default=DEFAULT_CELL_RESOLUTION
        )

    def dns_resolution(self, default_order: int) -> DnsResolution:
        order = self._get(
            "discretization", "dns_order", int, default=default_order
        )
        cells = self._get("discretization", "dns_cells", int, default=10)
        return DnsResolution(n_per_cell=cells, order=order)

    # -- solver --------------------------------------------------------------

    def krylov(self) -> KrylovConfig:
        return KrylovConfig(
            tol=self._get("solver", "tolerance", float, default=1e-8),
            maxiter=self._get("solver", "max_iterations", int, default=200),
            seed=self._get("solver", "seed", int, default=0),
        )

    # -- study ----------------------------------------------------------------

    def _float_list(self, key, default=None, required=False):
        raw = self._get("study", key, str, required=required)
        if raw is None:
            return default
        try:
            values = [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError as err:
            raise CliError(f"bad value for [study] {key}: {raw!r}") from err
        if not values:
            raise CliError(f"[study] {key} is empty")
        if not np.all(np.isfinite(values)):
            raise CliError(f"[study] {key} must be finite, got {raw!r}")
        return values

    def ells(self) -> list:
        return self._float_list("ells", required=True)

    def factors(self) -> list:
        return self._float_list("factors", default=[0.5, 1.0, 1.5])


def load_run_config(path) -> RunConfig:
    """Parse and schema-check a run configuration file.

    Raises
    ------
    CliError
        On unreadable files, syntax errors, or unknown sections/keys
        (all unknown names are listed).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise CliError(f"cannot read config {path}: {err}") from err
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except Exception as err:
        raise CliError(f"config syntax error in {path}: {err}") from err
    unknown = []
    for section in parser.sections():
        if section not in SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key in parser.options(section):
            if key not in SCHEMA[section]:
                unknown.append(f"[{section}] {key}")
    if unknown:
        raise CliError("unknown configuration entries: " + ", ".join(unknown))
    return RunConfig(parser, text)


def _versions() -> dict:
    return {
        "stokesdarcy": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _permeability_for(config, configuration, ell):
    """Dimensional permeability: published constant or fresh cell solve."""
    if np.isfinite(configuration.k_hat):
        return permeability_dimensional(configuration.k_hat, ell), "published"
    cell = solve_cell_problem(
        configuration.size_ratio, resolution=config.cell_resolution()
    )
    return permeability_dimensional(cell.k_scalar(), ell), "computed"


def _say(message: str) -> None:
    """Print a message and its newline in a single write, flushed.

    Study members in worker processes print their progress
    concurrently; ``print`` writes the text and the newline apart,
    which unbuffered output (``PYTHONUNBUFFERED``) passes on as two
    writes that interleave with other workers' lines.
    """
    sys.stdout.write(message + "\n")
    sys.stdout.flush()


#: The study member a worker process runs; set by :func:`_start_worker`,
#: in worker processes only.
_member = None


def _start_worker(member) -> None:
    global _member
    _member = member


def _run_member(args: tuple):
    return _member(*args)


def _mapper(threads: int, pool_holder: list):
    """``map`` over study members, in worker processes if ``threads > 1``.

    Each call then forks ``min(threads, members)`` workers, added to
    ``pool_holder`` for the caller to shut down.  Processes, because
    members in threads of one process contend for the GIL: next to
    another member's sparse factorization a coupled solve runs about
    twice as long as alone.  The member function reaches the workers
    through the fork (as the pool's initializer argument, which the
    fork context does not pickle), with everything it captures shared
    copy-on-write; only each member's arguments and result are pickled.
    Each member's meshes and factors live in its own worker.
    """
    if threads <= 1:
        return map
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    def mapped(fn, *iterables):
        items = list(zip(*iterables))
        pool = ProcessPoolExecutor(
            max_workers=min(threads, len(items)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(fn,),
        )
        pool_holder.append(pool)
        try:
            return list(pool.map(_run_member, items))
        except BrokenProcessPool as err:
            raise RuntimeError(
                "a study worker process died without a result (for example, "
                "killed for lack of memory)"
            ) from err

    return mapped


@dataclass
class Outputs:
    """What one command computed, for :func:`run` to write and print.

    ``files`` maps each output name to the arguments after the path of
    :func:`write_csv` (``.csv``) or :func:`write_vtk` (``.vtk``);
    ``parameters`` and ``iterations`` go into the manifest.
    """

    summary: str
    parameters: dict
    files: dict
    iterations: dict = field(default_factory=dict)


def run(command: str, config: RunConfig, out_dir: Path, threads: int) -> None:
    """Run one command, then write its files and manifest.

    The command gets a ``map``-like function for study members, which
    runs them in ``threads`` worker processes (fork) when ``threads >
    1`` (see :func:`_mapper`).  Nothing is written unless it returns, so
    a failed run, a dead worker included, leaves no output directory.

    Raises
    ------
    CliError
        For any ``ValueError`` or ``RuntimeError`` of the command (bad
        settings, unaligned geometry, a solver that fails).
    """
    pools: list = []
    try:
        result = COMMANDS[command](config, _mapper(threads, pools))
    except (ValueError, RuntimeError) as err:
        raise CliError(str(err)) from err
    finally:
        for pool in pools:
            pool.shutdown()
    manifest = {
        "command": command,
        "config_sha256": config.digest,
        "versions": _versions(),
        "parameters": result.parameters,
        "iterations": result.iterations,
        "outputs": sorted([*result.files, "manifest.json"]),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, args in result.files.items():
        writer = write_csv if name.endswith(".csv") else write_vtk
        writer(out_dir / name, *args)
    write_manifest(out_dir / "manifest.json", manifest)
    _say(result.summary)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

SOLUTION_HEADER = ["x", "y", "u1", "u2", "p", "domain"]


def _fields(velocity, pressure) -> dict:
    return {"velocity": velocity.values, "pressure": pressure.values}


def cmd_cell(config: RunConfig, mapper) -> Outputs:
    configuration = config.configuration(need_mesh=True)
    fem = config.fem_config()
    cell = solve_cell_problem(
        configuration.size_ratio,
        resolution=config.cell_resolution(),
        order=fem.order,
    )
    columns = {
        "s_hat": cell.s_hat,
        "porosity": cell.porosity,
        "porosity_quadrature": cell.porosity_quadrature,
        "k_hat_11": cell.k_hat[0, 0],
        "k_hat_12": cell.k_hat[0, 1],
        "k_hat_21": cell.k_hat[1, 0],
        "k_hat_22": cell.k_hat[1, 1],
        "delta_star_hat": delta_star(cell.porosity, 1.0),
    }
    return Outputs(
        summary=(
            f"cell: s_hat={cell.s_hat:g} porosity={cell.porosity:.6f} "
            f"k_hat={cell.k_scalar():.6e}"
        ),
        parameters={
            "s_hat": cell.s_hat,
            "resolution": cell.resolution,
            "order": cell.order,
        },
        files={"cell.csv": (list(columns), [list(columns.values())])},
    )


def cmd_icdd(config: RunConfig, mapper) -> Outputs:
    preset = config.preset()
    configuration = config.configuration(need_mesh=False)
    ell = config.ell()
    delta = delta_star(configuration.porosity, ell)
    permeability, k_source = _permeability_for(config, configuration, ell)
    problem = assemble_problem(
        config.fem_config(),
        IcddGeometry(delta=delta, hx=config.hx()),
        IcddPhysics(preset=preset, permeability=permeability),
    )
    result = icdd_solve(problem, config.krylov())
    sol = result.composite
    return Outputs(
        summary=(
            f"icdd: interface at y={-delta:.6e}, iterations="
            f"{result.info['iterations']}, matching residuals "
            f"({result.matching_velocity:.3e}, {result.matching_pressure:.3e})"
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ell": ell,
            "delta": delta,
            "permeability": permeability,
            "permeability_source": k_source,
            "matching_velocity": result.matching_velocity,
            "matching_pressure": result.matching_pressure,
        },
        files={
            "solution.csv": (SOLUTION_HEADER, sol.sample_rows()),
            "residuals.csv": (
                ["iteration", "relative_residual"],
                list(enumerate(result.info["residuals"])),
            ),
            "stokes.vtk": (
                problem.stokes.mesh,
                _fields(sol.stokes_velocity, sol.stokes_pressure),
                "free-flow subdomain",
            ),
            "darcy.vtk": (
                problem.darcy.mesh,
                _fields(sol.darcy_velocity, sol.darcy_pressure),
                "porous subdomain",
            ),
        },
        iterations={"interface": result.info["iterations"]},
    )


def cmd_dns(config: RunConfig, mapper) -> Outputs:
    preset = config.preset()
    configuration = config.configuration(need_mesh=True)
    ell = config.ell()
    lattice = preset.lattice(ell, configuration.size_ratio)
    solution = solve_dns(preset, lattice, config.dns_resolution(2))
    divergence = solution.divergence()
    # Cell-boundary lines of the porous band, top first: node lines at
    # every period, so two periods' tables join on ``y``.
    lines = lattice.band.y1 - lattice.period * np.arange(lattice.cells_y)
    return Outputs(
        summary=(
            f"dns: {solution.system.n_dofs} unknowns, "
            f"divergence={divergence:.3e}"
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ell": ell,
            "cells": solution.resolution.n_per_cell,
            "order": solution.resolution.order,
            "divergence_l2": divergence,
        },
        files={
            "solution.csv": (SOLUTION_HEADER, solution.sample_rows()),
            "solution.vtk": (
                solution.mesh,
                _fields(solution.velocity, solution.pressure),
                "pore-scale solution",
            ),
            "speeds.csv": (
                ["y", "mean_speed"],
                [(y, solution.mean_speed(y)) for y in lines.tolist()],
            ),
        },
    )


def cmd_validate(config: RunConfig, mapper) -> Outputs:
    preset = config.preset()
    configuration = config.configuration(need_mesh=True)
    ells = config.ells()
    study = convergence_study(
        preset,
        configuration,
        ells,
        fem_config=config.fem_config(),
        hx=config.hx(),
        dns_resolution=config.dns_resolution(1),
        krylov=config.krylov(),
        cell_resolution=config.cell_resolution(),
        mapper=mapper,
        progress=_say,
    )
    error_rows = [
        (r.configuration, r.ell, metric, value, r.relative(metric))
        for r in study.reports
        for metric, value in r.errors.items()
    ]
    return Outputs(
        summary="\n".join(
            f"slope {metric} = {slope:+.3f}"
            for metric, slope in study.slopes.items()
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ells": ells,
        },
        files={
            "errors.csv": (
                ["config", "ell", "metric", "value", "relative"],
                error_rows,
            ),
            "slopes.csv": (["metric", "slope"], list(study.slopes.items())),
        },
        iterations={f"ell={r.ell:g}": r.iterations for r in study.reports},
    )


def cmd_sweep(config: RunConfig, mapper) -> Outputs:
    preset = config.preset()
    configuration = config.configuration(need_mesh=True)
    ell = config.ell()
    factors = config.factors()
    sweep = delta_sweep(
        preset,
        configuration,
        ell,
        factors=factors,
        fem_config=config.fem_config(),
        hx=config.hx(),
        dns_resolution=config.dns_resolution(1),
        krylov=config.krylov(),
        cell_resolution=config.cell_resolution(),
        mapper=mapper,
        progress=_say,
    )
    return Outputs(
        summary=(
            f"sweep: delta_star={sweep.delta_star:.6e}, interior minimum: "
            f"{sweep.is_interior_minimum()}"
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ell": ell,
            "delta_star": sweep.delta_star,
            "interior_minimum": sweep.is_interior_minimum(),
        },
        files={
            "sweep.csv": (
                ["factor", "delta", "error_u_fluid"],
                list(zip(factors, sweep.deltas, sweep.errors)),
            ),
        },
    )


COMMANDS = {
    "cell": cmd_cell,
    "icdd": cmd_icdd,
    "dns": cmd_dns,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-darcy",
        description=(
            "Coupled free-flow and porous-medium solver with pore-scale "
            "validation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "cell": "homogenize one unit cell (permeability, porosity)",
        "icdd": "run one coupled two-domain solve",
        "dns": "run one pore-scale reference solve",
        "validate": "period-refinement error study against references",
        "sweep": "scan the overlap thickness around its predicted value",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI run description")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help=(
                "worker processes (fork) for independent study members; "
                "each member's memory lives in its own worker"
            ),
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        run(args.command, config, Path(args.out), args.threads)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
