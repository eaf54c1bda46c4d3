"""Configuration-driven command line for the coupled-flow toolkit.

Five subcommands cover the workflow: ``cell`` homogenizes one unit
cell, ``icdd`` runs one coupled solve, ``dns`` runs one pore-scale
solve, ``validate`` runs the period-refinement study and ``sweep``
scans the layer thickness.  Every run is described by a flat INI file
(``key = value`` under a few fixed sections); unknown sections or keys
abort before any output is written.  Settings are plain values (see
:class:`RunConfig`), each range checked once, where the value is used.
Each command only computes and returns its results; :func:`run` writes
them and the manifest, and :func:`main` turns every failure into a
message and exit status 2; only :func:`main` prints the ``stokesdarcy``
logger's INFO records (progress, summaries).  Outputs are
deterministic: identical configurations yield byte-identical files.
"""

from __future__ import annotations

import argparse
import logging
import os
import platform
import sys
from configparser import ConfigParser
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dns import DnsResolution, solve_dns
from .homogenize import (
    DEFAULT_CELL_RESOLUTION,
    delta_star,
    permeability_dimensional,
    solve_cell_problem,
)
from .icdd import (
    DEFAULT_HX,
    assemble_problem,
    icdd_solve,
    subdomain_meshes,
)
from .io import config_digest, format_value, write_csv, write_manifest, write_vtk
from .linalg import KrylovConfig
from .presets import CONFIGURATIONS, PRESETS, PorousConfiguration
from .validate import DEFAULT_FACTORS, convergence_study, delta_sweep

_log = logging.getLogger("stokesdarcy")


class CliError(Exception):
    """Configuration, setting or solver problem that aborts the run."""


def _floats(text: str) -> list:
    """A list of floats separated by commas or blanks."""
    return [float(tok) for tok in text.replace(",", " ").split()]


#: Allowed sections and keys of the run configuration, each with the
#: parser of its value.
SCHEMA: dict[str, dict] = {
    "case": {"preset": int, "configuration": str, "s_hat": float, "ell": float},
    "discretization": {
        "order": int,
        "hx": float,
        "cell_resolution": int,
        "dns_cells": int,
        "dns_order": int,
    },
    "solver": {"tolerance": float, "max_iterations": int, "seed": int},
    "study": {"ells": _floats, "factors": _floats},
}


#: Default of every key that a command may leave out.
DEFAULTS: dict = {
    "order": 2,
    "hx": DEFAULT_HX,
    "cell_resolution": DEFAULT_CELL_RESOLUTION,
    "dns_cells": DnsResolution.n_per_cell,
    "tolerance": KrylovConfig.tol,
    "max_iterations": KrylovConfig.maxiter,
    "seed": KrylovConfig.seed,
    "factors": DEFAULT_FACTORS,
}


class RunConfig(dict):
    """Parsed value of every key the file sets, over :data:`DEFAULTS`,
    keyed by key name (no two sections of :data:`SCHEMA` share one).
    ``config[key]`` raises :class:`CliError` for a key neither set nor
    defaulted; ``config.get(key)`` reads an optional one.

    Parameters
    ----------
    values : dict
        Parsed value of every key the file sets.
    text : str
        Raw file text (hashed into the manifest).
    """

    def __init__(self, values: dict, text: str):
        super().__init__(DEFAULTS)
        self.update(values)
        self.digest = config_digest(text)

    def __missing__(self, key):
        section = {k: name for name, keys in SCHEMA.items() for k in keys}[key]
        raise CliError(f"missing required key [{section}] {key}")


def load_run_config(path) -> RunConfig:
    """Read a run configuration file, check its names against
    :data:`SCHEMA` and parse every value it sets, whether or not the
    command reads it.

    Raises
    ------
    CliError
        On unreadable files, syntax errors, unknown sections/keys (all
        unknown names are listed), and on the first value that does not
        parse, is not finite or is an empty list.
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
    values = {}
    for section in parser.sections():
        for key in parser.options(section):
            raw = parser.get(section, key)
            try:
                value = SCHEMA[section][key](raw)
            except ValueError as err:
                raise CliError(f"bad value for [{section}] {key}: {raw!r}") from err
            if value == []:
                raise CliError(f"[{section}] {key} is empty")
            if isinstance(value, (float, list)) and not np.all(np.isfinite(value)):
                raise CliError(f"[{section}] {key} must be finite, got {raw!r}")
            values[key] = value
    return RunConfig(values, text)


def _preset(config: RunConfig):
    pid = config["preset"]
    if pid not in PRESETS:
        raise CliError(f"unknown preset {pid}; choose from 1, 2, 3")
    return PRESETS[pid]


def _configuration(config: RunConfig, need_mesh: bool) -> PorousConfiguration:
    """Resolve the microstructure row or a custom square obstacle."""
    name = config.get("configuration")
    s_hat = config.get("s_hat")
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


def _dns_resolution(config: RunConfig, default_order: int) -> DnsResolution:
    cells = config["dns_cells"]
    order = config.get("dns_order", default_order)
    return DnsResolution(n_per_cell=cells, order=order)


def _krylov(config: RunConfig) -> KrylovConfig:
    return KrylovConfig(
        tol=config["tolerance"],
        maxiter=config["max_iterations"],
        seed=config["seed"],
    )


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
        configuration.size_ratio, resolution=config["cell_resolution"]
    )
    return permeability_dimensional(cell.k_scalar(), ell), "computed"


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

    ``files`` maps each output name to a table for :func:`write_csv`
    (``.csv``) or the arguments after the path of :func:`write_vtk`
    (``.vtk``); ``parameters`` go into the manifest, with the solver
    health of every solve the command made.
    """

    summary: str
    parameters: dict
    files: dict


def _check_writable(out_dir: Path) -> None:
    """Raise :class:`CliError` unless ``out_dir`` is a writable
    directory or can be made in one, without making it: its nearest
    existing ancestor (or itself) must be a directory this process may
    write into."""
    try:
        existing = next(
            p for p in (out_dir, *out_dir.absolute().parents) if p.exists()
        )
        is_dir = existing.is_dir()
    except OSError as err:  # a name too long, an ancestor not searchable
        raise CliError(f"cannot write outputs to {out_dir}: {err}") from err
    if not is_dir:
        reason = f"{existing} is not a directory"
    elif not os.access(existing, os.W_OK | os.X_OK):
        reason = f"no permission to write in {existing}"
    else:
        return
    raise CliError(f"cannot write outputs to {out_dir}: {reason}")


def run(command: str, config: RunConfig, out_dir: Path, threads: int) -> None:
    """Run one command, write its files and manifest, then log its
    summary as an INFO record of the ``stokesdarcy`` logger.

    The command gets a ``map``-like function for study members, which
    runs them in ``threads`` worker processes (fork) when ``threads >
    1`` (see :func:`_mapper`).  Nothing is written unless it returns, so
    a failed run, a dead worker included, leaves no output directory.
    An ``out_dir`` that cannot be written is refused before the command
    runs (see :func:`_check_writable`).

    Raises
    ------
    CliError
        For an ``out_dir`` that cannot be written, for any
        ``ValueError`` or ``RuntimeError`` of the command (bad settings,
        unaligned geometry, a solver that fails), for a ``MemoryError``
        (an allocation that cannot be made), and for an ``OSError``
        while writing the outputs.
    """
    _check_writable(out_dir)
    pools: list = []
    try:
        result = COMMANDS[command](config, _mapper(threads, pools))
    except (ValueError, RuntimeError) as err:
        raise CliError(str(err)) from err
    except MemoryError as err:
        raise CliError(f"{command} ran out of memory ({err})") from err
    finally:
        for pool in pools:
            pool.shutdown()
    manifest = {
        "command": command,
        "config_sha256": config.digest,
        "versions": _versions(),
        "parameters": result.parameters,
        "outputs": sorted([*result.files, "manifest.json"]),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in result.files.items():
            if name.endswith(".csv"):
                write_csv(out_dir / name, content)
            else:
                write_vtk(out_dir / name, *content)
        write_manifest(out_dir / "manifest.json", manifest)
    except OSError as err:
        raise CliError(f"cannot write outputs to {out_dir}: {err}") from err
    _log.info(result.summary)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _fields(velocity, pressure) -> dict:
    return {"velocity": velocity.values, "pressure": pressure.values}


def cmd_cell(config: RunConfig, mapper) -> Outputs:
    configuration = _configuration(config, need_mesh=True)
    cell = solve_cell_problem(
        configuration.size_ratio,
        resolution=config["cell_resolution"],
        order=config["order"],
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
            "cell_factor": cell.factor_health,
        },
        files={"cell.csv": {name: [value] for name, value in columns.items()}},
    )


def cmd_icdd(config: RunConfig, mapper) -> Outputs:
    preset = _preset(config)
    configuration = _configuration(config, need_mesh=False)
    ell = config["ell"]
    delta = delta_star(configuration.porosity, ell)
    order, hx = config["order"], config["hx"]
    krylov = _krylov(config)
    # Check the subdomains before a unit-cell solve can run.
    subdomain_meshes(order, delta, hx, preset)
    permeability, k_source = _permeability_for(config, configuration, ell)
    result = icdd_solve(
        assemble_problem(order, delta, hx, preset, permeability), krylov
    )
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
            **result.health(),
            # Again as JSON numbers, over their %.2e text: the check of
            # the benchmark's smoke workload (perfbench/workloads.py)
            # compares these two numerically.
            "matching_velocity": result.matching_velocity,
            "matching_pressure": result.matching_pressure,
        },
        files={
            "solution.csv": sol.sample_rows(),
            "residuals.csv": {
                "iteration": np.arange(len(result.info["residuals"])),
                "relative_residual": result.info["residuals"],
            },
            "stokes.vtk": (
                sol.stokes_velocity.mesh,
                _fields(sol.stokes_velocity, sol.stokes_pressure),
                "free-flow subdomain",
            ),
            "darcy.vtk": (
                sol.darcy_velocity.mesh,
                _fields(sol.darcy_velocity, sol.darcy_pressure),
                "porous subdomain",
            ),
        },
    )


def cmd_dns(config: RunConfig, mapper) -> Outputs:
    preset = _preset(config)
    configuration = _configuration(config, need_mesh=True)
    ell = config["ell"]
    lattice = preset.lattice(ell, configuration.size_ratio)
    solution = solve_dns(preset, lattice, _dns_resolution(config, 2))
    divergence = solution.divergence()
    # Cell-boundary lines of the porous band, top first: node lines at
    # every period, so two periods' tables join on ``y``.
    lines = lattice.band.y1 - lattice.period * np.arange(lattice.cells_y)
    return Outputs(
        summary=(
            f"dns: {solution.n_dofs} unknowns, "
            f"divergence={divergence:.3e}"
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ell": ell,
            "cells": solution.resolution.n_per_cell,
            "order": solution.resolution.order,
            "divergence_l2": divergence,
            "factor": solution.factor_health,
        },
        files={
            "solution.csv": solution.sample_rows(),
            "solution.vtk": (
                solution.mesh,
                _fields(solution.velocity, solution.pressure),
                "pore-scale solution",
            ),
            "speeds.csv": {
                "y": lines,
                "mean_speed": [solution.mean_speed(y) for y in lines.tolist()],
            },
        },
    )


def _study_settings(config: RunConfig, mapper) -> dict:
    """Settings that both studies take from the config; their reference
    solves default to first order."""
    return {
        "order": config["order"],
        "hx": config["hx"],
        "dns_resolution": _dns_resolution(config, 1),
        "krylov": _krylov(config),
        "cell_resolution": config["cell_resolution"],
        "mapper": mapper,
    }


def cmd_validate(config: RunConfig, mapper) -> Outputs:
    preset = _preset(config)
    configuration = _configuration(config, need_mesh=True)
    ells = config["ells"]
    study = convergence_study(
        preset, configuration, ells, **_study_settings(config, mapper)
    )
    reports, slopes = study.reports, study.slopes
    return Outputs(
        summary="\n".join(
            f"slope {metric} = {slope:+.3f}" for metric, slope in slopes.items()
        ),
        parameters={
            "preset": preset.identifier,
            "configuration": configuration.name,
            "ells": ells,
            "cell_factor": study.cell.factor_health,
            "members": {f"ell={r.ell!r}": r.health for r in reports},
        },
        files={
            "errors.csv": {
                "config": [r.configuration for r in reports for _ in r.errors],
                "ell": [r.ell for r in reports for _ in r.errors],
                "metric": [m for r in reports for m in r.errors],
                "value": [v for r in reports for v in r.errors.values()],
                "relative": [r.relative(m) for r in reports for m in r.errors],
            },
            "slopes.csv": {"metric": list(slopes), "slope": list(slopes.values())},
        },
    )


def cmd_sweep(config: RunConfig, mapper) -> Outputs:
    preset = _preset(config)
    configuration = _configuration(config, need_mesh=True)
    ell = config["ell"]
    factors = config["factors"]
    sweep = delta_sweep(
        preset, configuration, ell, factors, **_study_settings(config, mapper)
    )
    keys = [f"delta={format_value(d)}" for d in sweep.deltas]
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
            "cell_factor": sweep.cell.factor_health,
            "dns_factor": sweep.dns_factor_health,
            # Keyed by the thickness as sweep.csv prints it.
            "members": dict(zip(keys, sweep.health)),
        },
        files={
            "sweep.csv": {
                "factor": factors,
                "delta": sweep.deltas,
                "error_u_fluid": sweep.errors,
            },
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
                "worker processes (fork) for independent study members, at "
                "least 1; each member's memory lives in its own worker"
            ),
        )
    return parser


def main(argv=None) -> int:
    """Run the command line, printing the ``stokesdarcy`` logger's INFO
    records to stdout meanwhile; returns the exit status (0, or 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    # Forked study workers share stdout: StreamHandler.emit writes each
    # line with its newline in one write, then flushes, so none interleave.
    handler = logging.StreamHandler(sys.stdout)
    level = _log.level
    _log.addHandler(handler)
    _log.setLevel(logging.INFO)
    try:
        config = load_run_config(args.config)
        run(args.command, config, Path(args.out), args.threads)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        _log.removeHandler(handler)
        _log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
