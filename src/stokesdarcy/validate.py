"""Validation of the coupled solver against pore-scale references.

Errors between a homogenized coupled solution and a pore-scale
reference are measured in three horizontal slabs of the domain: the
restricted free-flow region above the lower interface, the porous
region below it, and the porous region more than one period below the
obstacle-top line (away from the transition layer).  All integrals run
over the fluid part of the pore-scale mesh, so obstacle interiors never
contribute.

In the porous slabs the macroscale velocity is not compared directly:
it is first turned back into a pore-scale field by modulating it with
the periodically repeated unit-cell velocities, scaled by the inverse
effective permeability so the modulation preserves cell averages.

The module also provides the period-refinement convergence study and
the overlap-thickness sweep built on these metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dns import DnsResolution, DnsSolution, solve_dns
from .fem import FemConfig
from .homogenize import (
    DEFAULT_CELL_RESOLUTION,
    CellSolution,
    PeriodicCellField,
    delta_star,
    permeability_dimensional,
    solve_cell_problem,
)
from .icdd import IcddGeometry, IcddPhysics, assemble_problem, icdd_solve
from .linalg import KrylovConfig
from .mesh import StructuredMesh
from .presets import POROUS_DEPTH, PorousConfiguration, TestCasePreset

#: Positions where errors are measured, as (kind, depends on) pairs:
#: ``fluid`` spans (-delta*, top), ``porous`` spans (-depth, -delta*)
#: and ``porous_deep`` spans (-depth, -period).
REGION_KINDS = ("fluid", "porous", "porous_deep")


@dataclass(frozen=True)
class RegionSpec:
    """Horizontal slab over which an error norm is taken.

    Parameters
    ----------
    kind : str
        Region label (one of :data:`REGION_KINDS`, or ``custom``).
    y0, y1 : float
        Vertical extent, ``y0 < y1``.
    x0, x1 : float or None
        Optional horizontal clipping; ``None`` leaves the mesh width.
    """

    kind: str
    y0: float
    y1: float
    x0: float | None = None
    x1: float | None = None

    def __post_init__(self):
        if self.kind not in REGION_KINDS and self.kind != "custom":
            raise ValueError(
                f"unknown region kind {self.kind!r}; use one of "
                f"{REGION_KINDS} or 'custom'"
            )
        if not self.y1 > self.y0:
            raise ValueError("empty region")


def validation_regions(
    preset: TestCasePreset, delta: float, ell: float
) -> dict[str, RegionSpec]:
    """Standard comparison regions for one scenario.

    Parameters
    ----------
    preset : TestCasePreset
        Scenario fixing the domain.
    delta : float
        Lower-interface depth (layer thickness).
    ell : float
        Microstructure period.

    Returns
    -------
    dict
        ``fluid``: above the lower interface; ``porous``: the rest of
        the band; ``porous_deep``: the band more than one period down.
    """
    dom = preset.domain
    return {
        "fluid": RegionSpec("fluid", -delta, dom.y1),
        "porous": RegionSpec("porous", -POROUS_DEPTH, -delta),
        "porous_deep": RegionSpec("porous_deep", -POROUS_DEPTH, -ell),
    }


def _as_point_fn(f):
    """Normalize field objects or methods to a points -> values callable."""
    if hasattr(f, "eval"):
        return f.eval
    if callable(f):
        return f
    raise TypeError(f"cannot evaluate {type(f).__name__} at points")


def region_quadrature(
    mesh: StructuredMesh, region: RegionSpec, n_gauss: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights over the active part of a region.

    Every active element is clipped to the region rectangle; elements
    reduced to zero width or height drop out.  Points of sub-clipped
    elements stay interior to their element, so fields on the host mesh
    evaluate exactly.

    Parameters
    ----------
    mesh : StructuredMesh
        Mesh supplying elements and activity.
    region : RegionSpec
        Clipping slab.
    n_gauss : int
        Gauss points per direction and element.

    Returns
    -------
    (points, weights)
        Flat arrays of shape ``(nq, 2)`` and ``(nq,)``.
    """
    elems = np.flatnonzero(mesh.active)
    ex = elems % mesh.nex
    ey = elems // mesh.nex
    x_lo = mesh.xs[ex]
    x_hi = mesh.xs[ex + 1]
    y_lo = mesh.ys[ey]
    y_hi = mesh.ys[ey + 1]
    if region.x0 is not None:
        x_lo = np.maximum(x_lo, region.x0)
    if region.x1 is not None:
        x_hi = np.minimum(x_hi, region.x1)
    y_lo = np.maximum(y_lo, region.y0)
    y_hi = np.minimum(y_hi, region.y1)
    w = x_hi - x_lo
    h = y_hi - y_lo
    keep = (w > 1e-14) & (h > 1e-14)
    x_lo, y_lo, w, h = x_lo[keep], y_lo[keep], w[keep], h[keep]
    if x_lo.size == 0:
        raise ValueError(f"region {region.kind!r} misses the active mesh")
    pts, wts = np.polynomial.legendre.leggauss(n_gauss)
    PX, PY = np.meshgrid(pts, pts, indexing="ij")
    WX, WY = np.meshgrid(wts, wts, indexing="ij")
    px = x_lo[:, None] + 0.5 * (PX.ravel() + 1.0)[None, :] * w[:, None]
    py = y_lo[:, None] + 0.5 * (PY.ravel() + 1.0)[None, :] * h[:, None]
    ww = 0.25 * (w * h)[:, None] * (WX * WY).ravel()[None, :]
    points = np.column_stack([px.ravel(), py.ravel()])
    return points, ww.ravel()


def l2_error(
    field_a,
    field_b,
    region: RegionSpec,
    mesh: StructuredMesh,
    n_gauss: int = 3,
    align_mean: bool = False,
) -> float:
    """L2 norm of the difference of two fields over a region.

    Parameters
    ----------
    field_a, field_b : evaluable
        Objects with an ``eval(points)`` method or plain callables
        mapping ``(nq, 2)`` points to values (scalar or two-component).
    region : RegionSpec
        Integration slab.
    mesh : StructuredMesh
        Quadrature host (normally the pore-scale mesh, whose inactive
        elements are excluded).
    n_gauss : int
        Gauss points per direction.
    align_mean : bool
        Subtract each field's weighted mean over the region first; use
        for fields defined only up to a constant.

    Returns
    -------
    float
        ``sqrt(int_region |a - b|^2)`` over the active area.
    """
    points, weights = region_quadrature(mesh, region, n_gauss)
    va = np.asarray(_as_point_fn(field_a)(points), dtype=float)
    vb = np.asarray(_as_point_fn(field_b)(points), dtype=float)
    if va.shape != vb.shape:
        raise ValueError("fields disagree on value shape")
    if align_mean:
        area = weights.sum()
        if va.ndim == 1:
            va = va - (weights @ va) / area
            vb = vb - (weights @ vb) / area
        else:
            va = va - (weights @ va)[None, :] / area
            vb = vb - (weights @ vb)[None, :] / area
    diff = va - vb
    if diff.ndim == 1:
        sq = diff**2
    else:
        sq = np.sum(diff**2, axis=1)
    return float(np.sqrt(weights @ sq))


def l2_norm(field_a, region: RegionSpec, mesh: StructuredMesh) -> float:
    """L2 norm of one field over a region (for relative errors), with the
    default Gauss rule of :func:`region_quadrature`."""
    points, weights = region_quadrature(mesh, region)
    v = np.asarray(_as_point_fn(field_a)(points), dtype=float)
    sq = v**2 if v.ndim == 1 else np.sum(v**2, axis=1)
    return float(np.sqrt(weights @ sq))


class ReconstructedVelocity:
    """Pore-scale velocity rebuilt from a macroscale field.

    At a point ``x`` in the porous band the reconstruction evaluates
    the macroscale velocity ``u(x)``, maps ``x`` into the unit cell of
    its period tile and modulates: ``u_rec_i = sum_j w_j_i(cell(x)) *
    (C u(x))_j`` with the unit-cell velocities ``w_j``.  ``C`` is the
    inverse dimensionless permeability, so the cell average of the
    reconstruction equals the macroscale velocity for locally constant
    fields.

    Parameters
    ----------
    macro_velocity : evaluable
        Macroscale (porous) velocity field.
    cell : CellSolution
        Solved unit-cell problems.
    ell : float
        Period.
    origin : tuple
        Physical point mapped to the unit-cell origin (a band corner).
    """

    def __init__(self, macro_velocity, cell, ell, origin):
        self._macro = _as_point_fn(macro_velocity)
        self._w = [PeriodicCellField(v, ell, origin) for v in cell.velocities]
        self._coef = np.linalg.inv(cell.k_hat)

    def eval(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        u = np.asarray(self._macro(points), dtype=float)
        c = u @ self._coef.T
        w1 = self._w[0].eval(points)
        w2 = self._w[1].eval(points)
        return c[:, :1] * w1 + c[:, 1:2] * w2


def reconstruct_porous_velocity(
    macro_velocity,
    cell: CellSolution,
    ell: float,
    band,
) -> ReconstructedVelocity:
    """Modulate a macroscale porous velocity with unit-cell solutions.

    Parameters
    ----------
    macro_velocity : evaluable
        Macroscale (porous) velocity field.
    cell : CellSolution
        Unit-cell solution providing the modulation fields and the
        permeability used for normalization.
    ell : float
        Period.
    band : RectDomain
        Porous band; its extents must be integer multiples of ``ell``.

    Returns
    -------
    ReconstructedVelocity

    Raises
    ------
    ValueError
        If the band is not tileable by the period.
    """
    for extent, name in ((band.width, "width"), (band.height, "height")):
        ratio = extent / ell
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"band {name} {extent} is not a multiple of {ell}")
    return ReconstructedVelocity(macro_velocity, cell, ell, (band.x0, band.y0))


# ----------------------------------------------------------------------
# Error reports and studies
# ----------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Error norms of one coupled solve against one pore-scale solve.

    Attributes
    ----------
    preset_id : int
        Scenario number.
    configuration : str
        Microstructure label.
    ell : float
        Period.
    errors : dict
        Absolute L2 errors keyed ``u_fluid``, ``p_fluid``, ``u_porous``,
        ``p_porous``, ``u_porous_deep``, ``p_porous_deep``.
    norms : dict
        Matching reference norms (same keys) for relative readings.
    iterations : int
        Interface-solver iterations of the coupled run.
    """

    preset_id: int
    configuration: str
    ell: float
    errors: dict
    norms: dict
    iterations: int = 0

    def relative(self, key: str) -> float:
        return self.errors[key] / self.norms[key]


def compare_solutions(
    composite,
    dns: DnsSolution,
    cell: CellSolution,
    delta: float,
    ell: float,
    preset: TestCasePreset,
    configuration: str = "",
    iterations: int = 0,
) -> ErrorReport:
    """Measure a coupled solution against a pore-scale reference.

    Velocity errors in the porous regions use the cell-modulated
    reconstruction of the macroscale porous velocity; the free-flow
    region compares velocities directly.  Pressures are compared
    directly, after mean alignment per region when the preset pins the
    pressure level only up to a constant (``preset.pin_pressure``).
    Every integral takes 3 Gauss points per direction and element.

    Parameters
    ----------
    composite : CompositeSolution
        Coupled solution.
    dns : DnsSolution
        Pore-scale reference at the same period.
    cell : CellSolution
        Unit-cell solution for the reconstruction.
    delta : float
        Layer thickness separating the regions.
    ell : float
        Period.
    preset : TestCasePreset
        Scenario (domains and pressure-pinning flag).
    configuration : str
        Microstructure label recorded in the report.
    iterations : int
        Interface iterations to record.

    Returns
    -------
    ErrorReport
    """
    regions = validation_regions(preset, delta, ell)
    mesh = dns.mesh
    align = preset.pin_pressure
    recon = reconstruct_porous_velocity(
        composite.darcy_velocity, cell, ell, preset.porous_band
    )
    errors: dict[str, float] = {}
    norms: dict[str, float] = {}

    errors["u_fluid"] = l2_error(
        composite.velocity, dns.velocity, regions["fluid"], mesh
    )
    norms["u_fluid"] = l2_norm(dns.velocity, regions["fluid"], mesh)
    errors["p_fluid"] = l2_error(
        composite.pressure, dns.pressure, regions["fluid"], mesh, align_mean=align
    )
    norms["p_fluid"] = l2_norm(dns.pressure, regions["fluid"], mesh)

    for key, region_key in (
        ("porous", "porous"),
        ("porous_deep", "porous_deep"),
    ):
        region = regions[region_key]
        errors[f"u_{key}"] = l2_error(recon, dns.velocity, region, mesh)
        norms[f"u_{key}"] = l2_norm(dns.velocity, region, mesh)
        errors[f"p_{key}"] = l2_error(
            composite.pressure, dns.pressure, region, mesh, align_mean=align
        )
        norms[f"p_{key}"] = l2_norm(dns.pressure, region, mesh)

    return ErrorReport(
        preset_id=preset.identifier,
        configuration=configuration,
        ell=ell,
        errors=errors,
        norms=norms,
        iterations=iterations,
    )


def error_slopes(reports: list[ErrorReport]) -> dict[str, float]:
    """Least-squares log-log slopes of each error metric in the period.

    Parameters
    ----------
    reports : list of ErrorReport
        At least two reports at distinct periods.

    Returns
    -------
    dict
        Slope per metric key; positive means the error shrinks with
        the period.
    """
    if len(reports) < 2:
        raise ValueError("need at least two periods for slopes")
    ells = np.array([r.ell for r in reports])
    if np.unique(ells).size < 2:
        raise ValueError("periods must be distinct")
    slopes = {}
    for key in reports[0].errors:
        e = np.array([r.errors[key] for r in reports])
        if np.any(e <= 0):
            slopes[key] = float("nan")
            continue
        slopes[key] = float(np.polyfit(np.log(ells), np.log(e), 1)[0])
    return slopes


@dataclass
class StudyResult:
    """Raw error table plus fitted convergence slopes."""

    reports: list[ErrorReport]
    slopes: dict[str, float]
    cell: CellSolution = field(repr=False, default=None)


def _study_cell(
    configuration: PorousConfiguration, cell_resolution: int, say
) -> CellSolution:
    """Check that a study's microstructure is meshable; solve its cell."""
    if not configuration.meshable:
        raise ValueError(
            f"configuration {configuration.name} cannot be meshed directly"
        )
    say(f"unit cell s_hat={configuration.size_ratio}")
    return solve_cell_problem(configuration.size_ratio, resolution=cell_resolution)


def convergence_study(
    preset: TestCasePreset,
    configuration: PorousConfiguration,
    ells,
    fem_config: FemConfig = FemConfig(order=2),
    hx: float = 1.0 / 144.0,
    dns_resolution: DnsResolution = DnsResolution(order=1),
    krylov: KrylovConfig = KrylovConfig(),
    cell_resolution: int = DEFAULT_CELL_RESOLUTION,
    progress=None,
    mapper=map,
) -> StudyResult:
    """Period-refinement study of the coupled solver against references.

    For each period one pore-scale reference is solved on the
    perforated geometry and one coupled problem on the homogenized
    geometry (permeability and modulation fields from a single
    unit-cell solve, layer thickness from the porosity fit); errors are
    measured region by region and log-log slopes fitted at the end.

    Parameters
    ----------
    preset : TestCasePreset
        Scenario.
    configuration : PorousConfiguration
        Microstructure row (must be meshable).
    ells : sequence of float
        Periods, at least two distinct ones; checked before any solve.
    fem_config : FemConfig, optional
        Discretization of the coupled solve (default order 2).
    hx : float
        Horizontal spacing of the coupled solve.
    dns_resolution : DnsResolution, optional
        Pore-scale resolution (defaults to first order, ten elements
        per cell, which keeps the largest reference solvable in
        memory).
    krylov : KrylovConfig, optional
        Interface solver settings.
    cell_resolution : int
        Elements per edge of the unit-cell mesh.
    progress : callable, optional
        Called with a status string before each expensive step.
    mapper : callable
        ``map``-like function used over the periods.  The command line
        passes a map over worker processes (fork) for ``--threads >
        1``: each member then runs, and holds its meshes and
        factorizations, in its own worker, which inherits the member
        closure and the cell solution through the fork; only the
        period and the :class:`ErrorReport` are pickled.

    Returns
    -------
    StudyResult
    """
    ells = list(ells)
    if np.unique(ells).size < 2:
        raise ValueError("need at least two distinct periods")
    say = progress or (lambda msg: None)
    cell = _study_cell(configuration, cell_resolution, say)

    def run_one(ell: float) -> ErrorReport:
        lattice = preset.lattice(ell, configuration.size_ratio)
        say(f"pore-scale reference ell={ell}")
        dns = solve_dns(preset, lattice, dns_resolution)
        dns.system.release_factor()
        say(f"coupled solve ell={ell}")
        delta = delta_star(configuration.porosity, ell)
        physics = IcddPhysics(
            preset=preset,
            permeability=permeability_dimensional(cell.k_scalar(), ell),
        )
        problem = assemble_problem(
            fem_config, IcddGeometry(delta=delta, hx=hx), physics
        )
        result = icdd_solve(problem, krylov)
        say(f"errors ell={ell}")
        return compare_solutions(
            result.composite,
            dns,
            cell,
            delta,
            ell,
            preset,
            configuration.name,
            iterations=result.info["iterations"],
        )

    reports = list(mapper(run_one, ells))
    return StudyResult(reports=reports, slopes=error_slopes(reports), cell=cell)


@dataclass
class SweepResult:
    """Fluid-region velocity errors across layer thicknesses.

    Attributes
    ----------
    deltas : list of float
        Layer thicknesses tried.
    errors : list of float
        Fluid-region velocity error at each thickness (fixed region).
    delta_star : float
        Thickness predicted by the porosity fit.
    """

    deltas: list
    errors: list
    delta_star: float

    def is_interior_minimum(self) -> bool:
        """Whether the predicted thickness beats both sweep neighbors."""
        i = int(np.argmin(np.abs(np.asarray(self.deltas) - self.delta_star)))
        e = self.errors
        left = e[i] <= e[i - 1] if i > 0 else True
        right = e[i] <= e[i + 1] if i + 1 < len(e) else True
        return left and right


def delta_sweep(
    preset: TestCasePreset,
    configuration: PorousConfiguration,
    ell: float,
    factors=(0.5, 1.0, 1.5),
    fem_config: FemConfig = FemConfig(order=2),
    hx: float = 1.0 / 144.0,
    dns_resolution: DnsResolution = DnsResolution(order=1),
    krylov: KrylovConfig = KrylovConfig(),
    cell_resolution: int = DEFAULT_CELL_RESOLUTION,
    progress=None,
    mapper=map,
) -> SweepResult:
    """Sweep the layer thickness and measure the fluid-region error.

    One pore-scale reference is solved once; the coupled problem is
    re-solved with the lower interface at each multiple of the
    predicted thickness.  The error region is fixed at the predicted
    thickness for every run so the sweep compares like with like.

    Parameters
    ----------
    preset, configuration, fem_config, hx, dns_resolution, krylov,
    cell_resolution, progress
        As in :func:`convergence_study`.
    mapper : callable
        ``map``-like function used over the factors, as in
        :func:`convergence_study`; forked workers share the reference
        solution copy-on-write, and only each factor and its error are
        pickled.
    ell : float
        Period.
    factors : sequence of float
        Multiples of the predicted thickness to try (must include 1).

    Returns
    -------
    SweepResult
    """
    if not any(abs(f - 1.0) < 1e-12 for f in factors):
        raise ValueError("factors must include 1.0")
    say = progress or (lambda msg: None)
    cell = _study_cell(configuration, cell_resolution, say)
    dstar = delta_star(configuration.porosity, ell)
    lattice = preset.lattice(ell, configuration.size_ratio)
    say(f"pore-scale reference ell={ell}")
    dns = solve_dns(preset, lattice, dns_resolution)
    dns.system.release_factor()
    region = RegionSpec("fluid", -dstar, preset.domain.y1)
    physics = IcddPhysics(
        preset=preset,
        permeability=permeability_dimensional(cell.k_scalar(), ell),
    )

    def run_one(factor: float) -> float:
        delta = factor * dstar
        say(f"coupled solve delta={delta:.4e}")
        problem = assemble_problem(
            fem_config, IcddGeometry(delta=delta, hx=hx), physics
        )
        result = icdd_solve(problem, krylov)
        return l2_error(result.composite.velocity, dns.velocity, region, dns.mesh)

    errors = list(mapper(run_one, factors))
    deltas = [f * dstar for f in factors]
    return SweepResult(deltas=deltas, errors=errors, delta_star=dstar)
