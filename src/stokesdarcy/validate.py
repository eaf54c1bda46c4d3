"""Validation of the coupled solver against pore-scale references.

Errors between a homogenized coupled solution and a pore-scale
reference are measured in three horizontal slabs of the domain: the
restricted free-flow region above the lower interface, the porous
region below it, and the porous region more than one period below the
obstacle-top line (away from the transition layer).  All integrals run
over the fluid part of the pore-scale mesh, so obstacle interiors never
contribute.  Each region gets one Gauss rule, 3 points per direction on
every pore-scale element it covers, and each field is evaluated once
on it: the pore-scale fields straight from their own elements, every
other field after one point location on its own mesh.

In the porous slabs the macroscale velocity is not compared directly:
it is first turned back into a pore-scale field by modulating it with
the periodically repeated unit-cell velocities, scaled by the inverse
effective permeability so the modulation preserves cell averages.

The module also provides the period-refinement convergence study and
the overlap-thickness sweep built on these metrics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dns import DnsResolution, DnsSolution, solve_dns
from .fem import eval_fields, eval_located
from .homogenize import (
    DEFAULT_CELL_RESOLUTION,
    CellSolution,
    delta_star,
    permeability_dimensional,
    solve_cell_problem,
)
from .icdd import (
    DEFAULT_HX,
    IcddResult,
    assemble_problem,
    icdd_solve,
    subdomain_meshes,
)
from .io import format_value
from .linalg import KrylovConfig
from .mesh import ObstacleLattice, StructuredMesh
from .presets import POROUS_DEPTH, PorousConfiguration, TestCasePreset

_log = logging.getLogger(__name__)

#: Kinds of slab where errors are measured: ``fluid`` spans (-delta*,
#: top), ``porous`` spans (-depth, -delta*) and ``porous_deep`` spans
#: (-depth, -period).
REGION_KINDS = ("fluid", "porous", "porous_deep")


@dataclass(frozen=True)
class RegionSpec:
    """Horizontal slab over which an error norm is taken.

    Parameters
    ----------
    kind : str
        Region label, one of :data:`REGION_KINDS`.
    y0, y1 : float
        Vertical extent, ``y0 < y1``; the slab spans the mesh's width.
    """

    kind: str
    y0: float
    y1: float

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(
                f"unknown region kind {self.kind!r}; use one of {REGION_KINDS}"
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

    Every active element is clipped to the region's vertical extent;
    elements reduced to zero height drop out.  Points of sub-clipped
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
    points, weights, _, _ = _region_rule(mesh, region, n_gauss)
    return points, weights


def _region_rule(mesh: StructuredMesh, region: RegionSpec, n_gauss: int = 3):
    """Gauss rule of :func:`region_quadrature`, element by element.

    Returns
    -------
    (points, weights, elems, ref)
        ``points`` and ``weights`` as :func:`region_quadrature` returns
        them, grouped by host element; ``elems`` holds the ``m`` host
        elements and ``ref`` the reference coordinates of each element's
        ``k = n_gauss**2`` points, shape ``(m, k, 2)``.
    """
    elems = np.flatnonzero(mesh.active)
    ex = elems % mesh.nex
    ey = elems // mesh.nex
    y_lo = mesh.ys[ey]
    y_hi = mesh.ys[ey + 1]
    y_lo = np.maximum(y_lo, region.y0)
    y_hi = np.minimum(y_hi, region.y1)
    h = y_hi - y_lo
    keep = h > 1e-14
    elems, ex, ey = elems[keep], ex[keep], ey[keep]
    y_lo, h, w = y_lo[keep], h[keep], mesh.hx[ex]
    if elems.size == 0:
        raise ValueError(f"region {region.kind!r} misses the active mesh")
    pts, wts = np.polynomial.legendre.leggauss(n_gauss)
    PX, PY = np.meshgrid(pts, pts, indexing="ij")
    WX, WY = np.meshgrid(wts, wts, indexing="ij")
    tx = 0.5 * (PX.ravel() + 1.0)[None, :]
    ty = 0.5 * (PY.ravel() + 1.0)[None, :]
    px = mesh.xs[ex][:, None] + tx * w[:, None]
    py = y_lo[:, None] + ty * h[:, None]
    ww = 0.25 * (w * h)[:, None] * (WX * WY).ravel()[None, :]
    # Offset of the clipped box inside its element: reference
    # coordinates without point location, also in clipped elements.
    dy = (y_lo - mesh.ys[ey])[:, None]
    xi = 2.0 * (tx * w[:, None]) / mesh.hx[ex][:, None] - 1.0
    eta = 2.0 * (dy + ty * h[:, None]) / mesh.hy[ey][:, None] - 1.0
    points = np.column_stack([px.ravel(), py.ravel()])
    return points, ww.ravel(), elems, np.stack([xi, eta], axis=-1)


def _weighted_l2(weights, va, vb, align_mean: bool = False) -> float:
    """``sqrt(sum_q w_q |va_q - vb_q|^2)`` over a rule's values, after
    subtracting each field's weighted mean if ``align_mean``."""
    if va.shape != vb.shape:
        raise ValueError("fields disagree on value shape")
    if align_mean:
        area = weights.sum()
        va = va - (weights @ va) / area
        vb = vb - (weights @ vb) / area
    diff = va - vb
    sq = diff**2 if diff.ndim == 1 else np.sum(diff**2, axis=1)
    return float(np.sqrt(weights @ sq))


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
    return _weighted_l2(weights, va, vb, align_mean)


def l2_norm(field_a, region: RegionSpec, mesh: StructuredMesh) -> float:
    """L2 norm of one field over a region (for relative errors), with the
    default Gauss rule of :func:`region_quadrature`."""
    points, weights = region_quadrature(mesh, region)
    v = np.asarray(_as_point_fn(field_a)(points), dtype=float)
    return _weighted_l2(weights, v, np.zeros_like(v))


class ReconstructedVelocity:
    """Pore-scale velocity rebuilt from a macroscale field.

    At a point ``x`` in the porous band, given the macroscale velocity
    ``u(x)``, the reconstruction maps ``x`` into the unit cell of its
    period tile and modulates: ``u_rec_i = sum_j w_j_i(cell(x)) * (C
    u(x))_j`` with the unit-cell velocities ``w_j``.  ``C`` is the
    inverse dimensionless permeability, so the cell average of the
    reconstruction equals the macroscale velocity for locally constant
    fields.

    Parameters
    ----------
    cell : CellSolution
        Solved unit-cell problems.
    lattice : ObstacleLattice
        Obstacle lattice of the porous band: its period, and its band's
        lower-left corner as the unit-cell origin.
    """

    def __init__(self, cell: CellSolution, lattice: ObstacleLattice):
        self._w = cell.velocities
        self._ell = lattice.period
        self._origin = np.array([lattice.band.x0, lattice.band.y0])
        self._coef = np.linalg.inv(cell.k_hat)

    def modulate(self, points, macro: np.ndarray) -> np.ndarray:
        """Reconstruction at points, shape ``(n, 2)``, where the
        macroscale velocity is already evaluated (``macro``, shape ``(n,
        2)``).  Both ``w_j`` live on one cell mesh, which is located
        once."""
        local = (np.asarray(points, dtype=float) - self._origin) / self._ell
        local -= np.floor(local)
        c = macro @ self._coef.T
        w1, w2 = eval_fields(self._w, local)
        return c[:, :1] * w1 + c[:, 1:2] * w2


# ----------------------------------------------------------------------
# Error reports and studies
# ----------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Error norms of one coupled solve against one pore-scale solve.

    Attributes
    ----------
    configuration : str
        Microstructure label.
    ell : float
        Period.
    errors : dict
        Absolute L2 errors keyed ``u_fluid``, ``p_fluid``, ``u_porous``,
        ``p_porous``, ``u_porous_deep``, ``p_porous_deep``.
    norms : dict
        Matching reference norms (same keys) for relative readings.
    health : dict
        The pore-scale reference's factor as ``dns_factor``
        (:attr:`~stokesdarcy.dns.DnsSolution.factor_health`) and the
        coupled run's :meth:`~stokesdarcy.icdd.IcddResult.health`;
        empty unless the study sets it.
    """

    configuration: str
    ell: float
    errors: dict
    norms: dict
    health: dict = field(default_factory=dict)

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
) -> ErrorReport:
    """Measure a coupled solution against a pore-scale reference.

    Velocity errors in the porous regions use the cell-modulated
    reconstruction of the macroscale porous velocity; the free-flow
    region compares velocities directly.  Pressures are compared
    directly, after mean alignment per region when the preset pins the
    pressure level only up to a constant (``preset.pin_pressure``).
    Each region takes one rule of 3 Gauss points per direction and
    element, every field is evaluated once on it, and the region's
    errors and norms all come from those values.

    Parameters
    ----------
    composite : CompositeSolution
        Coupled solution.
    dns : DnsSolution
        Pore-scale reference at the same period; only its ``mesh``,
        ``velocity`` and ``pressure`` are read.
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

    Returns
    -------
    ErrorReport
        With an empty ``health``, which the studies fill in.
    """
    recon = ReconstructedVelocity(cell, preset.lattice(ell, cell.s_hat))
    errors: dict[str, float] = {}
    norms: dict[str, float] = {}
    for name, region in validation_regions(preset, delta, ell).items():
        points, w, elems, ref = _region_rule(dns.mesh, region)
        u_ref, p_ref = eval_located([dns.velocity, dns.pressure], elems, ref)
        porous = name != "fluid"
        u, p = composite.evaluate(points, porous_velocity=porous)
        if porous:
            u = recon.modulate(points, u)
        errors[f"u_{name}"] = _weighted_l2(w, u, u_ref)
        norms[f"u_{name}"] = _weighted_l2(w, u_ref, np.zeros_like(u_ref))
        errors[f"p_{name}"] = _weighted_l2(w, p, p_ref, preset.pin_pressure)
        norms[f"p_{name}"] = _weighted_l2(w, p_ref, np.zeros_like(p_ref))

    return ErrorReport(
        configuration=configuration, ell=ell, errors=errors, norms=norms
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


def _reject_repeats(values: list, what: str) -> None:
    """Raise if two member values print alike in the output tables."""
    printed = [format_value(value) for value in values]
    for i, value in enumerate(values):
        if printed[i] in printed[:i]:
            raise ValueError(
                f"{what} {value:g} is given twice; each {what} is one study member"
            )


def _study_cell(
    preset: TestCasePreset,
    configuration: PorousConfiguration,
    members,
    order: int,
    hx: float,
    dns_resolution: DnsResolution,
    cell_resolution: int,
) -> CellSolution:
    """Check every member of a study, then solve the study's unit cell.

    ``members`` yields each member's period and layer thickness.  Its
    obstacle lattice must tile the band and align with the pore-scale
    mesh, and its coupled subdomains of order ``order`` must pass
    :func:`~stokesdarcy.icdd.subdomain_meshes`, so that a bad member
    stops the study before any solve.  The cell solve is logged.
    """
    if not configuration.meshable:
        raise ValueError(
            f"configuration {configuration.name} cannot be meshed directly"
        )
    for ell, delta in members:
        lattice = preset.lattice(ell, configuration.size_ratio)
        lattice.edge_offsets(dns_resolution.n_per_cell)
        subdomain_meshes(order, delta, hx, preset)
    _log.info("unit cell s_hat=%s", configuration.size_ratio)
    return solve_cell_problem(configuration.size_ratio, resolution=cell_resolution)


def _coupled_solve(preset, cell, ell, delta, order, hx, krylov) -> IcddResult:
    """Assemble and solve one member's coupled problem.

    The subdomain systems, with their matrices and factors, live only
    inside this call; the result holds meshes, fields and vectors.
    """
    k = permeability_dimensional(cell.k_scalar(), ell)
    problem = assemble_problem(order, delta, hx, preset, k)
    return icdd_solve(problem, krylov)


def convergence_study(
    preset: TestCasePreset,
    configuration: PorousConfiguration,
    ells,
    order: int = 2,
    hx: float = DEFAULT_HX,
    dns_resolution: DnsResolution = DnsResolution(order=1),
    krylov: KrylovConfig = KrylovConfig(),
    cell_resolution: int = DEFAULT_CELL_RESOLUTION,
    mapper=map,
) -> StudyResult:
    """Period-refinement study of the coupled solver against references.

    For each period one pore-scale reference is solved on the
    perforated geometry and one coupled problem on the homogenized
    geometry (permeability and modulation fields from a single
    unit-cell solve, layer thickness from the porosity fit); errors are
    measured region by region and log-log slopes fitted at the end.
    Every member is checked before the cell solve.  Each solve's
    matrices and factors are freed when it returns, before any error
    is computed.  Each expensive step is first logged as an INFO record
    of the ``stokesdarcy.validate`` logger.

    Parameters
    ----------
    preset : TestCasePreset
        Scenario.
    configuration : PorousConfiguration
        Microstructure row (must be meshable).
    ells : sequence of float
        Periods, at least two and none repeated; checked before any
        solve.
    order : int
        Polynomial order (1 or 2) of the coupled solve; checked with
        the members, before the cell solve.
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
    mapper : callable
        ``map``-like function used over the periods and their layer
        thicknesses, finest period first (the costliest member starts
        first); the reports keep the order of ``ells``.  The command
        line passes a map over worker processes (fork) for ``--threads
        > 1``: each member then runs, and holds its meshes and
        factorizations, in its own worker, which inherits the member
        closure and the cell solution through the fork; only the
        period, its thickness and the :class:`ErrorReport` are pickled.

    Returns
    -------
    StudyResult
    """
    ells = list(ells)
    if np.unique(ells).size < 2:
        raise ValueError("need at least two distinct periods")
    _reject_repeats(ells, "period")
    deltas = [delta_star(configuration.porosity, ell) for ell in ells]
    members = zip(ells, deltas)
    cell = _study_cell(
        preset, configuration, members, order, hx,
        dns_resolution, cell_resolution,
    )

    def run_one(ell: float, delta: float) -> ErrorReport:
        lattice = preset.lattice(ell, configuration.size_ratio)
        _log.info("pore-scale reference ell=%s", ell)
        dns = solve_dns(preset, lattice, dns_resolution)
        _log.info("coupled solve ell=%s", ell)
        result = _coupled_solve(preset, cell, ell, delta, order, hx, krylov)
        _log.info("errors ell=%s", ell)
        report = compare_solutions(
            result.composite, dns, cell, delta, ell, preset, configuration.name
        )
        report.health = {"dns_factor": dns.factor_health, **result.health()}
        return report

    # Finest period, the costliest member, first (largest-first
    # scheduling); the reports come back in config order.
    schedule = sorted(range(len(ells)), key=ells.__getitem__)
    done = mapper(run_one, [ells[i] for i in schedule], [deltas[i] for i in schedule])
    reports = [report for _, report in sorted(zip(schedule, done))]
    return StudyResult(reports=reports, slopes=error_slopes(reports), cell=cell)


#: Multiples of the predicted layer thickness that a sweep tries unless
#: it is given others.
DEFAULT_FACTORS = (0.5, 1.0, 1.5)


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
    health : list of dict
        :meth:`~stokesdarcy.icdd.IcddResult.health` of the coupled
        solve at each thickness.
    dns_factor_health : dict
        :attr:`~stokesdarcy.dns.DnsSolution.factor_health` of the one
        pore-scale reference.
    cell : CellSolution
        Unit-cell solution behind the permeability.
    """

    deltas: list
    errors: list
    delta_star: float
    health: list = field(default_factory=list)
    dns_factor_health: dict = field(default_factory=dict)
    cell: CellSolution = field(repr=False, default=None)

    def is_interior_minimum(self) -> bool:
        """Whether the predicted thickness beats both of its neighbors
        in thickness order, whatever order the sweep lists them in."""
        deltas, e = zip(*sorted(zip(self.deltas, self.errors)))
        i = int(np.argmin(np.abs(np.asarray(deltas) - self.delta_star)))
        left = e[i] <= e[i - 1] if i > 0 else True
        right = e[i] <= e[i + 1] if i + 1 < len(e) else True
        return left and right


def delta_sweep(
    preset: TestCasePreset,
    configuration: PorousConfiguration,
    ell: float,
    factors=DEFAULT_FACTORS,
    order: int = 2,
    hx: float = DEFAULT_HX,
    dns_resolution: DnsResolution = DnsResolution(order=1),
    krylov: KrylovConfig = KrylovConfig(),
    cell_resolution: int = DEFAULT_CELL_RESOLUTION,
    mapper=map,
) -> SweepResult:
    """Sweep the layer thickness and measure the fluid-region error.

    One pore-scale reference is solved once; the coupled problem is
    re-solved with the lower interface at each multiple of the
    predicted thickness.  The error region is fixed at the predicted
    thickness for every run so the sweep compares like with like.
    Every thickness is checked before the cell solve, and each solve is
    logged as in :func:`convergence_study`.

    Parameters
    ----------
    preset, configuration, order, hx, dns_resolution, krylov,
    cell_resolution
        As in :func:`convergence_study`.
    mapper : callable
        ``map``-like function used over the factors, as in
        :func:`convergence_study`.  The error region's quadrature rule
        and the reference velocity on it are computed once, before the
        map; forked workers share them copy-on-write, and only each
        thickness, its error and its solvers' health are pickled.
    ell : float
        Period.
    factors : sequence of float
        Multiples of the predicted thickness to try (must include 1,
        none repeated).

    Returns
    -------
    SweepResult
    """
    factors = list(factors)
    if not any(abs(f - 1.0) < 1e-12 for f in factors):
        raise ValueError("factors must include 1.0")
    _reject_repeats(factors, "factor")
    dstar = delta_star(configuration.porosity, ell)
    deltas = [f * dstar for f in factors]
    members = [(ell, delta) for delta in deltas]
    cell = _study_cell(
        preset, configuration, members, order, hx,
        dns_resolution, cell_resolution,
    )
    lattice = preset.lattice(ell, configuration.size_ratio)
    _log.info("pore-scale reference ell=%s", ell)
    dns = solve_dns(preset, lattice, dns_resolution)
    region = RegionSpec("fluid", -dstar, preset.domain.y1)
    points, weights, elems, ref = _region_rule(dns.mesh, region)
    (u_ref,) = eval_located([dns.velocity], elems, ref)

    def run_one(delta: float) -> tuple[float, dict]:
        _log.info("coupled solve delta=%.4e", delta)
        result = _coupled_solve(preset, cell, ell, delta, order, hx, krylov)
        u, _ = result.composite.evaluate(points)
        error = _weighted_l2(weights, u, u_ref)
        return error, result.health()

    errors, health = zip(*mapper(run_one, deltas))
    return SweepResult(
        deltas=deltas,
        errors=list(errors),
        delta_star=dstar,
        health=list(health),
        dns_factor_health=dns.factor_health,
        cell=cell,
    )
