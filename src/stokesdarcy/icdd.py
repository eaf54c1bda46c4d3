"""Overlapping two-domain coupling of free flow and porous flow.

The free-flow (Stokes) subdomain occupies the channel above ``y =
-delta`` and the porous (Darcy) subdomain the band below ``y = 0``, so
the two overlap in the layer ``(-delta, 0)``.  Two control vectors
close the system: an essential velocity datum for the free-flow problem
on its bottom boundary and an essential pressure datum for the porous
problem on its top boundary.  At the solution the free-flow velocity
matches the porous velocity on the lower interface and the porous
pressure matches the free-flow pressure on the upper interface.

Eliminating both subdomain solves leaves a dense interface operator
``S = I - (R A^{-1} A_G)^2`` acting on the stacked controls, where
``A`` collects the subdomain operators, ``A_G`` the control couplings
and ``R`` the cross-domain trace maps.  ``S`` is applied matrix-free by
two primal and two auxiliary subdomain solves per application and the
interface system is solved with BiCGStab.  A sparse monolithic solve of
the equivalent fixed-point system provides an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (
    KIND_INTERIOR,
    SaddleSystem,
    assemble_darcy,
    assemble_stokes,
    classify_dofs,
    eval_fields,
    nodal_table,
)
from .linalg import KrylovConfig, bicgstab
from .mesh import StructuredMesh, overlap_line_set
from .presets import POROUS_DEPTH, TestCasePreset


#: Horizontal spacing of a coupled solve unless a run sets one.
DEFAULT_HX = 1.0 / 144.0


def _trace(own: SaddleSystem, other: SaddleSystem, y: float) -> np.ndarray:
    """Dofs of ``other`` under the controls of ``own``, whose interface
    lies at height ``y``: the same fields, at every control node's
    column on the line ``y`` of ``other``'s mesh."""
    line = other.mesh.line_index(y) * other.mesh.nnx
    nodes = line + own.interface_nodes % own.mesh.nnx
    fields = np.unique(own.interface_dofs // own.n_nodes)
    return (nodes[:, None] + fields * other.n_nodes).ravel()


class IcddProblem:
    """Assembled subdomain systems plus interface bookkeeping.

    Attributes
    ----------
    stokes, darcy : SaddleSystem
        Subdomain systems with interface controls on the free-flow
        bottom (velocity) and the porous top (pressure).
    trace_velocity : ndarray of int
        Indices into the porous solution vector returning the porous
        velocity at the free-flow control nodes, interleaved per node.
    trace_pressure : ndarray of int
        Indices into the free-flow solution vector returning its
        pressure at the porous control nodes.
    delta : float
        Overlap thickness; the free-flow controls lie on ``y = -delta``.
    """

    def __init__(self, stokes: SaddleSystem, darcy: SaddleSystem, delta: float):
        self.stokes = stokes
        self.darcy = darcy
        self.delta = delta
        self.n_gf = stokes.n_interface
        self.n_gp = darcy.n_interface
        self.n_g = self.n_gf + self.n_gp
        self.trace_velocity = _trace(stokes, darcy, -delta)
        self.trace_pressure = _trace(darcy, stokes, 0.0)

    # -- control vector helpers ------------------------------------------

    def split(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return g[: self.n_gf], g[self.n_gf :]

    def traces(self, x_f: np.ndarray, x_p: np.ndarray) -> np.ndarray:
        """Stacked cross-domain traces of two subdomain solutions."""
        return np.concatenate(
            [x_p[self.trace_velocity], x_f[self.trace_pressure]]
        )


def subdomain_meshes(
    order: int, delta: float, hx: float, preset: TestCasePreset
) -> tuple[StructuredMesh, StructuredMesh]:
    """Free-flow and porous meshes of order ``order``, checked before
    anything is assembled.

    Both meshes share one set of vertical lines over the full channel
    (sliced at ``-delta`` and at ``0``) and identical horizontal lines,
    so every cross-domain trace is a plain nodal gather.  Spacing:
    ``hx`` along ``x``; along ``y``, at most ``min(hx, delta / 2)`` in
    and next to the overlap, grading to ``4 hx`` away from it.

    Raises
    ------
    ValueError
        If ``delta`` is not positive or reaches the band bottom, if
        ``hx`` is not positive (the one check of both, made before any
        solve), or if a subdomain has no interior or no interface
        unknowns (a mesh too coarse for the overlap).
    """
    if delta <= 0:
        raise ValueError("overlap thickness must be positive")
    if delta >= POROUS_DEPTH:
        raise ValueError("overlap must stay inside the porous band")
    if hx <= 0:
        raise ValueError(f"hx must be positive, got {hx}")
    dom = preset.domain
    ys = overlap_line_set(
        -POROUS_DEPTH, dom.y1, delta, min(hx, delta / 2.0), 4.0 * hx
    )
    nx = max(1, round(dom.width / hx))
    xs = np.linspace(dom.x0, dom.x1, nx + 1)
    i_delta = int(np.argmin(np.abs(ys + delta)))
    i_zero = int(np.argmin(np.abs(ys)))
    stokes_mesh = StructuredMesh(xs, ys[i_delta:], order=order)
    darcy_mesh = StructuredMesh(xs, ys[: i_zero + 1], order=order)
    for name, mesh, bc, side, field in (
        ("free-flow", stokes_mesh, preset.stokes_bc(), "bottom", "velocity"),
        ("porous", darcy_mesh, preset.darcy_bc(), "top", "pressure"),
    ):
        kind, _, iface_dofs, _ = classify_dofs(
            mesh, bc, side, field, 3 * mesh.n_nodes
        )
        counts = (np.count_nonzero(kind == KIND_INTERIOR), iface_dofs.size)
        if min(counts) == 0:
            raise ValueError(
                f"hx = {hx:g} and delta = {delta:g} leave the {name} "
                f"subdomain with {counts[0]} interior and {counts[1]} "
                "interface unknowns; each subdomain needs at least one of "
                "each, so use a smaller hx"
            )
    return stokes_mesh, darcy_mesh


def assemble_problem(
    order: int,
    delta: float,
    hx: float,
    preset: TestCasePreset,
    permeability: float,
) -> IcddProblem:
    """Mesh (:func:`subdomain_meshes`) and assemble both subdomains of
    the coupled problem, with velocity controls on the free-flow bottom
    and pressure controls on the porous top.

    Parameters
    ----------
    order : int
        Polynomial order (1 or 2) of both subdomain meshes, and so of
        both discretizations.
    delta : float
        Overlap thickness; the free-flow subdomain ends at ``-delta``.
    hx : float
        Horizontal element size of both subdomains (see
        :func:`subdomain_meshes` for the vertical spacing).
    preset : TestCasePreset
        Driving scenario (domain, boundary data, force, viscosity).
    permeability : float
        Dimensional permeability of the porous subdomain; it must be
        positive.

    Returns
    -------
    IcddProblem
    """
    stokes_mesh, darcy_mesh = subdomain_meshes(order, delta, hx, preset)
    stokes = assemble_stokes(
        stokes_mesh,
        mu=preset.mu,
        f=preset.force,
        bc=preset.stokes_bc(),
        interface="bottom",
        null_mean_pressure=preset.pin_pressure,
    )
    darcy = assemble_darcy(
        darcy_mesh,
        mu=preset.mu,
        permeability=permeability,
        f=preset.force,
        bc=preset.darcy_bc(),
        interface="top",
    )
    return IcddProblem(stokes, darcy, delta)


# ----------------------------------------------------------------------
# Interface operator
# ----------------------------------------------------------------------


def _homogeneous_solves(
    problem: IcddProblem, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Free-flow and porous solutions driven only by the stacked
    controls ``g`` (all other data zero)."""
    g_f, g_p = problem.split(g)
    return (
        problem.stokes.solve(g=g_f, include_data=False),
        problem.darcy.solve(g=g_p, include_data=False),
    )


def schur_rhs(problem: IcddProblem) -> np.ndarray:
    """Right-hand side of the interface system.

    Solves both subdomains with the physical data and zero controls,
    takes the cross-domain traces ``c``, then solves both subdomains
    again driven only by ``c`` as control data; the right-hand side is
    ``c`` plus the traces of the second pair of solves.
    """
    c = problem.traces(problem.stokes.solve(), problem.darcy.solve())
    return c + problem.traces(*_homogeneous_solves(problem, c))


def schur_apply(problem: IcddProblem, g: np.ndarray) -> np.ndarray:
    """Apply the interface operator to a stacked control vector.

    One application solves both subdomains with the controls as only
    data, forms the interface mismatch ``lambda = g - traces``, solves
    both subdomains again driven by the mismatch and adds those traces.
    """
    g = np.asarray(g, dtype=float)
    lam = g - problem.traces(*_homogeneous_solves(problem, g))
    return lam + problem.traces(*_homogeneous_solves(problem, lam))


def schur_solve(
    problem: IcddProblem, krylov: KrylovConfig = KrylovConfig()
) -> tuple[np.ndarray, dict]:
    """Solve the interface system with BiCGStab.

    Returns
    -------
    (g, info)
        Converged stacked controls and the Krylov diagnostics.

    Raises
    ------
    RuntimeError
        If the Krylov solver reports failure.
    """
    b = schur_rhs(problem)
    g, info = bicgstab(lambda v: schur_apply(problem, v), b, krylov)
    if not info["converged"]:
        raise RuntimeError(
            f"interface solver failed: {info['reason']} after "
            f"{info['iterations']} iterations"
        )
    return g, info


# ----------------------------------------------------------------------
# Solutions
# ----------------------------------------------------------------------


class CompositeSolution:
    """Two-field solution stitched over the full domain.

    The free-flow fields win on the closed overlap (``y >= -delta``);
    the porous fields describe the rest of the band.  Of the subdomain
    systems it keeps only their meshes, through the fields.

    Parameters
    ----------
    stokes, darcy : SaddleSystem
        Subdomain systems.
    x_stokes, x_darcy : ndarray
        Full subdomain solution vectors.
    delta : float
        Overlap thickness.
    """

    def __init__(self, stokes, x_stokes, darcy, x_darcy, delta):
        self.x_stokes = x_stokes
        self.x_darcy = x_darcy
        self.delta = delta
        self.stokes_velocity = stokes.velocity(x_stokes)
        self.stokes_pressure = stokes.pressure(x_stokes)
        self.darcy_velocity = darcy.velocity(x_darcy)
        self.darcy_pressure = darcy.pressure(x_darcy)

    def evaluate(self, points, porous_velocity: bool = False):
        """Velocity and pressure at points, locating each subdomain mesh
        at most once for both fields.

        Parameters
        ----------
        points : ndarray
            Coordinates, shape ``(n, 2)``.
        porous_velocity : bool
            Return the porous velocity at every point instead of the
            composite one (the points must then lie in the porous mesh).

        Returns
        -------
        (velocity, pressure)
            Shapes ``(n, 2)`` and ``(n,)``.
        """
        points = np.asarray(points, dtype=float)
        in_stokes = points[:, 1] >= -self.delta
        velocity = np.empty((points.shape[0], 2))
        pressure = np.empty(points.shape[0])
        if np.any(in_stokes):
            u, p = eval_fields(
                [self.stokes_velocity, self.stokes_pressure], points[in_stokes]
            )
            velocity[in_stokes] = u
            pressure[in_stokes] = p
        in_darcy = np.ones_like(in_stokes) if porous_velocity else ~in_stokes
        if np.any(in_darcy):
            u, p = eval_fields(
                [self.darcy_velocity, self.darcy_pressure], points[in_darcy]
            )
            velocity[in_darcy] = u
            pressure[~in_stokes] = p[~in_stokes[in_darcy]]
        return velocity, pressure

    def sample_rows(self) -> dict:
        """Nodal samples for tabular export.

        Returns
        -------
        dict
            Columns ``x, y, u1, u2, p, domain`` over the free-flow
            nodes and the porous nodes strictly below the overlap,
            sorted by y then x.
        """
        smesh, dmesh = self.stokes_velocity.mesh, self.darcy_velocity.mesh
        below = np.flatnonzero(dmesh.node_coords[:, 1] < -self.delta - 1e-12)
        return nodal_table(
            [
                (smesh, self.x_stokes, np.arange(smesh.n_nodes), "stokes"),
                (dmesh, self.x_darcy, below, "darcy"),
            ]
        )


@dataclass
class IcddResult:
    """Outcome of one coupled solve.

    Attributes
    ----------
    composite : CompositeSolution
        Stitched two-field solution.
    info : dict
        Diagnostics of the solve.  From :func:`icdd_solve`, BiCGStab's
        (iterations, residual history, status, breakdowns), with
        ``true_residual`` the relative residual of the interface system
        at the returned controls; from :func:`monolithic_solve`,
        ``iterations`` 0 and ``true_residual`` the relative residual of
        the stacked direct system.
    matching_velocity : float
        Relative interface mismatch between the free-flow velocity and
        the porous velocity on the lower interface.
    matching_pressure : float
        Relative interface mismatch between the porous pressure and the
        free-flow pressure on the upper interface.
    dual_velocity : float
        Norm of the auxiliary free-flow solution driven by the velocity
        mismatch, relative to the primal free-flow solution; vanishes at
        exact interface convergence.
    dual_pressure : float
        Same for the porous side, driven by the pressure mismatch.
    factor_health : dict
        ``health()`` of the two subdomain solvers, keyed
        ``stokes_factor`` and ``darcy_factor``: the Stokes sparse LU
        factor's (:meth:`~stokesdarcy.linalg.Factorization.health`) and,
        on the hole-free porous mesh, the Darcy tensor-product solver's
        (:meth:`~stokesdarcy.linalg.TensorSolver.health`, same keys,
        with ``lu_nnz`` and ``row_interchanges`` 0).

    :meth:`health` gathers the deterministic part of all this into the
    one record that every manifest writes for a coupled solve.
    """

    composite: CompositeSolution
    info: dict
    matching_velocity: float
    matching_pressure: float
    dual_velocity: float
    dual_pressure: float
    factor_health: dict

    def health(self) -> dict:
        """The deterministic record of this solve: the interface
        solver's ``iterations``, the two entries of
        :attr:`factor_health`, and the matching residuals and the
        interface solver's true residual (``info["true_residual"]``),
        each as ``%.2e`` text."""
        return {
            "iterations": self.info["iterations"],
            **self.factor_health,
            "matching_velocity": f"{self.matching_velocity:.2e}",
            "matching_pressure": f"{self.matching_pressure:.2e}",
            "true_residual": f"{self.info['true_residual']:.2e}",
        }


def _relative_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / scale)


def _relative_norm(a: np.ndarray, ref: np.ndarray) -> float:
    scale = np.linalg.norm(ref)
    if scale == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a) / scale)


def _result_from_solution(problem, g, x_f, x_p, info) -> IcddResult:
    """Diagnostics shared by the interface-driven and direct paths."""
    g_f, g_p = problem.split(g)
    tau = problem.traces(x_f, x_p)
    tau_f, tau_p = problem.split(tau)
    y_f, y_p = _homogeneous_solves(problem, g - tau)
    composite = CompositeSolution(
        problem.stokes, x_f, problem.darcy, x_p, problem.delta
    )
    return IcddResult(
        composite=composite,
        info=info,
        matching_velocity=_relative_mismatch(g_f, tau_f),
        matching_pressure=_relative_mismatch(g_p, tau_p),
        dual_velocity=_relative_norm(y_f, x_f),
        dual_pressure=_relative_norm(y_p, x_p),
        factor_health={
            "stokes_factor": problem.stokes.factor.health(),
            "darcy_factor": problem.darcy.factor.health(),
        },
    )


#: Multiple of the interface solver's tolerance that each matching
#: residual of a coupled solve must meet.
MATCHING_FACTOR = 10.0


def icdd_solve(
    problem: IcddProblem, krylov: KrylovConfig = KrylovConfig()
) -> IcddResult:
    """Solve the coupled problem through the interface system.

    Returns
    -------
    IcddResult
        Composite solution, Krylov diagnostics, interface matching
        residuals and auxiliary-solution norms, all recomputed from
        fresh subdomain solves at the converged controls.

    Raises
    ------
    RuntimeError
        If the interface solve does not converge, or if either matching
        residual exceeds :data:`MATCHING_FACTOR` times ``krylov.tol``.
    """
    g, info = schur_solve(problem, krylov)
    g_f, g_p = problem.split(g)
    x_f = problem.stokes.solve(g=g_f)
    x_p = problem.darcy.solve(g=g_p)
    result = _result_from_solution(problem, g, x_f, x_p, info)
    bound = MATCHING_FACTOR * krylov.tol
    for name in ("matching_velocity", "matching_pressure"):
        value = getattr(result, name)
        if not value <= bound:
            raise RuntimeError(
                f"interface solve stopped with {name} {value:.2e} above "
                f"{MATCHING_FACTOR:g} * tol = {bound:.2e}"
            )
    return result


def monolithic_solve(problem: IcddProblem) -> IcddResult:
    """Solve the coupled fixed-point system in one sparse factorization.

    Stacks both interior subdomain blocks with the interface controls
    and the cross-domain trace identities into a single sparse system
    and solves it directly with SuperLU in COLAMD order, without
    :func:`~stokesdarcy.linalg.factorize`.  Serves as an independent
    reference for the interface-driven path.

    Returns
    -------
    IcddResult
        Same layout as :func:`icdd_solve`; the ``info`` dict reports the
        direct solve: ``method`` ``"monolithic"``, ``iterations`` 0,
        ``converged`` True and ``true_residual``, the relative residual
        ``||rhs - system sol|| / ||rhs||`` of the stacked system.
    """
    stokes, darcy = problem.stokes, problem.darcy
    nf = stokes.interior_dofs.size
    npp = darcy.interior_dofs.size
    ngf, ngp = problem.n_gf, problem.n_gp

    tr_v = np.asarray(problem.trace_velocity)
    rfp = sp.coo_matrix(
        (
            np.ones(tr_v.size),
            (np.arange(tr_v.size), darcy.interior_index(tr_v)),
        ),
        shape=(ngf, npp),
    ).tocsr()
    tr_p = np.asarray(problem.trace_pressure)
    rpf = sp.coo_matrix(
        (
            np.ones(tr_p.size),
            (np.arange(tr_p.size), stokes.interior_index(tr_p)),
        ),
        shape=(ngp, nf),
    ).tocsr()

    eye_f = sp.identity(ngf, format="csr")
    eye_p = sp.identity(ngp, format="csr")
    system = sp.bmat(
        [
            [stokes.interior_matrix, None, stokes.interface_matrix, None],
            [None, darcy.interior_matrix, None, darcy.interface_matrix],
            [None, -rfp, eye_f, None],
            [-rpf, None, None, eye_p],
        ],
        format="csc",
    )
    rhs = np.concatenate(
        [stokes.interior_rhs, darcy.interior_rhs, np.zeros(ngf + ngp)]
    )
    sol = spla.splu(system).solve(rhs)
    g = sol[nf + npp :]
    g_f, g_p = problem.split(g)
    x_f = stokes.full_vector(sol[:nf], g_f, include_data=True)
    x_p = darcy.full_vector(sol[nf : nf + npp], g_p, include_data=True)

    info = {
        "method": "monolithic",
        "iterations": 0,
        "converged": True,
        "true_residual": _relative_norm(rhs - system @ sol, rhs),
    }
    return _result_from_solution(problem, g, x_f, x_p, info)
