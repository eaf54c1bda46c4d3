"""Unit-cell homogenization: effective permeability and layer thickness.

The effective permeability of the periodic microstructure comes from
two Stokes problems on the fluid part of the unit cell with unit
forcing in each coordinate direction, periodic boundary conditions on
the outer edges and no slip on the obstacle.  Integrating the resulting
velocity fields over the cell yields the dimensionless permeability
tensor; multiplying by the squared period gives the dimensional one.
Both directions share one sparse LU factor of the periodic operator,
computed in the cell system's node-by-node nested-dissection order
with the periodic seam last (see :class:`~stokesdarcy.fem.CellSystem`),
its backward error checked like every subdomain factor.

The near-interface layer thickness used to place the overlapping
subdomain boundary follows a quadratic fit in the porosity, scaled by
the period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import Field, assemble_cell_problem
from .linalg import factorize
from .mesh import ObstacleLattice, RectDomain, StructuredMesh, build_perforated_mesh

#: Quadratic fit of the dimensionless layer thickness against porosity.
DELTA_FIT_COEFFS = (0.3847, 0.0255, 0.0344)


def delta_star_hat(porosity: float) -> float:
    """Dimensionless near-interface layer thickness.

    Parameters
    ----------
    porosity : float
        Fluid volume fraction of the unit cell, in ``(0, 1]``.

    Returns
    -------
    float
        Layer thickness in units of the period.
    """
    if not 0.0 < porosity <= 1.0:
        raise ValueError(f"porosity must lie in (0, 1], got {porosity}")
    a, b, c = DELTA_FIT_COEFFS
    return a * porosity**2 + b * porosity + c


def delta_star(porosity: float, ell: float) -> float:
    """Dimensional near-interface layer thickness.

    Parameters
    ----------
    porosity : float
        Fluid volume fraction of the unit cell.
    ell : float
        Microstructure period.

    Returns
    -------
    float
        Layer thickness ``ell * delta_star_hat(porosity)``.
    """
    if ell <= 0:
        raise ValueError(f"period must be positive, got {ell}")
    return ell * delta_star_hat(porosity)


def permeability_dimensional(k_hat, ell: float):
    """Scale a dimensionless permeability by the squared period."""
    if ell <= 0:
        raise ValueError(f"period must be positive, got {ell}")
    return np.asarray(k_hat, dtype=float) * ell**2


@dataclass
class CellSolution:
    """Solved unit-cell problems and derived quantities.

    Attributes
    ----------
    k_hat : ndarray
        Dimensionless permeability tensor, ``k_hat[i, j]`` being the
        cell integral of component ``i`` of the direction-``j`` velocity.
    porosity : float
        Fluid fraction from the exact geometry (``1 - s_hat ** 2``).
    porosity_quadrature : float
        Fluid fraction from summing active element areas (cross-check).
    s_hat : float
        Obstacle side over the period.
    mesh : StructuredMesh
        Perforated unit-cell mesh.
    velocities : list of Field
        Cell velocity fields ``w_1`` and ``w_2`` (two components each).
    resolution : int
        Elements per cell edge.
    order : int
        Polynomial order.
    """

    k_hat: np.ndarray
    porosity: float
    porosity_quadrature: float
    s_hat: float
    mesh: StructuredMesh
    velocities: list
    resolution: int
    order: int

    def k_scalar(self) -> float:
        """Isotropic permeability value (mean of the diagonal)."""
        return float(0.5 * (self.k_hat[0, 0] + self.k_hat[1, 1]))


#: Default cell resolution: aligns every published square obstacle
#: (side fractions 0.4, 0.6, 0.8, 0.9) with the element grid.
DEFAULT_CELL_RESOLUTION = 40


def solve_cell_problem(
    obstacle: float,
    resolution: int = DEFAULT_CELL_RESOLUTION,
    order: int = 2,
) -> CellSolution:
    """Solve both unit-cell direction problems for a square obstacle.

    The two directions differ only in their forcing, so one assembly
    and one LU factor serve both.  The factor is computed in the
    system's ``factor_order`` (nested dissection over the periodic
    master nodes, the seam last) with a diagonal pivot threshold, and
    refactored with COLAMD, with a warning, if its backward error exceeds
    :data:`~stokesdarcy.linalg.BACKWARD_ERROR_BOUND`.

    Parameters
    ----------
    obstacle : float
        Obstacle side as a fraction of the period (``0 < obstacle < 1``).
    resolution : int
        Elements per cell edge; must align the obstacle edges with the
        grid.
    order : int
        Polynomial order.

    Returns
    -------
    CellSolution

    Raises
    ------
    ValueError
        For an empty cell (``obstacle == 0``), whose periodic operator
        is singular, or for a non-aligned obstacle.
    """
    s_hat = float(obstacle)
    if not 0.0 < s_hat < 1.0:
        raise ValueError(
            "obstacle side fraction must lie in (0, 1); an empty cell has a "
            "singular periodic operator"
        )
    cell = RectDomain(0.0, 1.0, 0.0, 1.0)
    lattice = ObstacleLattice(1.0, s_hat, cell)
    mesh = build_perforated_mesh(cell, lattice, resolution, order=order)

    system = assemble_cell_problem(mesh)
    factor = factorize(system.matrix, system.factor_order)
    mass = system.mass_scalar
    k_hat = np.zeros((2, 2))
    velocities = []
    for direction, load in enumerate(system.rhs):
        u = system.expand(factor.solve(load))
        k_hat[0, direction] = mass @ u[:, 0]
        k_hat[1, direction] = mass @ u[:, 1]
        velocities.append(Field(mesh, u, order))

    return CellSolution(
        k_hat=k_hat,
        porosity=1.0 - s_hat**2,
        porosity_quadrature=mesh.active_area / cell.area,
        s_hat=s_hat,
        mesh=mesh,
        velocities=velocities,
        resolution=resolution,
        order=order,
    )


class PeriodicCellField:
    """Evaluate a unit-cell field at physical points by periodic mapping.

    Parameters
    ----------
    field : Field
        Field on the unit-cell mesh over ``(0, 1)^2``.
    ell : float
        Physical period.
    origin : tuple
        Physical coordinates mapped to the cell origin.
    """

    def __init__(self, field: Field, ell: float, origin: tuple):
        self.field = field
        self.ell = ell
        self.origin = np.asarray(origin, dtype=float)

    def eval(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        local = (points - self.origin[None, :]) / self.ell
        local -= np.floor(local)
        return self.field.eval(local)
