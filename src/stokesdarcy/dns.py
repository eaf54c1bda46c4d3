"""Pore-scale reference solver.

Solves the viscous flow problem on the full domain with the porous band
resolved obstacle by obstacle: a single Stokes system on a perforated
mesh with no-slip on every obstacle boundary.  The result serves as the
reference against which the homogenized coupled solver is validated.

The mesh (:func:`~stokesdarcy.mesh.build_perforated_mesh`) is uniform
inside the band, so obstacle edges land exactly on mesh lines, and
grades geometrically towards a coarser spacing above it.  Fields on the perforated mesh evaluate to zero inside obstacles,
realizing the trivial extension of pore-scale fields to the full band.

The system is solved once, by its
:attr:`~stokesdarcy.fem.SaddleSystem.factor`: a single-precision sparse
LU whose solve is refined in double precision, as every sparse LU of
the package is (:func:`~stokesdarcy.linalg.factorize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import assemble_stokes, divergence_l2, nodal_table
from .mesh import ObstacleLattice, build_perforated_mesh
from .presets import TestCasePreset


@dataclass(frozen=True)
class DnsResolution:
    """Mesh resolution of the pore-scale solve.

    Parameters
    ----------
    n_per_cell : int
        Elements per obstacle-cell edge inside the band.
    order : int
        Nodal order of the discretization.
    """

    n_per_cell: int = 10
    order: int = 2

    def __post_init__(self):
        if self.n_per_cell < 2:
            raise ValueError("need at least two elements per cell edge")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


class DnsSolution:
    """Solved pore-scale flow on a perforated mesh.

    It keeps no matrix, load or factor of the solve: the system it is
    built from is freed once :func:`solve_dns` returns.

    Attributes
    ----------
    mesh : StructuredMesh
        Perforated mesh (inactive elements are obstacles).
    velocity, pressure : Field
        Solution fields; both evaluate to zero inside obstacles.
    n_dofs : int
        Unknowns of the system, constrained ones included.
    factor_health : dict
        :meth:`~stokesdarcy.linalg.Factorization.health` of its factor.
    """

    def __init__(self, system, x, resolution):
        self.x = x
        self.resolution = resolution
        self.mesh = system.mesh
        self.n_dofs = system.n_dofs
        self.factor_health = system.factor.health()
        self.velocity = system.velocity(x)
        self.pressure = system.pressure(x)

    def mean_speed(self, y: float) -> float:
        """Mean velocity magnitude over the fluid nodes of a mesh line.

        Parameters
        ----------
        y : float
            Height of an existing node line.

        Returns
        -------
        float
            Arithmetic mean of ``|u|`` over the active nodes at that
            height.
        """
        mesh = self.mesh
        row = mesh.line_index(y)
        nodes = row * mesh.nnx + np.arange(mesh.nnx)
        nodes = nodes[mesh.node_active[nodes]]
        speed = np.hypot(
            self.velocity.values[nodes, 0], self.velocity.values[nodes, 1]
        )
        return float(np.mean(speed))

    def divergence(self) -> float:
        """L2 norm of the velocity divergence (consistency diagnostic)."""
        return divergence_l2(self.velocity)

    def sample_rows(self) -> dict:
        """Nodal sample columns ``x, y, u1, u2, p, domain`` for export.

        Solid (inactive) nodes are skipped; the domain tag is ``"dns"``.
        """
        nodes = np.flatnonzero(self.mesh.node_active)
        return nodal_table([(self.mesh, self.x, nodes, "dns")])


def solve_dns(
    preset: TestCasePreset,
    lattice: ObstacleLattice,
    resolution: DnsResolution = DnsResolution(),
) -> DnsSolution:
    """Solve the pore-scale problem of a preset over an obstacle lattice.

    Parameters
    ----------
    preset : TestCasePreset
        Driving scenario; supplies domain, forces and exterior data.
    lattice : ObstacleLattice
        Obstacle array filling the porous band of the preset.
    resolution : DnsResolution
        Mesh resolution parameters.

    Returns
    -------
    DnsSolution
    """
    mesh = build_perforated_mesh(
        preset.domain, lattice, resolution.n_per_cell, order=resolution.order
    )
    system = assemble_stokes(
        mesh,
        mu=preset.mu,
        f=preset.force,
        bc=preset.dns_bc(),
        null_mean_pressure=preset.pin_pressure,
    )
    x = system.solve()
    return DnsSolution(system, x, resolution)
