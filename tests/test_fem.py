"""Stabilized Stokes/Darcy assembly, fields and manufactured solutions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy.fem import (
    BoundaryCondition,
    BoundarySpec,
    FemConfig,
    Field,
    InterfaceSpec,
    assemble_darcy,
    assemble_stokes,
    basis_1d,
    divergence_l2,
)
from stokesdarcy.mesh import (
    ObstacleLattice,
    RectDomain,
    StructuredMesh,
    build_perforated_mesh,
    build_rect_mesh,
    nested_dissection_order,
)

MU = 0.7
KAPPA = 0.3
UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


def exact_velocity(x, y):
    return (
        np.sin(np.pi * x) * np.sin(np.pi * y),
        np.cos(np.pi * x) * np.cos(np.pi * y),
    )


def exact_pressure(x, y):
    return np.sin(np.pi * x) * np.cos(np.pi * y)


def stokes_force(x, y):
    pi = np.pi
    f1 = 2 * MU * pi**2 * np.sin(pi * x) * np.sin(pi * y) + pi * np.cos(
        pi * x
    ) * np.cos(pi * y)
    f2 = 2 * MU * pi**2 * np.cos(pi * x) * np.cos(pi * y) - pi * np.sin(
        pi * x
    ) * np.sin(pi * y)
    return (f1, f2)


def darcy_source(x, y):
    return (KAPPA / MU) * 2 * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)


def solve_stokes_manufactured(n, order):
    mesh = build_rect_mesh(UNIT, 1.0 / n, order=order)
    bc = BoundarySpec(
        {
            side: BoundaryCondition("velocity", exact_velocity)
            for side in ("left", "right", "bottom", "top")
        }
    )
    system = assemble_stokes(
        mesh, FemConfig(order=order), MU, f=stokes_force, bc=bc,
        null_mean_pressure=True,
    )
    return system, system.solve()


def solve_darcy_manufactured(n, order):
    mesh = build_rect_mesh(UNIT, 1.0 / n, order=order)
    bc = BoundarySpec(
        {
            side: BoundaryCondition("pressure", exact_pressure)
            for side in ("left", "right", "bottom", "top")
        }
    )
    system = assemble_darcy(
        mesh, FemConfig(order=order), MU, KAPPA, bc=bc, source=darcy_source
    )
    return system, system.solve()


def field_l2_error(field: Field, exact) -> float:
    """True L2 error against an exact field via region quadrature."""
    from stokesdarcy.validate import RegionSpec, l2_error

    def exact_points(points):
        out = exact(points[:, 0], points[:, 1])
        return np.column_stack(out) if isinstance(out, tuple) else out

    region = RegionSpec("fluid", UNIT.y0, UNIT.y1, UNIT.x0, UNIT.x1)
    return l2_error(field, exact_points, region, field.mesh, n_gauss=4)


class TestBasis:
    @given(t=st.floats(-1.0, 1.0), order=st.sampled_from([1, 2]))
    @settings(max_examples=30)
    def test_partition_of_unity(self, t, order):
        values, derivs, second = basis_1d(order, np.array([t]))
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert derivs.sum() == pytest.approx(0.0, abs=1e-10)
        assert second.sum() == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("order", [1, 2])
    def test_nodal_interpolation(self, order):
        nodes = np.linspace(-1.0, 1.0, order + 1)
        values, _, _ = basis_1d(order, nodes)
        np.testing.assert_allclose(values, np.eye(order + 1), atol=1e-13)


class TestBoundarySpecs:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            BoundaryCondition("traction")

    def test_unknown_side_raises(self):
        with pytest.raises(ValueError, match="unknown side"):
            BoundarySpec({"front": BoundaryCondition("velocity", (0.0, 0.0))})

    @pytest.mark.parametrize(
        ("side", "field"), [("left", "velocity"), ("bottom", "flux")]
    )
    def test_interface_spec_validation(self, side, field):
        with pytest.raises(ValueError):
            InterfaceSpec(side, field)

    def test_interface_side_conflict_raises(self):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        bc = BoundarySpec({"bottom": BoundaryCondition("velocity", (0.0, 0.0))})
        with pytest.raises(ValueError, match="interface side"):
            assemble_stokes(
                mesh, FemConfig(order=1), 1.0, bc=bc,
                interface=InterfaceSpec("bottom", "velocity"),
            )


class TestField:
    def test_eval_reproduces_nodal_values(self):
        mesh = build_rect_mesh(UNIT, 0.25, order=2)
        values = mesh.node_coords[:, 0] ** 2
        field = Field(mesh, values, order=2)
        probe = mesh.node_coords[:: 7]
        np.testing.assert_allclose(
            field.eval(probe), probe[:, 0] ** 2, atol=1e-12
        )

    def test_zero_inside_obstacles(self):
        band = RectDomain(0.0, 1.0, 0.0, 0.5)
        lattice = ObstacleLattice(0.5, 0.6, band)
        mesh = build_perforated_mesh(UNIT, lattice, n_per_cell=10, order=1)
        field = Field(mesh, np.ones(mesh.n_nodes), order=1)
        centers = np.array([[0.25, 0.25], [0.75, 0.25]])
        np.testing.assert_allclose(field.eval(centers), 0.0, atol=0.0)

    def test_shape_mismatch_raises(self):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        with pytest.raises(ValueError):
            Field(mesh, np.ones(mesh.n_nodes + 1), order=1)


class TestDivergence:
    def test_linear_field_exact(self):
        mesh = build_rect_mesh(RectDomain(0.0, 2.0, 0.0, 1.0), 0.25, order=1)
        values = np.column_stack(
            [mesh.node_coords[:, 0], np.zeros(mesh.n_nodes)]
        )
        field = Field(mesh, values, order=1)
        # div u = 1 everywhere, so the L2 norm is sqrt(area) = sqrt(2).
        assert divergence_l2(field) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_divergence_free_interpolant(self):
        mesh = build_rect_mesh(UNIT, 0.125, order=2)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        values = np.column_stack(
            [np.sin(np.pi * x) * np.sin(np.pi * y),
             np.cos(np.pi * x) * np.cos(np.pi * y)]
        )
        field = Field(mesh, values, order=2)
        assert divergence_l2(field) < 2e-2


class TestStokesSolver:
    @pytest.mark.parametrize("order", [1, 2])
    def test_dirichlet_values_attained(self, order):
        system, x = solve_stokes_manufactured(8, order)
        mesh = system.mesh
        for side in ("left", "right", "bottom", "top"):
            ids = mesh.boundary_nodes(side)
            coords = mesh.node_coords[ids]
            want = np.column_stack(exact_velocity(coords[:, 0], coords[:, 1]))
            have = system.velocity(x).values[ids]
            np.testing.assert_allclose(have, want, atol=1e-12)

    def test_pressure_mean_pinned(self):
        system, x = solve_stokes_manufactured(8, 2)
        assert abs(system.pressure_mean(x)) < 1e-10

    @pytest.mark.parametrize(
        ("order", "expected"), [(1, 2.0), (2, 3.0)]
    )
    def test_velocity_order_of_accuracy(self, order, expected):
        errors = []
        for n in (8, 16):
            system, x = solve_stokes_manufactured(n, order)
            errors.append(field_l2_error(system.velocity(x), exact_velocity))
        slope = np.log(errors[0] / errors[1]) / np.log(2.0)
        assert slope == pytest.approx(expected, abs=0.4)

    def test_discrete_divergence_small(self):
        system, x = solve_stokes_manufactured(16, 2)
        assert divergence_l2(system.velocity(x)) < 5e-3


class TestDarcySolver:
    @pytest.mark.parametrize("order", [1, 2])
    def test_pressure_values_attained(self, order):
        system, x = solve_darcy_manufactured(8, order)
        mesh = system.mesh
        for side in ("left", "right", "bottom", "top"):
            ids = mesh.boundary_nodes(side)
            coords = mesh.node_coords[ids]
            want = exact_pressure(coords[:, 0], coords[:, 1])
            have = system.pressure(x).values[ids]
            np.testing.assert_allclose(have, want, atol=1e-12)

    @pytest.mark.parametrize(
        ("order", "expected"), [(1, 2.0), (2, 3.0)]
    )
    def test_pressure_order_of_accuracy(self, order, expected):
        errors = []
        for n in (8, 16):
            system, x = solve_darcy_manufactured(n, order)
            errors.append(field_l2_error(system.pressure(x), exact_pressure))
        slope = np.log(errors[0] / errors[1]) / np.log(2.0)
        assert slope == pytest.approx(expected, abs=0.4)

    def test_velocity_follows_pressure_gradient(self):
        system, x = solve_darcy_manufactured(16, 2)
        mesh = system.mesh
        interior = np.abs(mesh.node_coords - 0.5).max(axis=1) < 0.3
        coords = mesh.node_coords[interior]
        pi = np.pi
        want = -(KAPPA / MU) * np.column_stack(
            [pi * np.cos(pi * coords[:, 0]) * np.cos(pi * coords[:, 1]),
             -pi * np.sin(pi * coords[:, 0]) * np.sin(pi * coords[:, 1])]
        )
        have = system.velocity(x).values[interior]
        assert np.max(np.abs(have - want)) < 5e-3

    def test_nonpositive_permeability_raises(self):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        with pytest.raises(ValueError, match="permeability"):
            assemble_darcy(mesh, FemConfig(order=1), 1.0, 0.0)


class TestSolveDecomposition:
    """Superposition of data-driven and control-driven solves."""

    def _system(self):
        mesh = build_rect_mesh(UNIT, 0.25, order=1)
        bc = BoundarySpec(
            {
                side: BoundaryCondition("velocity", exact_velocity)
                for side in ("left", "right", "top")
            }
        )
        return assemble_stokes(
            mesh, FemConfig(order=1), MU, f=stokes_force, bc=bc,
            interface=InterfaceSpec("bottom", "velocity"),
            null_mean_pressure=True,
        )

    def test_control_plus_data_superpose(self):
        system = self._system()
        rng = np.random.default_rng(9)
        g = rng.standard_normal(len(system.interface_dofs))
        full = system.solve(g)
        data_only = system.solve(np.zeros_like(g))
        control_only = system.solve(g, include_data=False)
        np.testing.assert_allclose(
            full, data_only + control_only, rtol=1e-9, atol=1e-11
        )

    def test_interface_controls_attained(self):
        system = self._system()
        rng = np.random.default_rng(10)
        g = rng.standard_normal(len(system.interface_dofs))
        x = system.solve(g)
        np.testing.assert_allclose(x[system.interface_dofs], g, atol=1e-12)


class TestFactorOrder:
    @given(
        nex=st.integers(1, 14),
        ney=st.integers(1, 14),
        order=st.sampled_from([1, 2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_node_major_bijection_with_multiplier_last(self, nex, ney, order):
        mesh = StructuredMesh(
            np.linspace(0.0, 1.0, nex + 1), np.linspace(0.0, 2.0, ney + 1), order
        )
        bc = BoundarySpec(
            {
                side: BoundaryCondition("velocity", exact_velocity)
                for side in ("left", "right", "top")
            }
        )
        system = assemble_stokes(
            mesh, FemConfig(order=order), MU, bc=bc,
            interface=InterfaceSpec("bottom", "velocity"),
            null_mean_pressure=True,
        )
        perm = system.factor_order
        np.testing.assert_array_equal(
            np.sort(perm), np.arange(system.interior_dofs.size)
        )
        dofs = system.interior_dofs[perm]
        n = system.n_nodes
        assert dofs[-1] == 3 * n
        rank = np.empty(n, dtype=int)
        rank[nested_dissection_order(mesh.nnx, mesh.nny, order)] = np.arange(n)
        key = 3 * rank[dofs[:-1] % n] + dofs[:-1] // n
        assert np.all(np.diff(key) > 0), "not node by node, u_x, u_y, p"
