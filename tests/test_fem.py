"""Stabilized Stokes/Darcy assembly, fields and manufactured solutions."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import fem
from stokesdarcy.fem import (
    GAMMA_STAB,
    KIND_INTERIOR,
    BoundaryCondition,
    BoundarySpec,
    FemConfig,
    Field,
    assemble_darcy,
    assemble_stokes,
    basis_1d,
    divergence_l2,
    eval_fields,
    eval_located,
    nodal_rows,
)
from stokesdarcy.linalg import BACKWARD_ERROR_BOUND, Factorization, TensorSolver
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

    @pytest.mark.parametrize("assemble", [assemble_stokes, assemble_darcy])
    def test_vertical_interface_side_raises(self, assemble):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        args = (1.0,) if assemble is assemble_stokes else (1.0, 1.0)
        with pytest.raises(ValueError, match="interface side must be horizontal"):
            assemble(mesh, FemConfig(order=1), *args, interface="left")

    def test_interface_side_conflict_raises(self):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        bc = BoundarySpec({"bottom": BoundaryCondition("velocity", (0.0, 0.0))})
        with pytest.raises(ValueError, match="interface side"):
            assemble_stokes(
                mesh, FemConfig(order=1), 1.0, bc=bc,
                interface="bottom",
            )


    def test_mixed_interface_constraints_raise(self):
        """A wall that fixes only ``u_x`` takes one of the two velocity
        controls of the interface node in its corner."""
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        bc = BoundarySpec({"left": BoundaryCondition("impermeable")})
        with pytest.raises(ValueError, match="mixed velocity constraints"):
            assemble_stokes(mesh, FemConfig(order=1), 1.0, bc=bc, interface="bottom")


class TestTraction:
    """A constant traction loads the velocity rows of its side's nodes
    only: each edge of length ``h`` shares ``t h`` as the 1-D Lagrange
    basis integrates over it."""

    #: Share of ``t h`` that each node of one edge receives.
    SHARES = {1: [1 / 2, 1 / 2], 2: [1 / 6, 2 / 3, 1 / 6]}

    @pytest.mark.parametrize("side", ["left", "right", "bottom", "top"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_traction_shared_per_edge(self, order, side):
        # Elements of 0.25 x 0.2, so the edge lengths differ by side.
        domain = RectDomain(0.0, 1.0, 0.0, 0.6)
        mesh = build_rect_mesh(domain, 0.25, order=order)
        t = (0.3, -0.7)
        bc = BoundarySpec({side: BoundaryCondition("normal_stress", t)})
        rhs = assemble_stokes(mesh, FemConfig(order=order), MU, bc=bc).rhs
        n = mesh.n_nodes
        nodes = mesh.boundary_nodes(side)
        along = 0 if side in ("bottom", "top") else 1
        lengths = np.diff(mesh.node_coords[nodes, along][::order])
        shares = np.zeros(nodes.size)
        for e, h in enumerate(lengths):
            shares[e * order : (e + 1) * order + 1] += h * np.array(self.SHARES[order])
        width = domain.width if along == 0 else domain.height
        for component in (0, 1):
            load = rhs[component * n : (component + 1) * n]
            np.testing.assert_allclose(load[nodes], t[component] * shares, rtol=1e-12)
            assert not np.any(np.delete(load, nodes))
            assert load.sum() == pytest.approx(t[component] * width, rel=1e-12)
        assert not np.any(rhs[2 * n :])

    def test_callable_traction_raises(self):
        with pytest.raises(ValueError, match="constant pair"):
            BoundaryCondition("normal_stress", lambda x, y: (0.0, 0.0))


class TestField:
    def test_eval_reproduces_nodal_values(self):
        mesh = build_rect_mesh(UNIT, 0.25, order=2)
        values = mesh.node_coords[:, 0] ** 2
        field = Field(mesh, values)
        probe = mesh.node_coords[:: 7]
        np.testing.assert_allclose(
            field.eval(probe), probe[:, 0] ** 2, atol=1e-12
        )

    def test_zero_inside_obstacles(self):
        band = RectDomain(0.0, 1.0, 0.0, 0.5)
        lattice = ObstacleLattice(0.5, 0.6, band)
        mesh = build_perforated_mesh(UNIT, lattice, n_per_cell=10, order=1)
        field = Field(mesh, np.ones(mesh.n_nodes))
        centers = np.array([[0.25, 0.25], [0.75, 0.25]])
        np.testing.assert_allclose(field.eval(centers), 0.0, atol=0.0)

    def test_shape_mismatch_raises(self):
        mesh = build_rect_mesh(UNIT, 0.5, order=1)
        with pytest.raises(ValueError):
            Field(mesh, np.ones(mesh.n_nodes + 1))


class TestEvalFields:
    """Several fields of one mesh evaluated together, against per-field
    :meth:`Field.eval` and against the polynomials they interpolate."""

    @staticmethod
    def _fields(order):
        band = RectDomain(0.0, 1.0, 0.0, 0.5)
        lattice = ObstacleLattice(0.25, 0.6, band)
        mesh = build_perforated_mesh(UNIT, lattice, n_per_cell=5, order=order)
        x, y = mesh.node_coords.T
        velocity = Field(mesh, np.column_stack([x + 2 * y, (x * y) ** order]))
        pressure = Field(mesh, 1.0 - (x * y) ** order + y)
        return mesh, velocity, pressure

    @staticmethod
    def _exact(mesh, points, order):
        x, y = points.T
        fluid = mesh.active[mesh.locate(points)[0]]
        u = np.column_stack([x + 2 * y, (x * y) ** order]) * fluid[:, None]
        return u, (1.0 - (x * y) ** order + y) * fluid

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_field_eval(self, order):
        mesh, velocity, pressure = self._fields(order)
        rng = np.random.default_rng(3)
        inside = rng.random((40, 2))
        # Points on vertical and horizontal element edges, obstacle
        # interiors (cell centers of the band) and the domain corners.
        on_x = np.column_stack([mesh.xs[1::3], rng.random(mesh.xs[1::3].size)])
        on_y = np.column_stack([rng.random(mesh.ys[1::3].size), mesh.ys[1::3]])
        holes = np.array([[0.125, 0.125], [0.375, 0.375], [0.875, 0.125]])
        corners = np.array([[0.0, 0.0], [1.0, 1.0]])
        points = np.vstack([inside, on_x, on_y, holes, corners])
        u, p = eval_fields([velocity, pressure], points)
        np.testing.assert_array_equal(u, velocity.eval(points))
        np.testing.assert_array_equal(p, pressure.eval(points))
        in_holes = slice(-5, -2)
        assert np.all(u[in_holes] == 0.0) and np.all(p[in_holes] == 0.0)
        u_exact, p_exact = self._exact(mesh, points, order)
        np.testing.assert_allclose(u, u_exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, p_exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_grouped_points_share_their_element(self, order):
        mesh, velocity, pressure = self._fields(order)
        rng = np.random.default_rng(4)
        elems = rng.choice(mesh.n_elements, size=30, replace=False)
        ref = rng.uniform(-1.0, 1.0, size=(30, 5, 2))
        ref[:, 0] = [-1.0, 1.0]  # one point of each group on a corner
        ex, ey = elems % mesh.nex, elems // mesh.nex
        x = mesh.xs[ex][:, None] + 0.5 * (ref[..., 0] + 1.0) * mesh.hx[ex][:, None]
        y = mesh.ys[ey][:, None] + 0.5 * (ref[..., 1] + 1.0) * mesh.hy[ey][:, None]
        points = np.column_stack([x.ravel(), y.ravel()])
        u, p = eval_located([velocity, pressure], elems, ref)
        fluid = np.repeat(mesh.active[elems], 5)
        assert not fluid.all() and fluid.any()
        x, y = points.T
        u_exact = np.column_stack([x + 2 * y, (x * y) ** order]) * fluid[:, None]
        p_exact = (1.0 - (x * y) ** order + y) * fluid
        np.testing.assert_allclose(u, u_exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, p_exact, rtol=0, atol=1e-12)

    def test_fields_must_share_a_mesh(self):
        a = Field(build_rect_mesh(UNIT, 0.5, order=1), np.zeros(9))
        b = Field(build_rect_mesh(UNIT, 0.5, order=1), np.zeros(9))
        with pytest.raises(ValueError, match="share one mesh"):
            eval_fields([a, b], np.array([[0.5, 0.5]]))


class TestDivergence:
    def test_linear_field_exact(self):
        mesh = build_rect_mesh(RectDomain(0.0, 2.0, 0.0, 1.0), 0.25, order=1)
        values = np.column_stack(
            [mesh.node_coords[:, 0], np.zeros(mesh.n_nodes)]
        )
        field = Field(mesh, values)
        # div u = 1 everywhere, so the L2 norm is sqrt(area) = sqrt(2).
        assert divergence_l2(field) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_divergence_free_interpolant(self):
        mesh = build_rect_mesh(UNIT, 0.125, order=2)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        values = np.column_stack(
            [np.sin(np.pi * x) * np.sin(np.pi * y),
             np.cos(np.pi * x) * np.cos(np.pi * y)]
        )
        field = Field(mesh, values)
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
        n = system.n_nodes
        assert abs(system.mass_scalar @ x[2 * n : 3 * n]) < 1e-10

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
            interface="bottom",
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
            interface="bottom",
            null_mean_pressure=True,
        )
        dofs = system.interior_dofs
        np.testing.assert_array_equal(
            np.sort(dofs), np.flatnonzero(system.kind == KIND_INTERIOR)
        )
        n = system.n_nodes
        assert dofs[-1] == 3 * n
        rank = np.empty(n, dtype=int)
        rank[nested_dissection_order(mesh.nnx, mesh.nny, order)] = np.arange(n)
        key = 3 * rank[dofs[:-1] % n] + dofs[:-1] // n
        assert np.all(np.diff(key) > 0), "not node by node, u_x, u_y, p"

    @given(
        period=st.sampled_from([0.5, 0.25]),
        s_hat=st.sampled_from([0.2, 0.6]),
        order=st.sampled_from([1, 2]),
        case=st.sampled_from(["stokes", "stokes+multiplier", "darcy"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_interior_unknowns_in_elimination_order(
        self, period, s_hat, order, case, seed
    ):
        # The interior vector is the elimination order: node by node in
        # weighted nested-dissection order, the multiplier last; the
        # interior block is the assembled matrix's in that order, and a
        # solve satisfies the assembled interior rows.
        lattice = ObstacleLattice(period, s_hat, RectDomain(0.0, 1.0, 0.0, 0.5))
        mesh = build_perforated_mesh(UNIT, lattice, n_per_cell=5, order=order)
        config = FemConfig(order=order)
        if case == "darcy":
            bc = BoundarySpec(
                {
                    "left": BoundaryCondition("impermeable"),
                    "right": BoundaryCondition("impermeable"),
                    "top": BoundaryCondition("pressure", exact_pressure),
                }
            )
            system = assemble_darcy(
                mesh, config, MU, KAPPA, bc=bc, interface="bottom",
                source=darcy_source,
            )
        else:
            sides =["left", "right", "obstacle"] + (
                ["top"] if case == "stokes+multiplier" else []
            )
            bc = BoundarySpec(
                {side: BoundaryCondition("velocity", exact_velocity) for side in sides}
            )
            system = assemble_stokes(
                mesh, config, MU, f=stokes_force, bc=bc, interface="bottom",
                null_mean_pressure=case == "stokes+multiplier",
            )
        matrix = system.matrix
        n = system.n_nodes
        dofs = system.interior_dofs
        interior = system.kind == KIND_INTERIOR
        np.testing.assert_array_equal(np.sort(dofs), np.flatnonzero(interior))
        if case == "stokes+multiplier":
            assert dofs[-1] == 3 * n
            dofs = dofs[:-1]
        assert np.all(dofs < 3 * n)
        weights = np.bincount(np.flatnonzero(interior[: 3 * n]) % n, minlength=n)
        rank = np.empty(n, dtype=int)
        rank[nested_dissection_order(mesh.nnx, mesh.nny, order, weights)] = (
            np.arange(n)
        )
        key = 3 * rank[dofs % n] + dofs // n
        assert np.all(np.diff(key) > 0), "not node by node, u_x, u_y, p"

        inner = system.interior_dofs
        assert (system.interior_matrix != matrix[inner][:, inner]).nnz == 0

        g = np.random.default_rng(seed).standard_normal(system.n_interface)
        x = system.solve(g)
        residual = (matrix @ x - system.rhs)[inner]
        rows = matrix[inner]
        scale = abs(rows).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(residual).max() <= 1e-12 * (
            scale + np.abs(system.rhs[inner]).max()
        )


# ----------------------------------------------------------------------
# Reference-matrix kernels against a per-quadrature-point oracle
# ----------------------------------------------------------------------


def oracle_assembly(mesh, mu, f, permeability=None, source=None, multiplier=False):
    """Stokes (``permeability is None``) or Darcy matrix, load vector and
    basis integrals, summed quadrature point by quadrature point.

    This is the assembly the reference-matrix kernels replaced, kept as
    the independent check of their matrices and loads.
    """
    order, gamma = mesh.order, GAMMA_STAB
    pts, wts = np.polynomial.legendre.leggauss(order + 1)
    elems = np.flatnonzero(mesh.active)
    hx, hy = (h[elems] for h in mesh.element_sizes())
    x0, y0 = mesh.xs[elems % mesh.nex], mesh.ys[elems // mesh.nex]
    nodes = mesh.element_nodes[elems]
    n, (ne, nloc) = mesh.n_nodes, nodes.shape
    uu, up_x, up_y, pu_x, pu_y, pp = (np.zeros((ne, nloc, nloc)) for _ in range(6))
    load = np.zeros((3, ne, nloc))
    mass = np.zeros((ne, nloc))
    tau_x = (gamma * hx**2 / mu)[:, None, None]
    tau_y = (gamma * hy**2 / mu)[:, None, None]

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            Nx, dNx, d2Nx = (v[0] for v in basis_1d(order, [xi]))
            Ny, dNy, d2Ny = (v[0] for v in basis_1d(order, [eta]))
            N = np.broadcast_to(np.outer(Ny, Nx).ravel(), (ne, nloc))
            dx = np.outer(Ny, dNx).ravel() * (2 / hx)[:, None]
            dy = np.outer(dNy, Nx).ravel() * (2 / hy)[:, None]
            lap = (
                np.outer(Ny, d2Nx).ravel() * (2 / hx)[:, None] ** 2
                + np.outer(d2Ny, Nx).ravel() * (2 / hy)[:, None] ** 2
            )
            w = (wx * wy * hx * hy / 4)[:, None]
            xq, yq = x0 + (xi + 1) / 2 * hx, y0 + (eta + 1) / 2 * hy
            fx, fy = np.broadcast_arrays(*f(xq, yq), xq)[:2]
            if permeability is None:
                uu += w[:, :, None] * mu * (outer(dx, dx) + outer(dy, dy))
                up_x -= w[:, :, None] * outer(dx, N)
                up_y -= w[:, :, None] * outer(dy, N)
                pu_x += w[:, :, None] * (mu * tau_x * outer(dx, lap) - outer(N, dx))
                pu_y += w[:, :, None] * (mu * tau_y * outer(dy, lap) - outer(N, dy))
                pp -= w[:, :, None] * (
                    tau_x * outer(dx, dx) + tau_y * outer(dy, dy)
                )
                load[2] -= w * (tau_x[:, 0] * fx[:, None] * dx + tau_y[:, 0] * fy[:, None] * dy)
            else:
                k = permeability / mu
                uu += w[:, :, None] / k * outer(N, N)
                up_x += w[:, :, None] * outer(N, dx)
                up_y += w[:, :, None] * outer(N, dy)
                pp += w[:, :, None] * k * (outer(dx, dx) + outer(dy, dy))
                s = np.broadcast_to(source(xq, yq), xq.shape)
                load[2] += w * (s[:, None] * N + k * (fx[:, None] * dx + fy[:, None] * dy))
            load[0] += w * fx[:, None] * N
            load[1] += w * fy[:, None] * N
            mass += w * N
    ux, uy, p = nodes, nodes + n, nodes + 2 * n
    rows, cols, vals = [], [], []
    for r, c, m in [
        (ux, ux, uu), (uy, uy, uu), (ux, p, up_x), (uy, p, up_y),
        (p, ux, pu_x), (p, uy, pu_y), (p, p, pp),
    ]:
        rows.append(np.repeat(r, nloc, axis=1).ravel())
        cols.append(np.tile(c, (1, nloc)).ravel())
        vals.append(m.ravel())
    mass_scalar = np.bincount(nodes.ravel(), mass.ravel(), minlength=n)
    if multiplier:
        rows += [np.full(n, 3 * n), np.arange(2 * n, 3 * n)]
        cols += [np.arange(2 * n, 3 * n), np.full(n, 3 * n)]
        vals += [mass_scalar, mass_scalar]
    n_dofs = 3 * n + int(multiplier)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dofs, n_dofs),
    ).tocsr()
    rhs = np.bincount(
        np.concatenate([ux.ravel(), uy.ravel(), p.ravel()]), load.ravel(),
        minlength=n_dofs,
    )
    return matrix, rhs, mass_scalar


def kernel_case(mesh, mu, a, b, permeability=None, multiplier=False):
    """Assembled system and oracle for one mesh with Stokes or Darcy data."""

    def force(x, y):
        return 1.0 + a * np.sin(x + y), b * np.cos(x * y) - 0.5

    def source(x, y):
        return np.exp(-x) * y + 0.25

    config = FemConfig(order=mesh.order)
    if permeability is not None:
        system = assemble_darcy(mesh, config, mu, permeability, f=force, source=source)
    else:
        system = assemble_stokes(mesh, config, mu, f=force, null_mean_pressure=multiplier)
    return system, oracle_assembly(mesh, mu, force, permeability, source, multiplier)


@st.composite
def drawn_cases(draw):
    """Graded, perforated, anisotropic meshes from hypothesis values."""
    order = draw(st.sampled_from([1, 2]))
    nex, ney = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    steps = st.floats(0.05, 1.0)
    aspect = draw(st.floats(1e-2, 1e2))
    xs = np.cumsum([0.0] + draw(st.lists(steps, min_size=nex, max_size=nex)))
    ys = aspect * np.cumsum([0.0] + draw(st.lists(steps, min_size=ney, max_size=ney)))
    active = np.array(draw(st.lists(st.booleans(), min_size=nex * ney, max_size=nex * ney)))
    active[draw(st.integers(0, nex * ney - 1))] = True
    mesh = StructuredMesh(xs, ys, order, active)
    darcy = draw(st.booleans())
    return kernel_case(
        mesh,
        draw(st.floats(1e-3, 10.0)),
        draw(st.floats(-2.0, 2.0)),
        draw(st.floats(-2.0, 2.0)),
        permeability=draw(st.floats(1e-6, 1.0)) if darcy else None,
        multiplier=not darcy and draw(st.booleans()),
    )


def generic_case(seed):
    """A mesh whose exactly vanishing integrals all vanish by symmetry.

    Sizes come from a random generator, so no aspect ratio or size ratio
    takes one of the special values at which a coupling vanishes by
    accident (a square element, ``hy = 2 hx``, ...); where both kernels
    can only store that coupling at roundoff size.  One direction is
    often uniform with a power-of-two step, so equal neighbours are equal
    in floating point too.
    """
    rng = np.random.default_rng(seed)
    order, nex, ney = rng.integers(1, 3), rng.integers(1, 7), rng.integers(1, 7)

    def lines(n, uniform):
        if uniform:
            return np.arange(n + 1) * 2.0 ** -rng.integers(0, 4)
        return np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, n)]) * 10 ** rng.uniform(-1.5, 1.5)

    uniform = rng.integers(0, 3)
    xs, ys = lines(nex, uniform == 1), lines(ney, uniform == 2)
    active = rng.random(nex * ney) < 0.7
    active[rng.integers(nex * ney)] = True
    darcy = rng.random() < 0.5
    return kernel_case(
        StructuredMesh(xs, ys, int(order), active),
        10 ** rng.uniform(-3, 1),
        *rng.uniform(-2, 2, 2),
        permeability=10 ** rng.uniform(-6, 0) if darcy else None,
        multiplier=not darcy and rng.random() < 0.5,
    )


def relative_gap(new, ref) -> float:
    return float(abs(new - ref).max()) / float(abs(ref).max())


def count_significant(matrix, n_nodes) -> int:
    """Entries at least 1e-14 times the largest entry of their field
    block; Darcy blocks differ in scale by up to ``(mu / K)**2``."""
    coo = matrix.tocoo()
    block = np.minimum(coo.row // n_nodes, 3) * 4 + np.minimum(coo.col // n_nodes, 3)
    largest = np.zeros(16)
    np.maximum.at(largest, block, abs(coo.data))
    return int((abs(coo.data) >= 1e-14 * largest[block]).sum())


class TestReferenceKernels:
    @given(case=drawn_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_point_oracle(self, case):
        system, (matrix, rhs, mass_scalar) = case
        assert system.matrix.shape == matrix.shape
        assert relative_gap(system.matrix, matrix) <= 1e-13
        assert relative_gap(system.rhs, rhs) <= 1e-13
        assert relative_gap(system.mass_scalar, mass_scalar) <= 1e-13
        assert system.matrix.nnz <= matrix.nnz

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_roundoff_couplings(self, seed):
        """Couplings that vanish by symmetry are not stored.

        The oracle stores roundoff-sized values where contributions of
        neighbouring elements cancel (first-derivative couplings across
        a shared line); the kernels may store no more entries than the
        oracle has above roundoff size.
        """
        system, (matrix, _, _) = generic_case(seed)
        assert relative_gap(system.matrix, matrix) <= 1e-13
        assert system.matrix.nnz <= count_significant(matrix, system.n_nodes)


@st.composite
def assembled_systems(draw):
    """Stokes (with or without the pressure-mean multiplier) or Darcy
    systems of order 1 or 2 on graded, plain or perforated meshes."""
    order = draw(st.sampled_from([1, 2]))
    nex, ney = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    steps = st.floats(0.05, 1.0)
    xs = np.cumsum([0.0] + [draw(steps) for _ in range(nex)])
    ys = np.cumsum([0.0] + [draw(steps) for _ in range(ney)])
    active = None
    if draw(st.booleans()):
        cells = nex * ney
        active = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
        active[draw(st.integers(0, cells - 1))] = True
    mesh = StructuredMesh(xs, ys, order, active)
    config = FemConfig(order=order)
    kind = draw(st.sampled_from(["stokes", "stokes-mean", "darcy"]))
    if kind == "darcy":
        return assemble_darcy(mesh, config, MU, KAPPA, f=(1.0, -0.5))
    return assemble_stokes(
        mesh, config, MU, f=(1.0, -0.5), null_mean_pressure=kind == "stokes-mean"
    )


@given(system=assembled_systems())
@settings(max_examples=60, deadline=None)
def test_assembled_matrix_is_canonical_csc(system):
    """Sorted, unique int32 row indices in every column, no stored zero."""
    matrix = system.matrix
    assert matrix.format == "csc"
    assert matrix.indices.dtype == np.int32
    assert matrix.indptr.dtype == np.int32
    columns = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    same_column = columns[1:] == columns[:-1]
    assert np.all(np.diff(matrix.indices)[same_column] > 0)
    assert matrix.indices.min(initial=0) >= 0
    assert matrix.indices.max(initial=0) < matrix.shape[0]
    assert np.all(matrix.data != 0.0)


@pytest.mark.parametrize(
    "assemble",
    [
        lambda mesh, config: assemble_stokes(mesh, config, 1.0),
        lambda mesh, config: assemble_darcy(mesh, config, 1.0, 1.0),
    ],
    ids=["stokes", "darcy"],
)
@pytest.mark.parametrize(("mesh_order", "fem_order"), [(1, 2), (2, 1)])
def test_assembly_order_mismatch_raises(assemble, mesh_order, fem_order):
    mesh = build_rect_mesh(UNIT, 0.5, order=mesh_order)
    match = f"FemConfig order {fem_order} .* mesh order {mesh_order}"
    with pytest.raises(ValueError, match=match):
        assemble(mesh, FemConfig(order=fem_order))


def test_assembly_peak_memory(assemble_dns_q2):
    """At the size of ``configs/dns.ini``, the numpy memory that
    assembly holds at its peak stays within 3 times the bytes of the
    matrix it returns."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        system = assemble_dns_q2()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    matrix = system.matrix
    size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak <= 3.0 * size, f"peak {peak / size:.2f} times the matrix"


# ----------------------------------------------------------------------
# Tensor-product solver of the Darcy subdomain
# ----------------------------------------------------------------------

IMPERMEABLE = BoundaryCondition("impermeable")


@st.composite
def tensor_darcy_systems(draw):
    """Darcy systems laid out as the coupled solve's porous subdomain:
    graded hole-free meshes, impermeable vertical sides, pressure
    controls on the top or the bottom, and the opposite side
    impermeable or at an essential pressure; ``K / mu`` log-uniform in
    [1e-8, 1e8].

    Element sizes vary up to 20-fold along each direction and the
    height of the domain is 1/10 to 10 times its width (the porous
    subdomain's is 1/2, with at most 8-fold grading).  Much longer
    domains make the pressure Laplacian so ill conditioned (condition
    numbers beyond 1e8) that two forms of one operator that differ by
    rounding, the assembled one and the Kronecker one, have solutions
    up to about 1e-10 apart, whichever solver computes them.
    """
    order = draw(st.sampled_from([1, 2]))
    nex, ney = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def lines(n, length):
        steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        return length * np.cumsum([0.0] + steps) / sum(steps)

    xs, ys = lines(nex, 1.0), lines(ney, draw(st.floats(0.1, 10.0)))
    interface = draw(st.sampled_from(["top", "bottom"]))
    opposite = "bottom" if interface == "top" else "top"
    sides = {
        "left": IMPERMEABLE,
        "right": IMPERMEABLE,
        opposite: draw(
            st.sampled_from(
                [IMPERMEABLE, BoundaryCondition("pressure", exact_pressure)]
            )
        ),
    }
    ratio = 10.0 ** draw(st.floats(-8.0, 8.0))
    return assemble_darcy(
        StructuredMesh(xs, ys, order), FemConfig(order=order), MU, ratio * MU,
        f=(1.0, -0.5), bc=BoundarySpec(sides), interface=interface,
    )


class TestTensorSolver:
    @given(system=tensor_darcy_systems(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_sparse_lu(self, system, seed):
        matrix = sp.csc_matrix(system.interior_matrix)
        b = np.random.default_rng(seed).standard_normal(matrix.shape[0])
        # SuperLU's own pivoting leaves up to 2e-10 in its solve at
        # K / mu near 1e-8; two refinement steps take that out.
        lu = spla.splu(matrix)
        ref = lu.solve(b)
        for _ in range(2):
            ref += lu.solve(b - matrix @ ref)
        solver = system.factor
        assert isinstance(solver, TensorSolver)
        x = solver.solve(b)
        field = system.interior_dofs // system.n_nodes
        for name, k in (("u_x", 0), ("u_y", 1), ("p", 2)):
            part = field == k
            if part.any():
                gap = np.abs(x[part] - ref[part]).max()
                assert gap <= 1e-10 * np.abs(ref[part]).max(), name
        assert 0.0 < solver.backward_error <= BACKWARD_ERROR_BOUND
        assert solver.health() == {
            "unknowns": matrix.shape[0],
            "precision": "float64",
            "lu_nnz": 0,
            "row_interchanges": 0,
            "refinement_steps": 0,
            "backward_error": f"{solver.backward_error:.2e}",
        }

    @pytest.mark.parametrize(
        ("perforation", "order"), [("lattice", 1), ("lattice", 2), ("one hole", 1)]
    )
    def test_perforated_darcy_is_factored(self, monkeypatch, perforation, order):
        # A Q1 mesh with one interior hole has no dead node: every
        # field's interior unknowns are still products of line sets, but
        # the matrix is no Kronecker sum.
        calls = []
        real = fem.factorize

        def counting(block):
            calls.append(block.shape[0])
            return real(block)

        monkeypatch.setattr(fem, "factorize", counting)
        if perforation == "lattice":
            lattice = ObstacleLattice(0.5, 0.6, RectDomain(0.0, 1.0, 0.0, 0.5))
            mesh = build_perforated_mesh(UNIT, lattice, n_per_cell=5, order=order)
        else:
            lines = np.linspace(0.0, 1.0, 5)
            mesh = StructuredMesh(lines, lines, order, np.arange(16) != 5)
            assert mesh.node_active.all()
        bc = BoundarySpec({"left": IMPERMEABLE, "right": IMPERMEABLE})
        system = assemble_darcy(
            mesh, FemConfig(order=order), MU, KAPPA, bc=bc, interface="top"
        )
        assert isinstance(system.factor, Factorization)
        assert calls == [system.interior_dofs.size]
        assert system.matrix is None

    def test_singular_pressure_raises(self):
        # No essential pressure data: the pressure is fixed only up to
        # a constant.
        mesh = build_rect_mesh(UNIT, 0.25, order=2)
        bc = BoundarySpec({side: IMPERMEABLE for side in ("left", "right", "bottom")})
        system = assemble_darcy(mesh, FemConfig(order=2), MU, KAPPA, bc=bc)
        with pytest.raises(RuntimeError, match="singular"):
            system.factor


def reference_rows(parts):
    """Per-node loop and key sort that :func:`nodal_rows` replaced."""
    rows = []
    for mesh, x, nodes, tag in parts:
        n = mesh.n_nodes
        coords = mesh.node_coords
        for i in nodes:
            rows.append(
                (coords[i, 0], coords[i, 1], x[i], x[i + n], x[i + 2 * n], tag)
            )
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


@given(
    nex=st.integers(1, 5),
    ney=st.integers(1, 5),
    order=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_nodal_rows_match_sorted_loop(nex, ney, order, seed):
    rng = np.random.default_rng(seed)
    upper = StructuredMesh(np.linspace(0, 1, nex + 1), np.linspace(0, 1, ney + 1), order)
    lower = StructuredMesh(np.linspace(0, 1, nex + 2), np.linspace(-1, 0, ney + 1), order)
    parts = []
    for mesh, tag in ((upper, "upper"), (lower, "lower")):
        system = assemble_darcy(mesh, FemConfig(order=order), MU, KAPPA)
        nodes = np.flatnonzero(rng.random(mesh.n_nodes) < 0.7)
        parts.append((mesh, rng.standard_normal(system.n_dofs), nodes, tag))
    # The meshes share the line y = 0, so equal (y, x) keys occur.
    assert nodal_rows(parts) == reference_rows(parts)
