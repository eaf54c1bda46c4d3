"""Overlapping two-domain coupling: traces, interface operator, solves."""

from __future__ import annotations

import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import fem, icdd
from stokesdarcy.fem import FemConfig
from stokesdarcy.icdd import (
    IcddGeometry,
    IcddPhysics,
    assemble_problem,
    icdd_solve,
    monolithic_solve,
    schur_apply,
    schur_rhs,
    schur_solve,
)
from stokesdarcy.linalg import KrylovConfig, TensorSolver
from stokesdarcy.mesh import nested_dissection_order
from stokesdarcy.presets import CONFIGURATIONS, PRESETS

#: Coarse, fast instance used throughout this module.
COARSE = dict(delta=0.036, hx=0.1)


def coarse_problem():
    physics = IcddPhysics(preset=PRESETS[1], permeability=7.231e-6)
    return assemble_problem(FemConfig(order=1), IcddGeometry(**COARSE), physics)


@pytest.fixture(scope="module")
def problem():
    return coarse_problem()


def scaled(problem, lam):
    """Copy of ``problem`` with every load and boundary datum times ``lam``."""
    out = copy.copy(problem)
    for name in ("stokes", "darcy"):
        system = copy.copy(getattr(problem, name))
        system.rhs = lam * system.rhs
        system.dirichlet_values = lam * system.dirichlet_values
        system.__dict__.pop("interior_rhs", None)
        setattr(out, name, system)
    return out


def bits(value) -> tuple:
    """The format, shape, dtypes and bytes of a dense or sparse array."""
    if sp.issparse(value):
        parts = (value.indptr, value.indices, value.data)
        return (value.format, value.shape, *((a.dtype, a.tobytes()) for a in parts))
    return (value.dtype, value.shape, value.tobytes())


def dense_schur(problem):
    """The interface operator assembled column by column."""
    n = problem.n_g
    s = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        s[:, j] = schur_apply(problem, e)
    return s


class TestGeometryConfig:
    def test_defaults_derived(self):
        geo = IcddGeometry(delta=0.02, hx=0.05)
        assert geo.h_fine == pytest.approx(0.01)
        assert geo.h_max == pytest.approx(0.2)

    @pytest.mark.parametrize(
        ("delta", "hx"),
        [(0.0, 0.1), (-0.01, 0.1), (0.6, 0.1), (0.02, 0.0)],
    )
    def test_invalid_raises(self, delta, hx):
        with pytest.raises(ValueError):
            IcddGeometry(delta=delta, hx=hx)

    def test_nonpositive_permeability_raises(self):
        with pytest.raises(ValueError, match="permeability"):
            IcddPhysics(preset=PRESETS[1], permeability=0.0)


class TestProblemStructure:
    def test_subdomain_meshes_share_overlap_lines(self, problem):
        ys_f = problem.stokes.mesh.ys
        ys_p = problem.darcy.mesh.ys
        assert ys_f[0] == pytest.approx(-COARSE["delta"])
        assert ys_p[-1] == pytest.approx(0.0)
        overlap_f = ys_f[ys_f <= 1e-15]
        overlap_p = ys_p[ys_p >= -COARSE["delta"] - 1e-15]
        np.testing.assert_allclose(overlap_f, overlap_p, atol=1e-14)

    def test_control_sizes(self, problem):
        assert problem.n_gf == 2 * problem.stokes.interface_nodes.size
        assert problem.n_gp == problem.trace_pressure.size
        assert problem.n_g == problem.n_gf + problem.n_gp

    def test_trace_maps_hit_interior_unknowns(self, problem):
        from stokesdarcy.fem import KIND_INTERIOR

        assert np.all(
            problem.darcy.kind[problem.trace_velocity] == KIND_INTERIOR
        )
        assert np.all(
            problem.stokes.kind[problem.trace_pressure] == KIND_INTERIOR
        )

    def test_trace_coordinates_on_interfaces(self, problem):
        sm, dm = problem.stokes.mesh, problem.darcy.mesh
        iface = problem.stokes.interface_nodes
        np.testing.assert_allclose(
            sm.node_coords[iface, 1], -COARSE["delta"], atol=1e-14
        )
        # The x-velocity dof of a node is the node id itself, so the
        # even trace entries identify the sampled porous nodes.
        nodes = problem.trace_velocity[0::2]
        np.testing.assert_allclose(
            dm.node_coords[nodes, 1], -COARSE["delta"], atol=1e-14
        )
        np.testing.assert_allclose(
            dm.node_coords[nodes, 0], sm.node_coords[iface, 0], atol=1e-14
        )

    def test_split_and_concat_roundtrip(self, problem):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(problem.n_g)
        g_f, g_p = problem.split(g)
        assert g_f.size == problem.n_gf and g_p.size == problem.n_gp
        np.testing.assert_array_equal(np.concatenate([g_f, g_p]), g)


class TestSubdomainFactors:
    @pytest.mark.parametrize("name", ["stokes", "darcy"])
    def test_nested_dissection_matches_colamd(self, problem, name):
        system = getattr(problem, name)
        factor = system.factor
        b = np.random.default_rng(0).standard_normal(factor.shape[0])
        x_ref = spla.splu(sp.csc_matrix(system.interior_matrix)).solve(b)
        assert np.abs(factor.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_one_factorize_per_system(self, monkeypatch):
        # The Stokes subdomain is factored once.  The Darcy subdomain, a
        # hole-free tensor-product system, needs no sparse factor.
        shapes = []
        real = fem.factorize

        def counting(block):
            shapes.append(block.shape[0])
            return real(block)

        monkeypatch.setattr(fem, "factorize", counting)
        fresh = coarse_problem()
        icdd_solve(fresh, KrylovConfig(tol=1e-10))
        assert shapes == [fresh.stokes.interior_dofs.size]
        assert isinstance(fresh.darcy.factor, TensorSolver)

    @pytest.mark.parametrize("name", ["stokes", "darcy"])
    def test_pieces_read_alike_before_and_after_factoring(self, name):
        system = getattr(coarse_problem(), name)
        matrix, inner = system.matrix, system.interior_dofs
        lift = np.zeros(system.n_dofs)
        lift[system.dirichlet_dofs] = system.dirichlet_values[system.dirichlet_dofs]
        # What the accessors read off the assembled matrix.
        expected = {
            "interior_matrix": matrix[inner][:, inner].tocsr(),
            "interface_matrix": matrix[:, system.interface_dofs][inner].tocsr(),
            "interior_rhs": system.rhs[inner] - (matrix @ lift)[inner],
        }
        early = copy.copy(system)
        system.factor
        assert system.matrix is None and early.matrix is matrix
        for key, value in expected.items():
            assert bits(getattr(early, key)) == bits(value), key
            assert bits(getattr(system, key)) == bits(value), key
        # A copy with scaled data recomputes its load from the pieces.
        copied = copy.copy(system)
        copied.rhs = 3.0 * system.rhs
        copied.dirichlet_values = 3.0 * system.dirichlet_values
        copied.__dict__.pop("interior_rhs")
        assert bits(copied.interior_rhs) == bits(
            copied.rhs[inner] - (matrix @ (3.0 * lift))[inner]
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_factor_order_unchanged_by_weights(self, order):
        # A subdomain is a rectangle without obstacles: the interior
        # unknowns of a node depend only on the boundary sides it lies
        # on, so all candidate separator lines of a block weigh the same
        # and every separator stays the middle line.
        physics = IcddPhysics(preset=PRESETS[1], permeability=7.231e-6)
        problem = assemble_problem(
            FemConfig(order=order), IcddGeometry(**COARSE), physics
        )
        for system in (problem.stokes, problem.darcy):
            n = system.n_nodes
            plain = nested_dissection_order(system.mesh.nnx, system.mesh.nny, order)
            dofs = system.interior_dofs
            nodes = dofs[dofs < 3 * n] % n
            first = np.sort(np.unique(nodes, return_index=True)[1])
            np.testing.assert_array_equal(
                nodes[first], plain[np.isin(plain, nodes)]
            )


class TestSchurOperator:
    def test_linear_in_controls(self, problem):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(problem.n_g)
        v = rng.standard_normal(problem.n_g)
        left = schur_apply(problem, 2.0 * u - 3.0 * v)
        right = 2.0 * schur_apply(problem, u) - 3.0 * schur_apply(problem, v)
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_matches_block_elimination(self, problem):
        """Probe the operator and compare with explicit elimination."""
        s_probe = dense_schur(problem)
        # Independent route: eliminate each subdomain with a direct
        # factorization of its interior block and build I - P^2.
        n_f, n_p = problem.n_gf, problem.n_gp
        p21 = np.empty((n_f, n_p))
        for j in range(n_p):
            e = np.zeros(n_p)
            e[j] = 1.0
            x_p = problem.darcy.solve(e, include_data=False)
            p21[:, j] = x_p[problem.trace_velocity]
        p12 = np.empty((n_p, n_f))
        for j in range(n_f):
            e = np.zeros(n_f)
            e[j] = 1.0
            x_f = problem.stokes.solve(e, include_data=False)
            p12[:, j] = x_f[problem.trace_pressure]
        s_dense = np.eye(n_f + n_p)
        s_dense[:n_f, :n_f] -= p21 @ p12
        s_dense[n_f:, n_f:] -= p12 @ p21
        np.testing.assert_allclose(s_probe, s_dense, atol=1e-12)

    def test_eigenvalues_cluster_at_one(self, problem):
        eigvals = np.linalg.eigvals(dense_schur(problem))
        assert np.all(np.abs(eigvals - 1.0) < 0.1)


class TestInterfaceSolve:
    def test_residual_definition(self, problem):
        g, info = schur_solve(problem, KrylovConfig(tol=1e-10))
        assert info["converged"]
        b = schur_rhs(problem)
        res = np.linalg.norm(schur_apply(problem, g) - b)
        assert res <= 1e-9 * np.linalg.norm(b)

    @given(exponent=st.floats(-12.0, 6.0))
    @settings(max_examples=15, deadline=None)
    def test_invariant_under_data_scale(self, problem, exponent):
        lam = 10.0**exponent
        g_ref, info_ref = schur_solve(problem)
        g, info = schur_solve(scaled(problem, lam))
        assert np.linalg.norm(g - lam * g_ref) <= 1e-10 * lam * np.linalg.norm(g_ref)
        assert info["iterations"] == info_ref["iterations"]
        assert info["breakdowns"] == info_ref["breakdowns"]

    def test_failure_reported(self, problem):
        with pytest.raises(RuntimeError, match="interface solver"):
            schur_solve(problem, KrylovConfig(tol=1e-30, maxiter=1))

    @given(
        tol=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(-14.0, -1.0).map(lambda e: 10.0**e),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_result_meets_matching_bound_or_raises(self, problem, tol):
        try:
            result = icdd_solve(problem, KrylovConfig(tol=tol))
        except RuntimeError as err:
            assert "interface solve" in str(err)
            return
        bound = icdd.MATCHING_FACTOR * tol
        assert result.matching_velocity <= bound
        assert result.matching_pressure <= bound

    def test_matching_residual_above_bound_raises(self, problem, monkeypatch):
        monkeypatch.setattr(icdd, "MATCHING_FACTOR", 0.0)
        with pytest.raises(
            RuntimeError,
            match=r"interface solve stopped with matching_velocity \d\.\d\de-\d\d "
            r"above 0 \* tol = 0\.00e\+00",
        ):
            icdd_solve(problem, KrylovConfig(tol=1e-8))


class TestCoupledSolutions:
    def test_icdd_matches_monolithic(self, problem):
        result = icdd_solve(problem, KrylovConfig(tol=1e-12))
        reference = monolithic_solve(problem)
        pts = problem.stokes.mesh.node_coords[::5]
        fields = zip(
            result.composite.evaluate(pts), reference.composite.evaluate(pts)
        )
        for a, b in fields:
            num = np.linalg.norm(a - b)
            den = np.linalg.norm(b) + 1e-300
            assert num / den < 1e-8

    def test_matching_residuals_small(self, problem):
        result = icdd_solve(problem, KrylovConfig(tol=1e-10))
        assert result.matching_velocity < 1e-8
        assert result.matching_pressure < 1e-8
        assert result.dual_velocity < 1e-8
        assert result.dual_pressure < 1e-8

    def test_monolithic_matching_exact(self, problem):
        reference = monolithic_solve(problem)
        assert reference.matching_velocity < 1e-10
        assert reference.matching_pressure < 1e-10

    def test_iteration_count_small(self, problem):
        result = icdd_solve(problem, KrylovConfig(tol=1e-8))
        assert result.info["converged"]
        assert result.info["iterations"] <= 10

    def test_composite_splits_at_interface(self, problem):
        result = icdd_solve(problem, KrylovConfig(tol=1e-10))
        comp = result.composite
        above = np.array([[0.2, 0.5]])
        below = np.array([[0.2, -0.3]])
        np.testing.assert_allclose(
            comp.evaluate(above)[0],
            comp.stokes_velocity.eval(above),
            atol=0.0,
        )
        np.testing.assert_allclose(
            comp.evaluate(below)[1],
            comp.darcy_pressure.eval(below),
            atol=0.0,
        )

    def test_sample_rows_sorted_and_tagged(self, problem):
        result = icdd_solve(problem, KrylovConfig(tol=1e-8))
        rows = result.composite.sample_rows()
        ys = np.array([r[1] for r in rows])
        assert np.all(np.diff(ys) >= 0)
        tags = {r[5] for r in rows}
        assert tags == {"stokes", "darcy"}
        # Porous samples stay strictly below the overlap.
        darcy_y = np.array([r[1] for r in rows if r[5] == "darcy"])
        assert darcy_y.max() < -COARSE["delta"]


@pytest.mark.parametrize("preset_id", [2, 3])
def test_filtration_presets_solve(preset_id):
    """The forced-filtration presets, with a porous bottom pressure
    instead of a wall, give finite, nonzero fields in both subdomains."""
    configuration, ell = CONFIGURATIONS["C2"], 0.25
    problem = assemble_problem(
        FemConfig(order=1),
        IcddGeometry(delta=configuration.delta_star(ell), hx=0.1),
        IcddPhysics(
            preset=PRESETS[preset_id], permeability=configuration.k_hat * ell**2
        ),
    )
    sol = icdd_solve(problem, KrylovConfig()).composite
    for field in (
        sol.stokes_velocity, sol.stokes_pressure, sol.darcy_velocity, sol.darcy_pressure
    ):
        assert np.all(np.isfinite(field.values)) and np.any(field.values != 0.0)
