"""Region quadrature, error norms, reconstruction and study helpers."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import dns as dns_module
from stokesdarcy import validate
from stokesdarcy.dns import DnsResolution, solve_dns
from stokesdarcy.fem import Field
from stokesdarcy.homogenize import permeability_dimensional
from stokesdarcy.icdd import (
    CompositeSolution,
    assemble_problem,
    icdd_solve,
)
from stokesdarcy.linalg import KrylovConfig
from stokesdarcy.mesh import (
    ObstacleLattice,
    RectDomain,
    build_perforated_mesh,
    build_rect_mesh,
)
from stokesdarcy.presets import CONFIGURATIONS, PRESETS
from stokesdarcy.validate import (
    ErrorReport,
    ReconstructedVelocity,
    RegionSpec,
    SweepResult,
    compare_solutions,
    error_slopes,
    l2_error,
    l2_norm,
    region_quadrature,
    validation_regions,
)

BAND = RectDomain(-0.5, 0.5, -0.5, 0.0)


class TestRegions:
    def test_region_requires_positive_height(self):
        with pytest.raises(ValueError):
            RegionSpec("fluid", 0.2, 0.1)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            RegionSpec("everywhere", 0.0, 1.0)

    def test_validation_regions_layout(self):
        regions = validation_regions(PRESETS[1], delta=0.02, ell=0.1)
        assert regions["fluid"].y0 == pytest.approx(-0.02)
        assert regions["fluid"].y1 == pytest.approx(1.0)
        assert regions["porous"].y0 == pytest.approx(-0.5)
        assert regions["porous"].y1 == pytest.approx(-0.02)
        assert regions["porous_deep"].y1 == pytest.approx(-0.1)


class TestRegionQuadrature:
    @given(
        y0=st.floats(-0.45, 0.3),
        height=st.floats(0.05, 0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_weights_sum_to_clipped_area(self, y0, height):
        mesh = build_rect_mesh(RectDomain(-0.5, 0.5, -0.5, 1.0), 0.125, order=1)
        region = RegionSpec("fluid", y0, y0 + height)
        _, weights = region_quadrature(mesh, region)
        assert weights.sum() == pytest.approx(1.0 * height, rel=1e-12)

    def test_perforated_area_matches_rectangle_oracle(self):
        lattice = ObstacleLattice(0.25, 0.6, BAND)
        domain = RectDomain(-0.5, 0.5, -0.5, 1.0)
        mesh = build_perforated_mesh(domain, lattice, n_per_cell=5, order=1)
        region = RegionSpec("porous", -0.4, -0.1)
        points, weights = region_quadrature(mesh, region)
        # Oracle: accumulate exact rectangle intersections element-wise.
        total = 0.0
        for e in np.flatnonzero(mesh.active):
            ex, ey = e % mesh.nex, e // mesh.nex
            w = mesh.xs[ex + 1] - mesh.xs[ex]
            h = min(mesh.ys[ey + 1], region.y1) - max(mesh.ys[ey], region.y0)
            if h > 0:
                total += w * h
        assert weights.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(points[:, 1] >= region.y0)
        assert np.all(points[:, 1] <= region.y1)

    def test_empty_region_raises(self):
        mesh = build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 1.0), 0.25, order=1)
        with pytest.raises(ValueError, match="misses the active mesh"):
            region_quadrature(mesh, RegionSpec("fluid", 2.0, 3.0))


class TestL2Error:
    def _mesh(self):
        return build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 1.0), 0.125, order=2)

    def test_identical_fields_zero(self):
        mesh = self._mesh()
        field = Field(mesh, mesh.node_coords[:, 0] ** 2)
        region = RegionSpec("fluid", 0.0, 1.0)
        assert l2_error(field, field, region, mesh) == 0.0

    def test_linear_field_analytic(self):
        # || x - 0 || over the unit square is 1/sqrt(3).
        mesh = self._mesh()
        field = Field(mesh, mesh.node_coords[:, 0])
        region = RegionSpec("fluid", 0.0, 1.0)
        zero = Field(mesh, np.zeros(mesh.n_nodes))
        assert l2_error(field, zero, region, mesh) == pytest.approx(
            1.0 / np.sqrt(3.0), rel=1e-12
        )
        assert l2_norm(field, region, mesh) == pytest.approx(
            1.0 / np.sqrt(3.0), rel=1e-12
        )

    def test_mean_alignment_removes_constant_offset(self):
        mesh = self._mesh()
        region = RegionSpec("fluid", 0.0, 1.0)
        base = mesh.node_coords[:, 0] ** 2
        a = Field(mesh, base)
        b = Field(mesh, base + 3.7)
        assert l2_error(a, b, region, mesh) == pytest.approx(3.7, rel=1e-12)
        assert l2_error(a, b, region, mesh, align_mean=True) < 1e-12

    def test_pythagorean_split(self):
        mesh = self._mesh()
        field = Field(mesh, np.sin(3 * mesh.node_coords[:, 1]))
        zero = Field(mesh, np.zeros(mesh.n_nodes))
        whole = l2_error(field, zero, RegionSpec("fluid", 0.0, 1.0), mesh)
        lower = l2_error(field, zero, RegionSpec("fluid", 0.0, 0.5), mesh)
        upper = l2_error(field, zero, RegionSpec("fluid", 0.5, 1.0), mesh)
        assert whole**2 == pytest.approx(lower**2 + upper**2, rel=1e-12)

    def test_vector_fields_and_callables_agree(self):
        mesh = self._mesh()
        values = np.column_stack(
            [mesh.node_coords[:, 0], 2.0 * mesh.node_coords[:, 1]]
        )
        field = Field(mesh, values)
        region = RegionSpec("fluid", 0.0, 1.0)

        def exact(points):
            return np.column_stack([points[:, 0], 2.0 * points[:, 1]])

        assert l2_error(field, exact, region, mesh) < 1e-13

    def test_shape_mismatch_raises(self):
        mesh = self._mesh()
        scalar = Field(mesh, mesh.node_coords[:, 0])
        vector = Field(mesh, mesh.node_coords.copy())
        with pytest.raises(ValueError, match="shape"):
            l2_error(scalar, vector, RegionSpec("fluid", 0.0, 1.0), mesh)


class TestReconstruction:
    def test_cell_average_identity(self, cell_small):
        """Averaging the reconstruction over one period returns the input."""
        ell = 0.25
        recon = ReconstructedVelocity(
            cell_small, ObstacleLattice(ell, cell_small.s_hat, BAND)
        )
        # Nested quadrature host: 20 elements per period nests the
        # 10-element cell mesh exactly.
        host = build_rect_mesh(BAND, ell / 20.0, order=1)
        pts, wts = region_quadrature(
            host, RegionSpec("porous", *[-0.5, 0.0]), n_gauss=3
        )
        values = recon.modulate(pts, np.tile([3.0e-4, -2.0e-4], (len(pts), 1)))
        avg = (wts[:, None] * values).sum(axis=0) / BAND.area
        np.testing.assert_allclose(avg, [3.0e-4, -2.0e-4], rtol=1e-10)

    def test_vanishes_on_obstacle_images(self, cell_small):
        ell = 0.25
        recon = ReconstructedVelocity(
            cell_small, ObstacleLattice(ell, cell_small.s_hat, BAND)
        )
        centers = np.array([[-0.375, -0.375], [0.125, -0.125]])
        macro = np.tile([1.0e-3, 5.0e-4], (len(centers), 1))
        np.testing.assert_allclose(recon.modulate(centers, macro), 0.0, atol=1e-15)


class TestStudyHelpers:
    def test_error_slopes_recover_power_laws(self):
        ells = [0.1, 0.05, 0.025]
        reports = [
            ErrorReport(
                configuration="C1",
                ell=ell,
                errors={"u_fluid": 2.0 * ell**1.5, "p_fluid": 0.3 * ell**0.5},
                norms={"u_fluid": 1.0, "p_fluid": 1.0},
            )
            for ell in ells
        ]
        slopes = error_slopes(reports)
        assert slopes["u_fluid"] == pytest.approx(1.5, abs=1e-12)
        assert slopes["p_fluid"] == pytest.approx(0.5, abs=1e-12)

    def test_error_slopes_flag_degenerate_values(self):
        reports = [
            ErrorReport("C1", ell, {"u_fluid": 0.0}, {"u_fluid": 1.0})
            for ell in (0.1, 0.05)
        ]
        assert np.isnan(error_slopes(reports)["u_fluid"])

    def test_relative_reading(self):
        report = ErrorReport("C1", 0.1, {"u_fluid": 0.02}, {"u_fluid": 4.0})
        assert report.relative("u_fluid") == pytest.approx(0.005)

    @pytest.mark.parametrize(
        ("errors", "interior"),
        [
            ([3.0, 1.0, 2.0], True),
            ([1.0, 2.0, 3.0], False),
            ([3.0, 2.0, 1.0], False),
            ([2.0, 2.0, 2.5], True),
        ],
    )
    def test_interior_minimum_table(self, errors, interior):
        sweep = SweepResult(
            deltas=[0.01, 0.02, 0.03], errors=errors, delta_star=0.02
        )
        assert sweep.is_interior_minimum() is interior

    def test_interior_minimum_in_thickness_order(self):
        """Factors 1, 1.5, 0.5: the neighbors of the predicted thickness
        are the ones next to it in size, not in the list."""
        deltas = [0.052, 0.078, 0.026]
        beaten = SweepResult(deltas, [5.7e-8, 6.0e-8, 5.4e-8], delta_star=0.052)
        assert beaten.is_interior_minimum() is False
        best = SweepResult(deltas, [5.4e-8, 6.0e-8, 5.7e-8], delta_star=0.052)
        assert best.is_interior_minimum() is True


def per_metric_errors(composite, dns, cell, delta, ell, preset):
    """Reference for :func:`compare_solutions`: every metric on its own
    quadrature rule, each field evaluated by point location."""
    regions = validation_regions(preset, delta, ell)
    mesh = dns.mesh
    align = preset.pin_pressure
    recon = ReconstructedVelocity(cell, preset.lattice(ell, cell.s_hat))

    def velocity(points):
        return composite.evaluate(points)[0]

    def pressure(points):
        return composite.evaluate(points)[1]

    def reconstructed(points):
        return recon.modulate(points, composite.darcy_velocity.eval(points))

    errors, norms = {}, {}
    for name, region in regions.items():
        u = velocity if name == "fluid" else reconstructed
        errors[f"u_{name}"] = l2_error(u, dns.velocity, region, mesh)
        norms[f"u_{name}"] = l2_norm(dns.velocity, region, mesh)
        errors[f"p_{name}"] = l2_error(
            pressure, dns.pressure, region, mesh, align_mean=align
        )
        norms[f"p_{name}"] = l2_norm(dns.pressure, region, mesh)
    return errors, norms


class TestCompareSolutions:
    """The single-pass comparison against the per-metric reference."""

    DNS_ELL = 0.25

    @pytest.mark.parametrize(
        ("preset_id", "dns_order", "delta", "ell"),
        [
            (1, 1, 0.0337, DNS_ELL),
            (2, 2, 0.0337, DNS_ELL),
            (1, 2, 0.08, 0.05),
            (3, 1, 0.08, 0.05),
        ],
        ids=["pinned-q1", "free-q2", "pinned-q2-deep-straddles", "free-q1-deep-straddles"],
    )
    def test_matches_per_metric_reference(
        self, cell_small, preset_id, dns_order, delta, ell
    ):
        preset = PRESETS[preset_id]
        dns = solve_dns(
            preset,
            preset.lattice(self.DNS_ELL, cell_small.s_hat),
            DnsResolution(n_per_cell=5, order=dns_order),
        )
        # Shift the reference pressure level: the comparison must remove
        # it exactly when the preset fixes pressure only up to a constant.
        dns.pressure = Field(dns.mesh, dns.pressure.values + 1e-8)
        # The lower interface cuts DNS elements, and with ell < delta the
        # deep porous region reaches above it.
        assert np.min(np.abs(dns.mesh.ys + delta)) > 1e-3
        assert (ell < delta) == (ell == 0.05)
        problem = assemble_problem(
            1,
            delta,
            1.0 / 8.0,
            preset,
            permeability_dimensional(cell_small.k_scalar(), ell),
        )
        composite = icdd_solve(problem, KrylovConfig(tol=1e-8)).composite
        report = compare_solutions(composite, dns, cell_small, delta, ell, preset)
        errors, norms = per_metric_errors(
            composite, dns, cell_small, delta, ell, preset
        )
        assert list(report.errors) == list(errors)
        for key in errors:
            assert report.errors[key] > 0.0
            assert report.errors[key] == pytest.approx(errors[key], rel=1e-12)
            assert report.norms[key] == pytest.approx(norms[key], rel=1e-12)


def holds_sparse_matrix(obj) -> bool:
    """Whether a sparse matrix is reachable from ``obj`` through
    instance attributes and containers."""
    seen, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if sp.issparse(item):
            return True
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return False


class TestStudyMembers:
    """A study member has freed the pore-scale system before it
    assembles its coupled problem, and the subdomain systems before it
    evaluates the coupled solution: errors are computed from meshes and
    fields alone."""

    STUDY = dict(
        order=1,
        hx=0.125,
        dns_resolution=DnsResolution(n_per_cell=10, order=1),
        cell_resolution=10,
    )

    @staticmethod
    def watch(monkeypatch):
        """For each coupled assembly, whether each pore-scale system
        assembled so far has been freed; for each evaluation of a
        coupled solution, whether the solution holds a sparse matrix
        and whether every coupled problem assembled so far has been
        freed."""
        systems, problems, freed, evaluated = [], [], [], []
        assemble_dns, assemble = dns_module.assemble_stokes, validate.assemble_problem
        evaluate = CompositeSolution.evaluate

        def recording_dns(*args, **kwargs):
            system = assemble_dns(*args, **kwargs)
            systems.append(weakref.ref(system))
            return system

        def checking_assemble(*args):
            freed.append([ref() is None for ref in systems])
            problem = assemble(*args)
            problems.append(weakref.ref(problem))
            return problem

        def checking_evaluate(composite, *args, **kwargs):
            dead = all(ref() is None for ref in problems)
            evaluated.append((holds_sparse_matrix(composite), dead))
            return evaluate(composite, *args, **kwargs)

        monkeypatch.setattr(dns_module, "assemble_stokes", recording_dns)
        monkeypatch.setattr(validate, "assemble_problem", checking_assemble)
        monkeypatch.setattr(CompositeSolution, "evaluate", checking_evaluate)
        return freed, evaluated

    def test_convergence_study(self, monkeypatch):
        freed, evaluated = self.watch(monkeypatch)
        references = []
        compare = validate.compare_solutions

        def recording_compare(composite, reference, *args, **kwargs):
            references.append(holds_sparse_matrix(reference))
            references.append(holds_sparse_matrix(composite))
            return compare(composite, reference, *args, **kwargs)

        monkeypatch.setattr(validate, "compare_solutions", recording_compare)
        validate.convergence_study(
            PRESETS[1], CONFIGURATIONS["C1"], [0.25, 0.125], **self.STUDY
        )
        assert references == [False, False, False, False]
        assert freed == [[True], [True, True]]
        # Three regions per member.
        assert evaluated == [(False, True)] * 6

    def test_members_mapped_finest_period_first(self):
        # The mapper gets the costliest member first; the reports keep
        # the order of the given periods.
        handed = []

        def recording_map(fn, ells, deltas):
            handed.append(list(ells))
            return map(fn, ells, deltas)

        ells = [0.125, 0.25, 0.1]
        study = validate.convergence_study(
            PRESETS[1], CONFIGURATIONS["C1"], ells, mapper=recording_map, **self.STUDY
        )
        assert handed == [[0.1, 0.125, 0.25]]
        assert [r.ell for r in study.reports] == ells

    def test_delta_sweep(self, monkeypatch):
        freed, evaluated = self.watch(monkeypatch)
        validate.delta_sweep(PRESETS[1], CONFIGURATIONS["C2"], 0.25, **self.STUDY)
        assert freed == [[True]] * 3
        assert evaluated == [(False, True)] * 3
