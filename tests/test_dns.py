"""Pore-scale reference solver on perforated geometry."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokesdarcy.dns import DnsResolution, solve_dns
from stokesdarcy.mesh import H_MAX_FACTOR, RectDomain, build_perforated_mesh
from stokesdarcy.presets import PRESETS


@pytest.fixture(scope="module")
def solution():
    """Small pore-scale solve: lid cavity, two cell rows, order 1."""
    preset = PRESETS[1]
    lattice = preset.lattice(0.25, 0.6)
    return solve_dns(preset, lattice, DnsResolution(n_per_cell=10, order=1))


class TestResolution:
    def test_defaults(self):
        res = DnsResolution()
        assert res.n_per_cell == 10
        assert res.order == 2

    @pytest.mark.parametrize(
        ("cells", "order"), [(1, 1), (0, 2), (10, 3), (10, 0)]
    )
    def test_invalid_raises(self, cells, order):
        with pytest.raises(ValueError):
            DnsResolution(n_per_cell=cells, order=order)


class TestLineSet:
    def test_uniform_in_band_graded_above(self):
        preset = PRESETS[1]
        lattice = preset.lattice(0.25, 0.6)
        ys = build_perforated_mesh(preset.domain, lattice, 10, order=1).ys
        h = 0.25 / 10
        in_band = ys[(ys >= -0.5 - 1e-15) & (ys <= 1e-15)]
        np.testing.assert_allclose(np.diff(in_band), h, rtol=1e-12)
        above = ys[ys >= -1e-15]
        assert np.all(np.diff(above) <= H_MAX_FACTOR * h * (1 + 1e-9))
        assert ys[0] == preset.domain.y0 and ys[-1] == preset.domain.y1

    @pytest.mark.parametrize(
        "domain",
        [RectDomain(-0.5, 0.5, -0.5, -0.25), RectDomain(-0.5, 0.5, -0.75, 1.0)],
        ids=["ends_below_band_top", "starts_below_band"],
    )
    def test_band_outside_domain_raises(self, domain):
        lattice = PRESETS[1].lattice(0.25, 0.6)
        with pytest.raises(ValueError, match="start at the domain bottom"):
            build_perforated_mesh(domain, lattice, 10, order=1)


class TestSolution:
    def test_divergence_small(self, solution):
        # The lid speed is order one, so an absolute bound is meaningful.
        assert solution.divergence() < 1e-5

    def test_noslip_on_obstacles(self, solution):
        rim = solution.mesh.obstacle_boundary_nodes
        speeds = np.linalg.norm(solution.velocity.values[rim], axis=1)
        assert speeds.max() < 1e-12

    def test_lid_velocity_attained(self, solution):
        mesh = solution.mesh
        top = mesh.boundary_nodes("top")
        interior = np.abs(mesh.node_coords[top, 0]) < 0.45
        u1 = solution.velocity.values[top][interior, 0]
        assert np.all(u1 > 0.0)

    def test_speed_decays_into_bed(self, solution):
        s0 = solution.mean_speed(0.0)
        s1 = solution.mean_speed(-0.25)
        s2 = solution.mean_speed(-0.5)
        assert s0 > s1 > s2 >= 0.0

    def test_sample_rows_skip_solid_nodes(self, solution):
        table = solution.sample_rows()
        active = int(solution.mesh.node_active.sum())
        assert {len(column) for column in table.values()} == {active}
        assert set(table["domain"]) == {"dns"}


@pytest.mark.parametrize("order", [1, 2])
def test_nested_dissection_factor_matches_colamd(order, dns_systems):
    preset = PRESETS[1]
    solve_dns(
        preset, preset.lattice(0.25, 0.6), DnsResolution(n_per_cell=10, order=order)
    )
    (system,) = dns_systems
    factor = system.factor
    b = np.random.default_rng(order).standard_normal(factor.shape[0])
    x_ref = spla.splu(sp.csc_matrix(system.interior_matrix)).solve(b)
    assert np.abs(factor.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


@pytest.mark.parametrize("preset_id", [2, 3])
def test_filtration_presets_solve(preset_id):
    """The forced-filtration presets, driven by the bottom traction,
    give finite, nonzero fields (preset 2 has no body force, so its flow
    is the traction's alone)."""
    preset = PRESETS[preset_id]
    solution = solve_dns(
        preset, preset.lattice(0.25, 0.6), DnsResolution(n_per_cell=5, order=1)
    )
    for field in (solution.velocity, solution.pressure):
        assert np.all(np.isfinite(field.values)) and np.any(field.values != 0.0)
