"""Structured meshes, graded line sets and perforated geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy.mesh import (
    GROWTH,
    ND_LEAF_SIZE,
    ObstacleLattice,
    RectDomain,
    StructuredMesh,
    build_perforated_mesh,
    build_rect_mesh,
    graded_lines,
    nested_dissection_order,
    overlap_line_set,
)


class TestRectDomain:
    def test_extents(self):
        dom = RectDomain(-0.5, 0.5, -0.5, 1.0)
        assert dom.width == 1.0
        assert dom.height == 1.5
        assert dom.area == 1.5

    @pytest.mark.parametrize(
        ("x0", "x1", "y0", "y1"),
        [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0)],
    )
    def test_degenerate_raises(self, x0, x1, y0, y1):
        with pytest.raises(ValueError, match="degenerate"):
            RectDomain(x0, x1, y0, y1)


class TestStructuredMesh:
    @pytest.mark.parametrize("order", [1, 2])
    def test_node_lattice(self, order):
        mesh = build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 2.0), 0.25, order=order)
        assert mesh.nex == 4 and mesh.ney == 8
        assert mesh.nnx == order * 4 + 1
        assert mesh.nny == order * 8 + 1
        assert mesh.n_nodes == mesh.nnx * mesh.nny
        assert mesh.node_coords.shape == (mesh.n_nodes, 2)
        np.testing.assert_allclose(
            mesh.node_x, np.linspace(0.0, 1.0, mesh.nnx), atol=1e-15
        )

    def test_element_areas_sum_to_domain(self):
        xs = np.array([0.0, 0.3, 0.55, 1.0])
        ys = np.array([0.0, 0.5, 0.6, 0.9, 1.0])
        mesh = StructuredMesh(xs, ys, order=2)
        assert mesh.element_areas.sum() == pytest.approx(1.0)
        assert mesh.active_area == pytest.approx(1.0)

    def test_line_index_exact_rows(self):
        mesh = build_rect_mesh(RectDomain(0.0, 1.0, -0.5, 0.5), 0.125, order=2)
        j = mesh.line_index(0.0)
        assert mesh.node_y[j] == pytest.approx(0.0, abs=1e-15)

    def test_line_index_off_grid_raises(self):
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([0.0, 0.02, 1.0])
        mesh = StructuredMesh(xs, ys, order=1)
        with pytest.raises(ValueError, match="mesh line"):
            mesh.line_index(0.3)
        with pytest.raises(ValueError, match="mesh line"):
            mesh.line_index(-0.5)

    @pytest.mark.parametrize(
        ("xs", "ys"),
        [
            ([0.0, 1.0, 0.5], [0.0, 1.0]),
            ([0.0], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, 0.0, 1.0]),
        ],
    )
    def test_bad_lines_raise(self, xs, ys):
        with pytest.raises(ValueError):
            StructuredMesh(np.array(xs, dtype=float), np.array(ys, dtype=float))

    def test_boundary_nodes_sides(self):
        mesh = build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 1.0), 0.5, order=1)
        coords = mesh.node_coords
        for side, axis, value in [
            ("left", 0, 0.0),
            ("right", 0, 1.0),
            ("bottom", 1, 0.0),
            ("top", 1, 1.0),
        ]:
            ids = mesh.boundary_nodes(side)
            np.testing.assert_allclose(coords[ids, axis], value, atol=1e-15)


class TestObstacleLattice:
    def test_porosity_exact(self):
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        lat = ObstacleLattice(0.1, 0.8, band)
        mesh = build_perforated_mesh(band, lat, n_per_cell=10, order=1)
        assert mesh.active_area / band.area == pytest.approx(1.0 - 0.64, rel=1e-12)
        assert lat.cells_x == 10 and lat.cells_y == 5

    def test_misaligned_band_raises(self):
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        with pytest.raises(ValueError, match="integer multiple"):
            ObstacleLattice(0.15, 0.6, band)

    @pytest.mark.parametrize("period", [1e10, 1e300])
    def test_period_beyond_band_raises(self, period):
        """A period far above the band rounds to zero cells, within any
        relative tolerance of an integer; a lattice needs one cell."""
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        with pytest.raises(ValueError, match="positive integer multiple"):
            ObstacleLattice(period, 0.6, band)

    @pytest.mark.parametrize(
        ("s_hat", "n_per_cell", "ok"),
        [
            (0.8, 10, True),
            (0.6, 10, True),
            (0.6, 5, True),
            (0.6, 8, False),
            (0.8, 7, False),
        ],
    )
    def test_edge_offsets_alignment(self, s_hat, n_per_cell, ok):
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        lat = ObstacleLattice(0.25, s_hat, band)
        if ok:
            lo, hi = lat.edge_offsets(n_per_cell)
            assert hi - lo == pytest.approx(s_hat * n_per_cell)
        else:
            with pytest.raises(ValueError, match="align"):
                lat.edge_offsets(n_per_cell)


class TestPerforatedMesh:
    @pytest.mark.parametrize("s_hat", [0.6, 0.8])
    def test_inactive_area_matches_solid_fraction(self, s_hat):
        domain = RectDomain(-0.5, 0.5, -0.5, 1.0)
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        lat = ObstacleLattice(0.25, s_hat, band)
        mesh = build_perforated_mesh(domain, lat, n_per_cell=10, order=1)
        solid = mesh.element_areas[~mesh.active].sum()
        assert solid == pytest.approx(band.area * s_hat**2, rel=1e-12)

    def test_obstacle_boundary_nodes_on_edges(self):
        domain = RectDomain(-0.5, 0.5, -0.5, 0.5)
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        lat = ObstacleLattice(0.5, 0.6, band)
        mesh = build_perforated_mesh(domain, lat, n_per_cell=10, order=2)
        ids = mesh.obstacle_boundary_nodes
        assert ids.size > 0
        x, y = mesh.node_coords[ids, 0], mesh.node_coords[ids, 1]
        # All obstacle-boundary nodes must lie inside the band.
        assert np.all((y >= band.y0 - 1e-12) & (y <= band.y1 + 1e-12))
        # Each node sits on the rim of its cell's centered square.
        fx = (x - band.x0) / lat.period
        fy = (y - band.y0) / lat.period
        lx = np.minimum(fx - np.floor(fx + 1e-12), np.ceil(fx - 1e-12) - fx)
        ly = np.minimum(fy - np.floor(fy + 1e-12), np.ceil(fy - 1e-12) - fy)
        edge = (1.0 - lat.s_hat) / 2.0
        on_rim = (
            (np.abs(lx - edge) < 1e-9) & (ly >= edge - 1e-9)
        ) | ((np.abs(ly - edge) < 1e-9) & (lx >= edge - 1e-9))
        assert np.all(on_rim)

    def test_fully_active_above_band(self):
        domain = RectDomain(-0.5, 0.5, -0.5, 1.0)
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        lat = ObstacleLattice(0.25, 0.6, band)
        mesh = build_perforated_mesh(domain, lat, n_per_cell=5, order=1)
        _, ey = mesh._element_grid_indices()
        above = mesh.ys[ey] >= band.y1 - 1e-12
        assert mesh.active[above].all()

    def test_band_width_mismatch_raises(self):
        domain = RectDomain(-0.5, 0.5, -0.5, 1.0)
        band = RectDomain(-0.4, 0.5, -0.5, 0.0)
        with pytest.raises(ValueError):
            lat = ObstacleLattice(0.3, 0.6, band)
            build_perforated_mesh(domain, lat, n_per_cell=5, order=1)


class TestGradedLines:
    @given(h_first=st.floats(0.01, 0.2), h_max=st.floats(0.2, 0.6))
    def test_monotone_capped_and_exact_ends(self, h_first, h_max):
        lines = graded_lines(0.0, 2.0, h_first, h_max)
        assert lines[0] == 0.0 and lines[-1] == 2.0
        gaps = np.diff(lines)
        assert np.all(gaps > 0)
        assert np.all(gaps <= h_max * (1 + 1e-9))

    def test_growth_bounded(self):
        lines = graded_lines(0.0, 5.0, 0.01, 1.0)
        gaps = np.diff(lines)
        ratios = gaps[1:] / gaps[:-1]
        assert np.all(ratios <= GROWTH * (1 + 1e-9))

    def test_short_interval_two_lines(self):
        lines = graded_lines(0.0, 0.005, 0.01, 0.1)
        np.testing.assert_allclose(lines, [0.0, 0.005])

    @pytest.mark.parametrize(
        ("start", "stop", "h_first", "h_max"),
        [
            (1.0, 0.0, 0.1, 0.2),
            (0.0, 1.0, -0.1, 0.2),
            (0.0, 1.0, 0.3, 0.2),
        ],
    )
    def test_bad_arguments_raise(self, start, stop, h_first, h_max):
        with pytest.raises(ValueError):
            graded_lines(start, stop, h_first, h_max)


class TestOverlapLineSet:
    @given(
        delta=st.floats(0.005, 0.2),
        h_fine=st.floats(0.002, 0.05),
    )
    def test_contains_anchor_lines(self, delta, h_fine):
        ys = overlap_line_set(-0.5, 1.0, delta, h_fine, h_max=0.2)
        assert np.all(np.diff(ys) > 0)
        for anchor in (-0.5, -delta, 0.0, 1.0):
            assert np.any(ys == anchor), f"missing line at {anchor}"

    def test_overlap_uniform(self):
        ys = overlap_line_set(-0.5, 1.0, 0.04, 0.01, h_max=0.2)
        inside = ys[(ys >= -0.04 - 1e-15) & (ys <= 1e-15)]
        gaps = np.diff(inside)
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)
        assert gaps[0] <= 0.01 * (1 + 1e-9)

    def test_bad_ordering_raises(self):
        with pytest.raises(ValueError):
            overlap_line_set(-0.5, 1.0, 0.6, 0.01, h_max=0.2)


def check_dissection(nodes, nnx, order, i0, i1, j0, j1, weights=None):
    """Assert that ``nodes`` orders the block ``[i0, i1) x [j0, j1)`` by
    nested dissection: halves first, then their separator line.  With
    ``weights`` (an ``nny x nnx`` array), the separator is the lightest
    line within a quarter of the block's extent from the middle, the
    nearest to the middle among equals; without, it is the middle."""
    if max(i1 - i0, j1 - j0) <= ND_LEAF_SIZE:
        block = (np.arange(j0, j1)[:, None] * nnx + np.arange(i0, i1)).ravel()
        np.testing.assert_array_equal(nodes, block)
        return
    split_x = i1 - i0 >= j1 - j0
    lo, hi = (i0, i1) if split_x else (j0, j1)
    line = (j1 - j0) if split_x else (i1 - i0)
    coord = nodes % nnx if split_x else nodes // nnx
    m = coord[-1]
    assert np.all(coord[-line:] == m) and lo < m < hi - 1
    assert m % order == 0, "Q2 separators must lie on vertex lines"
    mid = (lo + hi - 1) // 2 // order * order
    if weights is None:
        assert m == mid
    else:
        block = weights[j0:j1, i0:i1]
        line_weight = block.sum(axis=0) if split_x else block.sum(axis=1)
        lines = np.arange(lo, hi)
        window = (lo < lines) & (lines < hi - 1) & (lines % order == 0)
        window &= np.abs(lines - mid) <= (hi - lo) // 4
        least = line_weight[window].min()
        assert line_weight[m - lo] == least
        ties = lines[window & (line_weight == least)]
        assert abs(m - mid) == np.abs(ties - mid).min()
    n_low = (m - lo) * line
    assert np.all(coord[:n_low] < m) and np.all(coord[n_low:-line] > m)
    low, high = (lo, m), (m + 1, hi)
    for (a, b), part in ((low, nodes[:n_low]), (high, nodes[n_low:-line])):
        if split_x:
            check_dissection(part, nnx, order, a, b, j0, j1, weights)
        else:
            check_dissection(part, nnx, order, i0, i1, a, b, weights)


class TestNestedDissection:
    @given(
        nnx=st.integers(1, 70),
        nny=st.integers(1, 70),
        order=st.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_with_separators_last(self, nnx, nny, order):
        nodes = nested_dissection_order(nnx, nny, order)
        np.testing.assert_array_equal(np.sort(nodes), np.arange(nnx * nny))
        check_dissection(nodes, nnx, order, 0, nnx, 0, nny)

    @given(
        nnx=st.integers(1, 70),
        nny=st.integers(1, 70),
        order=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_separators_are_lightest_lines(self, nnx, nny, order, seed):
        weights = np.random.default_rng(seed).integers(0, 4, size=nnx * nny)
        nodes = nested_dissection_order(nnx, nny, order, weights=weights)
        np.testing.assert_array_equal(np.sort(nodes), np.arange(nnx * nny))
        check_dissection(
            nodes, nnx, order, 0, nnx, 0, nny, weights.reshape(nny, nnx)
        )

    @given(
        nnx=st.integers(1, 70),
        nny=st.integers(1, 70),
        order=st.sampled_from([1, 2]),
        weight=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_uniform_weights_give_unweighted_order(self, nnx, nny, order, weight):
        np.testing.assert_array_equal(
            nested_dissection_order(
                nnx, nny, order, weights=np.full(nnx * nny, weight)
            ),
            nested_dissection_order(nnx, nny, order),
        )

    def test_separators_cross_obstacles(self):
        # A Q2 lattice of 4 x 4 cells of 20 node intervals each, with no
        # unknowns strictly inside the obstacles (i % 20 in 3..17): the
        # middle line i = 40 runs along cell edges, through the fluid;
        # the nearest vertex lines through the obstacles are 36 and 44.
        i = np.arange(81)
        solid = (i % 20 > 2) & (i % 20 < 18)
        weights = np.where(solid[None, :] & solid[:, None], 0, 3).ravel()
        nodes = nested_dissection_order(81, 81, 2, weights=weights)
        assert np.all(nodes[-81:] % 81 == 36)
        assert np.all(nested_dissection_order(81, 81, 2)[-81:] % 81 == 40)

    @pytest.mark.parametrize(("nnx", "nny", "order"), [(0, 3, 1), (3, 3, 3)])
    def test_bad_arguments_raise(self, nnx, nny, order):
        with pytest.raises(ValueError):
            nested_dissection_order(nnx, nny, order)

    def test_one_weight_per_node(self):
        with pytest.raises(ValueError, match="one weight per node"):
            nested_dissection_order(3, 3, 1, weights=np.ones(8))
