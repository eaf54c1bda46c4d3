"""Unit-cell homogenization, permeability and layer-depth fit."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy.fem import assemble_cell_problem
from stokesdarcy.homogenize import (
    DELTA_FIT_COEFFS,
    delta_star,
    delta_star_hat,
    permeability_dimensional,
    solve_cell_problem,
)
from stokesdarcy.linalg import BACKWARD_ERROR_BOUND
from stokesdarcy.mesh import ObstacleLattice, RectDomain
from stokesdarcy.presets import CONFIGURATIONS
from stokesdarcy.validate import ReconstructedVelocity

#: Published layer depths (meters) per configuration and period.
PUBLISHED_DELTA_STAR = [
    ("C1", 1 / 10, 9.344e-3),
    ("C1", 1 / 20, 4.672e-3),
    ("C1", 1 / 40, 2.336e-3),
    ("C2", 1 / 10, 2.083e-2),
    ("C2", 1 / 20, 1.041e-2),
    ("C2", 1 / 40, 5.207e-3),
    ("C3", 1 / 10, 1.422e-2),
    ("C3", 1 / 20, 7.112e-3),
    ("C3", 1 / 40, 3.556e-3),
    ("C4", 1 / 10, 2.506e-2),
    ("C4", 1 / 20, 1.253e-2),
    ("C4", 1 / 40, 6.265e-3),
]

#: Published dimensional permeabilities (meters squared).
PUBLISHED_PERMEABILITY = [
    ("C1", 1 / 10, 7.231e-6),
    ("C1", 1 / 20, 1.808e-6),
    ("C1", 1 / 40, 4.519e-7),
    ("C2", 1 / 10, 6.326e-5),
    ("C2", 1 / 20, 1.582e-5),
    ("C2", 1 / 40, 3.954e-6),
    ("C3", 1 / 10, 1.828e-5),
    ("C3", 1 / 20, 4.570e-6),
    ("C3", 1 / 40, 1.143e-6),
    ("C4", 1 / 10, 1.098e-4),
    ("C4", 1 / 20, 2.744e-5),
    ("C4", 1 / 40, 6.859e-6),
]


def round_sig(value: float, digits: int) -> float:
    """Round to a number of significant digits."""
    if value == 0.0:
        return 0.0
    scale = 10.0 ** (digits - 1 - int(np.floor(np.log10(abs(value)))))
    return round(value * scale) / scale


class TestDeltaStar:
    @given(porosity=st.floats(0.01, 1.0))
    def test_hat_matches_polynomial(self, porosity):
        a, b, c = DELTA_FIT_COEFFS
        want = a * porosity**2 + b * porosity + c
        assert delta_star_hat(porosity) == pytest.approx(want, rel=1e-15)
        assert delta_star_hat(porosity) > 0

    @given(porosity=st.floats(0.01, 1.0), ell=st.floats(1e-3, 1.0))
    def test_dimensional_scales_linearly(self, porosity, ell):
        assert delta_star(porosity, ell) == pytest.approx(
            ell * delta_star_hat(porosity), rel=1e-15
        )

    @pytest.mark.parametrize(("porosity",), [(0.0,), (-0.1,), (1.5,)])
    def test_invalid_porosity_raises(self, porosity):
        with pytest.raises(ValueError, match="porosity"):
            delta_star_hat(porosity)

    @pytest.mark.parametrize(("name", "ell", "published"), PUBLISHED_DELTA_STAR)
    def test_published_values_to_four_digits(self, name, ell, published):
        porosity = CONFIGURATIONS[name].porosity
        value = delta_star(porosity, ell)
        assert round_sig(value, 4) == pytest.approx(published, rel=1e-12)


class TestPermeability:
    @given(k_hat=st.floats(1e-6, 1e-1), ell=st.floats(1e-3, 1.0))
    def test_dimensional_scaling(self, k_hat, ell):
        assert permeability_dimensional(k_hat, ell) == pytest.approx(
            k_hat * ell * ell, rel=1e-15
        )

    @pytest.mark.parametrize(("name", "ell", "published"), PUBLISHED_PERMEABILITY)
    def test_published_values_reproduced(self, name, ell, published):
        # The published dimensional column derives from unrounded unit-cell
        # permeabilities, so rescaling the rounded ones can differ in the
        # fourth digit (C4); allow for that rounding window.
        value = permeability_dimensional(CONFIGURATIONS[name].k_hat, ell)
        assert value == pytest.approx(published, rel=1e-3)


class TestCellProblem:
    def test_porosity_exact_and_tensor_isotropic(self, cell_small):
        cell = cell_small
        assert cell.porosity == pytest.approx(1.0 - 0.36, abs=1e-15)
        assert cell.porosity_quadrature == pytest.approx(cell.porosity, rel=1e-12)
        # The centered square is symmetric, so the tensor is isotropic.
        assert cell.k_hat[0, 0] == pytest.approx(cell.k_hat[1, 1], rel=1e-10)
        assert abs(cell.k_hat[0, 1]) < 1e-12 * cell.k_hat[0, 0]
        assert abs(cell.k_hat[1, 0]) < 1e-12 * cell.k_hat[0, 0]

    def test_k_scalar_is_diagonal_mean(self, cell_small):
        want = 0.5 * (cell_small.k_hat[0, 0] + cell_small.k_hat[1, 1])
        assert cell_small.k_scalar() == pytest.approx(want, rel=1e-15)

    def test_coarse_permeability_near_published(self, cell_small):
        # Resolution 10 is coarse; stay within a few percent of 6.326e-3.
        assert cell_small.k_scalar() == pytest.approx(6.326e-3, rel=0.05)

    def test_cell_velocity_vanishes_on_obstacle(self, cell_small):
        mesh = cell_small.velocities[0].mesh
        rim = mesh.obstacle_boundary_nodes
        assert rim.size > 0
        for velocity in cell_small.velocities:
            np.testing.assert_allclose(velocity.values[rim], 0.0, atol=1e-13)

    def test_misaligned_resolution_raises(self):
        with pytest.raises(ValueError, match="align"):
            solve_cell_problem(0.6, resolution=8)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_invalid_obstacle_raises(self, bad):
        with pytest.raises(ValueError):
            solve_cell_problem(bad, resolution=10)


#: Published square obstacle side fractions; C1 and C2, the meshable
#: configuration rows, are 0.8 and 0.6.
SQUARE_SIDES = [0.4, 0.6, 0.8, 0.9]


@pytest.mark.parametrize("s_hat", SQUARE_SIDES)
def test_cell_factored_in_nested_dissection_order(s_hat):
    cell = solve_cell_problem(s_hat, resolution=20)
    mesh = cell.velocities[0].mesh
    system = assemble_cell_problem(mesh)
    n_free = system.matrix.shape[0]
    # The pressure-mean multiplier, the only unknown without a diagonal
    # entry, comes last.
    np.testing.assert_array_equal(
        np.flatnonzero(system.matrix.diagonal() == 0.0), [n_free - 1]
    )

    # The periodic seam (first node row and column, copied onto the last)
    # lies in the fluid, so each of its master nodes has free u_x, u_y and
    # p, and these are eliminated last.
    i = np.arange(mesh.n_nodes) % mesh.nnx
    j = np.arange(mesh.n_nodes) // mesh.nnx
    on_seam = (i % (mesh.nnx - 1) == 0) | (j % (mesh.nny - 1) == 0)
    n_seam = mesh.nnx + mesh.nny - 3
    tail = np.zeros(n_free)
    tail[-3 * n_seam - 1 : -1] = 1.0
    u_tail = system.expand(tail)
    np.testing.assert_array_equal(np.all(u_tail != 0.0, axis=1), on_seam)
    assert not np.any(system.expand(1.0 - tail)[on_seam])

    colamd = spla.splu(system.matrix)
    k_hat = np.zeros((2, 2))
    for d, load in enumerate(system.rhs):
        u = system.expand(colamd.solve(load))
        k_hat[:, d] = system.mass_scalar @ u
    np.testing.assert_allclose(cell.k_hat, k_hat, rtol=0, atol=1e-10 * k_hat.max())


@pytest.mark.parametrize("resolution", [20, 40])
@pytest.mark.parametrize("s_hat", SQUARE_SIDES)
def test_cell_factor_keeps_its_diagonal(s_hat, resolution):
    # At unit viscosity a stabilized pressure diagonal starts at 0.55 h
    # of its column's largest entry (0.014 at resolution 40) and shrinks
    # during elimination: a 0.01 pivot threshold interchanged 161-264
    # rows at resolution 40.  At DIAG_PIVOT_THRESH only the pressure-mean
    # multiplier (a zero diagonal) and its partner row may be moved.
    health = solve_cell_problem(s_hat, resolution=resolution).factor_health
    assert health["row_interchanges"] <= 2
    assert float(health["backward_error"]) <= BACKWARD_ERROR_BOUND


def test_fine_cell_factor_fill():
    # C1 at resolution 80: 37.1M entries with 3,327 interchanges at a
    # 0.01 pivot threshold, about 5.5M without them.
    health = solve_cell_problem(0.8, resolution=80).factor_health
    assert health["lu_nnz"] < 8_000_000


class TestPeriodicCellModulation:
    """The reconstruction maps physical points into the unit cell by
    periodic repetition of the cell velocities."""

    BAND = RectDomain(-0.5, 0.5, -0.5, 0.0)

    @staticmethod
    def first_cell_velocity(cell, n):
        """Macroscale velocities whose modulation is ``w_1`` alone."""
        return np.tile(cell.k_hat[:, 0], (n, 1))

    def test_periodic_wrap(self, cell_small):
        ell = 0.25
        recon = ReconstructedVelocity(
            cell_small, ObstacleLattice(ell, cell_small.s_hat, self.BAND)
        )
        # Fluid points at (0.08, 0.52) and (0.68, 0.04) of their cells.
        base = np.array([[-0.48, -0.37], [-0.33, -0.49]])
        shifted = base + np.array([[2 * ell, ell]])
        macro = self.first_cell_velocity(cell_small, len(base))
        values = recon.modulate(base, macro)
        assert np.all(np.abs(values[:, 0]) > 1e-4)
        np.testing.assert_allclose(
            values, recon.modulate(shifted, macro), rtol=1e-10, atol=1e-16
        )
        w1 = cell_small.velocities[0].eval(np.array([[0.08, 0.52], [0.68, 0.04]]))
        np.testing.assert_allclose(values, w1, rtol=1e-10, atol=1e-16)

    def test_zero_inside_obstacle_image(self, cell_small):
        ell = 0.25
        recon = ReconstructedVelocity(
            cell_small, ObstacleLattice(ell, cell_small.s_hat, self.BAND)
        )
        # Cell centers are obstacle interiors for a centered square.
        centers = np.array([[-0.375, -0.375], [-0.125, -0.125]])
        macro = self.first_cell_velocity(cell_small, len(centers))
        np.testing.assert_allclose(recon.modulate(centers, macro), 0.0, atol=1e-14)
