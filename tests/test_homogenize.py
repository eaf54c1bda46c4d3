"""Unit-cell homogenization, permeability and layer-depth fit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdarcy import homogenize
from stokesdarcy.fem import assemble_cell_problem
from stokesdarcy.homogenize import (
    DELTA_FIT_COEFFS,
    PeriodicCellField,
    delta_star,
    delta_star_hat,
    permeability_dimensional,
    solve_cell_problem,
)
from stokesdarcy.linalg import BACKWARD_ERROR_BOUND, factorize
from stokesdarcy.mesh import RectDomain
from stokesdarcy.presets import CONFIGURATIONS

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
        mesh = cell_small.mesh
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


@pytest.mark.parametrize("s_hat", [0.4, 0.6, 0.8, 0.9])
def test_cell_factored_in_nested_dissection_order(s_hat, monkeypatch):
    factors = []

    def recording(*args):
        factors.append(factorize(*args))
        return factors[-1]

    monkeypatch.setattr(homogenize, "factorize", recording)
    cell = solve_cell_problem(s_hat, resolution=20)
    (factor,) = factors
    assert factor.ordering == "nested-dissection"
    assert factor.backward_error <= BACKWARD_ERROR_BOUND

    mesh = cell.mesh
    system = assemble_cell_problem(mesh)
    order = system.factor_order
    n_free = system.matrix.shape[0]
    np.testing.assert_array_equal(np.sort(order), np.arange(n_free))
    assert order[-1] == n_free - 1  # the pressure-mean multiplier

    # The periodic seam (first node row and column, copied onto the last)
    # lies in the fluid, so each of its master nodes has free u_x, u_y and
    # p, and these are eliminated last.
    i = np.arange(mesh.n_nodes) % mesh.nnx
    j = np.arange(mesh.n_nodes) // mesh.nnx
    on_seam = (i % (mesh.nnx - 1) == 0) | (j % (mesh.nny - 1) == 0)
    n_seam = mesh.nnx + mesh.nny - 3
    tail = np.zeros(n_free)
    tail[order[-3 * n_seam - 1 : -1]] = 1.0
    u_tail = system.expand(tail)
    np.testing.assert_array_equal(np.all(u_tail != 0.0, axis=1), on_seam)
    assert not np.any(system.expand(1.0 - tail)[on_seam])

    colamd = factorize(system.matrix)
    assert colamd.ordering == "colamd"
    k_hat = np.zeros((2, 2))
    for d, load in enumerate(system.rhs):
        u = system.expand(colamd.solve(load))
        k_hat[:, d] = system.mass_scalar @ u
    np.testing.assert_allclose(cell.k_hat, k_hat, rtol=0, atol=1e-10 * k_hat.max())


class TestPeriodicCellField:
    def test_periodic_wrap(self, cell_small):
        band = RectDomain(-0.5, 0.5, -0.5, 0.0)
        ell = 0.25
        field = PeriodicCellField(
            cell_small.velocities[0], ell, origin=(band.x0, band.y0)
        )
        base = np.array([[-0.45, -0.45], [-0.35, -0.15]])
        shifted = base + np.array([[2 * ell, ell]])
        np.testing.assert_allclose(
            field.eval(base), field.eval(shifted), atol=1e-12
        )

    def test_zero_inside_obstacle_image(self, cell_small):
        ell = 0.25
        field = PeriodicCellField(
            cell_small.velocities[0], ell, origin=(-0.5, -0.5)
        )
        # Cell centers are obstacle interiors for a centered square.
        centers = np.array([[-0.375, -0.375], [-0.125, -0.125]])
        np.testing.assert_allclose(field.eval(centers), 0.0, atol=1e-14)
