"""End-to-end acceptance checks for the coupled-flow library.

Each test exercises one advertised capability at its stated tolerance
and emits a single ``[PASS]``/``[FAIL]`` line so a full run reads as a
scorecard.  Expensive artifacts (unit cells, pore-scale references, the
convergence study, the thickness sweep) are computed once per session.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from stokesdarcy.dns import DnsResolution, solve_dns
from stokesdarcy.fem import (
    BoundaryCondition,
    BoundarySpec,
    assemble_darcy,
    assemble_stokes,
)
from stokesdarcy.homogenize import delta_star, solve_cell_problem
from stokesdarcy.icdd import (
    assemble_problem,
    icdd_solve,
    monolithic_solve,
    schur_apply,
)
from stokesdarcy.linalg import KrylovConfig
from stokesdarcy.mesh import RectDomain, build_rect_mesh
from stokesdarcy.presets import CONFIGURATIONS, PRESETS
from stokesdarcy.validate import (
    RegionSpec,
    convergence_study,
    delta_sweep,
    l2_error,
)

#: Published square-obstacle unit-cell permeabilities (3% check).
PUBLISHED_K_HAT = {0.8: 7.231e-4, 0.6: 6.326e-3}

#: Published layer thicknesses per configuration and period (4 digits).
PUBLISHED_DELTA_STAR = [
    ("C1", 1.0 / 10.0, 9.344e-3),
    ("C1", 1.0 / 20.0, 4.672e-3),
    ("C1", 1.0 / 40.0, 2.336e-3),
    ("C2", 1.0 / 10.0, 2.083e-2),
    ("C2", 1.0 / 20.0, 1.041e-2),
    ("C2", 1.0 / 40.0, 5.207e-3),
    ("C3", 1.0 / 10.0, 1.422e-2),
    ("C3", 1.0 / 20.0, 7.112e-3),
    ("C3", 1.0 / 40.0, 3.556e-3),
    ("C4", 1.0 / 10.0, 2.506e-2),
    ("C4", 1.0 / 20.0, 1.253e-2),
    ("C4", 1.0 / 40.0, 6.265e-3),
]


def verdict(capsys, ok: bool, label: str, detail: str) -> None:
    """Print one scorecard line and fail the test when not ok."""
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def round_sig(value: float, digits: int) -> float:
    exponent = math.floor(math.log10(abs(value)))
    return round(value, -exponent + digits - 1)


def coupled_problem(name: str, ell: float, hx: float):
    """Coupled two-domain instance driven by published cell data."""
    configuration = CONFIGURATIONS[name]
    delta = configuration.delta_star(ell)
    return assemble_problem(1, delta, hx, PRESETS[1], configuration.k_hat * ell**2)


# ----------------------------------------------------------------------
# Session-scoped artifacts
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def unit_cells():
    return {s: solve_cell_problem(s) for s in (0.8, 0.6)}


@pytest.fixture(scope="session")
def coarse_pair():
    """Interface-driven and direct solves of one coarse instance."""
    problem = coupled_problem("C1", ell=1.0 / 10.0, hx=1.0 / 10.0)
    via_interface = icdd_solve(problem, KrylovConfig(tol=1e-10, maxiter=50))
    direct = monolithic_solve(problem)
    return problem, via_interface, direct


@pytest.fixture(scope="session")
def table_solves():
    """One interface-driven solve per obstacle configuration."""
    results = {}
    for name in ("C1", "C2", "C3", "C4"):
        problem = coupled_problem(name, ell=1.0 / 10.0, hx=1.0 / 48.0)
        results[name] = icdd_solve(problem, KrylovConfig(tol=1e-8, maxiter=40))
    return results


@pytest.fixture(scope="session")
def dns_speed_ratios():
    """Mean-speed ratios when the pore size is halved (kept as floats)."""
    speeds = {}
    for ell in (1.0 / 10.0, 1.0 / 20.0):
        lattice = PRESETS[1].lattice(ell, CONFIGURATIONS["C1"].size_ratio)
        solution = solve_dns(PRESETS[1], lattice, DnsResolution())
        speeds[ell] = {y: solution.mean_speed(y) for y in (0.0, -0.2)}
        del solution
    return {
        y: speeds[1.0 / 20.0][y] / speeds[1.0 / 10.0][y] for y in (0.0, -0.2)
    }


@pytest.fixture(scope="session")
def study():
    start = time.perf_counter()
    result = convergence_study(
        PRESETS[1],
        CONFIGURATIONS["C1"],
        [1.0 / 10.0, 1.0 / 20.0, 1.0 / 40.0],
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def thickness_sweep():
    return delta_sweep(PRESETS[1], CONFIGURATIONS["C2"], ell=1.0 / 10.0)


# ----------------------------------------------------------------------
# 1. Unit-cell permeability
# ----------------------------------------------------------------------


def test_01_unit_cell_permeability(unit_cells, capsys):
    """Default-resolution cell solves land within 3% of published values;
    cell porosity is exact."""
    ok = True
    parts = []
    for s_hat, published in PUBLISHED_K_HAT.items():
        cell = unit_cells[s_hat]
        deviation = abs(cell.k_scalar() - published) / published
        porosity_exact = cell.porosity == pytest.approx(
            1.0 - s_hat**2, rel=1e-14, abs=0.0
        )
        ok = ok and deviation <= 0.03 and porosity_exact
        parts.append(f"s_hat={s_hat:g} dev={100 * deviation:.2f}%")
    verdict(capsys, ok, "1 unit-cell permeability", ", ".join(parts))


# ----------------------------------------------------------------------
# 2. Layer-thickness fit
# ----------------------------------------------------------------------


def test_02_layer_thickness_fit(capsys):
    """The porosity fit reproduces all 12 published thicknesses to 4
    significant digits."""
    worst = 0.0
    matched = 0
    for name, ell, published in PUBLISHED_DELTA_STAR:
        computed = delta_star(CONFIGURATIONS[name].porosity, ell)
        if round_sig(computed, 4) == pytest.approx(published, rel=1e-12):
            matched += 1
        worst = max(worst, abs(computed - published) / published)
    ok = matched == len(PUBLISHED_DELTA_STAR)
    verdict(
        capsys,
        ok,
        "2 layer-thickness fit",
        f"{matched}/{len(PUBLISHED_DELTA_STAR)} values to 4 digits "
        f"(worst rel dev {worst:.2e})",
    )


# ----------------------------------------------------------------------
# 3. Interface solver vs direct solve
# ----------------------------------------------------------------------


def dense_interface_operator(problem) -> np.ndarray:
    columns = []
    for j in range(problem.n_g):
        e = np.zeros(problem.n_g)
        e[j] = 1.0
        columns.append(schur_apply(problem, e))
    return np.column_stack(columns)


def eliminated_interface_operator(problem) -> np.ndarray:
    """Independent route: eliminate each subdomain interior directly."""
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
    operator = np.eye(n_f + n_p)
    operator[:n_f, :n_f] -= p21 @ p12
    operator[n_f:, n_f:] -= p12 @ p21
    return operator


def split_fields(problem, composite):
    n_f = problem.stokes.mesh.n_nodes
    n_p = problem.darcy.mesh.n_nodes
    velocity = np.concatenate(
        [composite.x_stokes[: 2 * n_f], composite.x_darcy[: 2 * n_p]]
    )
    pressure = np.concatenate(
        [
            composite.x_stokes[2 * n_f : 3 * n_f],
            composite.x_darcy[2 * n_p : 3 * n_p],
        ]
    )
    return velocity, pressure


def test_03_interface_solver_matches_direct_solve(coarse_pair, capsys):
    """On a coarse instance the interface-driven solve agrees with the
    direct coupled solve to 1e-6 relative, and the probed interface
    operator matches explicit block elimination to 1e-10."""
    problem, via_interface, direct = coarse_pair
    u_a, p_a = split_fields(problem, via_interface.composite)
    u_b, p_b = split_fields(problem, direct.composite)
    u_rel = np.linalg.norm(u_a - u_b) / np.linalg.norm(u_b)
    p_rel = np.linalg.norm(p_a - p_b) / np.linalg.norm(p_b)

    probed = dense_interface_operator(problem)
    eliminated = eliminated_interface_operator(problem)
    operator_dev = float(np.max(np.abs(probed - eliminated)))

    ok = u_rel <= 1e-6 and p_rel <= 1e-6 and operator_dev <= 1e-10
    verdict(
        capsys,
        ok,
        "3 interface solver vs direct solve",
        f"u rel {u_rel:.2e}, p rel {p_rel:.2e}, "
        f"operator dev {operator_dev:.2e} on {problem.n_g} controls",
    )


# ----------------------------------------------------------------------
# 4. Interface residuals at convergence
# ----------------------------------------------------------------------


def test_04_interface_residuals_vanish(table_solves, capsys):
    """At Krylov tolerance 1e-8 the recomputed auxiliary solutions and
    both interface matching residuals are below 1e-6 relative."""
    worst = 0.0
    for result in table_solves.values():
        worst = max(
            worst,
            result.matching_velocity,
            result.matching_pressure,
            result.dual_velocity,
            result.dual_pressure,
        )
    ok = worst <= 1e-6
    verdict(
        capsys,
        ok,
        "4 interface residuals at convergence",
        f"max over 4 configurations {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 5. Krylov iteration budget
# ----------------------------------------------------------------------


def test_05_krylov_iteration_budget(table_solves, capsys):
    """Every obstacle configuration reaches an 8-order residual
    reduction within 10 interface iterations."""
    ok = True
    parts = []
    for name, result in table_solves.items():
        iterations = result.info["iterations"]
        final = result.info["residuals"][-1]
        ok = ok and iterations <= 10 and final <= 1e-8
        parts.append(f"{name}:{iterations} it ({final:.1e})")
    verdict(capsys, ok, "5 krylov iteration budget", ", ".join(parts))


# ----------------------------------------------------------------------
# 6. Pore-scale velocity scaling
# ----------------------------------------------------------------------


def test_06_pore_scale_velocity_scaling(dns_speed_ratios, capsys):
    """Halving the pore size halves the mean speed on the interface line
    and quarters it inside the porous band, within 25%."""
    ratio_top = dns_speed_ratios[0.0]
    ratio_inside = dns_speed_ratios[-0.2]
    ok = (
        abs(ratio_top - 0.5) <= 0.25 * 0.5
        and abs(ratio_inside - 0.25) <= 0.25 * 0.25
    )
    verdict(
        capsys,
        ok,
        "6 pore-scale velocity scaling",
        f"y=0 ratio {ratio_top:.4f} (want 0.5+-25%), "
        f"y=-0.2 ratio {ratio_inside:.4f} (want 0.25+-25%)",
    )


# ----------------------------------------------------------------------
# 7. Coupled convergence rates
# ----------------------------------------------------------------------


def test_07_coupled_convergence_rates(study, capsys):
    """Errors against the pore-scale reference shrink with the period at
    the advertised rates over three period levels."""
    result, elapsed = study
    thresholds = {
        "u_fluid": 1.2,
        "p_fluid": 0.35,
        "u_porous_deep": 1.5,
        "p_porous": 0.35,
    }
    ok = elapsed <= 1800.0
    parts = []
    for key, bound in thresholds.items():
        slope = result.slopes[key]
        ok = ok and slope >= bound
        parts.append(f"{key} {slope:+.3f}>={bound:g}")
    verdict(
        capsys,
        ok,
        "7 coupled convergence rates",
        ", ".join(parts) + f", {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 8. Manufactured-solution orders
# ----------------------------------------------------------------------

MMS_MU = 0.7
MMS_KAPPA = 0.3
MMS_LEVELS = (8, 16, 32)


def mms_velocity(x, y):
    return (
        np.sin(np.pi * x) * np.sin(np.pi * y),
        np.cos(np.pi * x) * np.cos(np.pi * y),
    )


def mms_pressure(x, y):
    return np.sin(np.pi * x) * np.cos(np.pi * y)


def mms_velocity_points(points):
    return np.column_stack(mms_velocity(points[:, 0], points[:, 1]))


def mms_pressure_points(points):
    return mms_pressure(points[:, 0], points[:, 1])


def mms_stokes_force(x, y):
    pi = np.pi
    sin, cos = np.sin, np.cos
    f1 = 2 * MMS_MU * pi**2 * sin(pi * x) * sin(pi * y)
    f1 = f1 + pi * cos(pi * x) * cos(pi * y)
    f2 = 2 * MMS_MU * pi**2 * cos(pi * x) * cos(pi * y)
    f2 = f2 - pi * sin(pi * x) * sin(pi * y)
    return (f1, f2)


def mms_darcy_source(x, y):
    return (
        (MMS_KAPPA / MMS_MU)
        * 2
        * np.pi**2
        * np.sin(np.pi * x)
        * np.cos(np.pi * y)
    )


def mms_stokes_velocity_error(n: int, order: int) -> float:
    mesh = build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 1.0), 1.0 / n, order=order)
    bc = BoundarySpec(
        {
            side: BoundaryCondition("velocity", mms_velocity)
            for side in ("left", "right", "bottom", "top")
        }
    )
    system = assemble_stokes(
        mesh,
        MMS_MU,
        f=mms_stokes_force,
        bc=bc,
        null_mean_pressure=True,
    )
    x = system.solve()
    region = RegionSpec("fluid", 0.0, 1.0)
    return l2_error(
        system.velocity(x), mms_velocity_points, region, mesh, n_gauss=4
    )


def mms_darcy_pressure_error(n: int, order: int) -> float:
    mesh = build_rect_mesh(RectDomain(0.0, 1.0, 0.0, 1.0), 1.0 / n, order=order)
    bc = BoundarySpec(
        {
            side: BoundaryCondition("pressure", mms_pressure)
            for side in ("left", "right", "bottom", "top")
        }
    )
    system = assemble_darcy(
        mesh,
        MMS_MU,
        MMS_KAPPA,
        bc=bc,
        source=mms_darcy_source,
    )
    x = system.solve()
    region = RegionSpec("fluid", 0.0, 1.0)
    return l2_error(
        system.pressure(x), mms_pressure_points, region, mesh, n_gauss=4
    )


def fitted_slope(errors) -> float:
    h = np.log([1.0 / n for n in MMS_LEVELS])
    return float(np.polyfit(h, np.log(errors), 1)[0])


def test_08_manufactured_solution_orders(capsys):
    """Against smooth closed-form fields, the free-flow velocity and the
    porous pressure converge at order k+1 (within 0.3) for k = 1, 2."""
    ok = True
    parts = []
    for order in (1, 2):
        slope_u = fitted_slope(
            [mms_stokes_velocity_error(n, order) for n in MMS_LEVELS]
        )
        slope_p = fitted_slope(
            [mms_darcy_pressure_error(n, order) for n in MMS_LEVELS]
        )
        ok = ok and abs(slope_u - (order + 1)) <= 0.3
        ok = ok and abs(slope_p - (order + 1)) <= 0.3
        parts.append(f"k={order}: u {slope_u:.2f}, p {slope_p:.2f}")
    verdict(capsys, ok, "8 manufactured-solution orders", ", ".join(parts))


# ----------------------------------------------------------------------
# 9. Layer-thickness sweep
# ----------------------------------------------------------------------


def test_09_layer_thickness_sweep(thickness_sweep, capsys):
    """Sweeping the layer thickness around the porosity-fit value leaves
    the smallest fluid-region velocity error at the fitted thickness.

    The matched-porosity square surrogate for the circular obstacles
    cannot be aligned with any affordable grid (its side ratio is
    irrational), so the sweep runs on the 0.640-porosity square
    configuration.
    """
    result = thickness_sweep
    i = int(np.argmin(result.errors))
    ok = result.is_interior_minimum() and 0 < i < len(result.errors) - 1
    errors = ", ".join(f"{e:.3e}" for e in result.errors)
    verdict(
        capsys,
        ok,
        "9 layer-thickness sweep",
        f"errors [{errors}] minimal at delta={result.deltas[i]:.3e} "
        f"(fit {result.delta_star:.3e})",
    )
