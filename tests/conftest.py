"""Shared fixtures: small solved instances reused across test modules."""

from __future__ import annotations

import pytest

from stokesdarcy import dns
from stokesdarcy.fem import assemble_stokes
from stokesdarcy.homogenize import solve_cell_problem
from stokesdarcy.mesh import build_perforated_mesh
from stokesdarcy.presets import CONFIGURATIONS, PRESETS


@pytest.fixture(scope="session")
def cell_small():
    """Coarse unit-cell solution (s_hat = 0.6, 10 elements per edge)."""
    return solve_cell_problem(0.6, resolution=10)


@pytest.fixture
def dns_systems(monkeypatch):
    """The pore-scale systems that ``solve_dns`` assembles during a
    test, in order; its results keep none of them."""
    systems = []
    inner = dns.assemble_stokes

    def recording(*args, **kwargs):
        systems.append(inner(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(dns, "assemble_stokes", recording)
    return systems


@pytest.fixture(scope="session")
def assemble_dns_q2():
    """Function assembling, afresh at each call, the pore-scale system
    of ``configs/dns.ini``: preset 1, C1 at period 1/10, Q2 with 10
    elements per cell edge."""
    preset = PRESETS[1]
    lattice = preset.lattice(0.1, CONFIGURATIONS["C1"].size_ratio)
    mesh = build_perforated_mesh(preset.domain, lattice, 10, order=2)
    return lambda: assemble_stokes(
        mesh,
        mu=preset.mu,
        f=preset.force,
        bc=preset.dns_bc(),
        null_mean_pressure=preset.pin_pressure,
    )
