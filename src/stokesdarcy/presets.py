"""Built-in test cases and porous microstructure configurations.

Three channel-over-porous-bed test cases drive all experiments: a lid
cavity sitting on a porous bed, normal forced filtration through the
bed, and oblique forced filtration.  The porous bed always occupies the
band between ``y = -0.5`` and ``y = 0``.  Microstructure rows combine
an obstacle shape with its fluid fraction and published effective
permeability; square obstacles can be re-meshed and re-homogenized,
while circular rows are carried as published constants only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import BoundaryCondition, BoundarySpec
from .homogenize import delta_star
from .mesh import ObstacleLattice, RectDomain

#: Depth of the porous band below the interface plane y = 0.
POROUS_DEPTH = 0.5

#: Shared dynamic viscosity [kg/(m s)].
VISCOSITY = 1e-3

#: Peak lid velocity of the cavity case [m/s].
LID_SCALE = 1e-6

#: Traction applied on the bottom of the filtration cases [kg/(m s^2)].
BOTTOM_TRACTION = (0.0, -1e-7)


def _lid_profile(x, y):
    """Parabolic lid velocity, zero at the cavity corners."""
    return LID_SCALE * (1.0 - 4.0 * x**2), np.zeros_like(x)


@dataclass(frozen=True)
class TestCasePreset:
    """One driving scenario on a fixed domain.

    Parameters
    ----------
    identifier : int
        Preset number (1, 2 or 3).
    name : str
        Short description.
    domain : RectDomain
        Full domain including the porous band.
    force : tuple
        Body force per unit volume, applied in every subdomain.
    mu : float
        Dynamic viscosity.
    pin_pressure : bool
        Whether the pressure level is fixed by a zero-mean constraint
        (True when every exterior condition is essential).
    """

    identifier: int
    name: str
    domain: RectDomain
    force: tuple
    mu: float = VISCOSITY
    pin_pressure: bool = False

    @property
    def porous_band(self) -> RectDomain:
        return RectDomain(self.domain.x0, self.domain.x1, -POROUS_DEPTH, 0.0)

    def lattice(self, ell: float, s_hat: float) -> ObstacleLattice:
        """Obstacle lattice filling the porous band of this domain."""
        return ObstacleLattice(ell, s_hat, self.porous_band)

    # -- boundary data ---------------------------------------------------

    def dns_bc(self) -> BoundarySpec:
        """Conditions of the pore-scale solve: the free-flow ones, no-slip
        on the obstacles and the scenario's bottom condition."""
        no_slip = BoundaryCondition("velocity", (0.0, 0.0))
        sides = dict(self.stokes_bc().sides, obstacle=no_slip)
        if self.identifier == 1:
            sides["bottom"] = no_slip
        else:
            sides["bottom"] = BoundaryCondition("normal_stress", BOTTOM_TRACTION)
        return BoundarySpec(sides)

    def stokes_bc(self) -> BoundarySpec:
        """Exterior conditions of the free-flow subdomain (no bottom)."""
        sides = {
            "left": BoundaryCondition("velocity", (0.0, 0.0)),
            "right": BoundaryCondition("velocity", (0.0, 0.0)),
        }
        if self.identifier == 1:
            sides["top"] = BoundaryCondition("velocity", _lid_profile)
        return BoundarySpec(sides)

    def darcy_bc(self) -> BoundarySpec:
        """Exterior conditions of the porous subdomain (no top)."""
        sides = {
            "left": BoundaryCondition("impermeable"),
            "right": BoundaryCondition("impermeable"),
        }
        if self.identifier == 1:
            sides["bottom"] = BoundaryCondition("impermeable")
        else:
            # With outward normal (0, -1) and negligible velocity
            # gradients at depth, the bottom pseudo-traction reduces to
            # (0, p); its vertical component therefore pins the pressure.
            sides["bottom"] = BoundaryCondition("pressure", BOTTOM_TRACTION[1])
        return BoundarySpec(sides)


PRESETS: dict[int, TestCasePreset] = {
    1: TestCasePreset(
        identifier=1,
        name="lid cavity over a porous bed",
        domain=RectDomain(-0.5, 0.5, -0.5, 1.0),
        force=(0.0, 0.0),
        pin_pressure=True,
    ),
    2: TestCasePreset(
        identifier=2,
        name="normal forced filtration",
        domain=RectDomain(-0.25, 0.25, -0.5, 1.0),
        force=(0.0, 0.0),
    ),
    3: TestCasePreset(
        identifier=3,
        name="oblique forced filtration",
        domain=RectDomain(-0.5, 0.5, -0.5, 0.5),
        force=(1e-8, -1e-7),
    ),
}


@dataclass(frozen=True)
class PorousConfiguration:
    """Microstructure row: obstacle shape, porosity and permeability.

    Parameters
    ----------
    name : str
        Row label (C1 to C4).
    shape : str
        ``"square"`` or ``"circle"``.
    size_ratio : float
        Obstacle side (squares) or radius (circles) over the period.
    porosity : float
        Fluid volume fraction of the unit cell (exact expression).
    k_hat : float
        Published dimensionless permeability of the cell.
    """

    name: str
    shape: str
    size_ratio: float
    porosity: float
    k_hat: float

    def delta_star(self, ell: float) -> float:
        """Near-interface layer thickness for period ``ell``."""
        return delta_star(self.porosity, ell)

    @property
    def meshable(self) -> bool:
        """Whether the obstacle geometry is grid-aligned (squares only)."""
        return self.shape == "square"


CONFIGURATIONS: dict[str, PorousConfiguration] = {
    "C1": PorousConfiguration("C1", "square", 0.8, 1.0 - 0.8**2, 7.231e-4),
    "C2": PorousConfiguration("C2", "square", 0.6, 1.0 - 0.6**2, 6.326e-3),
    "C3": PorousConfiguration("C3", "circle", 0.4, 1.0 - np.pi * 0.4**2, 1.828e-3),
    "C4": PorousConfiguration("C4", "circle", 0.3, 1.0 - np.pi * 0.3**2, 1.098e-2),
}
