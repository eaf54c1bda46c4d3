"""Structured tensor-product meshes on rectangles, with optional perforations.

All meshes in this package are tensor products of two strictly increasing
line arrays.  Elements are axis-aligned rectangles, nodes live on the
refined lattice of the chosen polynomial order, and perforated meshes are
realized by deactivating the elements covered by obstacles.  Keeping the
full lattice (with a boolean activity mask) makes trivial zero-extension
of fields, cross-mesh interpolation, and interface extraction cheap and
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Relative tolerance for coordinate comparisons against mesh lines.
LINE_RTOL = 1e-9


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle (x0, x1) x (y0, y1).

    Parameters
    ----------
    x0, x1 : float
        Horizontal extent, ``x0 < x1``.
    y0, y1 : float
        Vertical extent, ``y0 < y1``.
    """

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate domain {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class ObstacleLattice:
    """Periodic array of grid-aligned square obstacles filling a band.

    Each period-``period`` square cell of the band carries one centered
    square obstacle with side ``s_hat * period``.  The band extents must
    be integer multiples of the period so the cells tile it exactly.

    Parameters
    ----------
    period : float
        Cell edge length (the microscale).
    s_hat : float
        Obstacle side as a fraction of the period, ``0 <= s_hat < 1``.
    band : RectDomain
        Region tiled by the cells.
    """

    period: float
    s_hat: float
    band: RectDomain

    def __post_init__(self):
        if not (0.0 <= self.s_hat < 1.0):
            raise ValueError(f"s_hat must lie in [0, 1), got {self.s_hat}")
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        for extent, axis in ((self.band.width, "x"), (self.band.height, "y")):
            ratio = extent / self.period
            cells = round(ratio)
            if cells < 1 or abs(ratio - cells) > 1e-9 * max(1.0, ratio):
                raise ValueError(
                    f"band {axis}-extent {extent} is not a positive integer "
                    f"multiple of the period {self.period}"
                )

    @property
    def cells_x(self) -> int:
        return round(self.band.width / self.period)

    @property
    def cells_y(self) -> int:
        return round(self.band.height / self.period)

    def edge_offsets(self, n_per_cell: int) -> tuple[int, int]:
        """Obstacle edge positions in sub-cell grid units.

        With ``n_per_cell`` mesh elements per cell edge the obstacle edges
        sit at fractions ``(1 - s_hat)/2`` and ``(1 + s_hat)/2`` of the
        cell.  Both must land on mesh lines, i.e. the fractions times
        ``n_per_cell`` must be integers.

        Returns
        -------
        (int, int)
            Lower and upper edge index within the cell.

        Raises
        ------
        ValueError
            If ``n_per_cell < 1`` or the obstacle edges do not align with
            the sub-cell grid.
        """
        if n_per_cell < 1:
            raise ValueError(
                f"need at least one element per cell edge, got {n_per_cell}"
            )
        lo = (1.0 - self.s_hat) / 2.0 * n_per_cell
        hi = (1.0 + self.s_hat) / 2.0 * n_per_cell
        if abs(lo - round(lo)) > 1e-9 or abs(hi - round(hi)) > 1e-9:
            raise ValueError(
                f"obstacle with s_hat={self.s_hat} does not align with "
                f"{n_per_cell} elements per cell; need (1 - s_hat)/2 * "
                f"n_per_cell integral"
            )
        return round(lo), round(hi)


class StructuredMesh:
    """Tensor-product rectangle mesh with nodes of a given order.

    Parameters
    ----------
    xs, ys : ndarray
        Strictly increasing element boundary lines.
    order : int
        Polynomial order of the nodal lattice (1 or 2).
    active : ndarray of bool, optional
        Element activity mask of shape ``(n_elements,)`` in row-major
        ``(ey, ex)`` ordering.  Inactive elements are holes: they carry
        no unknowns and fields evaluate to zero inside them.

    Notes
    -----
    Nodes live on the refined lattice with ``order`` subdivisions per
    element and are numbered row by row with x running fastest.
    """

    def __init__(self, xs, ys, order: int = 1, active=None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
            raise ValueError("xs and ys must be 1-d arrays with >= 2 entries")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("mesh lines must be strictly increasing")
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        self.xs = xs
        self.ys = ys
        self.order = order
        self.nex = xs.size - 1
        self.ney = ys.size - 1
        self.n_elements = self.nex * self.ney
        if active is None:
            active = np.ones(self.n_elements, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != (self.n_elements,):
                raise ValueError("activity mask has wrong shape")
        self.active = active
        # Refined nodal lattice dimensions.
        self.nnx = order * self.nex + 1
        self.nny = order * self.ney + 1
        self.n_nodes = self.nnx * self.nny

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def domain(self) -> RectDomain:
        return RectDomain(self.xs[0], self.xs[-1], self.ys[0], self.ys[-1])

    @cached_property
    def hx(self) -> np.ndarray:
        """Element widths, shape ``(nex,)``."""
        return np.diff(self.xs)

    @cached_property
    def hy(self) -> np.ndarray:
        """Element heights, shape ``(ney,)``."""
        return np.diff(self.ys)

    @cached_property
    def node_x(self) -> np.ndarray:
        """x coordinates of the refined node lines, shape ``(nnx,)``."""
        return _refine_lines(self.xs, self.order)

    @cached_property
    def node_y(self) -> np.ndarray:
        """y coordinates of the refined node lines, shape ``(nny,)``."""
        return _refine_lines(self.ys, self.order)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape ``(n_nodes, 2)``."""
        X, Y = np.meshgrid(self.node_x, self.node_y)
        return np.column_stack([X.ravel(), Y.ravel()])

    def element_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element (hx, hy), each of shape ``(n_elements,)``."""
        ex, ey = self._element_grid_indices()
        return self.hx[ex], self.hy[ey]

    def _element_grid_indices(self) -> tuple[np.ndarray, np.ndarray]:
        e = np.arange(self.n_elements)
        return e % self.nex, e // self.nex

    @cached_property
    def element_areas(self) -> np.ndarray:
        hx, hy = self.element_sizes()
        return hx * hy

    @property
    def active_area(self) -> float:
        """Total area of active elements."""
        return float(self.element_areas[self.active].sum())

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    @cached_property
    def element_nodes(self) -> np.ndarray:
        """Global node ids per element, shape ``(n_elements, nloc)``.

        Local nodes follow the tensor ordering with the x index running
        fastest, matching the reference basis in the discretization
        module.
        """
        k = self.order
        ex, ey = self._element_grid_indices()
        base = (k * ey)[:, None] * self.nnx + (k * ex)[:, None]
        jj, ii = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        local = (jj * self.nnx + ii).ravel()
        return base + local[None, :]

    @cached_property
    def node_active(self) -> np.ndarray:
        """Boolean mask of nodes that touch at least one active element."""
        if self.active.all():
            return np.ones(self.n_nodes, dtype=bool)
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.element_nodes[self.active].ravel()] = True
        return mask

    @cached_property
    def obstacle_boundary_nodes(self) -> np.ndarray:
        """Nodes shared by active and inactive elements, sorted ids."""
        if self.active.all():
            return np.empty(0, dtype=int)
        dead_touch = np.zeros(self.n_nodes, dtype=bool)
        dead_touch[self.element_nodes[~self.active].ravel()] = True
        return np.flatnonzero(dead_touch & self.node_active)

    # ------------------------------------------------------------------
    # Boundary queries
    # ------------------------------------------------------------------

    def boundary_nodes(self, side: str) -> np.ndarray:
        """Active node ids on one side of the bounding box.

        Nodes are returned sorted along the side (by x for horizontal
        sides, by y for vertical ones).
        """
        if side == "left":
            ids = np.arange(self.nny) * self.nnx
        elif side == "right":
            ids = np.arange(self.nny) * self.nnx + (self.nnx - 1)
        elif side == "bottom":
            ids = np.arange(self.nnx)
        elif side == "top":
            ids = (self.nny - 1) * self.nnx + np.arange(self.nnx)
        else:
            raise ValueError(f"unknown side {side!r}")
        return ids[self.node_active[ids]]

    def boundary_edges(self, side: str) -> np.ndarray:
        """Active elements with an edge on a bounding-box side.

        Returns
        -------
        ndarray
            Element ids, shape ``(n_edges,)``.  The local edge is implied
            by the side name.
        """
        ex, ey = self._element_grid_indices()
        if side == "left":
            sel = ex == 0
        elif side == "right":
            sel = ex == self.nex - 1
        elif side == "bottom":
            sel = ey == 0
        elif side == "top":
            sel = ey == self.ney - 1
        else:
            raise ValueError(f"unknown side {side!r}")
        return np.flatnonzero(sel & self.active)

    def line_index(self, y: float) -> int:
        """Index of the refined node line closest to ``y``.

        Raises
        ------
        ValueError
            If ``y`` is farther from every node line than half the local
            spacing.
        """
        j = int(np.argmin(np.abs(self.node_y - y)))
        spacing = np.diff(self.node_y)
        local = spacing[max(0, j - 1) : j + 1].min()
        if abs(self.node_y[j] - y) > 0.5 * local * (1.0 + 1e-12):
            raise ValueError(f"y={y} does not match a mesh line")
        return j

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Locate points in the mesh.

        Parameters
        ----------
        points : ndarray
            Coordinates, shape ``(n, 2)``.  Points must lie inside the
            bounding box (within a small tolerance).

        Returns
        -------
        elements : ndarray of int
            Containing element per point.
        ref : ndarray
            Reference coordinates in ``[-1, 1]^2``, shape ``(n, 2)``.
        """
        pts = np.asarray(points, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        dom = self.domain
        tol_x = LINE_RTOL * max(1.0, abs(dom.x0), abs(dom.x1))
        tol_y = LINE_RTOL * max(1.0, abs(dom.y0), abs(dom.y1))
        if (
            np.any(x < dom.x0 - tol_x)
            or np.any(x > dom.x1 + tol_x)
            or np.any(y < dom.y0 - tol_y)
            or np.any(y > dom.y1 + tol_y)
        ):
            raise ValueError("points outside the mesh bounding box")
        ex = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, self.nex - 1)
        ey = np.clip(np.searchsorted(self.ys, y, side="right") - 1, 0, self.ney - 1)
        xi = 2.0 * (x - self.xs[ex]) / self.hx[ex] - 1.0
        eta = 2.0 * (y - self.ys[ey]) / self.hy[ey] - 1.0
        ref = np.column_stack([np.clip(xi, -1.0, 1.0), np.clip(eta, -1.0, 1.0)])
        return ey * self.nex + ex, ref


def _refine_lines(lines: np.ndarray, order: int) -> np.ndarray:
    """Insert ``order - 1`` equispaced nodes inside every interval."""
    if order == 1:
        return lines.copy()
    n = lines.size - 1
    out = np.empty(order * n + 1)
    out[::order] = lines
    for s in range(1, order):
        frac = s / order
        out[s::order] = lines[:-1] + frac * np.diff(lines)
    return out


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def build_rect_mesh(domain: RectDomain, h: float, order: int = 1) -> StructuredMesh:
    """Uniform mesh on a rectangle with target spacing ``h``.

    The spacing is rounded so an integer number of elements covers each
    extent exactly; the realized spacing never exceeds ``h`` by more than
    roundoff.

    Parameters
    ----------
    domain : RectDomain
        Rectangle to mesh.
    h : float
        Target element size in both directions.
    order : int
        Nodal order of the mesh.

    Returns
    -------
    StructuredMesh
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    nx = max(1, math.ceil(domain.width / h - 1e-9))
    ny = max(1, math.ceil(domain.height / h - 1e-9))
    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    return StructuredMesh(xs, ys, order=order)


def build_perforated_mesh(
    domain: RectDomain,
    lattice: ObstacleLattice,
    n_per_cell: int,
    order: int = 2,
) -> StructuredMesh:
    """Mesh of a rectangle minus a periodic array of square obstacles.

    The lattice band starts at the domain bottom.  Inside it the lines
    are uniform with spacing ``h = period / n_per_cell`` in both
    directions, so obstacle edges land exactly on mesh lines; above it
    the horizontal lines grade by :data:`GROWTH` up to
    ``H_MAX_FACTOR * h``.

    Parameters
    ----------
    domain : RectDomain
        Full domain, horizontally congruent with the lattice band.
    lattice : ObstacleLattice
        Obstacle description; its band must start at the domain bottom
        and end inside the domain.
    n_per_cell : int
        Elements per cell edge; must align the obstacle (see
        :meth:`ObstacleLattice.edge_offsets`).
    order : int
        Nodal order.

    Returns
    -------
    StructuredMesh
        Mesh with obstacle-covered elements deactivated.
    """
    band = lattice.band
    if not (
        abs(band.x0 - domain.x0) < 1e-12 and abs(band.x1 - domain.x1) < 1e-12
    ):
        raise ValueError("lattice band must span the full domain width")
    if abs(band.y0 - domain.y0) > 1e-12 or band.y1 > domain.y1 + 1e-12:
        raise ValueError(
            "lattice band must start at the domain bottom and end inside "
            "the domain"
        )
    lo, hi = lattice.edge_offsets(n_per_cell)
    h = lattice.period / n_per_cell
    nx = lattice.cells_x * n_per_cell
    xs = domain.x0 + h * np.arange(nx + 1)
    xs[-1] = domain.x1
    ys = band.y0 + h * np.arange(lattice.cells_y * n_per_cell + 1)
    ys[-1] = band.y1
    if domain.y1 > band.y1 + 1e-12:
        above = graded_lines(band.y1, domain.y1, h, H_MAX_FACTOR * h)
        ys = np.concatenate([ys[:-1], above])
    active = _obstacle_activity(xs, ys, lattice, n_per_cell, lo, hi)
    return StructuredMesh(xs, ys, order=order, active=active)


def _obstacle_activity(xs, ys, lattice, n_per_cell, lo, hi) -> np.ndarray:
    """Activity mask of the mesh on lines ``xs`` and ``ys``: elements
    whose center lies inside an obstacle become inactive (none if
    ``lo == hi``, that is ``s_hat = 0``)."""
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    band = lattice.band
    # Sub-cell position in grid units; obstacle occupies [lo, hi) in both.
    fx = (cx - band.x0) / lattice.period
    fy = (cy - band.y0) / lattice.period
    ux = (fx - np.floor(fx)) * n_per_cell
    uy = (fy - np.floor(fy)) * n_per_cell
    inside_x = (ux > lo) & (ux < hi)
    inside_y = (uy > lo) & (uy < hi) & (cy > band.y0) & (cy < band.y1)
    # Elements in row-major (ey, ex) order, as StructuredMesh numbers them.
    return ~(inside_y[:, None] & inside_x[None, :]).ravel()


# ----------------------------------------------------------------------
# Fill-reducing node order
# ----------------------------------------------------------------------

#: Lattice blocks with no side longer than this many nodes are not split
#: further.  Must be at least 4 so that every split block of a Q2
#: lattice has a vertex line strictly inside it (a Q2 block of 4 node
#: lines starting on a vertex line would be split on its first line).
#: 4 rather than 8 leaves 7-15% less fill in every factor; see
#: :func:`nested_dissection_order`.
ND_LEAF_SIZE = 4


def nested_dissection_order(
    nnx: int, nny: int, order: int = 1, weights=None
) -> np.ndarray:
    """Nested-dissection elimination order of an ``nnx x nny`` node lattice.

    Each block of the lattice is split across its longer side on a node
    line, recursively, and every separator line is placed after both
    halves it separates (George, SIAM J. Numer. Anal. 10(2), 1973).  For
    ``order == 2`` separators lie on even, i.e. vertex, lines only: a
    Q2 element couples the three node lines it spans, so a line through
    element midpoints does not decouple the two halves.  Blocks with no
    side longer than :data:`ND_LEAF_SIZE` nodes keep lexicographic
    order.

    Without ``weights`` every separator is the middle line.  With them,
    it is the line of least total weight within a quarter of the
    block's extent from the middle, the line nearest the middle among
    equals, so uniform weights give the unweighted order.  With the
    unknowns per node as weights, a pore-scale separator moves off a
    fluid gap onto a line through the obstacles: ``L + U`` of the Q2
    pore-scale factor at period 1/10 falls from 8,542,158 to 7,650,608
    entries, of the Q1 one at period 1/20 from 7,402,236 to 6,323,738,
    and of the Q2 one at period 1/40 from 189.4M to 157.4M.  Leaves of
    4 nodes leave 7-15% fewer entries than leaves of 8.

    Parameters
    ----------
    nnx, nny : int
        Lattice size in nodes; node ids are ``j * nnx + i``.
    order : int
        Polynomial order of the lattice (1 or 2).
    weights : array_like, optional
        Non-negative weight of every node, by node id, such as its
        number of unknowns.

    Returns
    -------
    ndarray of int
        Node ids in elimination order, a permutation of
        ``range(nnx * nny)``.
    """
    if nnx < 1 or nny < 1:
        raise ValueError(f"lattice must be non-empty, got {nnx} x {nny}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    weights = np.ones(nnx * nny, dtype=int) if weights is None else np.asarray(weights)
    if weights.shape != (nnx * nny,):
        raise ValueError(f"need one weight per node, got shape {weights.shape}")
    # Prefix sums along both lattice directions: node column i over rows
    # [j0, j1) weighs down[j1][i] - down[j0][i], node row j over columns
    # [i0, i1) across[i1][j] - across[i0][j].
    grid = weights.reshape(nny, nnx)
    down = np.zeros((nny + 1, nnx), dtype=grid.dtype)
    np.cumsum(grid, axis=0, out=down[1:])
    across = np.zeros((nnx + 1, nny), dtype=grid.dtype)
    np.cumsum(grid.T, axis=0, out=across[1:])
    down, across = down.tolist(), across.tolist()
    pieces = []  # node ranges (i0, i1, j0, j1) in elimination order

    def separator(lo, hi, upper, lower):
        # Start from the middle of [lo, hi) rounded down to the order's
        # line grid, which for hi - lo > ND_LEAF_SIZE lies strictly
        # inside (lo, hi - 1), and scan outward, so the line nearest the
        # middle wins a tie.  Line m weighs upper[m] - lower[m].
        mid = (lo + hi - 1) // 2
        mid -= mid % order
        best, least = mid, upper[mid] - lower[mid]
        for step in range(order, (hi - lo) // 4 + 1, order):
            for m in (mid - step, mid + step):
                if lo < m < hi - 1 and upper[m] - lower[m] < least:
                    best, least = m, upper[m] - lower[m]
        return best

    def dissect(i0, i1, j0, j1):
        if max(i1 - i0, j1 - j0) <= ND_LEAF_SIZE:
            pieces.append((i0, i1, j0, j1))
        elif i1 - i0 >= j1 - j0:
            m = separator(i0, i1, down[j1], down[j0])
            dissect(i0, m, j0, j1)
            dissect(m + 1, i1, j0, j1)
            pieces.append((m, m + 1, j0, j1))
        else:
            m = separator(j0, j1, across[i1], across[i0])
            dissect(i0, i1, j0, m)
            dissect(i0, i1, m + 1, j1)
            pieces.append((i0, i1, m, m + 1))

    dissect(0, nnx, 0, nny)
    # Each range in lexicographic order, all ranges in one pass.
    i0, i1, j0, j1 = np.array(pieces).T
    width = i1 - i0
    sizes = width * (j1 - j0)
    local = np.arange(nnx * nny) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = np.repeat(width, sizes)
    rows = np.repeat(j0, sizes) + local // width
    return rows * nnx + np.repeat(i0, sizes) + local % width


# ----------------------------------------------------------------------
# Graded line generators
# ----------------------------------------------------------------------

#: Geometric growth factor of every graded mesh: the coupled subdomains
#: away from the overlap and the pore-scale mesh above the band.
GROWTH = 1.35

#: Coarsest vertical spacing above the band of a perforated mesh, as a
#: multiple of the band spacing.
H_MAX_FACTOR = 4.0


def graded_lines(start: float, stop: float, h_first: float, h_max: float) -> np.ndarray:
    """Monotone line array from ``start`` to ``stop`` with geometric grading.

    Spacing begins at ``h_first`` next to ``start``, grows by
    :data:`GROWTH` per step up to ``h_max``, then stays uniform.  The
    uniform tail is rescaled so the final line lands exactly on ``stop``.

    Parameters
    ----------
    start, stop : float
        Interval endpoints; ``start < stop``.
    h_first : float
        First spacing at the ``start`` end.
    h_max : float
        Spacing cap for the far end.

    Returns
    -------
    ndarray
        Line coordinates including both endpoints.
    """
    if stop <= start:
        raise ValueError("need start < stop")
    if h_first <= 0 or h_max < h_first:
        raise ValueError("need 0 < h_first <= h_max")
    length = stop - start
    if h_first >= length:
        return np.array([start, stop])
    steps = []
    h = h_first
    total = 0.0
    while h < h_max and total + h < length:
        steps.append(h)
        total += h
        h = min(h * GROWTH, h_max)
    remaining = length - total
    n_uni = max(1, math.ceil(remaining / h_max - 1e-9))
    steps.extend([remaining / n_uni] * n_uni)
    lines = start + np.concatenate([[0.0], np.cumsum(steps)])
    lines[-1] = stop
    return lines


def overlap_line_set(
    y_bottom: float,
    y_top: float,
    delta: float,
    h_fine: float,
    h_max: float,
) -> np.ndarray:
    """Vertical lines for an overlapping two-subdomain split of a channel.

    Builds one array over ``[y_bottom, y_top]`` that contains exactly the
    lines ``y_bottom``, ``-delta``, ``0`` and ``y_top``.  The overlap
    ``(-delta, 0)`` is meshed uniformly with spacing at most ``h_fine``
    (at least one element), and the mesh grades geometrically, by
    :data:`GROWTH`, away from the overlap on both sides.  Slicing this
    array at ``-delta`` and at ``0`` yields boundary-conforming,
    overlap-conforming meshes for the two subdomains.

    Parameters
    ----------
    y_bottom, y_top : float
        Channel extent with ``y_bottom < -delta < 0 < y_top``.
    delta : float
        Overlap thickness.
    h_fine : float
        Target spacing inside and next to the overlap.
    h_max : float
        Coarse spacing far from the overlap.

    Returns
    -------
    ndarray
        Strictly increasing line coordinates.
    """
    if not (y_bottom < -delta < 0.0 < y_top):
        raise ValueError("need y_bottom < -delta < 0 < y_top")
    n_ov = max(1, round(delta / h_fine))
    overlap = -delta + (delta / n_ov) * np.arange(n_ov + 1)
    overlap[0], overlap[-1] = -delta, 0.0
    h_start = min(h_fine, delta / n_ov)
    below = graded_lines(delta, -y_bottom, h_start, h_max)
    below = -below[::-1]
    below[0], below[-1] = y_bottom, -delta
    above = graded_lines(0.0, y_top, h_start, h_max)
    return np.concatenate([below[:-1], overlap, above[1:]])
