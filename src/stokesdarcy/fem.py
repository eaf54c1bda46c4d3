"""Stabilized equal-order finite elements on structured rectangle meshes.

Velocity and pressure share one continuous Lagrange space of order 1 or
2.  The Stokes form uses the gradient-gradient viscous term together
with a residual-based pressure stabilization that reduces to the
classical pressure-Laplacian form for order 1 and stays consistent for
order 2.  The Darcy form keeps the mixed velocity-pressure pair but
augments the continuity equation with the momentum residual, which
turns the pressure block into a scaled Laplacian and makes the
equal-order pair stable without further tuning.

Assembled problems are returned as :class:`SaddleSystem` objects that
carry the raw operator, the constraint bookkeeping (exterior Dirichlet
data and interface unknowns) and a cached factorization of the interior
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, factorize
from .mesh import StructuredMesh, nested_dissection_order

#: Order in which boundary sides are processed; later entries win when a
#: node belongs to two sides, so exterior corners default to the
#: vertical-side data unless a horizontal side overwrites them.
_SIDE_ORDER = ("left", "right", "bottom", "top", "obstacle")


#: Dimensionless pressure-stabilization constant of the Stokes form.
GAMMA_STAB = 0.1


@dataclass(frozen=True)
class FemConfig:
    """Discretization settings.

    Parameters
    ----------
    order : int
        Polynomial order of the shared velocity/pressure space (1 or 2).
    """

    order: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")


@dataclass(frozen=True)
class BoundaryCondition:
    """One boundary condition.

    Parameters
    ----------
    kind : str
        ``"velocity"`` (essential, both components), ``"normal_stress"``
        (natural traction data), ``"impermeable"`` (essential normal
        velocity component only) or ``"pressure"`` (essential pressure).
    value : object
        Condition data: a pair or callable ``(x, y) -> (gx, gy)`` for
        velocity and stress kinds, a float or callable for pressure,
        ignored for impermeable walls.
    """

    kind: str
    value: object = None

    def __post_init__(self):
        if self.kind not in ("velocity", "normal_stress", "impermeable", "pressure"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary conditions keyed by side name.

    Sides are ``left``, ``right``, ``bottom``, ``top`` and ``obstacle``.
    Unlisted sides are natural (zero traction for Stokes, zero normal
    flux for Darcy).  The side hosting interface data must be left out
    here and passed through ``interface`` instead.
    """

    sides: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        for name, cond in self.sides.items():
            if name not in _SIDE_ORDER:
                raise ValueError(f"unknown side {name!r}")
            if not isinstance(cond, BoundaryCondition):
                raise TypeError("side values must be BoundaryCondition objects")


@dataclass(frozen=True)
class InterfaceSpec:
    """Declares one mesh side as the interface-control boundary.

    Parameters
    ----------
    side : str
        ``"bottom"`` or ``"top"``.
    field : str
        ``"velocity"`` for essential velocity controls or ``"pressure"``
        for essential pressure controls.
    """

    side: str
    field: str

    def __post_init__(self):
        if self.side not in ("bottom", "top"):
            raise ValueError("interface side must be horizontal")
        if self.field not in ("velocity", "pressure"):
            raise ValueError("interface field must be velocity or pressure")


# ----------------------------------------------------------------------
# Reference bases and quadrature
# ----------------------------------------------------------------------


def basis_1d(order: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lagrange basis values and derivatives on ``[-1, 1]``.

    Returns
    -------
    (N, dN, d2N)
        Arrays of shape ``(len(t), order + 1)``.
    """
    t = np.asarray(t, dtype=float)
    if order == 1:
        N = np.stack([(1 - t) / 2, (1 + t) / 2], axis=-1)
        dN = np.stack([np.full_like(t, -0.5), np.full_like(t, 0.5)], axis=-1)
        d2N = np.zeros_like(N)
    elif order == 2:
        N = np.stack([t * (t - 1) / 2, 1 - t * t, t * (t + 1) / 2], axis=-1)
        dN = np.stack([t - 0.5, -2 * t, t + 0.5], axis=-1)
        d2N = np.stack(
            [np.ones_like(t), np.full_like(t, -2.0), np.ones_like(t)], axis=-1
        )
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return N, dN, d2N


def basis_2d(order: int, ref: np.ndarray) -> np.ndarray:
    """Tensor-product basis values at reference points.

    Parameters
    ----------
    order : int
        Polynomial order.
    ref : ndarray
        Reference coordinates in ``[-1, 1]^2``, shape ``(n, 2)``.

    Returns
    -------
    ndarray
        Shape ``(n, (order + 1) ** 2)`` with the local y index major.
    """
    Nx, _, _ = basis_1d(order, ref[:, 0])
    Ny, _, _ = basis_1d(order, ref[:, 1])
    return (Ny[:, :, None] * Nx[:, None, :]).reshape(ref.shape[0], -1)


class _RefData:
    """Quadrature points, basis tables and element integrals on the
    reference square.

    The reference matrices ``R[a, b] = int u_a v_b`` over ``[-1, 1]^2``
    are named ``<u>_<v>`` with ``N`` the basis, ``dxi``/``deta`` its
    first and ``dxi2``/``deta2`` its second derivatives.  Each is the
    Kronecker product of two 1-D Gauss-integrated matrices (y factor
    first, matching the y-major local order).  The Gauss points are
    symmetric about 0 and each 1-D sum is formed term by term, so a 1-D
    integral that is odd under ``t -> -t`` is an exact zero.
    """

    def __init__(self, order: int, n_quad: int):
        pts, wts = np.polynomial.legendre.leggauss(n_quad)
        XI, ETA = np.meshgrid(pts, pts, indexing="ij")
        self.ref = np.column_stack([XI.ravel(), ETA.ravel()])
        WX, WY = np.meshgrid(wts, wts, indexing="ij")
        self.weights = (WX * WY).ravel()
        Nx, dNx, _ = basis_1d(order, self.ref[:, 0])
        Ny, dNy, _ = basis_1d(order, self.ref[:, 1])

        def tensor(fx, fy):
            return (fy[:, :, None] * fx[:, None, :]).reshape(self.ref.shape[0], -1)

        self.N = tensor(Nx, Ny)
        self.dN_dxi = tensor(dNx, Ny)
        self.dN_deta = tensor(Nx, dNy)
        self.pts_1d = pts
        self.wts_1d = wts
        self.nloc = self.N.shape[1]

        n1, d1, dd1 = basis_1d(order, pts)

        def integral(u, v):
            return (u[:, :, None] * v[:, None, :] * wts[:, None, None]).sum(axis=0)

        mass = integral(n1, n1)
        n_d = integral(n1, d1)
        d_d = integral(d1, d1)
        n_dd = integral(n1, dd1)
        d_dd = integral(d1, dd1)
        self.N_N = np.kron(mass, mass)
        self.N_dxi = np.kron(mass, n_d)
        self.N_deta = np.kron(n_d, mass)
        self.dxi_N = np.kron(mass, n_d.T)
        self.deta_N = np.kron(n_d.T, mass)
        self.dxi_dxi = np.kron(mass, d_d)
        self.deta_deta = np.kron(d_d, mass)
        self.dxi_dxi2 = np.kron(mass, d_dd)
        self.dxi_deta2 = np.kron(n_dd, n_d.T)
        self.deta_dxi2 = np.kron(n_d.T, n_dd)
        self.deta_deta2 = np.kron(d_dd, mass)


_REF_CACHE: dict[tuple[int, int], _RefData] = {}


def _ref_data(order: int, n_quad: int | None = None) -> _RefData:
    nq = n_quad if n_quad is not None else order + 1
    key = (order, nq)
    if key not in _REF_CACHE:
        _REF_CACHE[key] = _RefData(order, nq)
    return _REF_CACHE[key]


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------


class Field:
    """Finite-element field on a structured mesh.

    Parameters
    ----------
    mesh : StructuredMesh
        Host mesh.
    values : ndarray
        Nodal values, shape ``(n_nodes,)`` or ``(n_nodes, n_comp)``.
    order : int
        Polynomial order of the nodal lattice.

    Notes
    -----
    Evaluation inside inactive (obstacle) elements returns zero, which
    realizes the trivial zero-extension of fields on perforated meshes.
    """

    def __init__(self, mesh: StructuredMesh, values: np.ndarray, order: int):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.n_nodes:
            raise ValueError("nodal value array does not match the mesh")
        if order != mesh.order:
            raise ValueError("field order must match the mesh order")
        self.mesh = mesh
        self.values = values
        self.order = order

    @property
    def n_components(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def eval(self, points) -> np.ndarray:
        """Evaluate at arbitrary points inside the mesh bounding box.

        Returns
        -------
        ndarray
            Shape ``(n,)`` for scalar fields, ``(n, n_comp)`` otherwise.
            Points falling in inactive elements evaluate to zero.
        """
        points = np.asarray(points, dtype=float)
        squeeze = points.ndim == 1
        if squeeze:
            points = points[None, :]
        elems, ref = self.mesh.locate(points)
        N = basis_2d(self.order, ref)
        nodal = self.values[self.mesh.element_nodes[elems]]
        if nodal.ndim == 2:
            out = np.einsum("pa,pa->p", N, nodal)
        else:
            out = np.einsum("pa,pac->pc", N, nodal)
        inactive = ~self.mesh.active[elems]
        if np.any(inactive):
            out[inactive] = 0.0
        return out[0] if squeeze else out


# ----------------------------------------------------------------------
# Saddle systems
# ----------------------------------------------------------------------

KIND_INTERIOR = 0
KIND_DIRICHLET = 1
KIND_INTERFACE = 2


class SaddleSystem:
    """Assembled velocity-pressure system with constraint bookkeeping.

    Degrees of freedom are stored field-major: ``u_x`` at ``node``,
    ``u_y`` at ``n + node``, ``p`` at ``2 n + node`` with ``n`` the node
    count, plus one trailing Lagrange-multiplier unknown when a zero
    pressure mean is enforced.  The factorization of the interior block
    is node-major instead: it eliminates the unknowns in
    :attr:`factor_order`, node by node in nested-dissection order.

    Attributes
    ----------
    matrix : csr_matrix
        Unconstrained operator over all degrees of freedom.
    rhs : ndarray
        Unconstrained load vector (volume forces plus natural boundary
        data).
    kind : ndarray of uint8
        Per-dof class: interior, exterior Dirichlet, or interface.
    dirichlet_values : ndarray
        Prescribed values, meaningful where ``kind == KIND_DIRICHLET``.
    interface_dofs : ndarray of int
        Interface unknowns in control-vector order: interface nodes
        sorted by x, with ``(u_x, u_y)`` interleaved per node for
        velocity controls or one pressure entry per node.
    interface_nodes : ndarray of int
        Mesh nodes carrying interface unknowns, sorted by x.
    mass_scalar : ndarray
        Integrals of the scalar basis functions over active elements.
    """

    def __init__(
        self,
        mesh: StructuredMesh,
        config: FemConfig,
        matrix: sp.csr_matrix,
        rhs: np.ndarray,
        kind: np.ndarray,
        dirichlet_values: np.ndarray,
        interface_dofs: np.ndarray,
        interface_nodes: np.ndarray,
        mass_scalar: np.ndarray,
        has_multiplier: bool,
    ):
        self.mesh = mesh
        self.config = config
        self.matrix = matrix
        self.rhs = rhs
        self.kind = kind
        self.dirichlet_values = dirichlet_values
        self.interface_dofs = interface_dofs
        self.interface_nodes = interface_nodes
        self.mass_scalar = mass_scalar
        self.has_multiplier = has_multiplier
        self.n_nodes = mesh.n_nodes
        self.n_dofs = matrix.shape[0]

    # -- dof helpers ----------------------------------------------------

    def dof_ux(self, nodes) -> np.ndarray:
        return np.asarray(nodes)

    def dof_uy(self, nodes) -> np.ndarray:
        return np.asarray(nodes) + self.n_nodes

    def dof_p(self, nodes) -> np.ndarray:
        return np.asarray(nodes) + 2 * self.n_nodes

    @property
    def n_interface(self) -> int:
        return self.interface_dofs.size

    # -- constrained system ---------------------------------------------

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        return np.flatnonzero(self.kind == KIND_INTERIOR)

    @cached_property
    def dirichlet_dofs(self) -> np.ndarray:
        return np.flatnonzero(self.kind == KIND_DIRICHLET)

    @cached_property
    def _interior_position(self) -> np.ndarray:
        pos = np.full(self.n_dofs, -1, dtype=int)
        pos[self.interior_dofs] = np.arange(self.interior_dofs.size)
        return pos

    def interior_index(self, dofs) -> np.ndarray:
        """Positions of global dofs inside the interior vector."""
        pos = self._interior_position[np.asarray(dofs)]
        if np.any(pos < 0):
            raise ValueError("requested dof is not interior")
        return pos

    @cached_property
    def interior_matrix(self) -> sp.csr_matrix:
        return self.matrix[self.interior_dofs][:, self.interior_dofs].tocsr()

    @cached_property
    def interface_matrix(self) -> sp.csr_matrix:
        """Coupling block mapping interface values into interior rows."""
        return self.matrix[:, self.interface_dofs][self.interior_dofs].tocsr()

    @cached_property
    def interior_rhs(self) -> np.ndarray:
        """Interior load including the exterior Dirichlet lift."""
        f = self.rhs[self.interior_dofs]
        lift = np.zeros(self.n_dofs)
        lift[self.dirichlet_dofs] = self.dirichlet_values[self.dirichlet_dofs]
        if np.any(lift != 0.0):
            f -= (self.matrix @ lift)[self.interior_dofs]
        return f

    @cached_property
    def factor_order(self) -> np.ndarray:
        """Node-major elimination order of the interior unknowns.

        Nodes follow :func:`~stokesdarcy.mesh.nested_dissection_order`;
        each node contributes its interior ``u_x``, ``u_y`` and ``p`` in
        that order, and the pressure-mean multiplier comes last.  Entries
        are positions in the interior vector.
        """
        nodes = nested_dissection_order(self.mesh.nnx, self.mesh.nny, self.mesh.order)
        return _node_major(nodes, self.n_nodes, self._interior_position)

    @cached_property
    def factor(self) -> Factorization:
        return factorize(self.interior_matrix, self.factor_order)

    def release_factor(self) -> None:
        """Drop the cached factorization to free its fill-in memory."""
        self.__dict__.pop("factor", None)

    def solve(self, g: np.ndarray | None = None, include_data: bool = True) -> np.ndarray:
        """Solve for the interior unknowns given interface values.

        Parameters
        ----------
        g : ndarray, optional
            Interface control vector; defaults to zero.
        include_data : bool
            If True, include volume forces, natural loads and exterior
            Dirichlet data; if False, solve the homogeneous problem
            driven by ``g`` alone (all other data zero).

        Returns
        -------
        ndarray
            Full solution vector over all degrees of freedom.
        """
        rhs = self.interior_rhs.copy() if include_data else np.zeros(
            self.interior_dofs.size
        )
        if g is not None:
            g = np.asarray(g, dtype=float)
            if g.shape[0] != self.n_interface:
                raise ValueError("interface vector has wrong length")
            rhs -= self.interface_matrix @ g
        return self.full_vector(self.factor.solve(rhs), g, include_data)

    def full_vector(
        self, x: np.ndarray, g: np.ndarray | None, include_data: bool
    ) -> np.ndarray:
        """Full solution vector from interior values and interface controls.

        Parameters
        ----------
        x : ndarray
            Values of the interior unknowns, in :attr:`interior_dofs` order.
        g : ndarray or None
            Interface control vector; None stands for zero.
        include_data : bool
            If True, exterior Dirichlet dofs take their prescribed values;
            if False, they are zero.

        Returns
        -------
        ndarray
            Vector over all degrees of freedom.
        """
        full = np.zeros(self.n_dofs)
        if include_data:
            dir_dofs = self.dirichlet_dofs
            full[dir_dofs] = self.dirichlet_values[dir_dofs]
        if g is not None:
            full[self.interface_dofs] = g
        full[self.interior_dofs] = x
        return full

    # -- field extraction -------------------------------------------------

    def velocity(self, solution: np.ndarray) -> Field:
        n = self.n_nodes
        return Field(
            self.mesh,
            np.column_stack([solution[:n], solution[n : 2 * n]]),
            self.config.order,
        )

    def pressure(self, solution: np.ndarray) -> Field:
        n = self.n_nodes
        return Field(self.mesh, solution[2 * n : 3 * n], self.config.order)

    def pressure_mean(self, solution: np.ndarray) -> float:
        """Active-area integral of the pressure field."""
        n = self.n_nodes
        return float(self.mass_scalar @ solution[2 * n : 3 * n])


def _node_major(nodes: np.ndarray, n: int, position: np.ndarray) -> np.ndarray:
    """Node-major elimination order of a constrained field-major vector.

    ``position`` maps each field-major dof (``u_x``, ``u_y``, ``p`` at
    offsets 0, ``n``, ``2 n``, then an optional multiplier at ``3 n``)
    to its place in the constrained vector, or -1 if it is not there.
    Each of ``nodes`` contributes its ``u_x``, ``u_y`` and ``p`` in turn,
    and the multiplier comes last.
    """
    dofs = (nodes[:, None] + n * np.arange(3)).ravel()
    if position.size > 3 * n:
        dofs = np.append(dofs, 3 * n)
    pos = position[dofs]
    return pos[pos >= 0]


def nodal_rows(parts) -> list[tuple]:
    """Nodal samples ``(x, y, u1, u2, p, tag)`` sorted by y, then x.

    Parameters
    ----------
    parts : iterable of (SaddleSystem, ndarray, ndarray, str)
        System, its full solution vector, the nodes to sample and the
        tag of their rows.  Rows at equal ``(y, x)`` keep the order in
        which ``parts`` and their nodes list them.

    Returns
    -------
    list of tuple
        Values as Python floats, tag last.
    """
    tables, tags = [], []
    for system, solution, nodes, tag in parts:
        fields = solution[: 3 * system.n_nodes].reshape(3, -1)[:, nodes].T
        tables.append(np.column_stack([system.mesh.node_coords[nodes], fields]))
        tags += [tag] * nodes.size
    table = np.concatenate(tables)
    order = np.lexsort((table[:, 0], table[:, 1]))
    tags = [tags[i] for i in order.tolist()]
    return list(zip(*table[order].T.tolist(), tags))


# ----------------------------------------------------------------------
# Element integral kernels
# ----------------------------------------------------------------------


def _as_vector_callable(f):
    if f is None:
        return lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    if callable(f):
        return lambda x, y: np.broadcast_arrays(*f(x, y), x)[0:2]
    fx, fy = f

    def const(x, y):
        return np.full_like(x, fx), np.full_like(x, fy)

    return const


def _as_scalar_callable(f):
    if f is None:
        return lambda x, y: np.zeros_like(x)
    if callable(f):
        return lambda x, y: np.broadcast_arrays(f(x, y), x)[0]
    return lambda x, y: np.full_like(x, float(f))


class _ElementBatch:
    """Geometry of all active elements (axis-aligned rectangles)."""

    def __init__(self, mesh: StructuredMesh, order: int):
        self.mesh = mesh
        self.ref = _ref_data(order)
        self.elems = np.flatnonzero(mesh.active)
        hx, hy = mesh.element_sizes()
        self.hx = hx[self.elems]
        self.hy = hy[self.elems]
        self.detj = 0.25 * self.hx * self.hy
        self.gx = 2.0 / self.hx
        self.gy = 2.0 / self.hy
        ex = self.elems % mesh.nex
        ey = self.elems // mesh.nex
        self.x0 = mesh.xs[ex]
        self.y0 = mesh.ys[ey]
        # 32-bit node ids, as the sparse matrices built from them use.
        self.nodes = mesh.element_nodes[self.elems].astype(np.int32)
        self.nloc = self.ref.nloc

    def qp_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical coordinates of every quadrature point, ``(ne, nq)``."""
        xi, eta = self.ref.ref.T
        return (
            self.x0[:, None] + 0.5 * (xi + 1.0) * self.hx[:, None],
            self.y0[:, None] + 0.5 * (eta + 1.0) * self.hy[:, None],
        )

    def grads(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Physical basis gradients at one point, shape ``(ne, nloc)``."""
        dx = self.ref.dN_dxi[q][None, :] * self.gx[:, None]
        dy = self.ref.dN_deta[q][None, :] * self.gy[:, None]
        return dx, dy

    def moments(self, values: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``sum_q w_q values[e, q] table[q, a]`` on the reference square.

        ``values`` holds one value per element and quadrature point,
        ``table`` one basis table (``ref.N``, ``ref.dN_dxi``, ...); the
        result has shape ``(ne, nloc)``.
        """
        return (values * self.ref.weights) @ table

    def node_sums(self, local: np.ndarray) -> np.ndarray:
        """Sum element vectors ``(ne, nloc)`` into nodal values."""
        return np.bincount(
            self.nodes.ravel(), local.ravel(), minlength=self.mesh.n_nodes
        )

    def mass(self) -> np.ndarray:
        """Integrals of the scalar basis functions, ``(n_nodes,)``."""
        return self.node_sums(self.detj[:, None] * (self.ref.weights @ self.ref.N))

    def scatter(self, local: np.ndarray, paired: bool = False) -> sp.csr_matrix:
        """Sum element matrices ``(ne, nloc, nloc)`` into a node-by-node CSR.

        With ``paired`` the elements of even and of odd columns are summed
        apart and the two sums added last.  An entry then sums at most two
        contributions per class (elements above and below each other), so
        neighbour contributions that cancel in pairs, as first-derivative
        couplings do across a shared line, give an exact zero whatever
        order the sparse conversion sums in.
        """
        n, nloc = self.mesh.n_nodes, self.nloc
        groups = [slice(None)]
        if paired:
            column = self.elems % self.mesh.nex
            groups = [column % 2 == 0, column % 2 == 1]
        out = None
        for group in groups:
            nodes = self.nodes[group]
            rows = np.repeat(nodes, nloc, axis=1).ravel()
            cols = np.tile(nodes, (1, nloc)).ravel()
            m = sp.coo_matrix(
                (local[group].ravel(), (rows, cols)), shape=(n, n)
            ).tocsr()
            out = m if out is None else out + m
        return out


def _scaled(scale: np.ndarray, ref_matrix: np.ndarray) -> np.ndarray:
    """Element matrices ``scale[e] * ref_matrix``, shape ``(ne, nloc, nloc)``."""
    return scale[:, None, None] * ref_matrix


def _scaled_sum(s1, r1, s2, r2) -> np.ndarray:
    """Element matrices ``s1[e] * r1 + s2[e] * r2``, summed in place."""
    out = _scaled(s1, r1)
    out += _scaled(s2, r2)
    return out


def divergence_l2(field: Field) -> float:
    """Active-area L2 norm of the divergence of a vector field.

    Parameters
    ----------
    field : Field
        Nodal vector field (two components).

    Returns
    -------
    float
        ``sqrt(sum_K int_K (du1/dx + du2/dy)^2)`` over active elements.
    """
    if field.n_components != 2:
        raise ValueError("divergence needs a two-component field")
    batch = _ElementBatch(field.mesh, field.order)
    ux = field.values[:, 0][batch.nodes]
    uy = field.values[:, 1][batch.nodes]
    total = 0.0
    for q in range(batch.ref.weights.size):
        dx, dy = batch.grads(q)
        div = np.einsum("ij,ij->i", dx, ux) + np.einsum("ij,ij->i", dy, uy)
        total += float(np.sum(div**2 * batch.ref.weights[q] * batch.detj))
    return float(np.sqrt(total))


def _block_grid(grid, sizes) -> sp.csr_matrix:
    """Stack a grid of sparse blocks (``None`` for empty) into one CSR."""
    blocks = [
        [sp.csr_matrix((r, c)) if b is None else b for b, c in zip(row, sizes)]
        for row, r in zip(grid, sizes)
    ]
    matrix = sp.bmat(blocks, format="csr")
    matrix.eliminate_zeros()
    return matrix


# ----------------------------------------------------------------------
# Stokes assembly
# ----------------------------------------------------------------------


def assemble_stokes(
    mesh: StructuredMesh,
    config: FemConfig,
    mu: float,
    f=None,
    bc: BoundarySpec | None = None,
    interface: InterfaceSpec | None = None,
    null_mean_pressure: bool = False,
) -> SaddleSystem:
    """Assemble the stabilized Stokes system.

    The weak form is ``mu (grad u, grad v) - (p, div v) = (f, v) +
    natural traction data`` together with the stabilized continuity
    equation ``-(q, div u) - sum_d tau_d (-mu lap(u) + grad p - f)_d
    (d_d q) = 0`` where ``tau_d = gamma h_d^2 / mu`` per element and
    direction, with ``gamma =`` :data:`GAMMA_STAB`.  Essential data
    enter through exterior Dirichlet nodes and, optionally, through
    interface control unknowns.

    Element matrices are reference-square matrices scaled by per-element
    factors of ``hx``, ``hy``, ``mu`` and ``gamma``, which is exact for the
    axis-aligned rectangles of a :class:`StructuredMesh`; loads come from
    one evaluation of ``f`` at every quadrature point of every element.

    Parameters
    ----------
    mesh : StructuredMesh
        Computational mesh (possibly perforated).
    config : FemConfig
        Polynomial order.
    mu : float
        Dynamic viscosity.
    f : pair, callable or None
        Body force per unit volume.
    bc : BoundarySpec
        Exterior boundary conditions.
    interface : InterfaceSpec, optional
        Side carrying essential velocity controls.
    null_mean_pressure : bool
        Append a Lagrange multiplier enforcing a zero pressure mean over
        the active area.

    Returns
    -------
    SaddleSystem
    """
    if bc is None:
        bc = BoundarySpec()
    if interface is not None and interface.side in bc.sides:
        raise ValueError("interface side must not carry exterior conditions")
    order = config.order
    batch = _ElementBatch(mesh, order)
    ref = batch.ref
    n = mesh.n_nodes
    hx, hy = batch.hx, batch.hy
    gamma = GAMMA_STAB

    # Scales of the reference matrices: detj gx^2 = hy / hx, detj gx =
    # hy / 2, and tau_x detj gx^2 = gamma hx hy / mu (x and y alike).
    ks = _scaled_sum(mu * hy / hx, ref.dxi_dxi, mu * hx / hy, ref.deta_deta)
    b1 = _scaled(-0.5 * hy, ref.dxi_N)
    b2 = _scaled(-0.5 * hx, ref.deta_N)
    cpp = _scaled(-gamma * hx * hy / mu, ref.dxi_dxi + ref.deta_deta)
    # Pressure rows: -(q, div u) plus, for order 2, the viscous part
    # mu tau_d (d_d q, lap u) of the stabilization residual.
    px = _scaled(-0.5 * hy, ref.N_dxi)
    py = _scaled(-0.5 * hx, ref.N_deta)
    if order == 2:
        px += _scaled_sum(
            2 * gamma * hy, ref.dxi_dxi2, 2 * gamma * hx**2 / hy, ref.dxi_deta2
        )
        py += _scaled_sum(
            2 * gamma * hy**2 / hx, ref.deta_dxi2, 2 * gamma * hx, ref.deta_deta2
        )

    k_uu = batch.scatter(ks)
    grid = [
        [k_uu, None, batch.scatter(b1, paired=True)],
        [None, k_uu, batch.scatter(b2, paired=True)],
        [
            batch.scatter(px, paired=True),
            batch.scatter(py, paired=True),
            batch.scatter(cpp),
        ],
    ]
    del ks, b1, b2, cpp, px, py

    rhs = _force_load(batch, mu, f)
    mass_scalar = batch.mass()
    sizes = [n, n, n]
    if null_mean_pressure:
        border = sp.csr_matrix(mass_scalar[None, :])
        grid[0].append(None)
        grid[1].append(None)
        grid[2].append(border.T.tocsr())
        grid.append([None, None, border, None])
        sizes.append(1)
        rhs = np.append(rhs, 0.0)
    matrix = _block_grid(grid, sizes)
    n_dofs = matrix.shape[0]

    _add_stress_loads(mesh, order, bc, rhs, n)
    kind, values, iface_dofs, iface_nodes = _classify_dofs(
        mesh, bc, interface, n_dofs
    )
    return SaddleSystem(
        mesh,
        config,
        matrix,
        rhs,
        kind,
        values,
        iface_dofs,
        iface_nodes,
        mass_scalar,
        null_mean_pressure,
    )


def _force_load(batch: _ElementBatch, mu: float, f) -> np.ndarray:
    """Stokes load ``(f, v)`` of a body force, stabilization term included.

    Returns the ``u_x``, ``u_y`` and ``p`` rows, ``3 n`` entries.
    """
    ref = batch.ref
    hx, hy = batch.hx, batch.hy
    gamma = GAMMA_STAB
    fx, fy = _as_vector_callable(f)(*batch.qp_coords())
    detj = batch.detj[:, None]
    f_p = (-gamma / (2 * mu) * hx**2 * hy)[:, None] * batch.moments(fx, ref.dN_dxi)
    f_p -= (gamma / (2 * mu) * hy**2 * hx)[:, None] * batch.moments(fy, ref.dN_deta)
    return np.concatenate(
        [
            batch.node_sums(detj * batch.moments(fx, ref.N)),
            batch.node_sums(detj * batch.moments(fy, ref.N)),
            batch.node_sums(f_p),
        ]
    )


def _add_stress_loads(mesh, order, bc, rhs, n) -> None:
    """Add natural traction integrals to the load vector."""
    for side, cond in bc.sides.items():
        if cond.kind != "normal_stress" or cond.value is None:
            continue
        t_call = _as_vector_callable(cond.value)
        elems = mesh.boundary_edges(side)
        if elems.size == 0:
            continue
        edge_nodes, xq, yq, wq = _edge_quadrature(mesh, order, elems, side)
        tx, ty = t_call(xq, yq)
        N1, _, _ = basis_1d(order, _ref_data(order).pts_1d)
        # wq: (ne, nq); N1: (nq, k+1); contributions per edge node.
        load_x = np.einsum("eq,qa->ea", wq * tx, N1)
        load_y = np.einsum("eq,qa->ea", wq * ty, N1)
        np.add.at(rhs, edge_nodes.ravel(), load_x.ravel())
        np.add.at(rhs, edge_nodes.ravel() + n, load_y.ravel())


def _edge_quadrature(mesh, order, elems, side):
    """1D Gauss data along boundary edges of the given elements.

    Returns
    -------
    (edge_nodes, xq, yq, wq)
        Edge node ids ``(ne, order + 1)``, quadrature coordinates and
        weights ``(ne, nq)`` including the edge Jacobian.
    """
    ref = _ref_data(order)
    pts, wts = ref.pts_1d, ref.wts_1d
    k = order
    nodes = mesh.element_nodes[elems]
    ex = elems % mesh.nex
    ey = elems // mesh.nex
    if side in ("bottom", "top"):
        jj = 0 if side == "bottom" else k
        local = jj * (k + 1) + np.arange(k + 1)
        h = mesh.hx[ex]
        x0 = mesh.xs[ex]
        xq = x0[:, None] + 0.5 * (pts[None, :] + 1.0) * h[:, None]
        yq = np.full_like(xq, mesh.ys[0] if side == "bottom" else mesh.ys[-1])
    else:
        ii = 0 if side == "left" else k
        local = np.arange(k + 1) * (k + 1) + ii
        h = mesh.hy[ey]
        y0 = mesh.ys[ey]
        yq = y0[:, None] + 0.5 * (pts[None, :] + 1.0) * h[:, None]
        xq = np.full_like(yq, mesh.xs[0] if side == "left" else mesh.xs[-1])
    wq = 0.5 * h[:, None] * wts[None, :]
    return nodes[:, local], xq, yq, wq


def _classify_dofs(mesh, bc, interface, n_dofs):
    """Mark every dof as interior, Dirichlet or interface.

    Dead nodes (touching no active element) become homogeneous Dirichlet
    dofs for all fields.  Interface dofs are marked next, and exterior
    Dirichlet data are applied last so they win at shared corners.
    """
    n = mesh.n_nodes
    kind = np.zeros(n_dofs, dtype=np.uint8)
    values = np.zeros(n_dofs)

    dead = np.flatnonzero(~mesh.node_active)
    for offset in (0, n, 2 * n):
        kind[dead + offset] = KIND_DIRICHLET

    iface_nodes = np.empty(0, dtype=int)
    if interface is not None:
        iface_nodes = mesh.boundary_nodes(interface.side)
        if interface.field == "velocity":
            kind[iface_nodes] = KIND_INTERFACE
            kind[iface_nodes + n] = KIND_INTERFACE
        else:
            kind[iface_nodes + 2 * n] = KIND_INTERFACE

    coords = mesh.node_coords
    for side in _SIDE_ORDER:
        cond = bc.sides.get(side)
        if cond is None:
            continue
        if side == "obstacle":
            nodes = mesh.obstacle_boundary_nodes
        else:
            nodes = mesh.boundary_nodes(side)
        if nodes.size == 0:
            continue
        x, y = coords[nodes, 0], coords[nodes, 1]
        if cond.kind == "velocity":
            gx, gy = _as_vector_callable(cond.value)(x, y)
            kind[nodes] = KIND_DIRICHLET
            values[nodes] = gx
            kind[nodes + n] = KIND_DIRICHLET
            values[nodes + n] = gy
        elif cond.kind == "impermeable":
            if side in ("left", "right"):
                kind[nodes] = KIND_DIRICHLET
                values[nodes] = 0.0
            else:
                kind[nodes + n] = KIND_DIRICHLET
                values[nodes + n] = 0.0
        elif cond.kind == "pressure":
            gp = _as_scalar_callable(cond.value)(x, y)
            kind[nodes + 2 * n] = KIND_DIRICHLET
            values[nodes + 2 * n] = gp
        # normal_stress handled in the load vector.

    iface_dofs = np.empty(0, dtype=int)
    if interface is not None:
        if interface.field == "velocity":
            keep = (kind[iface_nodes] == KIND_INTERFACE) & (
                kind[iface_nodes + n] == KIND_INTERFACE
            )
            partial = (
                (kind[iface_nodes] == KIND_INTERFACE)
                | (kind[iface_nodes + n] == KIND_INTERFACE)
            ) & ~keep
            if np.any(partial):
                raise ValueError(
                    "interface nodes with mixed velocity constraints are not "
                    "supported"
                )
            iface_nodes = iface_nodes[keep]
            iface_dofs = np.column_stack([iface_nodes, iface_nodes + n]).ravel()
        else:
            keep = kind[iface_nodes + 2 * n] == KIND_INTERFACE
            iface_nodes = iface_nodes[keep]
            iface_dofs = iface_nodes + 2 * n
    return kind, values, iface_dofs, iface_nodes


# ----------------------------------------------------------------------
# Darcy assembly
# ----------------------------------------------------------------------


def assemble_darcy(
    mesh: StructuredMesh,
    config: FemConfig,
    mu: float,
    permeability: float,
    f=None,
    bc: BoundarySpec | None = None,
    interface: InterfaceSpec | None = None,
    source=None,
) -> SaddleSystem:
    """Assemble the stabilized mixed Darcy system.

    The weak form keeps the momentum equation ``(mu / K)(u, w) +
    (w, grad p) = (w, f)`` and replaces the continuity equation by its
    momentum-augmented counterpart ``(K / mu)(grad q, grad p) = (q, s) +
    (K / mu)(grad q, f)``, obtained by adding the momentum residual
    tested with ``(K / mu) grad q``.  The pressure then solves a scaled
    Poisson problem (with built-in zero normal flux on natural sides)
    and the velocity follows from a mass-matrix projection, which makes
    the equal-order pair stable and keeps the full mixed solution vector
    available to the coupling layer.

    Element matrices are reference-square matrices scaled by per-element
    factors of ``hx``, ``hy`` and ``K / mu``, which is exact for the
    axis-aligned rectangles of a :class:`StructuredMesh`; loads come from
    one evaluation of ``f`` and ``source`` at every quadrature point of
    every element.

    Parameters
    ----------
    mesh : StructuredMesh
        Computational mesh.
    config : FemConfig
        Polynomial order.
    mu : float
        Dynamic viscosity.
    permeability : float
        Scalar intrinsic permeability ``K``.
    f : pair, callable or None
        Body force per unit volume.
    bc : BoundarySpec
        Exterior conditions (impermeable walls, essential pressure).
    interface : InterfaceSpec, optional
        Side carrying essential pressure controls.
    source : float, callable or None
        Mass source for the continuity equation (used by manufactured
        solutions).

    Returns
    -------
    SaddleSystem
    """
    if bc is None:
        bc = BoundarySpec()
    if interface is not None and interface.side in bc.sides:
        raise ValueError("interface side must not carry exterior conditions")
    if permeability <= 0:
        raise ValueError("permeability must be positive")
    order = config.order
    batch = _ElementBatch(mesh, order)
    ref = batch.ref
    n = mesh.n_nodes
    hx, hy = batch.hx, batch.hy
    kovermu = permeability / mu

    # Scales of the reference matrices: detj gx^2 = hy / hx, detj gx =
    # hy / 2 (and alike in y).
    mm = _scaled(batch.detj / kovermu, ref.N_N)
    g1 = _scaled(0.5 * hy, ref.N_dxi)
    g2 = _scaled(0.5 * hx, ref.N_deta)
    kp = _scaled_sum(kovermu * hy / hx, ref.dxi_dxi, kovermu * hx / hy, ref.deta_deta)

    m_uu = batch.scatter(mm)
    matrix = _block_grid(
        [
            [m_uu, None, batch.scatter(g1, paired=True)],
            [None, m_uu, batch.scatter(g2, paired=True)],
            [None, None, batch.scatter(kp)],
        ],
        [n, n, n],
    )
    del mm, g1, g2, kp

    xq, yq = batch.qp_coords()
    fx, fy = _as_vector_callable(f)(xq, yq)
    detj = batch.detj[:, None]
    f_p = detj * batch.moments(_as_scalar_callable(source)(xq, yq), ref.N)
    f_p += (0.5 * kovermu * hy)[:, None] * batch.moments(fx, ref.dN_dxi)
    f_p += (0.5 * kovermu * hx)[:, None] * batch.moments(fy, ref.dN_deta)
    rhs = np.concatenate(
        [
            batch.node_sums(detj * batch.moments(fx, ref.N)),
            batch.node_sums(detj * batch.moments(fy, ref.N)),
            batch.node_sums(f_p),
        ]
    )
    mass_scalar = batch.mass()
    n_dofs = 3 * n

    kind, values, iface_dofs, iface_nodes = _classify_dofs(
        mesh, bc, interface, n_dofs
    )
    return SaddleSystem(
        mesh,
        config,
        matrix,
        rhs,
        kind,
        values,
        iface_dofs,
        iface_nodes,
        mass_scalar,
        False,
    )


# ----------------------------------------------------------------------
# Periodic cell problem
# ----------------------------------------------------------------------


@dataclass
class CellSystem:
    """Reduced periodic Stokes system of the unit cell.

    Attributes
    ----------
    matrix : csc_matrix
        Constrained periodic operator (free reduced dofs plus the
        pressure-mean multiplier).
    rhs : ndarray, shape (2, n_free)
        Matching right-hand sides, one row per forcing direction.
    factor_order : ndarray of int
        Node-major elimination order of the free reduced dofs: the
        periodic master nodes in nested-dissection order with those on
        the seam (the first node row and column, identified with the
        opposite edges) last, each contributing its free ``u_x``,
        ``u_y`` and ``p``, then the pressure-mean multiplier.
    expand : callable
        Maps the constrained solution back to the full nodal velocity
        ``u`` of shape ``(n, 2)`` on the cell mesh.
    mass_scalar : ndarray
        Basis integrals over the fluid part of the cell.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    factor_order: np.ndarray
    expand: object
    mass_scalar: np.ndarray


def assemble_cell_problem(cell_mesh: StructuredMesh) -> CellSystem:
    """Assemble the periodic unit-cell Stokes problem for both directions.

    The problem ``-lap(w) + grad q = e_d`` with unit viscosity on the
    fluid part of the cell, no slip on the obstacle boundary,
    periodicity on the outer edges (realized by identifying opposite
    boundary nodes) and a zero pressure mean has one operator for both
    directions ``d``; only the load differs.

    Parameters
    ----------
    cell_mesh : StructuredMesh
        Perforated unit-cell mesh (see ``build_perforated_mesh``); the
        discretization order is the mesh's.

    Returns
    -------
    CellSystem
    """
    raw = assemble_stokes(
        cell_mesh, FemConfig(order=cell_mesh.order), mu=1.0,
        bc=BoundarySpec(), interface=None, null_mean_pressure=True,
    )
    batch = _ElementBatch(cell_mesh, cell_mesh.order)
    n = cell_mesh.n_nodes
    n_dofs = raw.n_dofs

    master = _periodic_masters(cell_mesh)
    reduced_id = np.full(n, -1, dtype=int)
    masters = np.flatnonzero(master == np.arange(n))
    reduced_id[masters] = np.arange(masters.size)
    node_map = reduced_id[master]
    m = masters.size

    # Fold matrix: full dof -> reduced dof, identity on the multiplier.
    rows = np.arange(n_dofs)
    cols = np.concatenate(
        [node_map, node_map + m, node_map + 2 * m, [3 * m]]
    )
    fold = sp.coo_matrix(
        (np.ones(n_dofs), (rows, cols)), shape=(n_dofs, 3 * m + 1)
    ).tocsr()
    k_red = (fold.T @ raw.matrix @ fold).tocsr()
    f_red = [
        fold.T @ np.append(_force_load(batch, 1.0, force), 0.0)
        for force in ((1.0, 0.0), (0.0, 1.0))
    ]

    # Constrained (free) reduced dofs: no-slip velocity on obstacle
    # boundaries, and zero values on dead nodes for every field.
    fixed = np.zeros(3 * m + 1, dtype=bool)
    wall = reduced_id[cell_mesh.obstacle_boundary_nodes]
    fixed[wall] = True
    fixed[wall + m] = True
    dead_master = reduced_id[
        np.flatnonzero((master == np.arange(n)) & ~cell_mesh.node_active)
    ]
    for offset in (0, m, 2 * m):
        fixed[dead_master + offset] = True
    free = np.flatnonzero(~fixed)
    k_free = k_red[free][:, free].tocsc()
    f_free = np.stack([f[free] for f in f_red])

    # Node-major nested-dissection order over the masters.  The seam
    # masters (first node row and column) also couple to the opposite
    # edges they stand for, so they go last, as a top-level separator.
    nodes = nested_dissection_order(cell_mesh.nnx, cell_mesh.nny, cell_mesh.order)
    nodes = nodes[master[nodes] == nodes]
    seam = (nodes % cell_mesh.nnx == 0) | (nodes < cell_mesh.nnx)
    nodes = reduced_id[np.concatenate([nodes[~seam], nodes[seam]])]
    position = np.full(3 * m + 1, -1)
    position[free] = np.arange(free.size)
    order = _node_major(nodes, m, position)

    def expand(x_free: np.ndarray) -> np.ndarray:
        x_red = np.zeros(3 * m + 1)
        x_red[free] = x_free
        full = fold @ x_red
        return np.column_stack([full[:n], full[n : 2 * n]])

    return CellSystem(k_free, f_free, order, expand, raw.mass_scalar)


def _periodic_masters(mesh: StructuredMesh) -> np.ndarray:
    """Master node of every node under opposite-edge identification."""
    i = np.arange(mesh.n_nodes) % mesh.nnx
    j = np.arange(mesh.n_nodes) // mesh.nnx
    i = np.where(i == mesh.nnx - 1, 0, i)
    j = np.where(j == mesh.nny - 1, 0, j)
    return j * mesh.nnx + i
