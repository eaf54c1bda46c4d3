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
data and interface unknowns, the interior unknowns kept in elimination
order) and a cached direct solver of the interior block: a sparse LU
factor, or for a Darcy system on a mesh without holes an exact
tensor-product solver.  Either drops the raw operator before it is
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, TensorSolver, factorize, ordered_block
from .mesh import StructuredMesh, nested_dissection_order

#: Order in which boundary sides are processed; later entries win when a
#: node belongs to two sides, so exterior corners default to the
#: vertical-side data unless a horizontal side overwrites them.
_SIDE_ORDER = ("left", "right", "bottom", "top", "obstacle")


#: Dimensionless pressure-stabilization constant of the Stokes form.
GAMMA_STAB = 0.1


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
        velocity, a constant pair ``(tx, ty)`` for a traction, a float
        or callable for pressure, ignored for impermeable walls.
    """

    kind: str
    value: object = None

    def __post_init__(self):
        if self.kind not in ("velocity", "normal_stress", "impermeable", "pressure"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "normal_stress" and np.shape(self.value) != (2,):
            raise ValueError(f"a traction is a constant pair, got {self.value!r}")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary conditions keyed by side name.

    Sides are ``left``, ``right``, ``bottom``, ``top`` and ``obstacle``.
    Unlisted sides are natural (zero traction for Stokes, zero normal
    flux for Darcy).  The side hosting interface data must be left out
    here and named through ``interface`` instead.
    """

    sides: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        for name, cond in self.sides.items():
            if name not in _SIDE_ORDER:
                raise ValueError(f"unknown side {name!r}")
            if not isinstance(cond, BoundaryCondition):
                raise TypeError("side values must be BoundaryCondition objects")


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
    return _tensor(Nx, Ny)


def _tensor(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Tensor products of two 1-D tables per point, the y index major."""
    return (fy[:, :, None] * fx[:, None, :]).reshape(fx.shape[0], -1)


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

    def __init__(self, order: int):
        pts, wts = np.polynomial.legendre.leggauss(order + 1)
        XI, ETA = np.meshgrid(pts, pts, indexing="ij")
        self.ref = np.column_stack([XI.ravel(), ETA.ravel()])
        WX, WY = np.meshgrid(wts, wts, indexing="ij")
        self.weights = (WX * WY).ravel()
        Nx, dNx, _ = basis_1d(order, self.ref[:, 0])
        Ny, dNy, _ = basis_1d(order, self.ref[:, 1])
        self.N = _tensor(Nx, Ny)
        self.dN_dxi = _tensor(dNx, Ny)
        self.dN_deta = _tensor(Nx, dNy)
        self.nloc = self.N.shape[1]

        # 1-D basis, its derivative and weights at the Gauss points, for
        # edge integrals and the tables of mesh lines.
        n1, d1, dd1 = basis_1d(order, pts)
        self.N_1d, self.dN_1d, self.wts_1d = n1, d1, wts

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


_REF_CACHE: dict[int, _RefData] = {}


def _ref_data(order: int) -> _RefData:
    if order not in _REF_CACHE:
        _REF_CACHE[order] = _RefData(order)
    return _REF_CACHE[order]


def _line_tables(lines: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Values ``V`` and derivatives ``D`` of the 1-D Lagrange basis of
    ``order`` on the elements between ``lines``, dense, one row per
    Gauss point (``order + 1`` per element) and one column per node,
    each row scaled by the square root of its quadrature weight.

    So ``V^T V`` is the 1-D mass matrix ``int phi_a phi_b``, ``D^T D``
    the stiffness ``int phi_a' phi_b'`` and ``V^T D`` the gradient
    ``int phi_a phi_b'``, with the quadrature of the assembly.  On a
    mesh without holes every block of an assembled system is a sum of
    Kronecker products of the y and x matrices (y factor first, as
    nodes are numbered row by row).
    """
    ref = _ref_data(order)
    h = np.diff(lines)[:, None, None]
    nq = ref.wts_1d.size
    root = np.sqrt(0.5 * h * ref.wts_1d[:, None])
    at = (
        np.arange(h.size)[:, None, None],
        np.arange(nq)[:, None],
        order * np.arange(h.size)[:, None, None] + np.arange(order + 1),
    )
    tables = []
    for element in (root * ref.N_1d, root * (2.0 / h) * ref.dN_1d):
        table = np.zeros((h.size, nq, order * h.size + 1))
        table[at] = element
        tables.append(table.reshape(h.size * nq, -1))
    return tables[0], tables[1]


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
        Nodal values, shape ``(n_nodes,)`` or ``(n_nodes, n_comp)``, on
        the mesh's nodal lattice of order ``mesh.order``.

    Notes
    -----
    Evaluation inside inactive (obstacle) elements returns zero, which
    realizes the trivial zero-extension of fields on perforated meshes.
    """

    def __init__(self, mesh: StructuredMesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.n_nodes:
            raise ValueError("nodal value array does not match the mesh")
        self.mesh = mesh
        self.values = values

    def eval(self, points) -> np.ndarray:
        """Evaluate at points of shape ``(n, 2)`` inside the mesh bounding
        box.

        Returns
        -------
        ndarray
            Shape ``(n,)`` for scalar fields, ``(n, n_comp)`` otherwise.
            Points falling in inactive elements evaluate to zero.
        """
        return eval_fields([self], points)[0]


def eval_fields(fields, points) -> list[np.ndarray]:
    """Evaluate fields of one mesh at points, locating the points once.

    Parameters
    ----------
    fields : sequence of Field
        Fields sharing one mesh.
    points : ndarray
        Coordinates inside the mesh bounding box, shape ``(n, 2)``.

    Returns
    -------
    list of ndarray
        One array per field, as :meth:`Field.eval` returns it.
    """
    elems, ref = fields[0].mesh.locate(points)
    return eval_located(fields, elems, ref[:, None, :])


def eval_located(fields, elems: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    """Evaluate fields of one mesh at points whose host elements are known.

    Points come in groups that share a host element, so each element's
    nodal values are gathered once per group.

    Parameters
    ----------
    fields : sequence of Field
        Fields sharing one mesh.
    elems : ndarray of int
        Host element of each group, shape ``(m,)``.
    ref : ndarray
        Reference coordinates in ``[-1, 1]^2`` of the ``k`` points of each
        group, shape ``(m, k, 2)``.

    Returns
    -------
    list of ndarray
        One array per field with the points group by group: shape
        ``(m * k,)`` for scalar fields, ``(m * k, n_comp)`` otherwise.
        Points in inactive elements evaluate to zero.
    """
    mesh = fields[0].mesh
    if any(f.mesh is not mesh for f in fields):
        raise ValueError("fields evaluated together must share one mesh")
    m, k = ref.shape[:2]
    N = basis_2d(mesh.order, ref.reshape(-1, 2)).reshape(m, k, -1)
    nodes = mesh.element_nodes[elems]
    inactive = ~mesh.active[elems]
    out = []
    for f in fields:
        columns = f.values.reshape(f.values.shape[0], -1).T
        values = np.stack(
            [np.einsum("mka,ma->mk", N, col[nodes]) for col in columns], axis=-1
        )
        values[inactive] = 0.0
        out.append(values.reshape(m * k, *f.values.shape[1:]))
    return out


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
    pressure mean is enforced.  The interior unknowns are node-major
    instead: :attr:`interior_dofs` lists them in elimination order, node
    by node in nested-dissection order, so the interior block is
    factored in its natural order.

    Attributes
    ----------
    matrix : csc_matrix or None
        Unconstrained operator over all degrees of freedom, in CSC form
        so that the interior block is gathered column by column straight
        from it.  Assembly writes it directly in canonical form (sorted,
        unique rows per column, no stored zero) with int32 indices.
        Solves read only two pieces of it: the interior block, gathered
        in :attr:`interior_dofs` order, which the factor keeps to check
        each solve's backward error, and the interior rows of the
        constrained (Dirichlet and interface) columns.
        :attr:`factor` sets ``matrix`` to None before SuperLU runs, so
        a factorization holds only these pieces; :attr:`interior_matrix`,
        :attr:`interface_matrix` and :attr:`interior_rhs` read the
        pieces, before factoring and after.
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
    kovermu : float or None
        ``K / mu`` of a Darcy system, None for a Stokes one.
    """

    def __init__(
        self,
        mesh: StructuredMesh,
        matrix: sp.csc_matrix,
        rhs: np.ndarray,
        kind: np.ndarray,
        dirichlet_values: np.ndarray,
        interface_dofs: np.ndarray,
        interface_nodes: np.ndarray,
        mass_scalar: np.ndarray,
        kovermu: float | None = None,
    ):
        self.mesh = mesh
        self.matrix = matrix
        self.rhs = rhs
        self.kind = kind
        self.dirichlet_values = dirichlet_values
        self.interface_dofs = interface_dofs
        self.interface_nodes = interface_nodes
        self.mass_scalar = mass_scalar
        self.kovermu = kovermu
        self.n_nodes = mesh.n_nodes
        self.n_dofs = matrix.shape[0]

    @property
    def n_interface(self) -> int:
        return self.interface_dofs.size

    # -- constrained system ---------------------------------------------

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        """Interior dofs in elimination order, node-major.

        Nodes follow :func:`~stokesdarcy.mesh.nested_dissection_order`,
        weighted by their interior unknowns, so separators cross the
        obstacles of a perforated mesh rather than its fluid gaps; each
        node contributes its interior ``u_x``, ``u_y`` and ``p`` in that
        order, and the pressure-mean multiplier comes last.
        """
        n = self.n_nodes
        interior = self.kind == KIND_INTERIOR
        nodes = nested_dissection_order(
            self.mesh.nnx, self.mesh.nny, self.mesh.order,
            weights=interior[: 3 * n].reshape(3, n).sum(axis=0),
        )
        return _node_major(nodes, n, interior)

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
    def _constrained_dofs(self) -> np.ndarray:
        return np.flatnonzero(self.kind != KIND_INTERIOR)

    @cached_property
    def _pieces(self) -> tuple[sp.csc_matrix, sp.csc_matrix]:
        """The interior block and the interior rows of the constrained
        columns, both from :attr:`matrix` in :attr:`interior_dofs` order."""
        block = ordered_block(self.matrix, self.interior_dofs)
        coupling = self.matrix[:, self._constrained_dofs][self.interior_dofs]
        return block, coupling

    @cached_property
    def interior_matrix(self) -> sp.csr_matrix:
        return self._pieces[0].tocsr()

    @cached_property
    def interface_matrix(self) -> sp.csr_matrix:
        """Coupling block mapping interface values into interior rows."""
        _, coupling = self._pieces
        columns = np.searchsorted(self._constrained_dofs, self.interface_dofs)
        return coupling[:, columns].tocsr()

    @cached_property
    def interior_rhs(self) -> np.ndarray:
        """Interior load including the exterior Dirichlet lift."""
        f = self.rhs[self.interior_dofs]
        _, coupling = self._pieces
        constrained = self._constrained_dofs
        lift = np.where(
            self.kind[constrained] == KIND_DIRICHLET,
            self.dirichlet_values[constrained],
            0.0,
        )
        if np.any(lift != 0.0):
            f -= coupling @ lift
        return f

    @cached_property
    def factor(self) -> Factorization | TensorSolver:
        """Direct solver of the interior block.  It drops :attr:`matrix`
        first, so SuperLU works in the memory the assembled matrix held.

        A Darcy system on a mesh without holes, whose interior unknowns
        are field by field products of node rows and columns, gets a
        :class:`~stokesdarcy.linalg.TensorSolver`: its blocks are
        Kronecker products of the 1-D matrices of the mesh lines (see
        :func:`_line_tables`), and its pressure rows hold no velocity,
        so it needs no sparse LU.  Every other system gets a
        :func:`~stokesdarcy.linalg.factorize` factor, made in single
        precision and refined in double.  Both check each solve's
        backward error against the block.
        """
        lines = self._field_lines()
        block, _ = self._pieces
        self.matrix = None
        if lines is None:
            return factorize(block)
        # Sorted field-major dofs are the tensor order: field by field,
        # node row by node row.
        order = np.argsort(self.interior_dofs)
        return _darcy_solver(self.mesh, self.kovermu, lines, order, block)

    def _field_lines(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Node rows and columns of the interior unknowns of ``u_x``,
        ``u_y`` and ``p``, for a Darcy system on a mesh without holes
        whose interior unknowns are field by field the products of
        these; None for any other system."""
        if self.kovermu is None or not self.mesh.active.all():
            return None
        interior = self.kind[: 3 * self.n_nodes] == KIND_INTERIOR
        lines = []
        for mask in interior.reshape(3, self.mesh.nny, self.mesh.nnx):
            rows, columns = mask.any(axis=1), mask.any(axis=0)
            if not np.array_equal(mask, np.outer(rows, columns)):
                return None
            lines.append((np.flatnonzero(rows), np.flatnonzero(columns)))
        return lines

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
        # Factored first, so the assembled matrix is gone before any
        # load is gathered.
        factor = self.factor
        rhs = self.interior_rhs.copy() if include_data else np.zeros(
            self.interior_dofs.size
        )
        if g is not None:
            g = np.asarray(g, dtype=float)
            if g.shape[0] != self.n_interface:
                raise ValueError("interface vector has wrong length")
            rhs -= self.interface_matrix @ g
        return self.full_vector(factor.solve(rhs), g, include_data)

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
            self.mesh, np.column_stack([solution[:n], solution[n : 2 * n]])
        )

    def pressure(self, solution: np.ndarray) -> Field:
        n = self.n_nodes
        return Field(self.mesh, solution[2 * n : 3 * n])


def _darcy_solver(
    mesh: StructuredMesh,
    kovermu: float,
    lines: list,
    order: np.ndarray,
    block: sp.csc_matrix,
) -> TensorSolver:
    """Tensor-product solver of the interior ``block`` of a Darcy system
    on ``mesh`` whose interior unknowns of ``u_x``, ``u_y`` and ``p``
    lie on the node rows and columns ``lines``, listed in ``block`` at
    the positions ``order`` (see :attr:`SaddleSystem.factor`).

    The pressure block is ``(K / mu)(M_y kron K_x + K_y kron M_x)``,
    the velocity blocks ``(mu / K) M_y kron M_x``, coupled to the
    pressure by ``M_y kron G_x`` and ``G_y kron M_x``; with the tables
    ``V`` and ``D`` of :func:`_line_tables`, ``M = V^T V``, ``G = V^T
    D`` and ``K = D^T D``.
    """
    v_y, d_y = _line_tables(mesh.ys, mesh.order)
    v_x, d_x = _line_tables(mesh.xs, mesh.order)
    p_y, p_x = lines[2]
    velocity = [
        (
            v_y[:, rows].T @ v_y[:, rows] / kovermu,
            v_x[:, columns].T @ v_x[:, columns],
            v_y[:, rows].T @ c_y[:, p_y],
            v_x[:, columns].T @ c_x[:, p_x],
        )
        for (rows, columns), c_y, c_x in zip(lines[:2], (v_y, d_y), (d_x, v_x))
    ]
    root = np.sqrt(kovermu)
    pressure = (
        root * d_y[:, p_y],
        v_y[:, p_y].T @ v_y[:, p_y],
        root * d_x[:, p_x],
        v_x[:, p_x].T @ v_x[:, p_x],
    )
    return TensorSolver(block, order, pressure, velocity)


def _node_major(nodes: np.ndarray, n: int, keep: np.ndarray) -> np.ndarray:
    """Field-major dofs that ``keep`` marks, in node-major order.

    The dofs are ``u_x``, ``u_y`` and ``p`` at offsets 0, ``n`` and
    ``2 n``, then an optional multiplier at ``3 n``.  Each of ``nodes``
    contributes its ``u_x``, ``u_y`` and ``p`` in turn, and the
    multiplier comes last.
    """
    dofs = (nodes[:, None] + n * np.arange(3)).ravel()
    if keep.size > 3 * n:
        dofs = np.append(dofs, 3 * n)
    return dofs[keep[dofs]]


def nodal_table(parts) -> dict:
    """Nodal sample columns ``x, y, u1, u2, p, domain``, sorted by y, then x.

    Parameters
    ----------
    parts : iterable of (StructuredMesh, ndarray, ndarray, str)
        Mesh, the full field-major solution vector of a system on it
        (see :class:`SaddleSystem`), the nodes to sample and the tag of
        their rows.  Rows at equal ``(y, x)`` keep the order in
        which ``parts`` and their nodes list them.

    Returns
    -------
    dict
        Column name to array: floats, and each row's tag as text.
    """
    tables, tags = [], []
    for mesh, solution, nodes, tag in parts:
        fields = solution[: 3 * mesh.n_nodes].reshape(3, -1)[:, nodes].T
        tables.append(np.column_stack([mesh.node_coords[nodes], fields]))
        tags.append(np.full(nodes.size, tag))
    table = np.concatenate(tables)
    order = np.lexsort((table[:, 0], table[:, 1]))
    columns = dict(zip(["x", "y", "u1", "u2", "p"], table[order].T))
    return {**columns, "domain": np.concatenate(tags)[order]}


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
    """Geometry and node graph of all active elements (axis-aligned
    rectangles).

    The node graph (``_graph``) holds every pair of nodes that share an
    active element, in CSC form: ``indptr`` and ``indices`` (both
    int32), rows ascending within each column.  It is built once, on
    first use, from the element stencil (a row node lies at most
    ``mesh.order`` lattice steps from its column node in each direction),
    with no sort.  Its ``slots`` (int32, shape ``(ne, nloc, nloc)``)
    give every local entry ``(e, a, b)`` of an element matrix, row
    ``a`` and column ``b``, its place among the graph's entries, so
    :meth:`block` sums a block of element matrices into graph order
    with one ``np.bincount``, and :func:`_field_csc` writes the blocks
    into one matrix.
    """

    def __init__(self, mesh: StructuredMesh):
        self.mesh = mesh
        self.ref = _ref_data(mesh.order)
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

    @cached_property
    def _graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, slots)`` of the node graph."""
        mesh, k = self.mesh, self.mesh.order
        n, width = mesh.n_nodes, 2 * k + 1
        # Stencil place of row node a seen from column node b: the
        # offset (dj, di) in [-k, k]^2, dj major, which within a column
        # is ascending row order.
        jj, ii = np.divmod(np.arange(self.nloc), k + 1)
        stencil = (jj[:, None] - jj + k) * width + (ii[:, None] - ii + k)
        key = self.nodes.astype(np.int64)[:, None, :] * width**2 + stencil
        present = np.zeros(n * width**2, dtype=bool)
        present[key] = True
        nnz = int(np.count_nonzero(present))
        if 2 * nnz > np.iinfo(np.int32).max:
            raise ValueError(f"node graph of {nnz} entries exceeds 32-bit indices")
        slots = (np.cumsum(present, dtype=np.int32) - 1)[key]
        column, place = np.divmod(np.flatnonzero(present), width**2)
        dj, di = np.divmod(place, width)
        indices = (column + (dj - k) * mesh.nnx + di - k).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(present.reshape(n, -1).sum(axis=1), out=indptr[1:])
        return indptr, indices, slots

    def block(self, local: np.ndarray, paired: bool = False) -> np.ndarray:
        """Sum element matrices ``(ne, nloc, nloc)`` into graph order.

        With ``paired`` the elements of even and of odd columns are summed
        apart and the two sums added last.  An entry then sums at most two
        contributions per class (elements above and below each other), so
        neighbour contributions that cancel in pairs, as first-derivative
        couplings do across a shared line, give an exact zero.
        """
        _, indices, slots = self._graph
        nnz = indices.size
        if not paired:
            return np.bincount(slots.ravel(), local.ravel(), minlength=nnz)
        odd = (self.elems % self.mesh.nex % 2).astype(np.int32) * nnz
        sums = np.bincount(
            (slots + odd[:, None, None]).ravel(), local.ravel(), minlength=2 * nnz
        )
        return sums[:nnz] + sums[nnz:]


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
    if field.values.shape[1:] != (2,):
        raise ValueError("divergence needs a two-component field")
    batch = _ElementBatch(field.mesh)
    ref = batch.ref
    ux = field.values[:, 0][batch.nodes]
    uy = field.values[:, 1][batch.nodes]
    total = 0.0
    for q in range(ref.weights.size):
        # Physical basis gradients at point q, shape (ne, nloc).
        dx = ref.dN_dxi[q][None, :] * batch.gx[:, None]
        dy = ref.dN_deta[q][None, :] * batch.gy[:, None]
        div = np.einsum("ij,ij->i", dx, ux) + np.einsum("ij,ij->i", dy, uy)
        total += float(np.sum(div**2 * ref.weights[q] * batch.detj))
    return float(np.sqrt(total))


def _field_csc(batch: _ElementBatch, grid, border=None) -> sp.csc_matrix:
    """Field-major CSC matrix of a 3 x 3 grid of node blocks.

    ``grid[i][j]`` holds the values of block ``(i, j)`` (rows of field
    ``i``, columns of field ``j``) in the order of ``batch``'s node
    graph, or None for an empty block.  ``border``, if given, holds the
    pressure-mean weights, stored as row and column ``3 n``.  The arrays
    are written straight into their final places, and stored zeros are
    dropped last; the result is canonical (sorted, unique rows per
    column) with int32 indices.
    """
    indptr_g, rows_g, _ = batch._graph
    n = batch.mesh.n_nodes
    degree = np.diff(indptr_g)
    counts = [sum(b is not None for b in column) * degree for column in zip(*grid)]
    if border is not None:
        counts[2] = counts[2] + 1
        counts.append(np.full(1, n))
    indptr = np.zeros(sum(len(c) for c in counts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    if indptr[-1] > np.iinfo(np.int32).max:
        raise ValueError(f"matrix of {indptr[-1]} entries exceeds 32-bit indices")
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    # Each graph entry's place within its column, and its column's length.
    within = np.arange(rows_g.size) - np.repeat(indptr_g[:-1], degree)
    step = np.repeat(degree, degree)
    for j, column in enumerate(zip(*grid)):
        place = np.repeat(indptr[j * n : (j + 1) * n], degree) + within
        for i, values in enumerate(column):
            if values is not None:
                data[place] = values
                indices[place] = rows_g + i * n
                place += step
    if border is not None:
        # Row 3 n ends every pressure column; column 3 n comes last.
        last = indptr[2 * n + 1 : 3 * n + 1] - 1
        data[last], indices[last] = border, 3 * n
        tail = slice(indptr[3 * n], None)
        data[tail], indices[tail] = border, 2 * n + np.arange(n)
    size = len(indptr) - 1
    matrix = sp.csc_matrix(
        (data, indices, indptr.astype(np.int32)), shape=(size, size)
    )
    matrix.eliminate_zeros()
    return matrix


# ----------------------------------------------------------------------
# Stokes assembly
# ----------------------------------------------------------------------


def assemble_stokes(
    mesh: StructuredMesh,
    mu: float,
    f=None,
    bc: BoundarySpec | None = None,
    interface: str | None = None,
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
        Computational mesh (possibly perforated); its ``order`` is the
        polynomial order of the discretization.
    mu : float
        Dynamic viscosity.
    f : pair, callable or None
        Body force per unit volume.
    bc : BoundarySpec
        Exterior boundary conditions.
    interface : {"bottom", "top"}, optional
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
    order = mesh.order
    batch = _ElementBatch(mesh)
    ref = batch.ref
    n = mesh.n_nodes
    hx, hy = batch.hx, batch.hy
    gamma = GAMMA_STAB

    # Scales of the reference matrices: detj gx^2 = hy / hx, detj gx =
    # hy / 2, and tau_x detj gx^2 = gamma hx hy / mu (x and y alike).
    # Each block of element matrices is summed into graph order as soon
    # as it is formed, so at most one is alive at a time.
    k_uu = batch.block(
        _scaled_sum(mu * hy / hx, ref.dxi_dxi, mu * hx / hy, ref.deta_deta)
    )
    b1 = batch.block(_scaled(-0.5 * hy, ref.dxi_N), paired=True)
    b2 = batch.block(_scaled(-0.5 * hx, ref.deta_N), paired=True)
    cpp = batch.block(_scaled(-gamma * hx * hy / mu, ref.dxi_dxi + ref.deta_deta))
    # Pressure rows: -(q, div u) plus, for order 2, the viscous part
    # mu tau_d (d_d q, lap u) of the stabilization residual.
    px = _scaled(-0.5 * hy, ref.N_dxi)
    if order == 2:
        px += _scaled_sum(
            2 * gamma * hy, ref.dxi_dxi2, 2 * gamma * hx**2 / hy, ref.dxi_deta2
        )
    px = batch.block(px, paired=True)
    py = _scaled(-0.5 * hx, ref.N_deta)
    if order == 2:
        py += _scaled_sum(
            2 * gamma * hy**2 / hx, ref.deta_dxi2, 2 * gamma * hx, ref.deta_deta2
        )
    py = batch.block(py, paired=True)

    rhs = _force_load(batch, mu, f)
    mass_scalar = batch.mass()
    matrix = _field_csc(
        batch,
        [[k_uu, None, b1], [None, k_uu, b2], [px, py, cpp]],
        mass_scalar if null_mean_pressure else None,
    )
    del k_uu, b1, b2, cpp, px, py
    if null_mean_pressure:
        rhs = np.append(rhs, 0.0)
    _add_stress_loads(mesh, bc, rhs, n)
    kind, values, iface_dofs, iface_nodes = classify_dofs(
        mesh, bc, interface, "velocity", rhs.size
    )
    return SaddleSystem(
        mesh, matrix, rhs, kind, values, iface_dofs, iface_nodes, mass_scalar
    )


def _force_load(batch: _ElementBatch, mu: float, f) -> np.ndarray:
    """Stokes load ``(f, v)`` of a body force, stabilization term included.

    Returns the ``u_x``, ``u_y`` and ``p`` rows, ``3 n`` entries.
    """
    ref = batch.ref
    hx, hy = batch.hx, batch.hy
    gamma = GAMMA_STAB
    fx, fy = _as_vector_callable(f)(*batch.qp_coords())
    f_p = (-gamma / (2 * mu) * hx**2 * hy)[:, None] * batch.moments(fx, ref.dN_dxi)
    f_p -= (gamma / (2 * mu) * hy**2 * hx)[:, None] * batch.moments(fy, ref.dN_deta)
    return _loads(batch, fx, fy, f_p)


def _loads(batch: _ElementBatch, fx, fy, f_p: np.ndarray) -> np.ndarray:
    """Load rows ``u_x``, ``u_y`` and ``p`` (``3 n`` entries) of a body
    force ``(fx, fy)`` at the quadrature points and element pressure
    loads ``f_p``."""
    detj = batch.detj[:, None]
    return np.concatenate(
        [
            batch.node_sums(detj * batch.moments(fx, batch.ref.N)),
            batch.node_sums(detj * batch.moments(fy, batch.ref.N)),
            batch.node_sums(f_p),
        ]
    )


def _add_stress_loads(mesh, bc, rhs, n) -> None:
    """Add the integrals of constant tractions to the load vector; an
    edge of length ``h`` has Gauss weights ``0.5 h w_q``."""
    k = mesh.order
    ref = _ref_data(k)
    for side, cond in bc.sides.items():
        if cond.kind != "normal_stress":
            continue
        elems = mesh.boundary_edges(side)
        if side in ("bottom", "top"):
            local = (0 if side == "bottom" else k) * (k + 1) + np.arange(k + 1)
            h = mesh.hx[elems % mesh.nex]
        else:
            local = np.arange(k + 1) * (k + 1) + (0 if side == "left" else k)
            h = mesh.hy[elems // mesh.nex]
        edge_nodes = mesh.element_nodes[elems][:, local].ravel()
        wq = 0.5 * h[:, None] * ref.wts_1d[None, :]
        for offset, t in zip((0, n), cond.value):
            load = np.einsum("eq,qa->ea", wq * t, ref.N_1d)
            np.add.at(rhs, edge_nodes + offset, load.ravel())


def classify_dofs(
    mesh: StructuredMesh,
    bc: BoundarySpec,
    interface: str | None,
    field: str,
    n_dofs: int,
):
    """Mark every dof of a system as interior, Dirichlet or interface.

    Dead nodes (touching no active element) become homogeneous Dirichlet
    dofs for all fields.  The ``field`` dofs (``"velocity"``: ``u_x`` and
    ``u_y``, or ``"pressure"``) of the ``interface`` side (``"bottom"``,
    ``"top"`` or None) are marked next, and exterior Dirichlet data of
    ``bc`` are applied last so they win at shared corners.  Of the
    ``n_dofs``, any beyond ``3 * mesh.n_nodes`` (a multiplier) stay
    interior.

    Returns
    -------
    (kind, values, interface_dofs, interface_nodes)
        As :class:`SaddleSystem` stores them.

    Raises
    ------
    ValueError
        If the interface side is vertical or carries exterior conditions,
        or if exterior data fix one velocity control of an interface node.
    """
    iface_nodes = np.empty(0, dtype=int)
    if interface is not None:
        if interface not in ("bottom", "top"):
            raise ValueError("interface side must be horizontal")
        if interface in bc.sides:
            raise ValueError("interface side must not carry exterior conditions")
        iface_nodes = mesh.boundary_nodes(interface)
    n = mesh.n_nodes
    offsets = np.array([0, n] if field == "velocity" else [2 * n])
    kind = np.zeros(n_dofs, dtype=np.uint8)
    values = np.zeros(n_dofs)

    dead = np.flatnonzero(~mesh.node_active)
    for offset in (0, n, 2 * n):
        kind[dead + offset] = KIND_DIRICHLET
    kind[iface_nodes[:, None] + offsets] = KIND_INTERFACE

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

    marked = kind[iface_nodes[:, None] + offsets] == KIND_INTERFACE
    keep = marked.all(axis=1)
    if np.any(marked.any(axis=1) & ~keep):
        raise ValueError(
            "interface nodes with mixed velocity constraints are not supported"
        )
    iface_nodes = iface_nodes[keep]
    return kind, values, (iface_nodes[:, None] + offsets).ravel(), iface_nodes


# ----------------------------------------------------------------------
# Darcy assembly
# ----------------------------------------------------------------------


def assemble_darcy(
    mesh: StructuredMesh,
    mu: float,
    permeability: float,
    f=None,
    bc: BoundarySpec | None = None,
    interface: str | None = None,
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
        Computational mesh; its ``order`` is the polynomial order of the
        discretization.
    mu : float
        Dynamic viscosity.
    permeability : float
        Scalar intrinsic permeability ``K``; must be positive.
    f : pair, callable or None
        Body force per unit volume.
    bc : BoundarySpec
        Exterior conditions (impermeable walls, essential pressure).
    interface : {"bottom", "top"}, optional
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
    if permeability <= 0:
        raise ValueError("permeability must be positive")
    batch = _ElementBatch(mesh)
    ref = batch.ref
    n = mesh.n_nodes
    hx, hy = batch.hx, batch.hy
    kovermu = permeability / mu

    # Scales of the reference matrices: detj gx^2 = hy / hx, detj gx =
    # hy / 2 (and alike in y).
    m_uu = batch.block(_scaled(batch.detj / kovermu, ref.N_N))
    g1 = batch.block(_scaled(0.5 * hy, ref.N_dxi), paired=True)
    g2 = batch.block(_scaled(0.5 * hx, ref.N_deta), paired=True)
    kp = batch.block(
        _scaled_sum(kovermu * hy / hx, ref.dxi_dxi, kovermu * hx / hy, ref.deta_deta)
    )
    matrix = _field_csc(batch, [[m_uu, None, g1], [None, m_uu, g2], [None, None, kp]])
    del m_uu, g1, g2, kp

    xq, yq = batch.qp_coords()
    fx, fy = _as_vector_callable(f)(xq, yq)
    detj = batch.detj[:, None]
    f_p = detj * batch.moments(_as_scalar_callable(source)(xq, yq), ref.N)
    f_p += (0.5 * kovermu * hy)[:, None] * batch.moments(fx, ref.dN_dxi)
    f_p += (0.5 * kovermu * hx)[:, None] * batch.moments(fy, ref.dN_deta)
    rhs = _loads(batch, fx, fy, f_p)
    mass_scalar = batch.mass()
    kind, values, iface_dofs, iface_nodes = classify_dofs(
        mesh, bc, interface, "pressure", 3 * n
    )
    return SaddleSystem(
        mesh, matrix, rhs, kind, values, iface_dofs, iface_nodes, mass_scalar,
        kovermu,
    )


# ----------------------------------------------------------------------
# Periodic cell problem
# ----------------------------------------------------------------------


@dataclass
class CellSystem:
    """Reduced periodic Stokes system of the unit cell.

    Attributes
    ----------
    matrix : csc_matrix or None
        Constrained periodic operator over the free reduced dofs, in
        elimination order: node-major over the periodic master nodes in
        nested-dissection order, weighted by their free unknowns, with
        those on the seam (the first node row and column, identified
        with the opposite edges) last, each contributing its free
        ``u_x``, ``u_y`` and ``p``, then the pressure-mean multiplier.
        :attr:`factor` sets it to None.
    rhs : ndarray, shape (2, n_free)
        Matching right-hand sides, one row per forcing direction.
    expand : callable
        Maps the constrained solution back to the full nodal velocity
        ``u`` of shape ``(n, 2)`` on the cell mesh.
    mass_scalar : ndarray
        Basis integrals over the fluid part of the cell.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    expand: object
    mass_scalar: np.ndarray

    @cached_property
    def factor(self) -> Factorization:
        """Factor of :attr:`matrix` in its own order.  It sets
        ``matrix`` to None; the factor keeps the block to check its
        solves."""
        block, self.matrix = self.matrix, None
        return factorize(block)


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
        cell_mesh, mu=1.0,
        bc=BoundarySpec({"obstacle": BoundaryCondition("velocity", (0.0, 0.0))}),
        null_mean_pressure=True,
    )
    batch = _ElementBatch(cell_mesh)
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
    k_red = (fold.T @ raw.matrix @ fold).tocsc()
    f_red = [
        fold.T @ np.append(_force_load(batch, 1.0, force), 0.0)
        for force in ((1.0, 0.0), (0.0, 1.0))
    ]

    # Free reduced dofs (those the system leaves interior at the masters:
    # no slip on the obstacle, dead nodes fixed, and the multiplier) in
    # node-major nested-dissection order over the masters, weighted by
    # their free unknowns.  The seam masters (first node row and column)
    # also couple to the opposite edges they stand for, so they go last,
    # as a top-level separator.
    is_free = (
        raw.kind[np.concatenate([masters, masters + n, masters + 2 * n, [3 * n]])]
        == KIND_INTERIOR
    )
    weights = np.zeros(n, dtype=int)
    weights[masters] = is_free[: 3 * m].reshape(3, m).sum(axis=0)
    nodes = nested_dissection_order(
        cell_mesh.nnx, cell_mesh.nny, cell_mesh.order, weights=weights
    )
    nodes = nodes[master[nodes] == nodes]
    seam = (nodes % cell_mesh.nnx == 0) | (nodes < cell_mesh.nnx)
    nodes = reduced_id[np.concatenate([nodes[~seam], nodes[seam]])]
    free = _node_major(nodes, m, is_free)
    f_free = np.stack([f[free] for f in f_red])

    def expand(x_free: np.ndarray) -> np.ndarray:
        x_red = np.zeros(3 * m + 1)
        x_red[free] = x_free
        full = fold @ x_red
        return np.column_stack([full[:n], full[n : 2 * n]])

    return CellSystem(ordered_block(k_red, free), f_free, expand, raw.mass_scalar)


def _periodic_masters(mesh: StructuredMesh) -> np.ndarray:
    """Master node of every node under opposite-edge identification."""
    i = np.arange(mesh.n_nodes) % mesh.nnx
    j = np.arange(mesh.n_nodes) // mesh.nnx
    i = np.where(i == mesh.nnx - 1, 0, i)
    j = np.where(j == mesh.nny - 1, 0, j)
    return j * mesh.nnx + i
