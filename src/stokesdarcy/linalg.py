"""Checked direct solvers and a BiCGStab Krylov driver.

Subdomain solves reuse one direct solver across many right-hand sides.
The general direct path wraps SuperLU.  :func:`factorize` takes one
kind of input: a CSC block whose unknowns are already in elimination
order, as :func:`ordered_block` gathers it (every system here keeps its
interior unknowns node by node in nested-dissection order; see
:class:`~stokesdarcy.fem.SaddleSystem` and
:class:`~stokesdarcy.fem.CellSystem`).  The block is factored in that
natural order.  A system whose blocks are Kronecker products of 1-D
matrices, the Darcy subdomain on its tensor-product mesh, needs no
sparse LU: :class:`TensorSolver` solves it exactly by fast
diagonalization.  Both solvers check every solve's backward error
against the block they solve: above :data:`BACKWARD_ERROR_BOUND` the
solve raises ``RuntimeError``.  Each records the largest
``backward_error`` of its solves.

A factor that makes few solves, the pore-scale reference's single one,
can be made in single precision (``factorize(block, single=True)``):
SuperLU then factors a float32 copy of the block's values, sharing its
index arrays, in about half the memory, and each solve is refined in
double precision against the block until its backward error is at most
``2**-52`` or stops halving.  A factor whose refinement misses the
bound is remade once in double precision, with a ``RuntimeWarning``.
The Stokes subdomain and unit-cell factors, solved many times each,
stay in double precision.

The interface system of the coupled solver is nonsymmetric and only
available through matrix-vector applications, which is what the
BiCGStab implementation here targets: it keeps a residual history,
distinguishes breakdown from slow convergence, and restarts once from
the current iterate before giving up.  Its breakdown tests are
relative to the right-hand side, so they do not depend on the unit
scale of the data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class KrylovConfig:
    """Settings for the iterative interface solver.

    Parameters
    ----------
    tol : float
        Relative residual target, measured against the right-hand side;
        below 1, since the zero start already has residual 1.
    maxiter : int
        Iteration cap; one iteration applies the operator twice.
    seed : int
        Seed for the deterministic shadow-residual perturbation used
        when restarting after a breakdown.
    """

    tol: float = 1e-8
    maxiter: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be positive and below 1, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {self.maxiter}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


#: Largest normwise backward error accepted from a solve; above it the
#: solve raises ``RuntimeError``.
BACKWARD_ERROR_BOUND = 1e-12

#: SuperLU's diagonal pivot threshold for a factor in a given order: the
#: diagonal entry is kept as pivot unless it is below this fraction of
#: the largest entry in its column.
DIAG_PIVOT_THRESH = 1e-3

#: Most single-precision solves that refine one right-hand side.
MAX_REFINEMENT_STEPS = 4

#: Backward error at which refinement stops: ``2**-52``, the spacing of
#: double-precision numbers at 1.
_REFINED = np.finfo(float).eps


class _CheckedSolver:
    """What the direct solvers share: the block they solve, kept to
    check each solve, the record of those checks (the attributes of
    :class:`Factorization`) and :meth:`health`."""

    #: The kind of solve, as a failed check names it.
    _method = "sparse direct"

    def __init__(self, block: sp.csc_matrix):
        if block.format != "csc" or block.shape[0] != block.shape[1]:
            raise ValueError(
                f"block must be a square CSC matrix, got {block.format} {block.shape}"
            )
        self.shape = block.shape
        self.precision = "float64"
        self.backward_error = 0.0
        self.refinement_steps = 0
        self._block = block
        self._norm = _row_sum_norm(block)

    def _rhs(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {b.shape[0]} != {self.shape[0]}")
        return b

    def _residual(self, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
        """``b - A x`` and the backward error of ``x``."""
        r = b - self._block @ x
        scale = self._norm * np.abs(x).max() + np.abs(b).max()
        return r, float(np.abs(r).max() / scale) if scale != 0.0 else 0.0

    def _checked(self, x: np.ndarray, error: float) -> np.ndarray:
        """``x``, once its backward error ``error`` is recorded; raise
        ``RuntimeError`` if it exceeds :data:`BACKWARD_ERROR_BOUND`."""
        if not error <= BACKWARD_ERROR_BOUND:  # a NaN error fails too
            raise RuntimeError(
                f"backward error {error:.2e} of a {self._method} solve with "
                f"{self.shape[0]} unknowns exceeds {BACKWARD_ERROR_BOUND:.0e}"
            )
        self.backward_error = max(self.backward_error, error)
        return x

    def _lu_counts(self) -> tuple[int, int]:
        """Stored entries of the sparse LU factor and rows its pivoting
        moved; none without one."""
        return 0, 0

    def health(self) -> dict:
        """Deterministic record of the solver for a run manifest.

        Keys ``unknowns``, ``precision`` (:attr:`precision`),
        ``lu_nnz`` (stored entries of ``L`` and ``U``),
        ``row_interchanges`` (rows the pivoting moved off their place,
        the count of ``perm_r != arange(n)``), ``refinement_steps``
        (:attr:`refinement_steps`) and ``backward_error``
        (:attr:`backward_error`, as a string at the fixed precision
        ``%.2e``).  A :class:`TensorSolver` has no LU factor and moves
        no row: its ``lu_nnz`` and ``row_interchanges`` are 0.
        """
        lu_nnz, moved = self._lu_counts()
        return {
            "unknowns": self.shape[0],
            "precision": self.precision,
            "lu_nnz": lu_nnz,
            "row_interchanges": moved,
            "refinement_steps": self.refinement_steps,
            "backward_error": f"{self.backward_error:.2e}",
        }


class Factorization(_CheckedSolver):
    """LU factorization of a sparse block with checked triangular solves.

    Parameters
    ----------
    block : csc_matrix
        Square block to factor, its unknowns already in elimination
        order (see :func:`ordered_block`).  SuperLU reads it in place,
        and the factor keeps it to check its solves.
    single : bool
        Factor in single precision and refine each solve in double
        precision against ``block`` (see Notes).

    Attributes
    ----------
    shape : tuple of int
        Shape of the factored block.
    precision : str
        ``"float32"`` or ``"float64"``, the precision of the factor.
    backward_error : float
        Largest normwise backward error ``|b - A x| / (|A| |x| + |b|)``
        (infinity norms, ``A`` the factored block) over the solves made
        so far; 0 before the first.
    refinement_steps : int
        Most single-precision solves made for one right-hand side; 0
        for a factor made in double precision.

    Notes
    -----
    The infinity norm of ``A`` that the backward error needs is taken
    before SuperLU runs, a bounded chunk of entries at a time.  So
    while SuperLU factors, the arrays alive here are those of
    ``block`` and vectors of one entry per unknown.  Whatever else the
    caller holds stays alive too, which is why a system drops its
    assembled matrix before it factors the gathered block.

    A single-precision factor adds one array of 4-byte entries, the
    values of ``block`` rounded to float32: the matrix SuperLU gets
    shares its row indices and column pointers with ``block``.  SuperLU
    sorts its argument's indices in place, so ``block`` is sorted
    first, in place, which leaves that sort nothing to move.  The
    factor itself takes about half the memory of a double-precision
    one (on the pore-scale blocks, the same entries and interchanges).
    Each solve then starts from ``x = 0`` and repeats: take the
    residual ``r = b - A x`` in double precision, scale it by a power
    of two to a largest entry in [0.5, 1) (so it neither under- nor
    overflows in float32, and scaling ``b`` by a power of two scales
    ``x`` exactly), solve for the correction with the float32 factor
    and add it.  Refinement stops
    when the backward error is at most ``2**-52``, when a step fails to
    halve it (the better iterate is kept), or after
    :data:`MAX_REFINEMENT_STEPS` solves.  If the error is then above
    :data:`BACKWARD_ERROR_BOUND`, the float32 factor is freed and
    ``block`` is factored once more in double precision, with a
    ``RuntimeWarning``; :attr:`precision` records it.

    The pivot threshold on the diagonal is :data:`DIAG_PIVOT_THRESH`, so
    the order is kept up to a row interchange or two (the pressure-mean
    multiplier has a zero diagonal).  Every interchange moves a row off
    its diagonal and adds fill; at 0.01 the unit-viscosity cell factor
    took 161-264 of them and up to 2.5 times the entries.  Such weak
    pivoting is checked on every solve the program makes, at the cost
    of one product with the block per solve (per refinement step): a
    solve whose backward error exceeds :data:`BACKWARD_ERROR_BOUND`
    raises ``RuntimeError``.
    """

    def __init__(self, block: sp.csc_matrix, single: bool = False):
        super().__init__(block)
        if single:
            self.precision = "float32"
            block.sort_indices()
            block = sp.csc_matrix(
                (block.data.astype(np.float32), block.indices, block.indptr),
                shape=block.shape,
            )
        self._lu = _splu(block)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side, both in the
        block's order; raise ``RuntimeError`` if the solve's backward
        error exceeds :data:`BACKWARD_ERROR_BOUND`."""
        b = self._rhs(b)
        if self.precision == "float32":
            x, error = self._refine(b)
            if not error <= BACKWARD_ERROR_BOUND:
                n = self.shape[0]
                warnings.warn(
                    f"single-precision factor of {n} unknowns refined to a "
                    f"backward error of {error:.2e} only; refactoring in "
                    "double precision",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._lu = None
                self._lu = _splu(self._block)
                self.precision = "float64"
        if self.precision == "float64":
            x = self._lu.solve(b)
            _, error = self._residual(b, x)
        return self._checked(x, error)

    def _refine(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """``x`` refined with the float32 factor, and its backward
        error (see the class Notes)."""
        x = np.zeros_like(b)
        r, error = b, float(b.any())  # the backward error of x = 0
        steps = 0
        while error > _REFINED and steps < MAX_REFINEMENT_STEPS:
            exponent = int(np.frexp(np.abs(r).max())[1])
            step = self._lu.solve(np.ldexp(r, -exponent).astype(np.float32))
            y = x + np.ldexp(step.astype(float), exponent)
            r_y, error_y = self._residual(b, y)
            steps += 1
            if not error_y <= error / 2:
                if error_y < error:
                    x, error = y, error_y
                break
            x, r, error = y, r_y, error_y
        self.refinement_steps = max(self.refinement_steps, steps)
        return x, error

    def _lu_counts(self) -> tuple[int, int]:
        moved = np.count_nonzero(self._lu.perm_r != np.arange(self.shape[0]))
        return int(self._lu.nnz), int(moved)


def _splu(block: sp.csc_matrix):
    """SuperLU factor of ``block`` in its natural order."""
    return spla.splu(
        block,
        permc_spec="NATURAL",
        diag_pivot_thresh=DIAG_PIVOT_THRESH,
        options={"SymmetricMode": True},
    )


class TensorSolver(_CheckedSolver):
    """Exact solver, by fast diagonalization, of a block upper-triangular
    system whose blocks are Kronecker products of 1-D matrices.

    In tensor order the unknowns are velocity fields ``u_1, u_2, ...``
    and a pressure ``p``, each a 2-D array over its line sets (rows
    ``y``, columns ``x``) flattened row by row, so that ``(A kron B)
    vec(Z) = vec(A Z B^T)``.  The system is ::

        (Y_i kron X_i) u_i + (V_i kron W_i) p = b_i    for each i
        (M_y kron R_x^T R_x + R_y^T R_y kron M_x) p = b_p

    Parameters
    ----------
    block : csc_matrix
        The same system in the caller's order, kept to check each solve
        (see :class:`Factorization`).
    order : ndarray of int
        Position in ``block`` of each unknown in tensor order.
    pressure : tuple of ndarray
        ``(R_y, M_y, R_x, M_x)``, dense; ``M_y`` and ``M_x`` symmetric
        positive definite, ``R_y`` and ``R_x`` with at least as many
        rows as columns.
    velocity : sequence of tuple of ndarray
        ``(Y_i, X_i, V_i, W_i)`` per velocity field, dense; ``Y_i`` and
        ``X_i`` symmetric positive definite.

    Attributes
    ----------
    shape, precision, backward_error, refinement_steps
        As for :class:`Factorization`; the solver works in double
        precision and makes no refinement steps, and its ``health()``
        has the same keys, with ``lu_nnz`` and ``row_interchanges`` 0.

    Raises
    ------
    RuntimeError
        If the pressure operator is singular.

    Notes
    -----
    The pencils ``(R^T R, M)`` in x and in y are diagonalized once:
    ``R^T R S = M S diag(lambda)`` with ``S^T M S = I``.  The pressure
    then solves as ``P = S_y ((S_y^T B S_x) / (lambda_y + lambda_x^T))
    S_x^T``, two dense transforms and a diagonal scaling (Lynch, Rice
    and Thomas, Numer. Math. 6 (1964); Deville, Fischer and Mund,
    *High-Order Methods for Incompressible Fluid Flow* (2002), ch. 4).
    Each pencil is diagonalized through the singular values ``sigma``
    of ``R L^-T``, ``M = L L^T``, as ``lambda = sigma**2``: a small
    eigenvalue, the pressure's slowest modes, is then accurate to a
    relative ``eps sqrt(lambda_max / lambda)`` rather than the ``eps
    lambda_max / lambda`` of a symmetric eigensolver, and a zero one
    (no essential pressure data along a direction) comes out at
    ``eps**2 lambda_max``.  On graded meshes whose pressure Laplacian
    has a condition number near 1e8 this cut the gap to a refined sparse
    LU solve tenfold, to about the 1e-10 by which the solutions of the
    assembled and the Kronecker forms of the operator differ.
    Each velocity field follows from its load less the pressure
    coupling by a Cholesky solve with ``Y_i`` and one with ``X_i``.
    The solver holds ``block`` and dense matrices of the 1-D sizes
    only, no sparse factor; every solve checks its backward error
    against ``block`` as :class:`Factorization` does.
    """

    _method = "tensor-product"

    def __init__(self, block: sp.csc_matrix, order: np.ndarray, pressure, velocity):
        super().__init__(block)
        r_y, m_y, r_x, m_x = pressure
        lambda_y, self._s_y = _pencil(r_y, m_y)
        lambda_x, self._s_x = _pencil(r_x, m_x)
        self._eigenvalues = lambda_y[:, None] + lambda_x
        # A zero eigenvalue of both pencils (no essential pressure data)
        # comes out at roundoff size.
        largest = self._eigenvalues.max(initial=0.0)
        if not self._eigenvalues.min(initial=np.inf) > _SINGULAR * largest:
            raise RuntimeError(
                f"the pressure operator of a tensor-product system with "
                f"{self.shape[0]} unknowns is singular"
            )
        self._velocity = [
            (scipy.linalg.cho_factor(y), scipy.linalg.cho_factor(x), v, w)
            for y, x, v, w in velocity
        ]
        self._order = order

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side, both in the
        block's order; raise ``RuntimeError`` if the solve's backward
        error exceeds :data:`BACKWARD_ERROR_BOUND`."""
        b = self._rhs(b)
        t = b[self._order]
        s_y, s_x = self._s_y, self._s_x
        start = t.size - self._eigenvalues.size
        p = s_y.T @ t[start:].reshape(self._eigenvalues.shape) @ s_x
        p = s_y @ (p / self._eigenvalues) @ s_x.T
        fields, lo = [], 0
        for y, x, v, w in self._velocity:
            shape = (y[0].shape[0], x[0].shape[0])
            r = t[lo : lo + shape[0] * shape[1]].reshape(shape) - v @ p @ w.T
            u = scipy.linalg.cho_solve(x, scipy.linalg.cho_solve(y, r).T).T
            fields.append(u.ravel())
            lo += u.size
        fields.append(p.ravel())
        out = np.empty_like(b)
        out[self._order] = np.concatenate(fields)
        _, error = self._residual(b, out)
        return self._checked(out, error)


#: Largest ratio of the smallest to the largest pressure eigenvalue of a
#: :class:`TensorSolver` that counts as singular: a few hundred rounding
#: errors.  The porous subdomain at period 1/80 and ``hx = 1/144`` has
#: 7e-8.
_SINGULAR = 256 * np.finfo(float).eps


def _pencil(root: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``lambda`` and eigenvectors ``S`` of the pencil
    ``(R^T R, M)``: ``R^T R S = M S diag(lambda)``, ``S^T M S = I``.

    With ``M = L L^T`` and ``R L^-T = U diag(sigma) V^T``, ``lambda =
    sigma**2`` and ``S = L^-T V`` (see :class:`TensorSolver`).
    """
    lower = np.linalg.cholesky(mass)
    scaled = scipy.linalg.solve_triangular(lower, root.T, lower=True).T
    _, sigma, vt = np.linalg.svd(scaled, full_matrices=False)
    vectors = scipy.linalg.solve_triangular(lower, vt.T, lower=True, trans="T")
    return sigma**2, vectors


#: Columns gathered per pass of :func:`ordered_block` and entries
#: summed per pass of :func:`_row_sum_norm`; they bound the temporaries
#: of both to a few megabytes.
_CHUNK_COLUMNS = 1 << 11
_CHUNK_ENTRIES = 1 << 18


def ordered_block(matrix: sp.csc_matrix, order: np.ndarray) -> sp.csc_matrix:
    """``matrix[order][:, order]`` in CSC form with 32-bit indices.

    Row and column ``i`` of the block stand for index ``order[i]`` of
    ``matrix``, so the block factored in its natural order is
    eliminated in ``order``.  The columns are gathered a chunk at a
    time into arrays sized for all entries of the selected columns,
    which are then cut in place to the entries kept, so no temporary
    spans the whole matrix and nothing beyond the block's own entries
    stays allocated.  A block that would need more than ``2**31 - 1``
    entries raises ``ValueError``.
    """
    n = matrix.shape[0]
    if order.ndim != 1 or (order.size and (order.min() < 0 or order.max() >= n)):
        raise ValueError(f"order must hold indices in [0, {n})")
    m = order.size
    position = np.full(n, -1, dtype=np.intc)
    position[order] = np.arange(m, dtype=np.intc)
    if not np.array_equal(position[order], np.arange(m)):
        raise ValueError("order must be a permutation of distinct indices")
    starts = matrix.indptr[order]
    counts = matrix.indptr[order + 1] - starts
    total = int(counts.sum(dtype=np.int64))
    if max(total, int(matrix.indptr[-1])) > np.iinfo(np.intc).max:
        raise ValueError(f"factored copy of {total} entries exceeds 32-bit indices")
    data = np.empty(total)
    indices = np.empty(total, dtype=np.intc)
    indptr = np.zeros(m + 1, dtype=np.intc)
    nnz = 0
    for lo in range(0, m, _CHUNK_COLUMNS):
        hi = min(lo + _CHUNK_COLUMNS, m)
        c = counts[lo:hi]
        ends = np.cumsum(c, dtype=np.intc)
        # Entries of these columns in ``matrix``, column after column.
        src = np.repeat(starts[lo:hi] - ends + c, c).astype(np.intc, copy=False)
        src += np.arange(ends[-1], dtype=np.intc)
        rows = position[matrix.indices[src]]
        keep = rows >= 0
        kept = np.concatenate(([0], np.cumsum(keep, dtype=np.intc)))
        indptr[lo + 1 : hi + 1] = nnz + kept[ends]
        end = nnz + int(kept[-1])
        data[nnz:end] = matrix.data[src[keep]]
        indices[nnz:end] = rows[keep]
        nnz = end
    # No view of either array is left, so they can shrink in place.
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return sp.csc_matrix((data, indices, indptr), shape=(m, m))


def _row_sum_norm(a: sp.csc_matrix) -> float:
    """Infinity norm of ``a``: its largest absolute row sum, from the
    CSC arrays a chunk of entries at a time."""
    sums = np.zeros(a.shape[0])
    for lo in range(0, a.nnz, _CHUNK_ENTRIES):
        sums += np.bincount(
            a.indices[lo : lo + _CHUNK_ENTRIES],
            np.abs(a.data[lo : lo + _CHUNK_ENTRIES]),
            minlength=a.shape[0],
        )
    return float(sums.max(initial=0.0))


def factorize(block: sp.csc_matrix, single: bool = False) -> Factorization:
    """Factorize a sparse block, already in elimination order, for
    repeated solves.

    Parameters
    ----------
    block : csc_matrix
        Square block, factored in its natural order.  See
        :class:`Factorization`.
    single : bool
        Factor in single precision and refine each solve in double
        precision; pays where a factor makes few solves.

    Returns
    -------
    Factorization
        Object exposing ``solve(b)``, ``precision``,
        ``backward_error``, ``refinement_steps`` and ``health()``.

    Raises
    ------
    RuntimeError
        If the block is numerically singular, or if SuperLU runs out of
        memory (the message names the number of unknowns).
    """
    try:
        return Factorization(block, single)
    except RuntimeError as exc:
        raise RuntimeError(f"sparse factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise RuntimeError(
            f"sparse factorization of {block.shape[0]} unknowns ran out of "
            f"memory ({exc})"
        ) from exc


#: Magnitude, relative to the squared right-hand-side norm, below which
#: an inner product counts as a breakdown.
_BREAKDOWN_EPS = 1e-30


def bicgstab(
    apply_op,
    b: np.ndarray,
    config: KrylovConfig = KrylovConfig(),
) -> tuple[np.ndarray, dict]:
    """Solve ``A x = b`` with BiCGStab for a matrix-free operator.

    The iteration starts from ``x = 0``.

    Parameters
    ----------
    apply_op : callable
        Function computing ``A @ v`` for a vector ``v``.
    b : ndarray
        Right-hand side.
    config : KrylovConfig
        Tolerance, iteration cap and restart seed.

    Returns
    -------
    x : ndarray
        Final iterate.
    info : dict
        Keys ``converged`` (bool), ``iterations`` (int), ``residuals``
        (list of relative residual norms, starting with the initial
        one), ``reason`` (str), ``breakdowns`` (int) and
        ``true_residual`` (float, recomputed from a final operator
        application).

    Notes
    -----
    Breakdown (a vanishing ``rho``, shadow inner product or stabilizing
    ``omega``) is reported separately from slow convergence.  Every
    breakdown test compares an inner product with ``|b|**2``, so scaling
    ``b`` scales the iterates and changes no decision.  On the first
    breakdown the iteration restarts from the current iterate with a
    deterministic perturbed shadow residual; a second breakdown aborts.  Convergence
    is only declared if the recomputed true residual satisfies ten times
    the requested tolerance, which guards against drift in the recursion.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        info = {
            "converged": True,
            "iterations": 0,
            "residuals": [0.0],
            "reason": "zero rhs",
            "breakdowns": 0,
            "true_residual": 0.0,
        }
        return x, info

    rng = np.random.default_rng(config.seed)
    r = b.copy()
    r_hat = r.copy()
    residuals = [float(np.linalg.norm(r) / bnorm)]
    breakdowns = 0
    reason = "maxiter"
    converged = False

    eps = _BREAKDOWN_EPS * bnorm * bnorm
    rho_old = alpha = omega = 1.0
    fresh = True  # no Krylov history yet (start or just restarted)

    it = 0
    while it < config.maxiter:
        rho = float(r_hat @ r)
        broken = abs(rho) < eps or (not fresh and omega == 0.0)
        if not broken:
            if fresh:
                p = r.copy()
                fresh = False
            else:
                beta = (rho / rho_old) * (alpha / omega)
                p = r + beta * (p - omega * v)
            v = apply_op(p)
            denom = float(r_hat @ v)
            broken = abs(denom) < eps
        if broken:
            breakdowns += 1
            if breakdowns > 1:
                reason = "breakdown"
                break
            # Restart from the current iterate with a perturbed shadow
            # residual so the new Krylov space is not orthogonal to r.
            r = b - apply_op(x)
            r_hat = r + np.linalg.norm(r) * 1e-2 * rng.standard_normal(n)
            fresh = True
            continue
        alpha = rho / denom
        s = r - alpha * v
        it += 1
        snorm = float(np.linalg.norm(s) / bnorm)
        if snorm < config.tol:
            x = x + alpha * p
            residuals.append(snorm)
            converged = True
            reason = "converged"
            break
        t = apply_op(s)
        tt = float(t @ t)
        ts = float(t @ s)
        # omega = 0 is a stagnation breakdown, caught at the next pass.
        omega = ts / tt if tt >= eps and abs(ts) >= eps else 0.0
        x = x + alpha * p + omega * s
        r = s - omega * t
        rho_old = rho
        relres = float(np.linalg.norm(r) / bnorm)
        residuals.append(relres)
        if relres < config.tol:
            converged = True
            reason = "converged"
            break

    true_res = float(np.linalg.norm(b - apply_op(x)) / bnorm)
    if converged and true_res > 10.0 * config.tol:
        converged = False
        reason = "true residual check failed"
    info = {
        "converged": converged,
        "iterations": it,
        "residuals": residuals,
        "reason": reason,
        "breakdowns": breakdowns,
        "true_residual": true_res,
    }
    return x, info
