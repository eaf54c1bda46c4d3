"""Sparse direct factorization and a BiCGStab Krylov driver.

Subdomain solves reuse one LU factorization across many right-hand
sides, so the direct path wraps SuperLU.  A factorization either keeps
a given symmetric elimination order (the node-by-node nested-dissection
order of a :class:`~stokesdarcy.fem.SaddleSystem`), checked by the
backward error of one solve with a warned fallback to COLAMD, or uses
COLAMD directly; it records its ``ordering`` and ``backward_error``.

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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class KrylovConfig:
    """Settings for the iterative interface solver.

    Parameters
    ----------
    tol : float
        Relative residual target, measured against the right-hand side.
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
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {self.maxiter}")


#: Largest normwise backward error accepted from a factor computed in a
#: given order; above it the matrix is refactored with COLAMD.
BACKWARD_ERROR_BOUND = 1e-12


class Factorization:
    """LU factorization of a sparse matrix with cached triangular solves.

    Parameters
    ----------
    matrix : sparse matrix
        Square system matrix; converted to CSC for the factorization.
    order : ndarray of int, optional
        Symmetric elimination order, a permutation of ``range(n)``.
        Without it SuperLU orders the columns by COLAMD with partial
        pivoting.

    Attributes
    ----------
    ordering : str
        ``"nested-dissection"`` if the given order was used, otherwise
        ``"colamd"``.
    backward_error : float
        Normwise backward error ``|b - A x| / (|A| |x| + |b|)`` (infinity
        norms) of the solve of ``A x = b`` with ``b = A 1``.

    Notes
    -----
    A given order is factored as ``A[p][:, p]`` with a diagonal pivot
    threshold of 0.01, so the order is mostly kept.  Such weak pivoting
    is checked by one solve: if its backward error exceeds
    :data:`BACKWARD_ERROR_BOUND`, the matrix is refactored with COLAMD
    and partial pivoting and a :class:`RuntimeWarning` is issued.
    """

    def __init__(self, matrix, order=None):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.shape = matrix.shape
        self.nnz = matrix.nnz
        if order is not None:
            order = np.asarray(order)
            if not np.array_equal(np.sort(order), np.arange(self.shape[0])):
                raise ValueError("order must be a permutation of the unknowns")
            self._perm = order
            self._lu = spla.splu(
                matrix[order][:, order],
                permc_spec="NATURAL",
                diag_pivot_thresh=0.01,
                options={"SymmetricMode": True},
            )
            self.ordering = "nested-dissection"
            self.backward_error = self._check(matrix)
            if self.backward_error <= BACKWARD_ERROR_BOUND:
                return
            warnings.warn(
                f"backward error {self.backward_error:.2e} of the "
                f"nested-dissection factor exceeds {BACKWARD_ERROR_BOUND:.0e}; "
                "refactoring with COLAMD",
                RuntimeWarning,
                stacklevel=3,
            )
        self._perm = None
        self._lu = spla.splu(matrix)
        self.ordering = "colamd"
        self.backward_error = self._check(matrix)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        if self._perm is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        return x

    def _check(self, matrix) -> float:
        b = matrix @ np.ones(self.shape[0])
        x = self._solve(b)
        norm_a = abs(matrix).sum(axis=1).max()
        scale = norm_a * np.abs(x).max() + np.abs(b).max()
        return float(np.abs(b - matrix @ x).max() / scale)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {b.shape[0]} != {self.shape[0]}")
        return self._solve(b)


def factorize(matrix, order=None) -> Factorization:
    """Factorize a sparse square matrix for repeated solves.

    Parameters
    ----------
    matrix : sparse matrix
        Square, nonsingular system matrix.
    order : ndarray of int, optional
        Symmetric elimination order; see :class:`Factorization`.

    Returns
    -------
    Factorization
        Object exposing ``solve(b)``, ``ordering`` and
        ``backward_error``.

    Raises
    ------
    RuntimeError
        If the matrix is numerically singular.
    """
    try:
        return Factorization(matrix, order)
    except RuntimeError as exc:
        raise RuntimeError(f"sparse factorization failed: {exc}") from exc


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
