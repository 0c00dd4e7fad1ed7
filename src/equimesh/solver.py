"""Sparse linear algebra for the implicit diffusion step."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dscal

from .errors import SolverError

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "cg",
    "solve_sparse",
    "StepMatrix",
    "backward_euler_step",
]

DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERATIONS = 2000


def cg(A, b, x0, tolerance, max_iterations, callback=None):
    """Jacobi-preconditioned conjugate gradient on the CSR matrix `A`,
    started from `x0`, until ||b - A x|| <= tolerance * ||b||.

    Returns (x, iterations). Raises SolverError on a zero diagonal entry
    (no Jacobi preconditioner), on breakdown (p^T A p <= 0: A is not
    positive definite) and when `max_iterations` are spent, the last two
    with the iterations run and the relative residual of the last x.
    `callback(x)` runs once per iteration. The vector updates are level-1
    BLAS calls, in place: per call they cost about half of the numpy
    operators they replace, which is most of an iteration besides the
    mat-vec at a few thousand unknowns.
    """
    diagonal = A.diagonal()
    if np.any(diagonal == 0.0):
        raise SolverError("zero diagonal entry; Jacobi preconditioner undefined")
    inv_diag = 1.0 / diagonal
    x = np.array(x0, dtype=float)
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = ddot(r, z)
    threshold = (tolerance * np.linalg.norm(b)) ** 2
    for k in range(max_iterations + 1):
        if ddot(r, r) <= threshold:
            return x, k
        if k == max_iterations:
            reason = "iteration budget spent"
            break
        q = A @ p
        pq = ddot(p, q)
        if not pq > 0.0:
            reason = "breakdown: matrix not positive definite"
            break
        alpha = rz / pq
        x = daxpy(p, x, a=alpha)
        r = daxpy(q, r, a=-alpha)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = ddot(r, z), rz
        p = daxpy(z, dscal(rz / rz_old, p))
        if callback is not None:
            callback(x)
    residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
    raise SolverError(
        f"{reason} after {k} iterations; relative residual {residual:.3e}",
        iterations=k,
        residual=residual,
    )


def _finite(name, values):
    """`values` as a float array; a NaN or infinite entry raises ValueError."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def solve_sparse(matrix, rhs, tolerance=DEFAULT_TOLERANCE, x0=None):
    """Solve a symmetric positive definite system by `cg` to relative
    residual <= tolerance, started from `x0` (zero when None).

    Refuses a non-square matrix, a right-hand side that does not match it,
    a NaN or infinite right-hand side or start, and a tolerance that is not
    positive and finite (ValueError).
    Raises SolverError when `cg` does, or when the true relative residual
    of its answer passes 10 * tolerance.
    """
    A = sp.csr_matrix(matrix)
    b = _finite("rhs", rhs)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not 0.0 < tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b)
    x0 = np.zeros(n) if x0 is None else _finite("x0", x0)
    x, iterations = cg(A, b, x0, tolerance, DEFAULT_MAX_ITERATIONS)
    residual = float(np.linalg.norm(A @ x - b) / b_norm)
    # written so that a NaN residual fails it too
    if not residual <= 10.0 * tolerance:
        raise SolverError(
            f"residual {residual:.3e} exceeds tolerance {tolerance:.3e}",
            iterations=iterations,
            residual=residual,
        )
    return x


class StepMatrix:
    """S = M - dt L of the implicit step, kept in L's fixed CSR pattern:
    `diagonal` holds the slot of each L[i, i] in L.data, found once per
    pattern (`operators.MeshTopology` builds one per connectivity), and
    each step rewrites the one data buffer in place."""

    def __init__(self, indices, indptr, diagonal):
        self.diagonal = np.asarray(diagonal)
        n = self.diagonal.size
        self.matrix = sp.csr_matrix((np.zeros(len(indices)), indices, indptr),
                                    shape=(n, n))

    def fill(self, laplacian, masses, dt):
        """S for this step: -dt L.data, the masses added in the diagonal
        slots. `laplacian` is a CSR matrix in this pattern: the same shape,
        `indptr` and `indices`, else ValueError."""
        S = self.matrix
        if not (laplacian.shape == S.shape
                and np.array_equal(laplacian.indptr, S.indptr)
                and np.array_equal(laplacian.indices, S.indices)):
            raise ValueError("laplacian is not in the step matrix's pattern")
        np.multiply(laplacian.data, -dt, out=S.data)
        S.data[self.diagonal] += masses
        return S


def backward_euler_step(
    vertex_mass, laplacian, u_i, dt, rhs_extra=None, tolerance=DEFAULT_TOLERANCE,
    *, step_matrix, x0=None,
):
    """One implicit step of du/dt = Lu: solve (M - dt L) u' = M u (+ extra),
    starting the solve from x0 (u_i when None).

    vertex_mass holds the lumped mass of each vertex; S = M - dt L is
    written into `step_matrix`, a `StepMatrix` in L's pattern. S is
    symmetric positive definite, so conjugate gradient applies. L is
    symmetric with zero row sums, so S 1 = m: adding (sum(b) - m^T x) /
    sum(m) to the solve's x conserves the total mass exactly, m^T u' =
    m^T u + sum(rhs_extra) to round-off at any tolerance and from any
    start. A dt that is not positive and finite, or a NaN or infinite u_i,
    mass, rhs_extra or x0, raises ValueError.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    u_i = _finite("u_i", u_i)
    masses = _finite("vertex masses", vertex_mass)
    if np.any(masses <= 0.0):
        raise ValueError("vertex masses must be positive")
    S = step_matrix.fill(laplacian, masses, dt)
    b = masses * u_i
    if rhs_extra is not None:
        b = b + _finite("rhs_extra", rhs_extra)
    x = solve_sparse(S, b, tolerance=tolerance, x0=u_i if x0 is None else x0)
    return x + (b.sum() - masses @ x) / masses.sum()

