"""Sparse linear algebra for the implicit diffusion step."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

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
    started from `x0`.

    Returns (x, iterations) once the recurrence's residual meets
    ||b - A x|| <= tolerance * ||b|| and the true relative residual
    ||A x - b|| / ||b||, computed once after the loop, is at most
    10 * tolerance. Otherwise raises SolverError with the iterations run
    and that residual: on a zero diagonal entry (no Jacobi
    preconditioner; no iteration runs), on breakdown (p^T A p <= 0: A is
    not positive definite), when `max_iterations` are spent, and when the
    true residual misses the 10 * tolerance bound.
    `callback(x)` runs once per iteration. The vector updates are numpy
    operators, in place, into one `step` buffer per solve, and the dot
    products are `@`: that keeps scipy.linalg, whose level-1 BLAS calls
    they replace, out of every process that never factors a matrix (about
    8 MiB of RSS). Per iteration they cost 5-8 µs more than the BLAS
    calls did at refinement 4 (27-31 against 22-23 µs, one BLAS thread),
    and x and r differ from theirs by round-off, as BLAS daxpy fuses its
    multiply-add.
    """
    diagonal = A.diagonal()
    x, k = np.array(x0, dtype=float), 0
    if np.any(diagonal == 0.0):
        reason = "zero diagonal entry; Jacobi preconditioner undefined"
    else:
        x, k, reason = _jacobi_loop(A, b, x, 1.0 / diagonal, tolerance,
                                    max_iterations, callback)
    gap, b_norm = np.linalg.norm(A @ x - b), np.linalg.norm(b)
    if reason is None:
        # written so that a NaN residual fails it too; a zero b passes at x = 0
        if gap <= 10.0 * tolerance * b_norm:
            return x, k
        reason = f"true residual above 10 x tolerance {tolerance:.3e}"
    residual = float(gap / b_norm)
    raise SolverError(
        f"{reason} after {k} iterations; relative residual {residual:.3e}",
        iterations=k,
        residual=residual,
    )


def _jacobi_loop(A, b, x, inv_diag, tolerance, max_iterations, callback):
    """`cg`'s iterations from x: (x, iterations, None) once the recurrence
    meets the tolerance, else (x, iterations, why it stopped)."""
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    step = np.empty_like(x)
    rz = r @ z
    threshold = (tolerance * np.linalg.norm(b)) ** 2
    for k in range(max_iterations + 1):
        if r @ r <= threshold:
            return x, k, None
        if k == max_iterations:
            return x, k, "iteration budget spent"
        q = A @ p
        pq = p @ q
        if not pq > 0.0:
            return x, k, "breakdown: matrix not positive definite"
        alpha = rz / pq
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(q, alpha, out=step)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
        if callback is not None:
            callback(x)


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
    positive and finite (ValueError); `cg` judges how the solve ended.
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
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    x0 = np.zeros(n) if x0 is None else _finite("x0", x0)
    return cg(A, b, x0, tolerance, DEFAULT_MAX_ITERATIONS)[0]


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

