"""Sparse linear algebra for the implicit diffusion step."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dscal

from .errors import SolverError

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "DT_SCALE",
    "cg",
    "solve_sparse",
    "backward_euler_step",
    "estimate_dt",
]

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 2000
DT_SCALE = 0.5


def cg(A, b, x0, tolerance, max_iterations, callback=None):
    """Jacobi-preconditioned conjugate gradient on the CSR matrix `A`,
    started from `x0`, until ||b - A x|| <= tolerance * ||b||.

    Returns (x, info): info is 0 on convergence, the iteration count when
    the budget runs out and -1 on breakdown (p^T A p <= 0: A is not
    positive definite). `callback(x)` runs once per iteration. The vector
    updates are level-1 BLAS calls, in place: per call they cost about
    half of the numpy operators they replace, which is most of an
    iteration besides the mat-vec at a few thousand unknowns.
    """
    inv_diag = 1.0 / A.diagonal()
    x = np.array(x0, dtype=float)
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = ddot(r, z)
    threshold = (tolerance * np.linalg.norm(b)) ** 2
    for k in range(max_iterations + 1):
        if ddot(r, r) <= threshold:
            return x, 0
        if k == max_iterations:
            return x, k
        q = A @ p
        pq = ddot(p, q)
        if not pq > 0.0:
            return x, -1
        alpha = rz / pq
        x = daxpy(p, x, a=alpha)
        r = daxpy(q, r, a=-alpha)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = ddot(r, z), rz
        p = daxpy(z, dscal(rz / rz_old, p))
        if callback is not None:
            callback(x)


def solve_sparse(
    matrix,
    rhs,
    tolerance=DEFAULT_TOLERANCE,
    max_iterations=DEFAULT_MAX_ITERATIONS,
    x0=None,
):
    """Solve a symmetric positive definite system by `cg` to relative
    residual <= tolerance, started from `x0` (zero when None).

    Raises SolverError on breakdown or when the iteration budget runs out,
    reporting the iteration count reached and the residual.
    """
    A = sp.csr_matrix(matrix)
    b = np.asarray(rhs, dtype=float)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not tolerance > 0.0 or max_iterations < 1:
        raise ValueError("bad solver parameters")
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b)
    if np.any(A.getnnz(axis=1) == 0):
        raise SolverError("singular system: empty matrix row")
    if np.any(A.diagonal() == 0.0):
        raise SolverError("zero diagonal entry; Jacobi preconditioner undefined")

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = cg(
        A,
        b,
        np.zeros(n) if x0 is None else x0,
        tolerance,
        max_iterations,
        callback=count,
    )
    residual = float(np.linalg.norm(A @ x - b) / b_norm)
    if info != 0 or not np.isfinite(residual):
        raise SolverError(
            f"solver failed (info={info}) after {iterations} iterations; "
            f"relative residual {residual:.3e}",
            iterations=iterations,
            residual=residual,
        )
    if residual > 10.0 * tolerance:
        # converged flag with a residual that violates the contract
        raise SolverError(
            f"residual {residual:.3e} exceeds tolerance {tolerance:.3e}",
            iterations=iterations,
            residual=residual,
        )
    return x


def backward_euler_step(
    vertex_mass, laplacian, u_i, dt, rhs_extra=None, tolerance=DEFAULT_TOLERANCE
):
    """One implicit step of du/dt = Lu: solve (M - dt L) u' = M u (+ extra),
    starting the solve from u_i.

    vertex_mass is the lumped mass matrix or its diagonal. S = M - dt L
    keeps L's CSR pattern, the masses added in its diagonal slots. For
    symmetric row-sum-zero L on closed surfaces the total mass 1^T M u is
    conserved to solver tolerance. S is symmetric positive definite, so
    conjugate gradient applies.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u_i = np.asarray(u_i, dtype=float)
    if sp.issparse(vertex_mass):
        vertex_mass = vertex_mass.diagonal()
    masses = np.asarray(vertex_mass, dtype=float)
    if np.any(masses <= 0.0):
        raise ValueError("vertex masses must be positive")
    S = sp.csr_matrix(laplacian) * -dt
    S.setdiag(S.diagonal() + masses)
    b = masses * u_i
    if rhs_extra is not None:
        b = b + rhs_extra
    return solve_sparse(S, b, tolerance=tolerance, x0=u_i)


def estimate_dt(mesh, alpha_max=1.0, c=DT_SCALE):
    """Diffusion time step c * (mean edge length)^2 / alpha_max, where
    alpha_max is the largest diffusion rate (1 for isotropic flow)."""
    h = mesh.mean_edge_length()
    return c * h * h / alpha_max
