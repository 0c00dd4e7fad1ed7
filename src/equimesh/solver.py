"""Sparse linear algebra for the implicit diffusion step."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from .errors import SolverError

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "DT_SCALE",
    "solve_sparse",
    "backward_euler_step",
    "estimate_dt",
]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 2000
DT_SCALE = 0.5


def _jacobi_preconditioner(matrix):
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise SolverError("zero diagonal entry; Jacobi preconditioner undefined")
    inv = 1.0 / diag
    n = matrix.shape[0]
    return LinearOperator((n, n), matvec=lambda x: inv * x)


def solve_sparse(
    matrix,
    rhs,
    tolerance=DEFAULT_TOLERANCE,
    max_iterations=DEFAULT_MAX_ITERATIONS,
):
    """Jacobi-preconditioned conjugate gradient to relative residual
    <= tolerance, for a symmetric positive definite matrix.

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

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = cg(
        A,
        b,
        rtol=tolerance,
        atol=0.0,
        maxiter=max_iterations,
        M=_jacobi_preconditioner(A),
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
    vertex_mass, laplacian, u_i, dt, rhs_extra=None, tolerance=1e-12
):
    """One implicit step of du/dt = Lu: solve (M - dt L) u' = M u (+ extra).

    For symmetric row-sum-zero L on closed surfaces the total mass
    1^T M u is conserved to solver tolerance. The assembled matrix is
    symmetric positive definite, so conjugate gradient applies.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u_i = np.asarray(u_i, dtype=float)
    M = sp.csr_matrix(vertex_mass)
    if np.any(M.diagonal() <= 0.0):
        raise ValueError("vertex masses must be positive")
    S = (M - dt * sp.csr_matrix(laplacian)).tocsr()
    b = M @ u_i
    if rhs_extra is not None:
        b = b + rhs_extra
    return solve_sparse(S, b, tolerance=tolerance)


def estimate_dt(mesh, alpha_max=1.0, c=DT_SCALE):
    """Diffusion time step c * (mean edge length)^2 / alpha_max, where
    alpha_max is the largest diffusion rate (1 for isotropic flow)."""
    h = mesh.mean_edge_length()
    return c * h * h / alpha_max
