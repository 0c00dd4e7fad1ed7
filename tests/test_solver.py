"""Tests for the sparse solver layer.

Iterative solutions are checked against dense numpy.linalg.solve on the
same systems, so the Krylov path never certifies itself.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from equimesh.errors import SolverError
from equimesh.mesh import TriangleMesh, icosphere
from equimesh.operators import laplacian_iso, vertex_mass_matrix
from equimesh.solver import DT_SCALE, backward_euler_step, estimate_dt, solve_sparse


def spd_system(n, rng):
    B = rng.normal(size=(n, n))
    A = B.T @ B + n * np.eye(n)
    x = rng.normal(size=n)
    return sp.csr_matrix(A), A @ x, x


def test_system_validation():
    with pytest.raises(ValueError):
        solve_sparse(sp.eye(3).tocsr(), np.ones(4))
    with pytest.raises(ValueError):
        solve_sparse(sp.random(3, 4, density=1.0).tocsr(), np.ones(3))
    with pytest.raises(ValueError):
        solve_sparse(sp.eye(3).tocsr(), np.ones(3), tolerance=0.0)
    with pytest.raises(ValueError):
        solve_sparse(sp.eye(3).tocsr(), np.ones(3), max_iterations=0)


def test_matches_dense_solve_on_spd(rng):
    A, b, x_true = spd_system(40, rng)
    x = solve_sparse(A, b, tolerance=1e-13)
    dense = np.linalg.solve(A.toarray(), b)
    assert x == pytest.approx(dense, rel=1e-8, abs=1e-10)
    assert x == pytest.approx(x_true, rel=1e-8, abs=1e-10)


def test_tridiagonal_hand_system():
    n = 100
    A = sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    x_true = np.sin(np.linspace(0.0, np.pi, n))
    b = A @ x_true
    x = solve_sparse(A, b, tolerance=1e-13)
    assert x == pytest.approx(x_true, abs=1e-8)


def test_zero_rhs_short_circuits():
    A = sp.eye(5).tocsr()
    x = solve_sparse(A, np.zeros(5))
    assert np.array_equal(x, np.zeros(5))


def test_empty_row_raises():
    A = sp.eye(4).tolil()
    A[2, 2] = 0.0
    with pytest.raises(SolverError):
        solve_sparse(A.tocsr(), np.ones(4))


def test_zero_diagonal_raises():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(SolverError, match="zero diagonal"):
        solve_sparse(A, np.ones(2))


def test_budget_exhaustion_reports_iterations(rng):
    A, b, _ = spd_system(60, rng)
    with pytest.raises(SolverError) as exc:
        solve_sparse(A, b, tolerance=1e-15, max_iterations=1)
    assert exc.value.iterations >= 1
    assert np.isfinite(exc.value.residual)


# ---------------------------------------------------------------------------
# backward Euler

def test_backward_euler_two_vertex_equilibrium():
    M = sp.eye(2).tocsr()
    L = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    u = np.array([1.0, 0.0])
    out = backward_euler_step(M, L, u, dt=1e6, tolerance=1e-10)
    assert out == pytest.approx([0.5, 0.5], abs=1e-5)


def test_backward_euler_conserves_mass():
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(42)
    u = rng.uniform(0.5, 2.0, mesh.n_v)
    total0 = float(np.ones(mesh.n_v) @ (M @ u))
    dt = estimate_dt(mesh)
    for _ in range(10):
        u = backward_euler_step(M, L, u, dt)
    total = float(np.ones(mesh.n_v) @ (M @ u))
    assert abs(total - total0) / abs(total0) < 1e-9


def test_backward_euler_smooths_monotonically():
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    u = mesh.vertices[:, 2] ** 2
    prev_std = u.std()
    for _ in range(5):
        u = backward_euler_step(M, L, u, estimate_dt(mesh))
        assert u.std() < prev_std
        prev_std = u.std()


def test_backward_euler_rhs_extra_enters_equation():
    mesh = icosphere(1)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(9)
    u = rng.uniform(0.5, 1.5, mesh.n_v)
    extra = rng.normal(scale=1e-3, size=mesh.n_v)
    dt = estimate_dt(mesh)
    out = backward_euler_step(M, L, u, dt, rhs_extra=extra, tolerance=1e-13)
    S = (M - dt * L).tocsr()
    resid = S @ out - (M @ u + extra)
    assert np.abs(resid).max() < 1e-10


def test_backward_euler_validation():
    M = sp.eye(2).tocsr()
    L = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        backward_euler_step(M, L, np.ones(2), dt=0.0)
    bad_mass = sp.diags([1.0, 0.0]).tocsr()
    with pytest.raises(ValueError):
        backward_euler_step(bad_mass, L, np.ones(2), dt=0.1)


# ---------------------------------------------------------------------------
# time step heuristic

def unit_triangle():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    return TriangleMesh(v, np.array([[0, 1, 2]]))


def test_estimate_dt_formula():
    mesh = unit_triangle()  # mean edge length exactly 1
    assert mesh.mean_edge_length() == pytest.approx(1.0, rel=1e-12)
    assert estimate_dt(mesh) == pytest.approx(DT_SCALE)
    assert estimate_dt(mesh, c=0.5) == pytest.approx(0.5)
    assert estimate_dt(mesh, alpha_max=8.0, c=0.5) == pytest.approx(0.0625)


def test_estimate_dt_scales_with_edge_length():
    fine = icosphere(3)
    coarse = icosphere(1)
    ratio = estimate_dt(fine) / estimate_dt(coarse)
    h_ratio = (fine.mean_edge_length() / coarse.mean_edge_length()) ** 2
    assert ratio == pytest.approx(h_ratio, rel=1e-12)
