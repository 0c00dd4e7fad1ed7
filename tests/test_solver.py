"""Tests for the sparse solver layer.

Iterative solutions are checked against dense numpy.linalg.solve on the
same systems, so the Krylov path never certifies itself.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from equimesh import solver
from equimesh.errors import SolverError
from equimesh.mesh import TriangleMesh, icosphere
from equimesh.operators import laplacian_iso, vertex_mass_matrix
from equimesh.solver import DT_SCALE, backward_euler_step, cg, estimate_dt, solve_sparse


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
    x, info = cg(A, b, np.zeros(60), 1e-15, 3)
    assert info == 3
    residual = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    with pytest.raises(SolverError) as exc:
        solve_sparse(A, b, tolerance=1e-15, max_iterations=3)
    assert exc.value.iterations == 3
    assert exc.value.residual == pytest.approx(residual, rel=1e-12)
    assert exc.value.residual > 1e-15


# ---------------------------------------------------------------------------
# the conjugate-gradient loop

def test_cg_matches_dense_solve(rng):
    A, b, _ = spd_system(50, rng)
    x, info = cg(A, b, np.zeros(50), 1e-13, 500)
    assert info == 0
    assert x == pytest.approx(np.linalg.solve(A.toarray(), b), rel=1e-9, abs=1e-11)


def test_cg_warm_start_at_the_solution_takes_no_iterations(rng):
    A, b, _ = spd_system(50, rng)
    x = solve_sparse(A, b, tolerance=1e-12)
    calls = []
    again, info = cg(A, b, x, 1e-12, 500, callback=calls.append)
    assert (info, calls) == (0, [])
    assert np.array_equal(again, x)
    assert again is not x  # the start vector is not overwritten


def test_cg_calls_back_once_per_iteration(rng, monkeypatch):
    A, b, _ = spd_system(50, rng)
    seen = []
    x, info = cg(A, b, np.zeros(50), 1e-12, 500,
                 callback=lambda xk: seen.append(xk.copy()))
    assert info == 0
    assert 0 < len(seen) <= 50
    assert np.array_equal(seen[-1], x)
    budget = []
    _, info = cg(A, b, np.zeros(50), 1e-15, 7, callback=budget.append)
    assert (info, len(budget)) == (7, 7)
    # solve_sparse reaches the loop through the module attribute
    counted = []

    def counting_cg(*args, callback=None, **kwargs):
        def chained(xk):
            counted.append(1)
            callback(xk)
        return cg(*args, callback=chained, **kwargs)

    monkeypatch.setattr(solver, "cg", counting_cg)
    solve_sparse(A, b, tolerance=1e-12)
    assert len(counted) == len(seen)


def test_cg_breakdown_on_an_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    _, info = cg(A, np.array([1.0, 1.0]), np.zeros(2), 1e-12, 10)
    assert info == -1
    with pytest.raises(SolverError) as exc:
        solve_sparse(A, np.array([1.0, 1.0]))
    assert exc.value.iterations is not None


# ---------------------------------------------------------------------------
# backward Euler

def test_backward_euler_two_vertex_equilibrium():
    M = sp.eye(2).tocsr()
    L = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    u = np.array([1.0, 0.0])
    out = backward_euler_step(M, L, u, dt=1e6, tolerance=1e-10)
    assert out == pytest.approx([0.5, 0.5], abs=1e-5)


def test_residual_past_ten_times_the_tolerance_raises():
    # the same step at the default tolerance: CG stops, but round-off at
    # cond(M - dt L) = 2e6 leaves the true residual far above 1e-11
    M = sp.eye(2).tocsr()
    L = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(SolverError, match=r"exceeds tolerance 1\.000e-12$") as exc:
        backward_euler_step(M, L, np.array([1.0, 0.0]), dt=1e6)
    assert exc.value.residual > 10.0 * solver.DEFAULT_TOLERANCE


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


def test_backward_euler_takes_mass_diagonal_and_starts_from_u(monkeypatch):
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    u = mesh.vertices[:, 2] ** 2
    dt = estimate_dt(mesh)
    assert np.array_equal(
        backward_euler_step(M, L, u, dt), backward_euler_step(M.diagonal(), L, u, dt)
    )
    # a uniform field is the solution, so the warm-started loop does not iterate
    starts, iterations = [], []

    def recording_cg(A, b, x0, *args, callback=None):
        starts.append(x0)
        return cg(A, b, x0, *args, callback=iterations.append)

    monkeypatch.setattr(solver, "cg", recording_cg)
    uniform = np.full(mesh.n_v, 0.25)
    out = backward_euler_step(M, L, uniform, dt)
    assert np.array_equal(starts[0], uniform)
    assert iterations == []
    assert out == pytest.approx(uniform, rel=1e-12)


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
