"""Tests for the sparse solver layer.

Iterative solutions are checked against dense numpy.linalg.solve on the
same systems, so the Krylov path never certifies itself.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dscal

from equimesh import solver
from equimesh.errors import SolverError
from equimesh.mesh import TriangleMesh, icosphere
from equimesh.operators import MeshTopology, laplacian_iso, vertex_mass_matrix
from equimesh.solver import StepMatrix, backward_euler_step, cg, solve_sparse
from conftest import first_dt
from test_acceptance import bumpy_mesh
from test_operators import open_cap


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
    # an infinite tolerance once returned the zero start as the answer
    for tolerance in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_sparse(sp.eye(3).tocsr(), np.ones(3), tolerance=tolerance)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_or_start_is_bad_input(bad):
    # an infinite rhs used to set the stop threshold to inf and "converge"
    A = sp.eye(3).tocsr()
    with pytest.raises(ValueError, match="rhs must be finite"):
        solve_sparse(A, np.array([1.0, bad, 1.0]))
    with pytest.raises(ValueError, match="x0 must be finite"):
        solve_sparse(A, np.ones(3), x0=np.array([1.0, bad, 1.0]))


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
    # cg itself takes a zero b at the zero start, with no division by ||b||
    x, iterations = cg(A, np.zeros(5), np.zeros(5), 1e-6, 10)
    assert np.array_equal(x, np.zeros(5)) and iterations == 0


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
    seen = []
    with pytest.raises(SolverError, match="iteration budget spent after 3 ") as exc:
        cg(A, b, np.zeros(60), 1e-15, 3, callback=seen.append)
    residual = np.linalg.norm(A @ seen[-1] - b) / np.linalg.norm(b)
    assert exc.value.iterations == 3
    assert exc.value.residual == pytest.approx(residual, rel=1e-12)
    assert exc.value.residual > 1e-15


# ---------------------------------------------------------------------------
# the conjugate-gradient loop

def test_cg_matches_dense_solve(rng):
    A, b, _ = spd_system(50, rng)
    x, iterations = cg(A, b, np.zeros(50), 1e-13, 500)
    assert 0 < iterations <= 50
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
    x, iterations = cg(A, b, np.zeros(50), 1e-12, 500,
                       callback=lambda xk: seen.append(xk.copy()))
    assert 0 < len(seen) <= 50
    assert np.array_equal(seen[-1], x)
    budget = []
    with pytest.raises(SolverError) as exc:
        cg(A, b, np.zeros(50), 1e-15, 7, callback=budget.append)
    assert (exc.value.iterations, len(budget)) == (7, 7)
    # solve_sparse reaches the loop through the module attribute, with no
    # callback of its own, as the benchmark's counting wrapper expects
    counted = []

    def counting_cg(*args, callback=None, **kwargs):
        def chained(xk):
            counted.append(1)
            if callback is not None:
                callback(xk)
        return cg(*args, callback=chained, **kwargs)

    monkeypatch.setattr(solver, "cg", counting_cg)
    solve_sparse(A, b, tolerance=1e-12)
    assert len(counted) == len(seen)


def test_cg_returns_its_callback_count(rng):
    A, b, _ = spd_system(50, rng)
    for x0 in (np.zeros(50), b / A.diagonal()):
        calls = []
        _, iterations = cg(A, b, x0, 1e-12, 500, callback=calls.append)
        assert iterations == len(calls) > 0


def blas_cg(A, b, x0, tolerance, max_iterations):
    """The loop `cg` ran on level-1 BLAS calls, kept as its reference:
    (x, iterations) once the recurrence meets the tolerance."""
    inv_diag = 1.0 / A.diagonal()
    x = np.array(x0, dtype=float)
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = ddot(r, z)
    threshold = (tolerance * np.linalg.norm(b)) ** 2
    for k in range(max_iterations):
        if ddot(r, r) <= threshold:
            return x, k
        q = A @ p
        alpha = rz / ddot(p, q)
        x = daxpy(p, x, a=alpha)
        r = daxpy(q, r, a=-alpha)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = ddot(r, z), rz
        p = daxpy(z, dscal(rz / rz_old, p))
    raise AssertionError("the reference spent its budget")


@pytest.mark.parametrize("refinement", [3, 4, 5])
def test_cg_matches_the_blas_loop(refinement):
    # BLAS daxpy fuses its multiply-add and numpy rounds the product first,
    # so the solutions agree to round-off; the iteration counts are equal
    mesh = icosphere(refinement)
    L = laplacian_iso(mesh)
    masses = vertex_mass_matrix(mesh).diagonal()
    u = np.random.default_rng(refinement).uniform(0.5, 2.0, mesh.n_v)
    b = masses * u
    for dt in (1e-4, 1e-3, 1e-2):
        S = mesh_step_matrix(mesh).fill(L, masses, dt)
        x, iterations = cg(S, b, u, solver.DEFAULT_TOLERANCE,
                           solver.DEFAULT_MAX_ITERATIONS)
        expected, expected_iterations = blas_cg(S, b, u, solver.DEFAULT_TOLERANCE,
                                                solver.DEFAULT_MAX_ITERATIONS)
        assert iterations == expected_iterations > 0
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_cg_breakdown_on_an_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    b = np.array([1.0, 1.0])
    with pytest.raises(SolverError, match="not positive definite") as exc:
        cg(A, b, np.zeros(2), 1e-12, 10)
    # the first search direction already has p^T A p = 0: nothing moved
    assert (exc.value.iterations, exc.value.residual) == (0, 1.0)
    with pytest.raises(SolverError) as exc:
        solve_sparse(A, b)
    assert exc.value.iterations is not None


def test_cg_refuses_a_zero_diagonal_before_dividing():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(SolverError, match="zero diagonal") as exc:
        cg(A, np.ones(2), np.zeros(2), 1e-12, 10)
    # no iteration ran, and the zero start leaves all of b
    assert (exc.value.iterations, exc.value.residual) == (0, 1.0)


def test_cg_alone_judges_the_true_residual(monkeypatch):
    # the two-vertex step at tolerance 1e-12: the recurrence meets it, the
    # true residual does not meet 10 x tolerance
    S = two_vertex_step_matrix().fill(TWO_VERTEX_L, np.ones(2), 1e6)
    b = np.array([1.0, 0.0])
    with pytest.raises(SolverError, match="true residual above 10 x tolerance") as exc:
        cg(S, b, b, 1e-12, 100)
    assert exc.value.iterations > 0 and exc.value.residual > 1e-11
    x, _ = cg(S, b, b, 1e-10, 100)
    assert np.linalg.norm(S @ x - b) <= 1e-9 * np.linalg.norm(b)
    # solve_sparse passes on whatever cg returns: it holds no residual test
    monkeypatch.setattr(solver, "cg", lambda *args: (np.full(2, 7.0), 0))
    assert np.array_equal(solve_sparse(S, b), np.full(2, 7.0))


# ---------------------------------------------------------------------------
# backward Euler

# the hand-built two-vertex L and the slots of its diagonal in L.data
TWO_VERTEX_L = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def two_vertex_step_matrix():
    return StepMatrix(TWO_VERTEX_L.indices, TWO_VERTEX_L.indptr, [0, 3])


def mesh_step_matrix(mesh):
    return MeshTopology(mesh.faces, mesh.n_v).step_matrix


def test_backward_euler_two_vertex_equilibrium():
    u = np.array([1.0, 0.0])
    out = backward_euler_step(np.ones(2), TWO_VERTEX_L, u, dt=1e6, tolerance=1e-10,
                              step_matrix=two_vertex_step_matrix())
    assert out == pytest.approx([0.5, 0.5], abs=1e-5)


def test_residual_past_ten_times_the_tolerance_raises():
    # the same step at tolerance 1e-12: CG stops, but round-off at
    # cond(M - dt L) = 2e6 leaves the true residual far above 1e-11; with
    # numpy's unfused updates the recurrence meets the tolerance after one
    # iteration (the BLAS loop took two), at a true residual of 1.6e-10
    with pytest.raises(SolverError, match=r"^true residual above 10 x tolerance "
                                          r"1\.000e-12 after 1 iterations") as exc:
        backward_euler_step(np.ones(2), TWO_VERTEX_L, np.array([1.0, 0.0]), dt=1e6,
                            tolerance=1e-12, step_matrix=two_vertex_step_matrix())
    assert exc.value.residual > 10.0 * 1e-12
    assert exc.value.iterations == 1


def test_backward_euler_conserves_mass():
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(42)
    u = rng.uniform(0.5, 2.0, mesh.n_v)
    total0 = float(np.ones(mesh.n_v) @ (M @ u))
    dt = first_dt(mesh)
    step_matrix = mesh_step_matrix(mesh)
    for _ in range(10):
        u = backward_euler_step(M.diagonal(), L, u, dt, step_matrix=step_matrix)
    total = float(np.ones(mesh.n_v) @ (M @ u))
    assert abs(total - total0) / abs(total0) < 1e-9


def test_backward_euler_conserves_mass_exactly_at_a_loose_tolerance():
    # criterion 4's fixture at tolerance 1e-3: the solve alone drifts far
    # past 1e-12, and the projection onto sum(b) takes the drift out
    mesh = bumpy_mesh()
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(77)
    u = rng.uniform(0.5, 2.0, mesh.n_v)
    masses = M.diagonal()
    total0 = float(masses @ u)
    dt = first_dt(mesh)
    step_matrix = mesh_step_matrix(mesh)
    for _ in range(30):
        u = backward_euler_step(masses, L, u, dt, tolerance=1e-3, step_matrix=step_matrix)
    assert abs(float(masses @ u) - total0) / total0 <= 1e-12


def test_backward_euler_smooths_monotonically():
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    u = mesh.vertices[:, 2] ** 2
    prev_std = u.std()
    step_matrix = mesh_step_matrix(mesh)
    for _ in range(5):
        u = backward_euler_step(M.diagonal(), L, u, first_dt(mesh),
                                step_matrix=step_matrix)
        assert u.std() < prev_std
        prev_std = u.std()


def test_backward_euler_rhs_extra_enters_equation():
    mesh = icosphere(1)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(9)
    u = rng.uniform(0.5, 1.5, mesh.n_v)
    extra = rng.normal(scale=1e-3, size=mesh.n_v)
    dt = first_dt(mesh)
    out = backward_euler_step(M.diagonal(), L, u, dt, rhs_extra=extra, tolerance=1e-13,
                              step_matrix=mesh_step_matrix(mesh))
    S = (M - dt * L).tocsr()
    resid = S @ out - (M @ u + extra)
    assert np.abs(resid).max() < 1e-10


def test_backward_euler_takes_mass_diagonal_and_starts_from_u(monkeypatch):
    mesh = icosphere(2)
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    u = mesh.vertices[:, 2] ** 2
    dt = first_dt(mesh)
    step_matrix = mesh_step_matrix(mesh)
    # a uniform field is the solution, so the warm-started loop does not iterate
    starts, iterations = [], []

    def recording_cg(A, b, x0, *args, callback=None):
        starts.append(x0)
        return cg(A, b, x0, *args, callback=iterations.append)

    monkeypatch.setattr(solver, "cg", recording_cg)
    uniform = np.full(mesh.n_v, 0.25)
    out = backward_euler_step(M.diagonal(), L, uniform, dt, step_matrix=step_matrix)
    assert np.array_equal(starts[0], uniform)
    assert iterations == []
    assert out == pytest.approx(uniform, rel=1e-12)


@pytest.mark.parametrize("build", [lambda: icosphere(2), bumpy_mesh, open_cap])
def test_step_matrix_equals_the_setdiag_build(build):
    mesh = build()
    L = laplacian_iso(mesh)
    masses = vertex_mass_matrix(mesh).diagonal()
    dt = first_dt(mesh)
    # S as a CSR copy of L times -dt, its diagonal found by setdiag
    expected = sp.csr_matrix(L) * -dt
    expected.setdiag(expected.diagonal() + masses)
    S = mesh_step_matrix(mesh).fill(L, masses, dt)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(S, name), getattr(expected, name))


def test_step_matrix_refuses_a_laplacian_of_another_pattern():
    mesh = icosphere(1)
    with pytest.raises(ValueError, match="not in the step matrix's pattern"):
        backward_euler_step(np.ones(mesh.n_v), laplacian_iso(mesh), np.ones(mesh.n_v),
                            0.1, step_matrix=two_vertex_step_matrix())


def test_step_matrix_refuses_a_relabelled_mesh_of_the_same_size(monkeypatch):
    # the same counts of vertices and entries, but not the same slots: the
    # entry count alone once let L fill the wrong slots, and CG then spent
    # its budget on the scrambled S
    mesh = icosphere(2)
    perm = np.random.default_rng(3).permutation(mesh.n_v)
    relabel = np.empty_like(perm)
    relabel[perm] = np.arange(mesh.n_v)
    relabelled = TriangleMesh(mesh.vertices[perm], relabel[mesh.faces])
    L = laplacian_iso(relabelled)
    step_matrix = mesh_step_matrix(mesh)
    assert L.nnz == step_matrix.matrix.nnz
    assert not np.array_equal(L.indices, step_matrix.matrix.indices)
    solves = []
    monkeypatch.setattr(solver, "cg", lambda *args, **kwargs: solves.append(args))
    masses = vertex_mass_matrix(relabelled).diagonal()
    with pytest.raises(ValueError, match="not in the step matrix's pattern"):
        backward_euler_step(masses, L, np.ones(mesh.n_v), first_dt(mesh),
                            step_matrix=step_matrix)
    assert solves == []


def test_step_started_from_an_increment_agrees_with_a_cold_start():
    mesh = bumpy_mesh()
    L = laplacian_iso(mesh)
    masses = vertex_mass_matrix(mesh).diagonal()
    step_matrix = mesh_step_matrix(mesh)
    dt = first_dt(mesh)
    u_prev = np.random.default_rng(77).uniform(0.5, 2.0, mesh.n_v)
    u = backward_euler_step(masses, L, u_prev, 0.5 * dt, step_matrix=step_matrix)
    cold = backward_euler_step(masses, L, u, dt, step_matrix=step_matrix)
    # the engine's start: the last increment, rescaled to this step
    warm = backward_euler_step(masses, L, u, dt, step_matrix=step_matrix,
                               x0=u + (u - u_prev) * 2.0)
    tolerance = solver.DEFAULT_TOLERANCE
    assert np.linalg.norm(warm - cold) <= 10.0 * tolerance * np.linalg.norm(cold)
    assert abs(masses @ warm - masses @ u) / (masses @ u) <= 1e-13


def test_backward_euler_validation():
    L, step_matrix = TWO_VERTEX_L, two_vertex_step_matrix()
    with pytest.raises(ValueError):
        backward_euler_step(np.ones(2), L, np.ones(2), dt=0.0, step_matrix=step_matrix)
    bad_mass = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        backward_euler_step(bad_mass, L, np.ones(2), dt=0.1, step_matrix=step_matrix)


def _two_vertex_step(**changes):
    args = dict(vertex_mass=np.ones(2), laplacian=TWO_VERTEX_L,
                u_i=np.array([1.0, 0.0]), dt=0.1,
                step_matrix=two_vertex_step_matrix())
    args.update(changes)
    return backward_euler_step(**args)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_backward_euler_refuses_a_non_finite_dt(dt):
    # NaN <= 0 is false, so NaN once reached the solver and broke it down
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        _two_vertex_step(dt=dt)


@pytest.mark.parametrize("argument, name", [
    ("u_i", "u_i"), ("vertex_mass", "vertex masses"), ("rhs_extra", "rhs_extra"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backward_euler_refuses_non_finite_values(argument, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _two_vertex_step(**{argument: np.array([1.0, bad])})

