"""Tests for the density-equalizing diffusion engine."""

import inspect
from dataclasses import astuple, fields

import numpy as np
import pytest

from equimesh.benchmarks import (
    bumpy_weights,
    cap_domain,
    cap_weights,
    oblate_domain,
    protrusion_weights,
)
from equimesh.diffusion import (
    DiffusionConfig,
    DiffusionTrace,
    diffuse_remesh,
    update_coordinates,
)
from equimesh import diffusion, harmonics, mesh, solver
from equimesh.contour2d import ContourTrace
from equimesh.errors import DegenerateMeshError, EngineError, GuardError
from equimesh.harmonics import FourierWeights, reconstruct_fast
from equimesh.mesh import FaceGeometry, TriangleMesh, mean_edge_length
from equimesh.operators import stretch_directors
from equimesh.spheroidal import (
    CurvilinearCoords,
    forward_coords,
    sample_cap_grid,
    sample_icosphere,
    surface_normals,
)


# ---------------------------------------------------------------------------
# configuration objects

def test_config_accepts_flat_and_staged_schedules():
    DiffusionConfig(stages=((10, 30),))
    cfg = DiffusionConfig(stages=((5, 20), (10, 10)), gamma=2.0)
    assert cfg.stages == ((5, 20), (10, 10))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(stages=()),
        dict(stages=((10, 30), (10, 5))),  # degree not increasing
        dict(stages=((10, 30), (5, 5))),
        dict(stages=((10, 0),)),
        dict(stages=((10, 30),), gamma=-1.0),
        dict(stages=((10, 30),), dt_scale=0.0),
        dict(stages=((10, 30),), std_tolerance=-1e-3),
        dict(stages=((-1, 30),)),  # negative degree
        dict(stages=((10, 30),), gamma=np.nan),
        dict(stages=((10, 30),), gamma=np.inf),
        dict(stages=((10, 30),), dt_scale=np.nan),
        dict(stages=((10, 30),), dt_scale=np.inf),
        dict(stages=((10, 30),), std_tolerance=np.nan),
        dict(stages=((10, 30),), std_tolerance=np.inf),
        dict(stages=((12.9, 3.7),)),  # once truncated to ((12, 3),)
        dict(stages=((12, 3.0),)),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DiffusionConfig(**kwargs)


@pytest.mark.parametrize("stage", [(True, True), (True, 5), (10, True)])
def test_config_refuses_a_bool_degree_or_budget(stage):
    # Python counts True as an int: ((True, True),) once read ((1, 1),)
    with pytest.raises(ValueError, match="must be an integer"):
        DiffusionConfig(stages=(stage,))
    # numpy integers are counts, and come out as ints
    stages = DiffusionConfig(stages=((np.int64(4), np.int32(3)),)).stages
    assert stages == ((4, 3),) and all(type(v) is int for v in stages[0])


def _trace_row(t, std_u, flip_count, basis_evaluation_count):
    return dict(stage=0, t=t, dt=0.1, std_u=std_u,
                flip_count=flip_count, boundary_length=0.0, area=12.5,
                basis_evaluation_count=basis_evaluation_count, halvings=0)


def test_trace_append_and_csv(tmp_path):
    tr = DiffusionTrace()
    tr.append(**_trace_row(1, 0.5, 0, 100))
    tr.append(**_trace_row(2, 0.4, 2, 250))
    assert tr.n_rows == 2
    with pytest.raises(ValueError):
        tr.append(**_trace_row(3, 0.3, 0, 200))  # evals went down
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "stage,t,dt,std_u,flip_count,boundary_length,area,"
        "basis_evaluation_count,halvings"
    )
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "1"


@pytest.mark.parametrize("trace_cls", [DiffusionTrace, ContourTrace])
def test_trace_header_is_its_column_fields(tmp_path, trace_cls):
    tr = trace_cls()
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lists = [f.name for f in fields(tr) if isinstance(getattr(tr, f.name), list)]
    assert path.read_text().splitlines() == [",".join(lists)]


@pytest.mark.parametrize("trace_cls", [DiffusionTrace, ContourTrace])
def test_trace_append_needs_exactly_its_columns(trace_cls):
    tr = trace_cls()
    row = {name: 1 for name, _ in tr.columns()}
    tr.append(**row)
    for name in row:
        with pytest.raises(TypeError):
            tr.append(**{k: v for k, v in row.items() if k != name})
    with pytest.raises(TypeError):
        tr.append(**row, extra=1.0)
    with pytest.raises(TypeError):
        tr.append(*row.values())
    assert tr.n_rows == 1


# ---------------------------------------------------------------------------
# open-rim source

@pytest.mark.parametrize(
    "loop, u_mean, edge_masses, u, dt, expected",
    [
        # boundary already at the mean: a uniform field gets no source
        ([0, 3], 2.0, [0.4, 0.6], np.full(6, 2.0), 0.5, np.zeros(6)),
        # below the mean is pushed up, above pushed down, times edge mass
        (
            [1, 4], 3.0, [0.5, 2.0], np.array([3.0, 1.0, 3.0, 3.0, 5.0, 3.0]),
            0.1, [0.0, 0.1 * 2.0 * 0.5, 0.0, 0.0, 0.1 * -2.0 * 2.0, 0.0],
        ),
    ],
    ids=["uniform", "steer"],
)
def test_rim_source(loop, u_mean, edge_masses, u, dt, expected):
    assert u.mean() == u_mean  # the rim is steered toward the mean of u
    source = diffusion._rim_source(np.array(loop), u, np.array(edge_masses), dt)
    assert source == pytest.approx(expected, abs=1e-15)
    assert np.all(np.delete(source, loop) == 0.0)


# ---------------------------------------------------------------------------
# coordinate update

def test_update_coordinates_ignores_normal_motion(oblate_dom, rng):
    eta = rng.uniform(-1.2, 1.2, 50)
    phi = rng.uniform(0.0, 2.0 * np.pi, 50)
    coords = CurvilinearCoords(eta, phi, oblate_dom)
    normals = surface_normals(oblate_dom, forward_coords(oblate_dom, eta, phi))
    moved = update_coordinates(coords, 0.3 * normals, dt=0.7)
    assert moved.eta == pytest.approx(eta, abs=1e-9)
    # phi may wrap; compare on the circle
    dphi = np.angle(np.exp(1j * (moved.phi - phi)))
    assert np.abs(dphi).max() < 1e-9


def test_update_coordinates_moves_tangentially(oblate_dom):
    eta = np.array([0.4])
    phi = np.array([1.0])
    coords = CurvilinearCoords(eta, phi, oblate_dom)
    n = surface_normals(oblate_dom, forward_coords(oblate_dom, eta, phi))
    g = np.cross(n[0], [0.0, 0.0, 1.0])
    g /= np.linalg.norm(g)
    moved = update_coordinates(coords, g[None, :] * 0.05, dt=1.0)
    assert abs(moved.phi[0] - phi[0]) > 1e-4


def test_update_coordinates_shape_check(oblate_dom):
    coords = CurvilinearCoords(np.array([0.1]), np.array([0.2]), oblate_dom)
    with pytest.raises(ValueError):
        update_coordinates(coords, np.zeros((2, 3)), 0.1)


# ---------------------------------------------------------------------------
# full engine, closed surface

@pytest.fixture(scope="module")
def bumpy_setup():
    dom = oblate_domain()
    w = bumpy_weights(dom, n_max=10, band=4, amplitude=0.03, seed=11)
    coords, faces = sample_icosphere(dom, 2)
    return dom, w, coords, faces


def test_diffuse_remesh_reduces_density_spread(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 12),), dt_scale=4.0, std_tolerance=0.0)
    out_coords, out_mesh, tr = diffuse_remesh(w, coords, faces, cfg)
    assert tr.n_rows == 12
    assert tr.std_u[-1] < 0.5 * tr.initial_std_u
    # monotone by construction of the acceptance rule
    stds = [tr.initial_std_u] + tr.std_u
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(stds, stds[1:]))
    # area is preserved by the normalized flow up to discretization drift
    assert tr.area[-1] == pytest.approx(tr.initial_area, rel=1e-3)
    # connectivity untouched
    assert out_mesh.n_v == coords.n
    assert np.array_equal(out_mesh.faces, faces)
    assert out_mesh.boundary_loop() is None
    # cost meter is cumulative
    assert all(b >= a for a, b in
               zip(tr.basis_evaluation_count, tr.basis_evaluation_count[1:]))


@pytest.mark.parametrize("setup", ["bumpy_setup", "cap_setup"])
def test_every_engine_solve_uses_the_solver_tolerance(setup, request, monkeypatch):
    _, w, coords, faces = request.getfixturevalue(setup)
    tolerances = []
    solve = solver.solve_sparse

    def recording(*args, **kwargs):
        call = inspect.signature(solve).bind(*args, **kwargs)
        call.apply_defaults()
        tolerances.append(call.arguments["tolerance"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_sparse", recording)
    cfg = DiffusionConfig(stages=((6, 3), (10, 3)), dt_scale=4.0, std_tolerance=0.0)
    diffuse_remesh(w, coords, faces, cfg)
    assert len(tolerances) >= 6
    assert set(tolerances) == {solver.DEFAULT_TOLERANCE}


@pytest.mark.parametrize("setup", ["bumpy_setup", "cap_setup"])
def test_every_engine_step_conserves_mass_exactly(setup, request, monkeypatch):
    # the cap's rim source adds sum(rhs_extra) to the mass of each step
    _, w, coords, faces = request.getfixturevalue(setup)
    drifts, sources = [], []
    step = solver.backward_euler_step

    def recording(*args, **kwargs):
        call = inspect.signature(step).bind(*args, **kwargs).arguments
        masses, u, rhs_extra = call["vertex_mass"], call["u_i"], call["rhs_extra"]
        out = step(*args, **kwargs)
        expected = masses @ u + rhs_extra.sum()
        drifts.append(abs(masses @ out - expected) / expected)
        sources.append(abs(rhs_extra).max())
        return out

    monkeypatch.setattr(diffusion, "backward_euler_step", recording)
    cfg = DiffusionConfig(stages=((6, 3), (10, 3)), dt_scale=4.0, std_tolerance=0.0)
    diffuse_remesh(w, coords, faces, cfg)
    assert len(drifts) >= 6
    assert max(drifts) <= 1e-13
    assert (max(sources) > 0.0) == (setup == "cap_setup")


def test_solves_start_from_the_rescaled_last_increment(aggressive_setup, monkeypatch):
    w, coords, faces = aggressive_setup
    steps, starts = [], []
    step, cg = solver.backward_euler_step, solver.cg

    def recording_step(*args, **kwargs):
        call = inspect.signature(step).bind(*args, **kwargs).arguments
        out = step(*args, **kwargs)
        steps.append((call["u_i"], call["dt"], out))
        return out

    def recording_cg(A, b, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return cg(A, b, x0, *args, **kwargs)

    monkeypatch.setattr(diffusion, "backward_euler_step", recording_step)
    monkeypatch.setattr(solver, "cg", recording_cg)
    # steps this long flip faces, so some rows retry at half the step
    cfg = DiffusionConfig(stages=((10, 3), (15, 5)), dt_scale=60.0, std_tolerance=0.0)
    _, _, trace = diffuse_remesh(w, coords, faces, cfg)
    assert trace.stop_reason == "i_max" and len(starts) == len(steps)
    # a row's candidates, rejected ones first; the last is accepted
    calls = iter(zip(steps, starts))
    last = None
    for row, (stage, halvings) in enumerate(zip(trace.stage, trace.halvings)):
        if row == 0 or stage != trace.stage[row - 1]:
            last = None
        for _ in range(halvings + 1):
            (u, dt, out), x0 = next(calls)
            if last is None:
                assert np.array_equal(x0, u)
            else:
                u_prev, dt_prev, out_prev = last
                expected = u + (out_prev - u_prev) * (dt / dt_prev)
                assert np.allclose(x0, expected, rtol=1e-12, atol=0.0)
        last = u, dt, out
    assert next(calls, None) is None
    assert sum(trace.halvings) > 0


def test_a_stage_folds_its_weights_once(aggressive_setup, monkeypatch):
    w, coords, faces = aggressive_setup
    folds, evaluations = [], []
    fold, evaluate = harmonics._fold, harmonics.SurfaceKernel.__call__

    def counting(*args):
        folds.append(args)
        return fold(*args)

    def recording(self, c):
        points = evaluate(self, c)
        evaluations.append((c, points))
        return points

    monkeypatch.setattr(harmonics, "_fold", counting)
    monkeypatch.setattr(harmonics.SurfaceKernel, "__call__", recording)
    # steps this long flip faces, so some rows retry at half the step
    cfg = DiffusionConfig(stages=((10, 3), (15, 5)), dt_scale=60.0, std_tolerance=0.0)
    final, _, trace = diffuse_remesh(w, coords, faces, cfg)
    assert trace.stop_reason == "i_max" and sum(trace.halvings) > 0
    # each stage's start and every candidate, all from the stage's one fold
    assert len(folds) == 2
    assert len(evaluations) == 2 + trace.n_rows + sum(trace.halvings)
    (points,) = [p for c, p in evaluations if c is final]
    monkeypatch.undo()
    assert np.array_equal(points, reconstruct_fast(w, final))


def test_a_run_checks_its_mesh_once(bumpy_setup, monkeypatch):
    _, w, coords, faces = bumpy_setup
    checked = []
    check = mesh._single_boundary_loop

    def counting(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(mesh, "_single_boundary_loop", counting)
    cfg = DiffusionConfig(stages=((6, 3), (10, 3)), dt_scale=4.0, std_tolerance=0.0)
    _, out_mesh, _ = diffuse_remesh(w, coords, faces, cfg)
    # the template's check: the result keeps its faces and boundary loop
    assert len(checked) == 1
    assert np.array_equal(out_mesh.faces, faces) and out_mesh.boundary_loop() is None


def _relabelled(coords, faces, rng):
    """A random vertex permutation `perm` (new vertex k is old perm[k]), and
    the coordinates and faces under it, the faces shuffled and each face's
    corners rotated."""
    perm = rng.permutation(coords.n)
    label = np.empty_like(perm)
    label[perm] = np.arange(coords.n)
    f = label[faces][rng.permutation(len(faces))]
    turn = rng.integers(0, 3, len(f))[:, None]
    f = np.take_along_axis(f, (np.arange(3) + turn) % 3, axis=1)
    return perm, CurvilinearCoords(coords.eta[perm], coords.phi[perm], coords.domain), f


@pytest.mark.parametrize("flow", ["isotropic", "anisotropic"])
def test_remesh_does_not_depend_on_labels(flow):
    # guards MeshTopology's scatter, StepMatrix's slots, every face-order
    # sum and the connectivity that `with_vertices` reuses
    if flow == "isotropic":
        w, gamma = bumpy_weights(oblate_domain(), n_max=12, band=6, amplitude=0.04), 0.0
    else:
        w, gamma = protrusion_weights(), 1.0
    cfg = DiffusionConfig(stages=((12, 20),), gamma=gamma, dt_scale=4.0,
                          std_tolerance=0.0)
    coords, faces = sample_icosphere(w.domain, 3)
    _, out, tr = diffuse_remesh(w, coords, faces, cfg)
    perm, coords_p, faces_p = _relabelled(coords, faces, np.random.default_rng(5))
    _, out_p, tr_p = diffuse_remesh(w, coords_p, faces_p, cfg)
    assert (tr_p.n_rows, tr_p.halvings) == (tr.n_rows, tr.halvings) == (20, [0] * 20)
    assert np.array_equal(out_p.faces, faces_p)
    gap = np.abs(out_p.vertices - out.vertices[perm]).max()
    assert gap <= 1e-12 * np.abs(out.vertices).max()


def test_diffuse_remesh_continuation_hands_off_exactly(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 6),), dt_scale=4.0, std_tolerance=0.0)
    c1, _, t1 = diffuse_remesh(w, coords, faces, cfg)
    _, _, t2 = diffuse_remesh(w, c1, faces, cfg)
    assert t2.initial_std_u == pytest.approx(t1.std_u[-1], rel=1e-12)
    assert t2.std_u[-1] <= t1.std_u[-1] * (1.0 + 1e-9)


def test_diffuse_remesh_is_deterministic(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 4),), dt_scale=4.0, std_tolerance=0.0)
    a = diffuse_remesh(w, coords, faces, cfg)
    b = diffuse_remesh(w, coords, faces, cfg)
    assert np.array_equal(a[0].eta, b[0].eta)
    assert np.array_equal(a[0].phi, b[0].phi)
    assert np.array_equal(a[1].vertices, b[1].vertices)


@pytest.fixture(scope="module")
def cap_setup():
    dom = cap_domain()
    w = cap_weights(dom, n_max=10, rings=20, sectors=32)
    coords, faces = sample_cap_grid(dom, rings=12, sectors=24)
    return dom, w, coords, faces


@pytest.mark.parametrize("path", ["closed-aniso", "open-cap"])
def test_repeated_runs_give_identical_traces(bumpy_setup, cap_setup, path):
    if path == "closed-aniso":
        _, w, coords, faces = bumpy_setup
        cfg = DiffusionConfig(stages=((10, 4),), gamma=1.0, dt_scale=4.0,
                              std_tolerance=0.0)
    else:
        _, w, coords, faces = cap_setup
        cfg = DiffusionConfig(stages=((10, 4),), dt_scale=1.0,
                              std_tolerance=0.0)
    a = diffuse_remesh(w, coords, faces, cfg)
    b = diffuse_remesh(w, coords, faces, cfg)
    assert a[2].n_rows == 4
    assert astuple(a[2]) == astuple(b[2])
    assert np.array_equal(a[0].eta, b[0].eta)
    assert np.array_equal(a[0].phi, b[0].phi)
    assert np.array_equal(a[1].vertices, b[1].vertices)


def test_stop_reason_budget_and_early_stop(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 6),), dt_scale=4.0, std_tolerance=0.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert (tr.n_rows, tr.stop_reason) == (6, "i_max")
    cfg = DiffusionConfig(stages=((10, 40),), dt_scale=4.0, std_tolerance=1.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert (tr.n_rows, tr.stop_reason) == (5, "converged-early")


def test_stop_reason_stalled(bumpy_setup, monkeypatch):
    # a reversed flow raises the STD at every step size, so nothing is accepted
    forward = diffusion.update_coordinates
    monkeypatch.setattr(
        diffusion,
        "update_coordinates",
        lambda coords, grad, dt: forward(coords, -grad, dt),
    )
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 5),), dt_scale=0.05, std_tolerance=0.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert (tr.n_rows, tr.stop_reason) == (0, "stalled")


def test_stage_rejected_by_the_std_test_alone_stalls(cap_setup):
    # stage 0's first row flips faces at its largest steps, but its last
    # candidates flip none and only raise the STD: the stage stalls, which
    # is no failed flip recovery, and stage 1 goes on
    _, w, coords, faces = cap_setup
    cfg = DiffusionConfig(stages=((6, 3), (10, 3)), dt_scale=20.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert tr.n_rows > 0 and set(tr.stage) == {1}
    assert tr.stop_reason == "i_max"


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_first_step_is_dt_scale_h2_over_alpha_on_the_unit_area_start(bumpy_setup, gamma):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((8, 1),), gamma=gamma, dt_scale=4.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    points = reconstruct_fast(w.truncated(8), coords)
    points = points * (1.0 / np.sqrt(FaceGeometry(points, faces).areas.sum()))
    geometry = FaceGeometry(points, faces)
    alpha = stretch_directors(geometry, gamma)[3] if gamma > 0.0 else 1.0
    h = mean_edge_length(geometry.points, TriangleMesh(points, faces).unique_edges())
    # a rejected candidate halves the step, so the row's dt times
    # 2**halvings is the step the row started from
    assert tr.dt[0] * 2.0 ** tr.halvings[0] == cfg.dt_scale * h * h / alpha


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_face_collapsing_mid_run_raises_engine_error_with_trace(
    bumpy_setup, monkeypatch, gamma
):
    _, w, coords, faces = bumpy_setup
    a, b = faces[0][:2]
    reconstructions = []

    class Collapsing(diffusion.SurfaceKernel):
        def __call__(self, c):
            points = super().__call__(c)
            reconstructions.append(c)
            if len(reconstructions) > 3:  # the stage start and two candidates
                points[b] = points[a]
            return points

    monkeypatch.setattr(diffusion, "SurfaceKernel", Collapsing)
    cfg = DiffusionConfig(stages=((10, 5),), gamma=gamma, dt_scale=4.0)
    with pytest.raises(DegenerateMeshError) as exc:
        diffuse_remesh(w, coords, faces, cfg)
    assert isinstance(exc.value, EngineError)
    assert exc.value.trace.n_rows == 2
    assert exc.value.trace.stop_reason == ""


@pytest.fixture(scope="module")
def aggressive_setup():
    dom = oblate_domain()
    w = bumpy_weights(dom, n_max=15, band=6, amplitude=0.8, seed=3)
    coords, faces = sample_icosphere(dom, 2)
    return w, coords, faces


def test_flip_recovery_absorbs_aggressive_steps(aggressive_setup):
    w, coords, faces = aggressive_setup
    cfg = DiffusionConfig(stages=((15, 5),), dt_scale=60.0, std_tolerance=0.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert tr.n_rows == 5
    assert sum(tr.flip_count) > 0  # rejected candidates flipped, runs anyway
    assert all(h > 0 for h, f in zip(tr.halvings, tr.flip_count) if f)
    stds = [tr.initial_std_u] + tr.std_u
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(stds, stds[1:]))
    # a first step above the ceiling is kept: it bounds the regrowth
    first = tr.dt[0] * 2.0 ** tr.halvings[0]
    assert first > diffusion._DT_CEILING
    for previous, dt, halvings in zip(tr.dt, tr.dt[1:], tr.halvings[1:]):
        assert dt * 2.0**halvings == min(2.0 * previous, first)


def test_flip_recovery_exhausted_raises_with_trace(aggressive_setup, monkeypatch):
    monkeypatch.setattr(diffusion, "MAX_DT_HALVINGS", 2)
    w, coords, faces = aggressive_setup
    cfg = DiffusionConfig(stages=((15, 5),), dt_scale=60.0, std_tolerance=0.0)
    with pytest.raises(EngineError, match="iteration 5") as exc:
        diffuse_remesh(w, coords, faces, cfg)
    assert exc.value.trace.n_rows == 4
    assert exc.value.trace.stop_reason == ""


def test_time_step_doubles_up_to_the_ceiling(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((10, 8),), dt_scale=0.05, std_tolerance=0.0)
    _, _, tr = diffuse_remesh(w, coords, faces, cfg)
    assert tr.halvings == [0] * 8
    assert tr.dt == [min(tr.dt[0] * 2.0**k, diffusion._DT_CEILING) for k in range(8)]
    assert tr.dt[-1] == diffusion._DT_CEILING


def test_iterations_to_target_hold_as_resolution_grows():
    # the step grows to a ceiling set on the unit-area surface, so a finer
    # sampling needs about as many iterations to the same STD ratio
    dom = oblate_domain()
    w = bumpy_weights(dom, n_max=10, band=10)
    reached = []
    for refinement in (3, 5):
        coords, faces = sample_icosphere(dom, refinement)
        cfg = DiffusionConfig(stages=((10, 20),), dt_scale=4.0, std_tolerance=0.0)
        _, _, tr = diffuse_remesh(w, coords, faces, cfg)
        ratios = np.asarray(tr.std_u) / tr.initial_std_u
        assert ratios.min() <= 0.25, refinement
        reached.append(tr.t[int(np.argmax(ratios <= 0.25))])
    assert reached[1] <= 1.5 * reached[0], reached


def test_early_stop_is_relative_to_the_initial_std():
    # std_u scales as 1/n_v, so only a relative threshold stops a finer
    # sampling after about as many rows and no sooner in STD ratio
    dom = oblate_domain()
    w = bumpy_weights(dom, n_max=10, band=10)
    rows, ratios = [], []
    for refinement in (3, 4):
        coords, faces = sample_icosphere(dom, refinement)
        cfg = DiffusionConfig(stages=((10, 60),), dt_scale=4.0)
        _, _, tr = diffuse_remesh(w, coords, faces, cfg)
        assert tr.stop_reason == "converged-early", refinement
        rows.append(tr.n_rows)
        ratios.append(tr.std_u[-1] / tr.initial_std_u)
    assert abs(rows[1] - rows[0]) <= 3, rows
    assert ratios[1] <= ratios[0], ratios


def test_engine_error_carries_trace():
    dom = oblate_domain()
    beta = (3 + 1) ** 2
    w = FourierWeights(np.zeros((beta, 3)), 3, dom)
    coords, faces = sample_icosphere(dom, 1)
    cfg = DiffusionConfig(stages=((3, 5),))
    with pytest.raises(EngineError) as exc:
        diffuse_remesh(w, coords, faces, cfg)
    assert hasattr(exc.value, "trace")
    assert exc.value.trace.n_rows == 0


def test_stage_degree_exceeding_weights_raises(bumpy_setup):
    _, w, coords, faces = bumpy_setup
    cfg = DiffusionConfig(stages=((25, 5),))
    with pytest.raises(GuardError):
        diffuse_remesh(w, coords, faces, cfg)


# ---------------------------------------------------------------------------
# full engine, open surface

def test_diffuse_remesh_pins_rim_vertices(cap_setup):
    dom, w, coords, faces = cap_setup
    initial_mesh = TriangleMesh(reconstruct_fast(w, coords), faces)
    loop = initial_mesh.boundary_loop()
    assert loop is not None
    rim_eta = coords.eta[loop].copy()

    cfg = DiffusionConfig(stages=((10, 8),), dt_scale=1.0, std_tolerance=0.0)
    out_coords, out_mesh, tr = diffuse_remesh(w, coords, faces, cfg)
    assert out_coords.eta[loop] == pytest.approx(rim_eta, abs=1e-12)
    # rim vertices may slide along the rim, so phi is free to change
    assert tr.initial_boundary_length > 0.0
    drift = abs(tr.boundary_length[-1] - tr.initial_boundary_length)
    assert drift / tr.initial_boundary_length < 0.02
    assert out_mesh.boundary_loop() is not None
