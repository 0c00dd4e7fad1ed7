"""Tests for the planar contour decomposition and remeshing."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from equimesh.benchmarks import blob_contour, ellipse_contour
from equimesh import contour2d
from equimesh.contour2d import (
    MIN_SEGMENTS,
    ContourTrace,
    ContourWeights,
    EllipticDomain,
    contour_tangents,
    decompose_contour,
    fit_ellipse,
    inverse_elliptic,
    read_contours,
    reconstruct_contour,
    remesh_contour,
    remesh_microstructure_2d,
    segment_budgets,
    self_intersects,
    write_contour_csv,
    write_contours,
)
from equimesh.errors import (
    EngineError,
    FormatError,
    GuardError,
    IntersectionError,
    SingularityError,
)
from equimesh.harmonics import (
    ExpansionConfig,
    _lapack,
    _least_squares,
    _multiple_angles,
    decompose,
)
from equimesh.mesh import Contour2D, TriangleMesh, ring_lengths
from equimesh.spheroidal import (
    SPHERE_GAP,
    CurvilinearCoords,
    fit_domain,
    forward_coords,
    sample_icosphere,
)


def star_contour(n_points=40, spikes=5, depth=0.95):
    t = np.arange(n_points) * 2.0 * np.pi / n_points
    r = 1.0 + depth * np.cos(spikes * t)
    return Contour2D(
        points=np.column_stack([r * np.cos(t), r * np.sin(t)]), closed=True
    )


# ---------------------------------------------------------------------------
# elliptic chart

def test_domain_validation():
    EllipticDomain(e=1.0, zeta0=0.5)
    with pytest.raises(ValueError):
        EllipticDomain(e=0.0, zeta0=0.5)
    with pytest.raises(ValueError):
        EllipticDomain(e=1.0, zeta0=-0.1)
    with pytest.raises(ValueError):
        EllipticDomain(e=1.0, zeta0=0.5, center=(1.0, 2.0, 3.0))


def test_semi_axes():
    dom = EllipticDomain(e=2.0, zeta0=1.0)
    a, b = dom.semi_axes()
    assert a == pytest.approx(2.0 * np.cosh(1.0), rel=1e-14)
    assert b == pytest.approx(2.0 * np.sinh(1.0), rel=1e-14)
    assert a * a - b * b == pytest.approx(4.0, rel=1e-12)  # confocal identity


def ellipse_points(dom, eta):
    """World points of the shell ellipse of `dom` at angles eta."""
    a, b = dom.semi_axes()
    c, s = np.cos(dom.rotation), np.sin(dom.rotation)
    local = np.column_stack([a * np.cos(eta), b * np.sin(eta)])
    return local @ np.array([[c, s], [-s, c]]) + np.asarray(dom.center)


def test_elliptic_roundtrip_with_placement():
    dom = EllipticDomain(e=1.3, zeta0=0.8, center=(2.0, -1.0), rotation=0.6)
    eta = np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)
    pts = ellipse_points(dom, eta)
    zeta, eta_back = inverse_elliptic(dom, pts)
    assert zeta == pytest.approx(np.full_like(eta, 0.8), abs=1e-10)
    assert eta_back == pytest.approx(eta, abs=1e-10)
    assert (eta_back >= 0.0).all() and (eta_back < 2.0 * np.pi).all()


def test_inverse_elliptic_focal_segment():
    dom = EllipticDomain(e=1.0, zeta0=0.5)
    with pytest.raises(SingularityError):
        inverse_elliptic(dom, np.array([[0.5, 0.0]]))


def test_inverse_elliptic_takes_one_point():
    dom = EllipticDomain(e=1.3, zeta0=0.8, center=(2.0, -1.0), rotation=0.6)
    zeta, eta = inverse_elliptic(dom, ellipse_points(dom, np.array([0.7]))[0])
    assert zeta == pytest.approx([0.8], abs=1e-10)
    assert eta == pytest.approx([0.7], abs=1e-10)


def test_fit_ellipse_recovers_axis_aligned():
    c = ellipse_contour(a=2.0, b=0.5, n_points=64)
    dom = fit_ellipse(c)
    a, b = dom.semi_axes()
    assert a == pytest.approx(2.0, rel=1e-9)
    assert b == pytest.approx(0.5, rel=1e-9)
    assert dom.center == pytest.approx((0.0, 0.0), abs=1e-12)
    assert dom.rotation == pytest.approx(0.0, abs=1e-9)
    assert dom.e == pytest.approx(np.sqrt(4.0 - 0.25), rel=1e-9)


def test_fit_ellipse_recovers_placement():
    base = ellipse_contour(a=3.0, b=1.0, n_points=80).points
    rot = np.pi / 5.0
    R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    moved = Contour2D(points=base @ R.T + np.array([4.0, -2.0]), closed=True)
    dom = fit_ellipse(moved)
    a, b = dom.semi_axes()
    assert a == pytest.approx(3.0, rel=1e-9)
    assert b == pytest.approx(1.0, rel=1e-9)
    assert dom.center == pytest.approx((4.0, -2.0), abs=1e-10)
    assert dom.rotation == pytest.approx(rot, abs=1e-9)


def test_fit_ellipse_circle_floor():
    c = ellipse_contour(a=1.0, b=1.0, n_points=48)
    dom = fit_ellipse(c)
    a, b = dom.semi_axes()
    assert dom.e == pytest.approx(0.05, rel=1e-6)  # focal floor kicks in
    assert a == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize(
    "big, small",
    [(1.0, 0.5), (2.0, 2.0 * (1.0 - 2.0 * SPHERE_GAP)),  # above the gap
     (1.0, 1.0), (2.0, 2.0 * (1.0 - 0.5 * SPHERE_GAP))],  # below it
)
def test_ellipse_and_spheroid_fits_share_the_chart(big, small):
    # four points on the axes: second-moment semi-axes (big, small)
    rim = Contour2D(np.array([[big, 0.0], [0.0, small], [-big, 0.0], [0.0, -small]]))
    # the octahedron on the six axis tips
    tips = np.array([[big, 0.0, 0.0], [-big, 0.0, 0.0], [0.0, big, 0.0],
                     [0.0, -big, 0.0], [0.0, 0.0, small], [0.0, 0.0, -small]])
    faces = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    plane, solid = fit_ellipse(rim), fit_domain(TriangleMesh(tips, faces))
    assert solid.kind == "oblate"
    assert plane.e == pytest.approx(solid.e, rel=1e-12)
    assert plane.zeta0 == pytest.approx(solid.zeta0, rel=1e-12)
    floored = (big - small) / big < SPHERE_GAP
    assert (plane.e == pytest.approx(0.05 * big, rel=1e-12)) == floored


def test_fit_ellipse_rejects_zero_extent():
    # distinct points whose second moments underflow to 0
    s = 1.6e-162
    tiny = Contour2D(np.array([[0.0, 0.0], [s, 0.0], [0.0, s]]))
    with pytest.raises(ValueError, match=r"degenerate \(zero extent\)"):
        fit_ellipse(tiny)


def test_fit_ellipse_rejects_open_contour():
    pts = ellipse_contour(a=2.0, b=1.0, n_points=10).points
    with pytest.raises(ValueError):
        fit_ellipse(Contour2D(points=pts, closed=False))


# ---------------------------------------------------------------------------
# weights and reconstruction

def test_contour_weights_validation():
    dom = EllipticDomain(e=1.0, zeta0=0.5)
    ContourWeights(np.zeros((7, 2)), 3, dom)
    with pytest.raises(ValueError):
        ContourWeights(np.zeros((7, 2)), 5, dom)
    with pytest.raises(GuardError):
        ContourWeights(np.zeros((197, 2)), 98, dom)


def _half_spectrum(weights):
    """Complex weights q_m of e^{i m eta}, m = 0..n_max, of the real
    coefficients: q_0 = a_0, q_m = (a_m - i b_m) / 2."""
    n = weights.n_max
    a, b = weights.coef[: n + 1], weights.coef[n + 1 :]
    q = a.astype(complex)
    q[1:] = 0.5 * (a[1:] - 1j * b)
    return q


def test_reconstruct_circle_hand_weights():
    dom = EllipticDomain(e=0.05, zeta0=3.0)
    r, cx, cy = 2.0, 1.0, -0.5
    w = ContourWeights([[cx, cy], [r, 0.0], [0.0, r]], 1, dom)
    eta = np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False)
    pts = reconstruct_contour(w, eta)
    assert pts.shape == (17, 2)
    expect = np.column_stack([cx + r * np.cos(eta), cy + r * np.sin(eta)])
    assert pts == pytest.approx(expect, abs=1e-13)
    tan = contour_tangents(w, eta)
    assert np.linalg.norm(tan, axis=1) == pytest.approx(
        np.full(17, r), rel=1e-13
    )


def test_decompose_exact_ellipse_is_degree_one():
    c = ellipse_contour(a=2.0, b=0.5, n_points=64)
    w = decompose_contour(c, 12)
    assert w.residual_rms < 1e-10
    assert np.abs(_half_spectrum(w)[2:]).max() < 1e-10
    _, eta = inverse_elliptic(w.domain, c.points)
    back = reconstruct_contour(w, eta)
    assert back == pytest.approx(c.points, abs=1e-9)


def test_decompose_blob_roundtrip():
    c = blob_contour(n_points=64)
    w = decompose_contour(c, 12)
    _, eta = inverse_elliptic(w.domain, c.points)
    back = reconstruct_contour(w, eta)
    rms = np.sqrt(((back - c.points) ** 2).sum(axis=1).mean())
    assert rms == pytest.approx(w.residual_rms, rel=1e-6)
    assert rms < 0.05 * Contour2D(points=c.points, closed=True).length()


def test_decompose_underdetermined():
    c = ellipse_contour(a=2.0, b=1.0, n_points=9)
    with pytest.raises(EngineError):
        decompose_contour(c, 5)  # 11 modes > 9 points


def _clustered_contour():
    """12 points in 3 tight clusters: only 3 resolvable chart angles."""
    t = np.concatenate(
        [base + np.arange(4) * 1e-13
         for base in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)]
    )
    pts = np.column_stack([2.0 * np.cos(t), 1.0 * np.sin(t)])
    return Contour2D(points=pts, closed=True)


def test_decompose_rank_deficient():
    with pytest.raises(EngineError):
        decompose_contour(_clustered_contour(), 5)


_REFERENCE_CASES = [
    (ellipse_contour(), 12), (blob_contour(), 12), (blob_contour(128), 40)
]


def _complex_lstsq_weights(contour, n_max):
    """Reference fit: complex least squares over e^{i m eta}, m = -n_max ..
    n_max, folded onto the conjugate-consistent half spectrum."""
    _, eta = inverse_elliptic(fit_ellipse(contour), contour.points)
    B = np.exp(1j * np.outer(eta, np.arange(-n_max, n_max + 1)))
    q_full = np.linalg.lstsq(B, contour.points.astype(complex), rcond=None)[0]
    return 0.5 * (q_full[n_max:] + np.conj(q_full[n_max::-1]))


@pytest.mark.parametrize("contour, n_max", _REFERENCE_CASES)
def test_decompose_matches_complex_reference(contour, n_max):
    q = _half_spectrum(decompose_contour(contour, n_max))
    assert np.abs(q - _complex_lstsq_weights(contour, n_max)).max() < 1e-12


def _fourier_rows_reference(eta, n_max):
    """Reference fit rows, (2 n_max + 1, n): the cos rows and the sin rows
    after sin 0, stacked into a fresh array."""
    cos_m, sin_m = _multiple_angles(np.cos(eta), np.sin(eta),
                                    np.empty((2, n_max + 1, eta.size)))
    return np.vstack([cos_m, sin_m[1:]])


@pytest.mark.parametrize("contour, n_max", _REFERENCE_CASES + [(star_contour(), 4)])
def test_decompose_matches_the_stacked_rows_bit_for_bit(contour, n_max):
    _, eta = inverse_elliptic(fit_ellipse(contour), contour.points)
    Bt, V = _fourier_rows_reference(eta, n_max), contour.points
    coef, residual_rms = _least_squares(
        Bt @ Bt.T, Bt @ V, V, lambda c: Bt @ (V - Bt.T @ c),
        lambda c: ((V - Bt.T @ c) ** 2).sum(axis=1).sum(), lambda: Bt
    )
    weights = decompose_contour(contour, n_max)
    assert weights.coef.tobytes() == coef.tobytes()
    assert weights.residual_rms == residual_rms


def _complex_evaluate(q, eta):
    """Reference evaluation of the half spectrum q: the points
    sum_m q_m e^{i m eta} plus conjugates, and their d/d(eta)."""
    m = np.arange(q.shape[0])
    e = np.exp(1j * np.outer(eta, m)) * np.where(m == 0, 1.0, 2.0)
    return (e @ q).real, ((1j * m * e) @ q).real


@pytest.mark.parametrize("contour, n_max", _REFERENCE_CASES)
def test_real_evaluation_matches_complex_reference(contour, n_max):
    weights = decompose_contour(contour, n_max)
    eta = np.linspace(0.0, 2.0 * np.pi, 97)
    points, tangents = _complex_evaluate(_half_spectrum(weights), eta)
    for got, want in [
        (reconstruct_contour(weights, eta), points),
        (contour_tangents(weights, eta), tangents),
    ]:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_surface_and_contour_fits_share_error_wording(oblate_dom):
    coords, faces = sample_icosphere(oblate_dom, 0)  # 12 vertices
    mesh = TriangleMesh(forward_coords(oblate_dom, coords.eta, coords.phi), faces)
    under = r"^underdetermined fit: \d+ samples < \d+ basis columns$"
    with pytest.raises(EngineError, match=under):
        decompose(mesh, coords, ExpansionConfig(5))
    with pytest.raises(EngineError, match=under):
        decompose_contour(ellipse_contour(n_points=9), 5)

    rank = (r"^rank-deficient basis \(rank \d+ < \d+\); sampling does not "
            "resolve the requested degree$")
    squashed = CurvilinearCoords(
        np.full_like(coords.eta, 0.3), np.full_like(coords.phi, 1.0), oblate_dom
    )
    with pytest.raises(EngineError, match=rank):
        decompose(mesh, squashed, ExpansionConfig(2))
    with pytest.raises(EngineError, match=rank):
        decompose_contour(_clustered_contour(), 5)


def test_contour_tangents_match_central_difference():
    w = decompose_contour(blob_contour(), 12)
    eta = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    h = 1e-5
    diff = (reconstruct_contour(w, eta + h) - reconstruct_contour(w, eta - h)) / (2 * h)
    assert contour_tangents(w, eta) == pytest.approx(diff, abs=1e-8)


def test_decompose_rejects_open():
    pts = ellipse_contour(a=2.0, b=1.0, n_points=32).points
    with pytest.raises(ValueError):
        decompose_contour(Contour2D(points=pts, closed=False), 4)


# ---------------------------------------------------------------------------
# remeshing

def test_remesh_equalizes_ellipse():
    w = decompose_contour(ellipse_contour(a=2.0, b=0.5, n_points=64), 12)
    out = remesh_contour(w, 64, i_max=400, std_target=0.15)
    assert out.closed
    assert out.points.shape == (64, 2)
    seg = np.linalg.norm(np.roll(out.points, -1, axis=0) - out.points, axis=1)
    start = reconstruct_contour(w, 2.0 * np.pi * np.arange(64) / 64)
    seg0 = np.linalg.norm(np.roll(start, -1, axis=0) - start, axis=1)
    assert seg.std() <= 0.15 * seg0.std()
    assert seg.sum() == pytest.approx(seg0.sum(), rel=0.01)
    assert not self_intersects(out)


def test_remesh_circle_already_converged():
    base = ellipse_contour(a=1.0, b=1.0, n_points=48)
    w = decompose_contour(base, 8)
    tr = ContourTrace()
    out = remesh_contour(w, 40, trace=tr)
    assert tr.n_rows == 0  # uniform start needs no iterations
    rad = np.linalg.norm(out.points, axis=1)
    assert rad == pytest.approx(np.ones(40), rel=1e-6)


def test_remesh_is_deterministic():
    w = decompose_contour(blob_contour(n_points=64), 10)
    a = remesh_contour(w, 50, i_max=300, std_target=0.18)
    b = remesh_contour(w, 50, i_max=300, std_target=0.18)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("shape", [ellipse_contour, blob_contour])
def test_remesh_does_not_depend_on_scale(shape):
    # a similar contour runs the same iterations to the same STD ratio, and
    # its length scales with it
    runs = []
    for lam in (1e-3, 1.0, 1e3):
        points = lam * (shape().points + np.array([3.0, -2.0]))
        trace = ContourTrace()
        weights = decompose_contour(Contour2D(points=points, closed=True), 12)
        remesh_contour(weights, 40, trace=trace)
        runs.append((
            trace.n_rows,
            trace.std_length[-1] / trace.initial_std_length,
            trace.total_length[-1] / lam,
        ))
    (rows, *values), *others = runs
    for other_rows, *other_values in others:
        assert other_rows == rows
        assert other_values == pytest.approx(values, rel=1e-12)


def test_remesh_validation():
    w = decompose_contour(ellipse_contour(n_points=32), 6)
    with pytest.raises(ValueError):
        remesh_contour(w, MIN_SEGMENTS - 1)
    with pytest.raises(ValueError):
        remesh_contour(w, 20, i_max=0)
    # a budget of 5.5 would place 6 samples 2 pi / 5.5 apart, the last gap a
    # tenth of the others; numpy integers are counts too
    for budget in (5.5, 6.0):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            remesh_contour(w, budget)
    with pytest.raises(ValueError, match="i_max must be an integer"):
        remesh_contour(w, 20, i_max=2.5)
    # a NaN goal fails both `std <= goal` and `std > goal`
    for target in (np.nan, -0.1):
        with pytest.raises(ValueError, match="std_target must be nonnegative"):
            remesh_contour(w, 20, std_target=target)
    tr = ContourTrace()
    out = remesh_contour(w, np.int64(20), i_max=np.int32(300), trace=tr)
    assert out.points.shape == (20, 2)
    assert tr.stop_reason == "converged"


def test_remesh_refuses_a_bool_count():
    # i_max=True once ran one row and then raised "... after True iterations"
    w = decompose_contour(ellipse_contour(n_points=32), 6)
    with pytest.raises(ValueError, match="i_max must be an integer"):
        remesh_contour(w, 8, i_max=True)
    with pytest.raises(ValueError, match="n_points must be an integer"):
        remesh_contour(w, True)


def test_ring_step_builds_the_rows_once_per_iteration(monkeypatch):
    # one row build for the start and one per accepted iteration; a run
    # with no halvings solves the ring once per row
    calls = {"rows": 0, "solves": 0}
    rows, solve = contour2d._fourier_rows, contour2d._ring_implicit_step

    def rows_spy(*args):
        calls["rows"] += 1
        return rows(*args)

    def solve_spy(*args):
        calls["solves"] += 1
        return solve(*args)

    w = decompose_contour(blob_contour(n_points=64), 10)
    monkeypatch.setattr(contour2d, "_fourier_rows", rows_spy)
    monkeypatch.setattr(contour2d, "_ring_implicit_step", solve_spy)
    tr = ContourTrace()
    remesh_contour(w, 40, trace=tr)
    assert tr.n_rows >= 3
    assert calls["solves"] == tr.n_rows
    assert calls["rows"] == tr.n_rows + 1


def _remesh_contour_reference(weights, n_points, i_max, std_target=0.2):
    """Reference ring loop on fresh arrays, with no per-particle buffer:
    stacked Fourier rows, np.diff gaps, ring_lengths, ndarray.std and
    np.linalg.norm. Returns (points or None, trace)."""
    n = weights.n_max
    m = np.arange(1, n + 1)[:, None]
    a, b = weights.coef[1 : n + 1], weights.coef[n + 1 :]
    table = np.hstack([weights.coef, np.vstack([np.zeros((1, 2)), m * b, -m * a])])

    def evaluate(eta):
        vals = _fourier_rows_reference(eta, n).T @ table
        return vals[:, :2], vals[:, 2:]

    def gaps(eta):
        return np.mod(np.diff(eta, append=eta[:1] + 2.0 * np.pi), 2.0 * np.pi)

    trace = ContourTrace()
    prev = np.arange(-1, n_points - 1)
    eta = 2.0 * np.pi * np.arange(n_points) / n_points
    gap = gaps(eta)
    points, tangents = evaluate(eta)
    seg = ring_lengths(points)
    std = float(seg.std())
    trace.initial_std_length = std
    goal = max(std_target * std, 1e-3 * float(seg.mean()))
    for t in range(1, i_max + 1):
        if std <= goal:
            break
        u = seg / seg.sum()
        h = 0.5 * (seg + seg[prev])
        speed = np.maximum(np.linalg.norm(tangents, axis=1), 1e-15)
        reach = np.abs(contour2d._eta_velocity(u, u[prev], h, speed)) / np.minimum(
            gap, gap[prev]
        )
        dt = contour2d._ETA_MOVE_FRACTION / float(reach.max())
        for _ in range(contour2d.MAX_DT_HALVINGS + 1):
            u_new = contour2d._ring_implicit_step(
                seg, 1.0 / h, u, dt, np.zeros((n_points, 2), order="F"),
                _lapack().dptsv,
            )
            velocity = contour2d._eta_velocity(u_new, u_new[prev], h, speed)
            cand = np.mod(eta + dt * velocity, 2.0 * np.pi)
            cand_gap = gaps(cand)
            if contour2d._cyclic_increasing(cand_gap):
                break
            dt *= 0.5
        else:
            trace.stop_reason = "ordering"
            return None, trace
        eta, gap = cand, cand_gap
        points, tangents = evaluate(eta)
        seg = ring_lengths(points)
        std = float(seg.std())
        trace.append(t=t, dt=dt, std_length=std, total_length=seg.sum())
    if std > goal:
        trace.stop_reason = "i_max"
        return None, trace
    trace.stop_reason = "converged"
    return points, trace


def _seeded_particles(count=40):
    """(weights, budget) of seeded ellipses and turned, scaled blobs."""
    rng = np.random.default_rng(40)
    for k in range(count):
        n_points = int(rng.integers(32, 97))
        if k % 2:
            contour = ellipse_contour(rng.uniform(1.0, 4.0), rng.uniform(0.3, 1.0),
                                      n_points)
        else:
            turn = rng.uniform(0.0, np.pi)
            c, s = np.cos(turn), np.sin(turn)
            points = rng.uniform(0.5, 3.0) * blob_contour(n_points).points
            contour = Contour2D(points=points @ np.array([[c, s], [-s, c]]))
        degree = int(rng.integers(4, 13))
        yield decompose_contour(contour, degree), int(rng.integers(5, 97))


def _assert_same_run(weights, budget, i_max):
    expected, expected_trace = _remesh_contour_reference(weights, budget, i_max)
    trace = ContourTrace()
    try:
        points = remesh_contour(weights, budget, i_max=i_max, trace=trace).points
    except EngineError:
        points = None
    assert (points is None) == (expected is None)
    if points is not None:
        assert points.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert trace.stop_reason == expected_trace.stop_reason
    assert trace.initial_std_length == expected_trace.initial_std_length
    for name, _ in ContourTrace.columns():
        assert np.asarray(getattr(trace, name)).tobytes() == (
            np.asarray(getattr(expected_trace, name)).tobytes()
        )
    return trace


def test_ring_plan_matches_the_reference_loop_bit_for_bit():
    reasons = set()
    for weights, budget in _seeded_particles():
        reasons.add(_assert_same_run(weights, budget, 400).stop_reason)
    assert reasons == {"converged"}


def test_ring_plan_matches_the_reference_loop_on_a_self_crossing_star():
    # samples on the two branches of the crossing slow the run to 142 rows
    weights = decompose_contour(star_contour(), 4)
    for i_max, reason, rows in ((100, "i_max", 100), (300, "converged", 142)):
        trace = _assert_same_run(weights, 30, i_max)
        assert (trace.stop_reason, trace.n_rows) == (reason, rows)


def test_remesh_outputs_share_no_buffer():
    first = remesh_contour(decompose_contour(blob_contour(n_points=64), 10), 40)
    kept = first.points.copy()
    second = remesh_contour(decompose_contour(ellipse_contour(), 10), 40)
    assert np.array_equal(first.points, kept)
    assert not np.shares_memory(first.points, second.points)
    assert not first.points.flags.writeable


def test_remesh_budget_failure_carries_trace():
    w = decompose_contour(ellipse_contour(a=5.0, b=0.2, n_points=64), 8)
    with pytest.raises(EngineError) as exc:
        remesh_contour(w, 48, i_max=1, std_target=0.05)
    assert exc.value.trace.n_rows == 1


def test_trace_csv(tmp_path):
    tr = ContourTrace()
    w = decompose_contour(ellipse_contour(a=2.0, b=0.8, n_points=48), 8)
    remesh_contour(w, 40, i_max=300, std_target=0.5, trace=tr)
    assert tr.n_rows >= 1
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,dt,std_length,total_length"
    assert len(lines) == tr.n_rows + 1


def _chords(points):
    return np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)


def _remesh_traced(weights, n_points, **kwargs):
    tr = ContourTrace()
    out = remesh_contour(weights, n_points, trace=tr, **kwargs)
    return out, tr


def test_stop_reason_converged():
    w = decompose_contour(ellipse_contour(a=2.0, b=0.8, n_points=48), 8)
    _, tr = _remesh_traced(w, 40, i_max=300)
    assert tr.stop_reason == "converged"


def test_stop_reason_i_max():
    w = decompose_contour(ellipse_contour(a=5.0, b=0.2, n_points=64), 8)
    tr = ContourTrace()
    with pytest.raises(EngineError) as exc:
        remesh_contour(w, 48, i_max=1, std_target=0.05, trace=tr)
    assert exc.value.trace is tr
    assert tr.stop_reason == "i_max"


def test_stop_reason_ordering(monkeypatch):
    monkeypatch.setattr(contour2d, "_cyclic_increasing", lambda eta: False)
    w = decompose_contour(ellipse_contour(a=2.0, b=0.8, n_points=48), 8)
    tr = ContourTrace()
    with pytest.raises(EngineError, match="ordering") as exc:
        remesh_contour(w, 40, trace=tr)
    assert exc.value.trace is tr
    assert tr.n_rows == 0
    assert tr.stop_reason == "ordering"


def test_engine_error_trace_is_declared():
    # a failure outside any traced loop reads as trace None, not AttributeError
    assert EngineError("no loop").trace is None
    assert IntersectionError("crossed", particle_ids=[1]).trace is None
    tr = ContourTrace()
    assert EngineError("loop", trace=tr).trace is tr


@pytest.mark.parametrize("budget", [8, 10, 16])
def test_blob_even_budgets_converge(budget):
    # alternating segment lengths are invisible to a density collocated on
    # samples; these even budgets end in that mode unless it is seen
    w = decompose_contour(blob_contour(n_points=64), 12)
    out, tr = _remesh_traced(w, budget, i_max=400)
    assert tr.stop_reason == "converged"
    assert tr.n_rows <= 5
    assert _chords(out.points).std() <= 0.2 * tr.initial_std_length


def test_even_ellipse_converges():
    w = decompose_contour(ellipse_contour(), 12)
    out, tr = _remesh_traced(w, 48, i_max=400, std_target=0.0)
    seg = _chords(out.points)
    assert tr.stop_reason == "converged"
    assert seg.std() <= 1e-3 * seg.mean()


@pytest.mark.parametrize("shape", ["ellipse", "blob"])
def test_iterations_scale_with_budget(shape):
    contour = ellipse_contour() if shape == "ellipse" else blob_contour(n_points=64)
    w = decompose_contour(contour, 12)
    iterations = [_remesh_traced(w, n, i_max=2000)[1].n_rows for n in (32, 256)]
    assert iterations[0] >= 1
    assert iterations[1] <= 8 * iterations[0]


def _next_at_chord(weights, eta, chord):
    """First angle after eta whose point lies chord away from eta's point;
    inf when there is none, and after a walk that already found none."""
    if eta == np.inf:
        return np.inf
    x0 = reconstruct_contour(weights, [eta])[0]
    grid = eta + np.linspace(0.0, 2.0 * np.pi, 257)[1:]
    dist = np.linalg.norm(reconstruct_contour(weights, grid) - x0, axis=1)
    k = int(np.argmax(dist >= chord))
    if dist[k] < chord:
        return np.inf
    lo, hi = (eta if k == 0 else grid[k - 1]), grid[k]
    # each call narrows the crossing 64-fold: 10 calls reach a 2^-60 bracket
    for _ in range(10):
        grid = np.linspace(lo, hi, 65)
        dist = np.linalg.norm(reconstruct_contour(weights, grid[1:-1]) - x0, axis=1)
        k = int(np.argmin(np.append(dist < chord, False)))
        lo, hi = grid[k], grid[k + 1]
    return 0.5 * (lo + hi)


def _equal_chord_polygon(weights, eta0, n):
    """The n-gon with equal chords from the vertex at eta0, by bisection on
    the chord until the n-th chord lands back on the first vertex."""
    lo, hi = 0.0, 2.0 * np.abs(weights.coef).sum()
    for _ in range(60):
        chord = 0.5 * (lo + hi)
        eta = [eta0]
        for _ in range(n):
            eta.append(_next_at_chord(weights, eta[-1], chord))
        if eta[-1] < eta0 + 2.0 * np.pi:
            lo = chord
        else:
            hi = chord
    return reconstruct_contour(weights, np.array(eta[:n])), chord


def _angle_of(weights, point):
    """Angle of the reconstruction point nearest to point, by grid refinement."""
    step = 2.0 * np.pi / 4096
    eta = step * np.arange(4096)
    for _ in range(3):
        dist = np.linalg.norm(reconstruct_contour(weights, eta) - point, axis=1)
        eta = eta[np.argmin(dist)] + np.linspace(-step, step, 2001)
        step /= 1000
    dist = np.linalg.norm(reconstruct_contour(weights, eta) - point, axis=1)
    return eta[np.argmin(dist)]


@pytest.mark.parametrize("n_points", [5, 6, 7, 8])
@pytest.mark.parametrize("shape", ["ellipse", "blob"])
def test_remesh_reaches_equal_chord_polygon(shape, n_points):
    contour = (
        ellipse_contour(a=2.0, b=1.0, n_points=64)
        if shape == "ellipse"
        else blob_contour(n_points=64)
    )
    w = decompose_contour(contour, 12)
    out, tr = _remesh_traced(w, n_points, i_max=100, std_target=0.0)
    eta0 = _angle_of(w, out.points[0])
    ref, chord = _equal_chord_polygon(w, eta0, n_points)
    seg = _chords(out.points)
    assert tr.stop_reason == "converged"
    assert seg.std() <= 1e-3 * chord
    assert np.abs(seg - chord).max() <= 5e-3 * chord
    assert np.linalg.norm(out.points - ref, axis=1).max() <= 1e-2 * chord


@pytest.mark.parametrize("n", [5, 6, 17, 96])
def test_ring_implicit_step_matches_dense(n):
    rng = np.random.default_rng(n)
    masses = rng.uniform(0.1, 2.0, n)
    conductance = rng.uniform(0.5, 50.0, n)
    u = rng.uniform(0.0, 1.0, n)
    # one right-hand-side buffer for every solve, whatever it held before
    rhs = np.full((n, 2), np.nan, order="F")
    for dt in (1e-3, 1.0, 1e2):
        # conductance[j] couples nodes j - 1 and j
        system = np.diag(masses)
        for j in range(n):
            i = (j - 1) % n
            system[[i, j], [i, j]] += dt * conductance[j]
            system[[i, j], [j, i]] -= dt * conductance[j]
        expected = np.linalg.solve(system, masses * u)
        got = contour2d._ring_implicit_step(masses, conductance, u, dt, rhs,
                                            _lapack().dptsv)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_ring_implicit_step_refuses_a_band_that_is_not_positive_definite():
    # negative masses: the first pivot of the band is already negative
    n = 8
    with pytest.raises(LinAlgError, match="leading minor not positive definite$"):
        contour2d._ring_implicit_step(-np.ones(n), np.ones(n), np.ones(n), 1e-3,
                                      np.zeros((n, 2), order="F"), _lapack().dptsv)


# ---------------------------------------------------------------------------
# batch remeshing

def test_segment_budgets_hand_values():
    budgets = segment_budgets([1.0, 2.0, 3.0], 21)
    assert list(budgets) == [5, 13, 21]
    assert list(segment_budgets([4.0, 4.0], 30)) == [30, 30]
    with pytest.raises(ValueError):
        segment_budgets([1.0], 4)
    with pytest.raises(ValueError):
        segment_budgets([], 20)


@pytest.mark.parametrize("lengths", [
    [1.0, np.nan, 3.0], [1.0, np.inf], [1.0, -2.0, 3.0], [-1.0, -1.0],
])
def test_segment_budgets_refuses_a_bad_length(lengths):
    # a NaN or infinite length once warned and gave garbage budgets
    with pytest.raises(ValueError, match="finite and nonnegative"):
        segment_budgets(lengths, 20)


def test_segment_budgets_refuses_a_bool_largest_budget():
    # True once passed the integer test, refused only by the >= 5 bound
    with pytest.raises(ValueError, match="largest budget must be an integer"):
        segment_budgets([1.0, 2.0], True)
    assert list(segment_budgets([1.0, 2.0], np.int64(8))) == [5, 8]


@pytest.mark.parametrize("largest", [10.6, 20.0])
def test_segment_budgets_refuses_a_non_integer_largest_budget(largest):
    # 10.6 once gave the longest particle 11 segments
    with pytest.raises(ValueError, match="must be an integer"):
        segment_budgets([1.0, 2.0], largest)


def test_self_intersects():
    square = Contour2D(
        points=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        closed=True,
    )
    assert not self_intersects(square)
    bowtie = Contour2D(
        points=np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
        closed=True,
    )
    assert self_intersects(bowtie)


def _self_intersects_loop(points):
    """Reference: every non-adjacent segment pair tested one row at a time."""
    n = points.shape[0]
    a, b = points, np.roll(points, -1, axis=0)

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
            q[..., 1] - p[..., 1]
        ) * (r[..., 0] - p[..., 0])

    for i in range(n - 2):
        j = np.arange(i + 2, n if i > 0 else n - 1)
        o1 = orient(a[i], b[i], a[j])
        o2 = orient(a[i], b[i], b[j])
        o3 = orient(a[j], b[j], a[i])
        o4 = orient(a[j], b[j], b[i])
        if np.any((o1 * o2 < 0.0) & (o3 * o4 < 0.0)):
            return True
    return False


def test_self_intersects_matches_loop():
    rng = np.random.default_rng(11)
    verdicts = []
    for k in range(300):
        # up to the benchmark's largest segment budget
        n = int(rng.integers(3, 97))
        if k % 2:
            pts = rng.normal(size=(n, 2))
        else:  # star-shaped, mostly simple
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = 1.0 + rng.uniform(-0.3, 0.3, n)
            pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        for p in (pts, pts[::-1].copy()):
            expected = _self_intersects_loop(p)
            assert self_intersects(Contour2D(points=p, closed=True)) == expected
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("points", [
    # a vertex, (2, 0), on the non-adjacent first segment
    [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [2.0, 0.0], [0.0, 4.0]],
    # segment 3 runs back over segment 0 on [1, 3]
    [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [4.0, 0.0], [1.0, 0.0], [1.0, -1.0]],
    # a figure eight whose two loops meet in the vertex (1, 1)
    [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    # n = 4 with a vertex on the opposite segment
    [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
])
def test_self_intersects_touching_matches_loop(points):
    # exact touches give a zero orientation, which is not a crossing; every
    # start vertex and both orders put the touch on the closing pair too
    points = np.array(points)
    for shift in range(points.shape[0]):
        for p in (np.roll(points, shift, axis=0), np.roll(points, shift, axis=0)[::-1]):
            p = p.copy()
            assert self_intersects(Contour2D(points=p, closed=True)) == (
                _self_intersects_loop(p)
            )


def test_microstructure_batch_scales_budgets():
    contours = [
        ellipse_contour(a=1.0, b=0.6, n_points=48),
        ellipse_contour(a=3.0, b=1.8, n_points=48),
    ]
    out = remesh_microstructure_2d(contours, 40, n_max=8, i_max=300)
    assert len(out) == 2
    lengths = [Contour2D(points=c.points, closed=True).length()
               for c in contours]
    budgets = segment_budgets(lengths, 40)
    assert out[0].points.shape[0] == budgets[0]
    assert out[1].points.shape[0] == budgets[1] == 40


def test_microstructure_reports_intersecting_particles():
    with pytest.raises(IntersectionError) as exc:
        remesh_microstructure_2d([star_contour()], 40, n_max=4, i_max=300)
    assert exc.value.particle_ids == [0]


def test_microstructure_empty_batch():
    with pytest.raises(ValueError):
        remesh_microstructure_2d([], 30, n_max=4)


# ---------------------------------------------------------------------------
# contour files

def test_contour_csv_roundtrip(tmp_path):
    c = blob_contour(n_points=32)
    path = tmp_path / "c.csv"
    write_contour_csv(c, path)
    [(_, back)] = read_contours(path)
    assert np.array_equal(back.points, c.points)
    assert back.closed


def test_contour_csv_headerless_and_comments(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("# a square\n0 0\n1,0\n\n1 1\n0 1\n")
    [(_, c)] = read_contours(path)
    assert c.points.shape == (4, 2)
    assert c.points[1] == pytest.approx([1.0, 0.0])


def test_contour_csv_header_after_comments(tmp_path):
    path = tmp_path / "grain.csv"
    path.write_text("# grain 7\n\nx,y\n0,0\n1,0\n1,1\n0,1\n")
    [(_, c)] = read_contours(path)
    assert c.points.shape == (4, 2)
    # only the first row may be a header
    path.write_text("# grain 7\nx,y\n0,0\nu,v\n1,1\n0,1\n")
    with pytest.raises(FormatError, match=":4:"):
        read_contours(path)


def test_contour_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n0,0\n1,oops\n2,2\n")
    with pytest.raises(FormatError):
        read_contours(p)
    p.write_text("x,y\n0,0\n1,1\n")
    with pytest.raises(FormatError):
        read_contours(p)  # fewer than 3 points
    with pytest.raises(FormatError):
        read_contours(tmp_path / "missing.csv")


def test_contours_document_roundtrip(tmp_path):
    named = [
        ("p1", ellipse_contour(a=1.0, b=0.5, n_points=12)),
        ("grain-7", blob_contour(n_points=16)),
    ]
    path = tmp_path / "all.txt"
    write_contours(named, path)
    back = read_contours(path)
    assert [pid for pid, _ in back] == ["p1", "grain-7"]
    for (_, got), (_, want) in zip(back, named):
        assert np.array_equal(got.points, want.points)


def test_contours_document_errors(tmp_path):
    p = tmp_path / "doc.txt"
    p.write_text("not contours\n")
    with pytest.raises(FormatError):
        read_contours(p)
    p.write_text("contours v1\ncount two\n")
    with pytest.raises(FormatError):
        read_contours(p)
    p.write_text("contours v1\ncount 1\ncontour p1 4\n0 0\n1 0\n")
    with pytest.raises(FormatError):
        read_contours(p)  # truncated points
    p.write_text("contours v1\ncount 1\nsegment p1 3\n0 0\n1 0\n0 1\n")
    with pytest.raises(FormatError):
        read_contours(p)
    with pytest.raises(ValueError):
        write_contours([("has space", blob_contour(16))], tmp_path / "x.txt")


def test_contours_document_rejects_undeclared_particles(tmp_path):
    path = tmp_path / "doc.txt"
    write_contours([("a", blob_contour(8)), ("b", blob_contour(9))], path)
    path.write_text(path.read_text().replace("count 2", "count 1"))
    with pytest.raises(FormatError, match=r"doc\.txt:12: text after the 1 declared"):
        read_contours(path)


@pytest.mark.parametrize("pid", ["tab\tid", "hash#id", ""])
def test_write_contours_rejects_ids_the_reader_would_split(tmp_path, pid):
    with pytest.raises(ValueError):
        write_contours([(pid, blob_contour(16))], tmp_path / "x.txt")


def test_read_contours_picks_the_format_by_its_first_line(tmp_path):
    csv = tmp_path / "grain.txt"
    write_contour_csv(blob_contour(12), csv)
    [(pid, contour)] = read_contours(csv)
    assert pid == "0"
    assert np.array_equal(contour.points, blob_contour(12).points)
