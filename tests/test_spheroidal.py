import numpy as np
import pytest

from equimesh import (
    KINDS,
    CurvilinearCoords,
    FoldError,
    GuardError,
    SingularityError,
    SpheroidDomain,
    TopologyError,
    TriangleMesh,
    align_to_principal_axes,
    fit_domain,
    forward_coords,
    icosphere,
    inverse_coords,
    map_to_domain,
    pullback,
    sample_cap_grid,
    sample_icosphere,
    surface_normals,
    xi_of_eta,
)
from equimesh import spheroidal
from equimesh.benchmarks import bumpy_weights, oblate_domain, prolate_domain
from equimesh.harmonics import reconstruct_fast
from equimesh.mesh import MAX_ICOSPHERE_REFINEMENTS
from equimesh.spheroidal import cap_grid_size, focal_chart


def all_domains():
    return [
        SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1),
        SpheroidDomain(kind="prolate", e=0.9, zeta0=0.9),
        SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0),
        SpheroidDomain(kind="prolate-hemispheroid", e=0.6, zeta0=1.2),
    ]


def interior_eta(domain, n):
    lo, hi = domain.eta_range
    pad = 1e-3 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, n)


# ---------------------------------------------------------------------------
# domain bookkeeping


def test_kinds_enumeration():
    assert set(KINDS) == {
        "oblate", "prolate", "oblate-hemispheroid", "prolate-hemispheroid"
    }


def test_domain_validation():
    with pytest.raises(ValueError):
        SpheroidDomain(kind="cigar", e=1.0, zeta0=1.0)
    with pytest.raises(ValueError):
        SpheroidDomain(kind="oblate", e=-1.0, zeta0=1.0)
    with pytest.raises(ValueError):
        SpheroidDomain(kind="oblate", e=1.0, zeta0=0.0)


def test_semi_axes_oblate():
    d = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    a, c = d.semi_axes()
    assert a == pytest.approx(np.cosh(1.0))
    assert c == pytest.approx(np.sinh(1.0))
    assert a > c  # oblate: flattened along the axis


def test_semi_axes_prolate():
    d = SpheroidDomain(kind="prolate", e=1.0, zeta0=1.0)
    a, c = d.semi_axes()
    assert a == pytest.approx(np.sinh(1.0))
    assert c == pytest.approx(np.cosh(1.0))
    assert c > a  # prolate: elongated along the axis


def test_coords_validation_eta_range():
    d = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    with pytest.raises(ValueError):
        CurvilinearCoords(eta=np.array([2.0]), phi=np.array([0.0]), domain=d)


@pytest.mark.parametrize("coordinate", ["eta", "phi"])
def test_coords_refuse_nan(coordinate):
    # the range test was once written so that NaN passed it
    d = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    values = {"eta": np.array([0.1, 0.2]), "phi": np.array([0.0, 1.0])}
    values[coordinate][1] = np.nan
    with pytest.raises(ValueError, match="eta outside" if coordinate == "eta" else "phi"):
        CurvilinearCoords(domain=d, **values)


def test_coords_copy_a_callers_writeable_arrays_and_keep_read_only_ones():
    d = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    eta, phi = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    coords = CurvilinearCoords(eta=eta, phi=phi, domain=d)
    eta[0] = phi[0] = 0.5  # the caller's arrays stay writeable
    assert coords.eta.tolist() == [0.1, 0.2] and coords.phi.tolist() == [0.3, 0.4]
    assert not (coords.eta.flags.writeable or coords.phi.flags.writeable)
    again = CurvilinearCoords(eta=coords.eta, phi=coords.phi, domain=d)
    assert again.eta is coords.eta and again.phi is coords.phi


def test_coords_validation_shapes_and_phi_range():
    d = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    with pytest.raises(ValueError, match="matching 1-D arrays"):
        CurvilinearCoords(eta=np.zeros(2), phi=np.zeros(3), domain=d)
    with pytest.raises(ValueError, match=r"phi must lie in \[0, 2\*pi\)"):
        CurvilinearCoords(eta=np.array([0.0]), phi=np.array([7.0]), domain=d)


# ---------------------------------------------------------------------------
# forward / inverse transforms


@pytest.mark.parametrize("domain", all_domains(), ids=lambda d: d.kind)
def test_forward_inverse_roundtrip(domain, rng):
    lo, hi = domain.eta_range
    eta = rng.uniform(lo + 1e-3, hi - 1e-3, 400)
    phi = rng.uniform(0.0, 2.0 * np.pi, 400)
    pts = forward_coords(domain, eta, phi)
    zeta, eta_back, phi_back = inverse_coords(domain, pts)
    np.testing.assert_allclose(zeta, domain.zeta0, atol=1e-9)
    np.testing.assert_allclose(eta_back, eta, atol=1e-9)
    np.testing.assert_allclose(phi_back, phi, atol=1e-9)


def test_forward_oblate_hand_values():
    """Oblate chart: x = e cosh(z0) cos(eta) cos(phi), z = e sinh(z0) sin(eta)."""
    d = SpheroidDomain(kind="oblate", e=2.0, zeta0=1.0)
    pts = forward_coords(d, np.array([0.0]), np.array([0.0]))
    np.testing.assert_allclose(
        pts[0], [2.0 * np.cosh(1.0), 0.0, 0.0], atol=1e-14
    )
    pts = forward_coords(d, np.array([np.pi / 2]), np.array([1.0]))
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 2.0 * np.sinh(1.0)], atol=1e-12)


def test_forward_prolate_hand_values():
    d = SpheroidDomain(kind="prolate", e=2.0, zeta0=1.0)
    # eta = 0 is the +z pole for the prolate chart
    pts = forward_coords(d, np.array([0.0]), np.array([0.0]))
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 2.0 * np.cosh(1.0)], atol=1e-12)
    pts = forward_coords(d, np.array([np.pi / 2]), np.array([0.0]))
    np.testing.assert_allclose(
        pts[0], [2.0 * np.sinh(1.0), 0.0, 0.0], atol=1e-12
    )


def test_inverse_coords_takes_one_point():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    point = forward_coords(d, np.array([0.3]), np.array([1.2]))[0]
    zeta, eta, phi = inverse_coords(d, point)
    np.testing.assert_allclose([zeta, eta, phi], [[1.1], [0.3], [1.2]], atol=1e-12)


def test_inverse_rejects_singular_axis_points():
    d = SpheroidDomain(kind="prolate", e=1.0, zeta0=1.0)
    # focal-segment point: rho = 0, |z| < e on the axis between the foci
    with pytest.raises(SingularityError):
        inverse_coords(d, np.array([[0.0, 0.0, 0.5]]))


def test_pullback_projects_onto_shell():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    eta = interior_eta(d, 50)
    phi = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    pts = forward_coords(d, eta, phi)
    pts_off = pts * 1.07  # push off the shell
    coords = pullback(d, pts_off)
    back = forward_coords(d, coords.eta, coords.phi)
    zeta, _, _ = inverse_coords(d, back)
    np.testing.assert_allclose(zeta, d.zeta0, atol=1e-9)


# ---------------------------------------------------------------------------
# latitude substitution


def test_xi_values():
    ob = SpheroidDomain(kind="oblate", e=1.0, zeta0=1.0)
    pr = SpheroidDomain(kind="prolate", e=1.0, zeta0=1.0)
    obh = SpheroidDomain(kind="oblate-hemispheroid", e=1.0, zeta0=1.0)
    prh = SpheroidDomain(kind="prolate-hemispheroid", e=1.0, zeta0=1.0)
    assert xi_of_eta(ob, np.pi / 6) == pytest.approx(0.5)
    assert xi_of_eta(pr, np.pi / 3) == pytest.approx(0.5)
    assert xi_of_eta(obh, np.pi / 6) == pytest.approx(0.0)
    assert xi_of_eta(prh, np.pi / 3) == pytest.approx(0.5)


@pytest.mark.parametrize("domain", all_domains(), ids=lambda d: d.kind)
def test_xi_monotone_and_range(domain):
    lo, hi = domain.eta_range
    eta = np.linspace(lo, hi, 2001)
    xi = xi_of_eta(domain, eta)
    diffs = np.diff(xi)
    assert (diffs > 0).all() or (diffs < 0).all(), "xi must be strictly monotone"
    covered = (xi.min(), xi.max())
    if domain.kind == "prolate-hemispheroid":
        assert covered == pytest.approx((0.0, 1.0))
    else:
        assert covered == pytest.approx((-1.0, 1.0))


# ---------------------------------------------------------------------------
# normals


@pytest.mark.parametrize("domain", all_domains(), ids=lambda d: d.kind)
def test_surface_normals_unit_and_outward(domain):
    eta = interior_eta(domain, 200)
    phi = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    pts = forward_coords(domain, eta, phi)
    n = surface_normals(domain, pts)
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    # outward: positive component along the position direction for a convex shell
    assert (np.einsum("ij,ij->i", n, pts) > 0).all()


def test_surface_normals_orthogonal_to_tangents():
    d = SpheroidDomain(kind="prolate", e=0.9, zeta0=0.9)
    eta = interior_eta(d, 100)
    phi = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    n = surface_normals(d, forward_coords(d, eta, phi))
    h = 1e-6
    t_eta = (forward_coords(d, eta + h, phi) - forward_coords(d, eta - h, phi)) / (2 * h)
    t_phi = (forward_coords(d, eta, phi + h) - forward_coords(d, eta, phi - h)) / (2 * h)
    assert np.abs(np.einsum("ij,ij->i", n, t_eta)).max() < 1e-5
    assert np.abs(np.einsum("ij,ij->i", n, t_phi)).max() < 1e-5


# ---------------------------------------------------------------------------
# fitting and projection


def test_align_to_principal_axes():
    m0 = icosphere(2)
    stretched = m0.vertices * np.array([2.0, 1.0, 0.5])
    # rotate and translate it away from canonical pose
    angle = 0.7
    R = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = stretched @ R.T + np.array([3.0, -1.0, 2.0])
    aligned = align_to_principal_axes(TriangleMesh(moved, m0.faces))
    v = aligned.vertices
    np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-9)
    extents = v.max(axis=0) - v.min(axis=0)
    # the isolated-variance (symmetry-like) axis lands on z
    assert extents[2] == pytest.approx(4.0, rel=1e-6)
    np.testing.assert_allclose(sorted(extents)[::-1], [4.0, 2.0, 1.0], rtol=1e-6)


def test_fit_domain_recovers_oblate():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    coords, faces = sample_icosphere(d, 3)
    pts = forward_coords(d, coords.eta, coords.phi)
    fitted = fit_domain(TriangleMesh(pts, faces))
    assert fitted.kind == "oblate"
    a_true, c_true = d.semi_axes()
    a_fit, c_fit = fitted.semi_axes()
    assert a_fit == pytest.approx(a_true, rel=1e-3)
    assert c_fit == pytest.approx(c_true, rel=1e-3)


def test_fit_domain_recovers_prolate():
    d = SpheroidDomain(kind="prolate", e=0.9, zeta0=0.9)
    coords, faces = sample_icosphere(d, 3)
    pts = forward_coords(d, coords.eta, coords.phi)
    fitted = fit_domain(TriangleMesh(pts, faces))
    assert fitted.kind == "prolate"


def test_fit_domain_sphere_fallback():
    m = icosphere(3)
    fitted = fit_domain(m)
    a, c = fitted.semi_axes()
    assert a == pytest.approx(1.0, rel=1e-3)
    assert c == pytest.approx(1.0, rel=2e-3)


def test_fit_domain_rejects_contradicting_kind_hint():
    d = SpheroidDomain(kind="prolate", e=float(np.sqrt(1.4**2 - 0.7**2)),
                       zeta0=float(np.arctanh(0.7 / 1.4)))
    coords, faces = sample_icosphere(d, 3)
    mesh = TriangleMesh(forward_coords(d, coords.eta, coords.phi), faces)
    assert fit_domain(mesh, kind_hint="prolate").kind == "prolate"
    with pytest.raises(ValueError, match="inconsistent"):
        fit_domain(mesh, kind_hint="oblate")
    # a near-sphere within SPHERE_GAP still fits whichever family is hinted
    base = icosphere(3)
    sphere = base.with_vertices(base.vertices * np.array([1.0, 1.0, 1.0005]))
    for hint in ("oblate", "prolate"):
        assert fit_domain(sphere, kind_hint=hint).kind == hint


def test_fit_domain_kind_hint_hemispheroid():
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    coords, faces = sample_cap_grid(d, rings=12, sectors=24)
    pts = forward_coords(d, coords.eta, coords.phi)
    fitted = fit_domain(TriangleMesh(pts, faces), kind_hint="hemispheroid")
    assert fitted.kind == "oblate-hemispheroid"


def test_fit_domain_rejections():
    triangle = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="at least 4 points"):
        fit_domain(triangle)
    with pytest.raises(ValueError, match="unknown kind hint 'sphere'"):
        fit_domain(icosphere(1), kind_hint="sphere")
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    coords, faces = sample_cap_grid(d, rings=4, sectors=8)
    cap = TriangleMesh(forward_coords(d, coords.eta, coords.phi), faces)
    with pytest.raises(TopologyError, match="hemispheroidal kind hint"):
        fit_domain(cap)
    flat = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="degenerate extents"):
        fit_domain(flat)


def test_map_to_domain_roundtrip():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    coords, faces = sample_icosphere(d, 2)
    pts = forward_coords(d, coords.eta, coords.phi)
    mesh = TriangleMesh(pts, faces)
    mapped = map_to_domain(mesh, d)
    np.testing.assert_allclose(mapped.eta, coords.eta, atol=1e-9)
    np.testing.assert_allclose(mapped.phi, coords.phi, atol=1e-9)


def test_map_to_domain_detects_fold():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    coords, faces = sample_icosphere(d, 1)
    pts = forward_coords(d, coords.eta, coords.phi).copy()
    # collapse a vertex onto its neighbor: the chart image folds
    pts[5] = pts[6]
    with pytest.raises((FoldError, ValueError)):
        map_to_domain(TriangleMesh(pts, faces), d)


def _bumpy_mesh(domain):
    weights = bumpy_weights(domain, n_max=30)
    coords, faces = sample_icosphere(domain, 3)
    return TriangleMesh(reconstruct_fast(weights, coords), faces)


@pytest.mark.parametrize("make_domain", [oblate_domain, prolate_domain])
def test_map_to_domain_skips_faces_around_a_pole(make_domain):
    """The bumps move each pole vertex about 0.02 in eta off its pole, so
    the face that now covers the pole has no vertex on it; it is told apart
    by its phi winding, not flagged as folded."""
    mesh = _bumpy_mesh(make_domain())
    domain = fit_domain(mesh)
    coords = map_to_domain(mesh, domain)
    lo, hi = domain.eta_range
    assert np.all((np.abs(coords.eta - lo) > 1e-3) & (np.abs(coords.eta - hi) > 1e-3))


def test_map_to_domain_detects_fold_next_to_pole_faces():
    mesh = _bumpy_mesh(oblate_domain())
    domain = fit_domain(mesh)
    # reflect corner 1 of face 100 through the line of its opposite edge,
    # which folds two of the faces around that corner
    a, b, c = mesh.vertices[mesh.faces[100]]
    t = np.dot(b - c, a - c) / np.dot(a - c, a - c)
    points = mesh.vertices.copy()
    points[mesh.faces[100, 1]] = 2.0 * (c + t * (a - c)) - b
    with pytest.raises(FoldError, match="2 parameter triangles"):
        map_to_domain(mesh.with_vertices(points), domain)


# ---------------------------------------------------------------------------
# samplers


def test_sample_icosphere_counts():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    coords, faces = sample_icosphere(d, 2)
    assert coords.n == 10 * 4**2 + 2
    assert faces.shape[0] == 20 * 4**2


def test_sample_icosphere_requires_closed_domain():
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    with pytest.raises(ValueError, match="requires a closed domain"):
        sample_icosphere(d, 1)


def test_sample_icosphere_guard():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    with pytest.raises(GuardError):
        sample_icosphere(d, 99)


def test_sample_cap_grid_structure():
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    rings, sectors = 10, 20
    coords, faces = sample_cap_grid(d, rings=rings, sectors=sectors)
    assert coords.n == 1 + rings * sectors
    assert faces.shape[0] == sectors + 2 * sectors * (rings - 1)
    pts = forward_coords(d, coords.eta, coords.phi)
    mesh = TriangleMesh(pts, faces)
    assert len(mesh.boundary_loop()) == sectors


def test_sample_cap_grid_prolate_hemispheroid():
    d = SpheroidDomain(kind="prolate-hemispheroid", e=0.6, zeta0=1.2)
    coords, faces = sample_cap_grid(d, rings=6, sectors=12)
    assert coords.eta[0] == 0.0  # the pole
    assert coords.eta[1:].max() == pytest.approx(np.pi / 2.0 - 1e-3, abs=1e-15)
    pts = forward_coords(d, coords.eta, coords.phi)
    p = pts[faces]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    outward = surface_normals(d, pts)[faces].sum(axis=1)
    assert np.all(np.einsum("ij,ij->i", normals, outward) > 0.0)


@pytest.mark.parametrize("kind", ["oblate-hemispheroid", "prolate-hemispheroid"])
@pytest.mark.parametrize("aspect", [0.05, 0.55, 0.999, 0.9995])
@pytest.mark.parametrize("rings, sectors", [(1, 3), (40, 64)])
def test_sample_cap_grid_faces_point_outward(kind, aspect, rings, sectors):
    # 0.9995 is within SPHERE_GAP of round and takes the floored focal chart
    e, zeta0 = focal_chart(1.0, aspect)
    d = SpheroidDomain(kind=kind, e=e, zeta0=zeta0)
    coords, faces = sample_cap_grid(d, rings=rings, sectors=sectors)
    pts = forward_coords(d, coords.eta, coords.phi)
    p = pts[faces]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    outward = surface_normals(d, pts)[faces].sum(axis=1)
    assert np.all(np.einsum("ij,ij->i", normals, outward) > 0.0)


def test_sample_cap_grid_near_equal_face_areas():
    """Ring placement equalizes cell areas; spread stays within a few x."""
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    coords, faces = sample_cap_grid(d, rings=16, sectors=32)
    pts = forward_coords(d, coords.eta, coords.phi)
    from equimesh import face_metrics

    areas, _, _ = face_metrics(TriangleMesh(pts, faces))
    assert areas.max() / areas.min() < 6.0


def _loop_cap_grid(domain, rings, sectors):
    """Reference: the cap grid built vertex by vertex and face by face."""
    lo, hi = domain.eta_range
    if domain.kind == "prolate-hemispheroid":
        pole, rim = lo, hi - 1e-3
    else:
        pole, rim = hi, lo + 1e-3
    eta_fine = np.linspace(pole, rim, 4096)
    pts_fine = forward_coords(domain, eta_fine, np.zeros_like(eta_fine))
    hoop = np.hypot(pts_fine[:, 0], pts_fine[:, 1])
    speed = np.linalg.norm(np.gradient(pts_fine, eta_fine, axis=0), axis=1)
    band = np.concatenate(
        ([0.0], np.cumsum(np.abs(np.diff(eta_fine)) * 0.5 * (
            (hoop * speed)[1:] + (hoop * speed)[:-1]
        )))
    )
    fractions = (2.0 * np.arange(1, rings + 1) - 1.0) / (2.0 * rings - 1.0)
    ring_etas = np.interp(fractions * band[-1], band, eta_fine)
    ring_etas[-1] = rim
    eta = [pole]
    phi = [0.0]
    for j in range(1, rings + 1):
        for k in range(sectors):
            eta.append(ring_etas[j - 1])
            phi.append(2.0 * np.pi * k / sectors)
    faces = []
    for k in range(sectors):
        faces.append((0, 1 + k, 1 + (k + 1) % sectors))
    for j in range(1, rings):
        inner = 1 + (j - 1) * sectors
        outer = 1 + j * sectors
        for k in range(sectors):
            k2 = (k + 1) % sectors
            faces.append((inner + k, outer + k, outer + k2))
            faces.append((inner + k, outer + k2, inner + k2))
    eta, phi = np.asarray(eta), np.asarray(phi)
    faces = np.asarray(faces, dtype=np.int64)
    pts = forward_coords(domain, eta, phi)
    cross = np.cross(
        pts[faces[:, 1]] - pts[faces[:, 0]], pts[faces[:, 2]] - pts[faces[:, 0]]
    )
    outward = surface_normals(domain, pts)[faces[:, 0]]
    if np.median(np.einsum("ij,ij->i", cross, outward)) < 0:
        faces = faces[:, [0, 2, 1]].copy()
    return eta, phi, faces


@pytest.mark.parametrize("kind", ["oblate-hemispheroid", "prolate-hemispheroid"])
@pytest.mark.parametrize("rings, sectors", [(1, 3), (2, 5), (12, 24), (40, 64)])
def test_sample_cap_grid_matches_loop_reference(kind, rings, sectors):
    d = SpheroidDomain(kind=kind, e=0.7, zeta0=1.0)
    coords, faces = sample_cap_grid(d, rings=rings, sectors=sectors)
    eta, phi, ref_faces = _loop_cap_grid(d, rings, sectors)
    assert coords.eta.tobytes() == eta.tobytes()
    assert coords.phi.tobytes() == phi.tobytes()
    assert faces.dtype == ref_faces.dtype
    assert np.array_equal(faces, ref_faces)


def test_cap_grid_size_follows_the_refinement_guard():
    assert cap_grid_size(0) == (4, 8)
    assert cap_grid_size(MAX_ICOSPHERE_REFINEMENTS) == (1024, 2048)
    for bad in (-1, MAX_ICOSPHERE_REFINEMENTS + 1, 2.5):
        with pytest.raises(GuardError) as cap:
            cap_grid_size(bad)
        with pytest.raises(GuardError) as sphere:
            icosphere(bad)
        assert str(cap.value) == str(sphere.value)


def test_sample_cap_grid_refuses_more_cells_than_the_cap(monkeypatch):
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)

    def refused(*args):
        raise AssertionError("the cap grid was sampled")

    monkeypatch.setattr(spheroidal, "forward_coords", refused)
    for rings, sectors in ((1025, 2048), (1, 1024 * 2048 + 1), (3000, 3000)):
        with pytest.raises(GuardError, match="1024 x 2048"):
            sample_cap_grid(d, rings=rings, sectors=sectors)


def test_sample_cap_grid_requires_hemispheroid():
    d = SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)
    with pytest.raises(ValueError):
        sample_cap_grid(d, rings=4, sectors=8)


@pytest.mark.parametrize("rings, sectors, name", [
    (2.5, 8, "rings"), (4, 8.0, "sectors"), (True, 8, "rings"), (4, True, "sectors"),
])
def test_sample_cap_grid_refuses_counts_that_are_not_integers(rings, sectors, name):
    # rings=2.5 once raised numpy's TypeError, sectors=8.0 built a 17-vertex
    # grid and rings=True a 9-vertex one
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        sample_cap_grid(d, rings=rings, sectors=sectors)
    coords, _ = sample_cap_grid(d, rings=np.int64(2), sectors=np.int32(8))
    assert coords.n == 17


def test_cap_grid_size_refuses_a_bool_refinement():
    with pytest.raises(GuardError, match="refinement True must be an integer"):
        cap_grid_size(True)
    assert cap_grid_size(np.int64(1)) == (8, 16)


@pytest.mark.parametrize("rings, sectors", [(0, 8), (4, 2)])
def test_sample_cap_grid_rejects_too_few_rings_or_sectors(rings, sectors):
    d = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    with pytest.raises(ValueError, match="rings must be an integer >= 1|"
                                         "sectors must be an integer >= 3"):
        sample_cap_grid(d, rings=rings, sectors=sectors)
