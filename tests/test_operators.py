"""Tests for the discrete differential operators.

laplacian_iso is assembled as -G^T A G; the oracle here is the classical
half-cotangent-weight matrix coded with plain Python loops, so the two
routes are independent. The anisotropic kernel is checked against a dense
loop over faces built on the SVD-based `face_directors` below, which
writes the diffusion rates out on its own.
"""

import numpy as np
import pytest

from equimesh.benchmarks import cap_domain, cap_weights
from equimesh.diffusion import DiffusionConfig
from equimesh.errors import DegenerateMeshError, EngineError
from equimesh.harmonics import reconstruct_fast
from equimesh.mesh import FaceGeometry, TriangleMesh, icosphere
from equimesh.operators import (
    ALPHA_CAP,
    COLLAPSE_RATIO,
    MeshTopology,
    gradient_operator,
    laplacian_aniso,
    laplacian_iso,
    max_diffusion_rate,
    stretch_directors,
    vertex_mass_matrix,
)
from equimesh.spheroidal import sample_cap_grid


def regular_tetrahedron():
    v = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    ) / np.sqrt(3.0)
    f = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return TriangleMesh(v, f)


def bumpy_sphere(refinements=2, amplitude=0.08):
    base = icosphere(refinements)
    x, y, z = base.vertices.T
    r = 1.0 + amplitude * np.sin(3.0 * x) * np.cos(2.0 * y) * np.cos(z)
    return base.with_vertices(base.vertices * r[:, None])


def cotangent_oracle(mesh):
    """Half-cotangent-weight Laplacian, assembled corner by corner."""
    n_v = mesh.n_v
    L = np.zeros((n_v, n_v))
    for face in mesh.faces:
        pts = mesh.vertices[face]
        for k in range(3):
            i, j = face[(k + 1) % 3], face[(k + 2) % 3]
            a = pts[(k + 1) % 3] - pts[k]
            b = pts[(k + 2) % 3] - pts[k]
            cot = np.dot(a, b) / np.linalg.norm(np.cross(a, b))
            L[i, j] += 0.5 * cot
            L[j, i] += 0.5 * cot
            L[i, i] -= 0.5 * cot
            L[j, j] -= 0.5 * cot
    return L


def open_cap(rings=6, sectors=12):
    domain = cap_domain()
    weights = cap_weights(domain, n_max=10, rings=20, sectors=32)
    coords, faces = sample_cap_grid(domain, rings=rings, sectors=sectors)
    return TriangleMesh(reconstruct_fast(weights, coords), faces)


def hat_gradients_oracle(tri):
    """Corner hat-function gradients from the pseudo-inverse of the edges."""
    pinv = np.linalg.pinv(np.array([tri[1] - tri[0], tri[2] - tri[0]]))
    return np.array([-pinv[:, 0] - pinv[:, 1], pinv[:, 0], pinv[:, 1]])


def voronoi_oracle(mesh):
    """Mixed-Voronoi vertex masses, corner by corner."""
    masses = np.zeros(mesh.n_v)
    for face in mesh.faces:
        pts = mesh.vertices[face]
        area = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        cot = []
        for k in range(3):
            a = pts[(k + 1) % 3] - pts[k]
            b = pts[(k + 2) % 3] - pts[k]
            cot.append(np.dot(a, b) / np.linalg.norm(np.cross(a, b)))
        if min(cot) < 0.0:
            for k in range(3):
                masses[face[k]] += area / (2.0 if cot[k] < 0.0 else 4.0)
            continue
        for k in range(3):
            for j in ((k + 1) % 3, (k + 2) % 3):
                # edge k-j is opposite the third corner
                m = 3 - k - j
                masses[face[k]] += np.sum((pts[j] - pts[k]) ** 2) * cot[m] / 8.0
    return masses


def face_directors(face_vertices, gamma, alpha_cap=ALPHA_CAP):
    """Principal stretch frame and diffusion rates of a single face.

    Returns (v1, v2, normal, lambda1, lambda2, alpha1, alpha2). The face
    vertices are centered on their centroid before the singular value
    decomposition, so the two nonzero singular values measure in-plane
    stretch only. alpha1 = exp((1 - lambda1/lambda2)/gamma) damps diffusion
    along the stretch direction; alpha2 = exp((1 - lambda2/lambda1)*gamma)
    amplifies it across, with the exponent capped at ln(alpha_cap).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    tri = np.asarray(face_vertices, dtype=float).reshape(3, 3)
    # right singular vectors span {stretch, secondary, normal}
    _, sigma, vt = np.linalg.svd(tri - tri.mean(axis=0))
    lam1, lam2 = float(sigma[0]), float(sigma[1])
    if lam1 <= 0.0 or lam2 / lam1 < COLLAPSE_RATIO:
        raise DegenerateMeshError("collapsed face in director computation")
    v1 = vt[0]
    # geometric normal fixes the sign ambiguity of the SVD frame
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    normal /= np.linalg.norm(normal)
    log_cap = np.log(alpha_cap)
    alpha1 = np.exp(max((1.0 - lam1 / lam2) / gamma, -log_cap))
    alpha2 = np.exp(min((1.0 - lam2 / lam1) * gamma, log_cap))
    v2 = np.cross(normal, v1)
    return v1, v2, normal, lam1, lam2, float(alpha1), float(alpha2)


def rodrigues_quarter_turn(normal):
    """Rotation by +pi/2 about the unit normal: R = I + N + N^2."""
    n = np.asarray(normal, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("normal must be a unit 3-vector")
    skew = np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )
    return np.eye(3) + skew + skew @ skew


def anisotropic_oracle(mesh, gamma):
    """Dense -sum_f A g_k^T D g_l with D from face_directors; largest rate."""
    L = np.zeros((mesh.n_v, mesh.n_v))
    largest = 0.0
    for face in mesh.faces:
        tri = mesh.vertices[face]
        v1, v2, n, _, _, a1, a2 = face_directors(tri, gamma)
        R = rodrigues_quarter_turn(n)
        v1p, v2p = R @ v1, R @ v2
        D = a1 * np.outer(v1p, v1p) + a2 * np.outer(v2p, v2p) + np.outer(n, n)
        g = hat_gradients_oracle(tri)
        area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
        L[np.ix_(face, face)] -= area * g @ D @ g.T
        largest = max(largest, a1, a2)
    return L, largest


# ---------------------------------------------------------------------------
# gradient and mass matrices

def test_gradient_exact_on_linear_fields():
    mesh = bumpy_sphere(1)
    G = gradient_operator(mesh)
    assert G.shape == (3 * mesh.n_f, mesh.n_v)
    a = np.array([0.7, -1.3, 2.1])
    u = mesh.vertices @ a + 0.25
    grads = (G @ u).reshape(mesh.n_f, 3)
    # the PL gradient is the in-plane projection of the ambient slope
    from equimesh.mesh import face_metrics

    _, normals, _ = face_metrics(mesh)
    expect = a[None, :] - (normals @ a)[:, None] * normals
    assert grads == pytest.approx(expect, abs=1e-12)


def test_gradient_kills_constants():
    mesh = icosphere(2)
    G = gradient_operator(mesh)
    assert np.abs(G @ np.ones(mesh.n_v)).max() < 1e-12


def test_gradient_rejects_degenerate_face():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mesh = TriangleMesh.__new__(TriangleMesh)  # bypass validation on purpose
    mesh.vertices = v
    mesh.faces = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        gradient_operator(mesh)


def test_mass_matrices():
    mesh = bumpy_sphere(1)
    M = vertex_mass_matrix(mesh)
    assert M.shape == (mesh.n_v, mesh.n_v)
    areas = FaceGeometry(mesh.vertices, mesh.faces).areas
    assert M.diagonal().sum() == pytest.approx(areas.sum(), rel=1e-12)
    assert (M.diagonal() > 0.0).all()


# ---------------------------------------------------------------------------
# isotropic Laplacian

@pytest.mark.parametrize("builder", [regular_tetrahedron, lambda: icosphere(1),
                                     bumpy_sphere])
def test_laplacian_matches_cotangent_oracle(builder):
    mesh = builder()
    L = laplacian_iso(mesh).toarray()
    oracle = cotangent_oracle(mesh)
    scale = np.abs(oracle).max()
    assert np.abs(L - oracle).max() < 1e-10 * scale


def test_laplacian_structure():
    mesh = bumpy_sphere(2)
    L = laplacian_iso(mesh)
    dense = L.toarray()
    assert np.abs(dense - dense.T).max() < 1e-12
    assert np.abs(dense.sum(axis=1)).max() < 1e-10
    eigs = np.linalg.eigvalsh(-dense)
    assert eigs.min() > -1e-9  # -L is positive semidefinite


# ---------------------------------------------------------------------------
# anisotropic machinery

def test_face_directors_equilateral_is_isotropic():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    v1, v2, n, l1, l2, a1, a2 = face_directors(tri, gamma=7.0)
    assert l1 == pytest.approx(l2, rel=1e-12)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    assert a2 == pytest.approx(1.0, abs=1e-12)
    assert abs(n[2]) == pytest.approx(1.0, abs=1e-12)
    # orthonormal frame
    assert np.dot(v1, v2) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(v1, n) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(v1) == pytest.approx(1.0, rel=1e-12)


def test_face_directors_stretched_face():
    tri = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.4, 0.0]])
    v1, v2, n, l1, l2, a1, a2 = face_directors(tri, gamma=2.0)
    assert l1 > l2 > 0.0
    assert abs(v1[0]) > 0.99  # stretch direction is x
    assert a1 < 1.0 < a2
    assert a1 == pytest.approx(np.exp((1.0 - l1 / l2) / 2.0), rel=1e-12)
    assert a2 == pytest.approx(np.exp((1.0 - l2 / l1) * 2.0), rel=1e-12)


def test_face_directors_rate_cap():
    tri = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [5.0, 1e-3, 0.0]])
    *_, a1, a2 = face_directors(tri, gamma=250.0)
    assert a2 == pytest.approx(ALPHA_CAP, rel=1e-12)
    assert a1 >= (1.0 / ALPHA_CAP) * (1.0 - 1e-12)


def test_face_directors_validation():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.8, 0.0]])
    with pytest.raises(ValueError):
        face_directors(tri, gamma=0.0)
    colinear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        face_directors(colinear, gamma=1.0)


def test_rodrigues_quarter_turn():
    R = rodrigues_quarter_turn(np.array([0.0, 0.0, 1.0]))
    assert R @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0],
                                                          abs=1e-14)
    assert R @ np.array([0.0, 0.0, 1.0]) == pytest.approx([0.0, 0.0, 1.0],
                                                          abs=1e-14)
    rng = np.random.default_rng(11)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    R = rodrigues_quarter_turn(n)
    assert R.T @ R == pytest.approx(np.eye(3), abs=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, rel=1e-12)
    assert R @ n == pytest.approx(n, abs=1e-12)
    with pytest.raises(ValueError):
        rodrigues_quarter_turn(np.array([0.0, 0.0, 2.0]))


def test_aniso_equals_iso_on_equilateral_mesh():
    mesh = regular_tetrahedron()  # all faces equilateral
    Li = laplacian_iso(mesh).toarray()
    for gamma in (1.0, 50.0, 250.0):
        La = laplacian_aniso(mesh, gamma).toarray()
        assert np.abs(La - Li).max() < 1e-10 * np.abs(Li).max()


@pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", ["laplacian_aniso", "max_diffusion_rate", "config"])
def test_one_gamma_rule_refuses_negative_nan_and_infinite(entry, gamma):
    # laplacian_aniso once took NaN for the isotropic operator and an
    # infinite gamma; max_diffusion_rate returned 1.72 at -1 and NaN at NaN
    call = {
        "laplacian_aniso": lambda: laplacian_aniso(icosphere(1), gamma),
        "max_diffusion_rate": lambda: max_diffusion_rate(icosphere(1), gamma),
        "config": lambda: DiffusionConfig(stages=((10, 30),), gamma=gamma),
    }[entry]
    with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
        call()


def test_aniso_gamma_zero_is_iso():
    mesh = bumpy_sphere(1)
    La = laplacian_aniso(mesh, 0.0)
    Li = laplacian_iso(mesh)
    assert (La != Li).nnz == 0
    with pytest.raises(ValueError):
        laplacian_aniso(mesh, -1.0)


def test_aniso_structure():
    mesh = bumpy_sphere(2)
    L = laplacian_aniso(mesh, gamma=5.0).toarray()
    assert np.abs(L - L.T).max() < 1e-12
    assert np.abs(L.sum(axis=1)).max() < 1e-9
    eigs = np.linalg.eigvalsh(-L)
    assert eigs.min() > -1e-8


def test_max_diffusion_rate():
    mesh = bumpy_sphere(1)
    assert max_diffusion_rate(mesh, 0.0) == 1.0
    gamma = 2.0
    tri = mesh.vertices[mesh.faces]
    rates = []
    for k in range(mesh.n_f):
        *_, a1, a2 = face_directors(tri[k], gamma)
        rates.append(max(a1, a2))
    assert max_diffusion_rate(mesh, gamma) == pytest.approx(max(rates),
                                                            rel=1e-12)
    assert max_diffusion_rate(mesh, gamma) >= 1.0


# ---------------------------------------------------------------------------
# topology-once kernel against the loop oracles

@pytest.mark.parametrize("builder", [bumpy_sphere, open_cap])
def test_topology_scatter_is_the_int32_rank_of_each_corner_pair(builder):
    mesh = builder()
    f = mesh.faces.T
    keys = (np.repeat(f, 3, axis=0) * mesh.n_v + np.tile(f, (3, 1))).ravel()
    _, inverse = np.unique(keys, return_inverse=True)
    scatter = MeshTopology(mesh.faces, mesh.n_v).scatter
    assert scatter.dtype == np.int32 and np.array_equal(scatter, inverse)


@pytest.mark.parametrize("builder", [bumpy_sphere, open_cap])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 50.0])
def test_kernel_matches_oracles(builder, gamma):
    mesh = builder()
    geometry = FaceGeometry(mesh.vertices, mesh.faces)
    topology = MeshTopology(mesh.faces, mesh.n_v)
    if gamma == 0.0:
        L = topology.laplacian(geometry).toarray()
        oracle, largest = cotangent_oracle(mesh), 1.0
    else:
        directors = stretch_directors(geometry, gamma)
        L = topology.laplacian(geometry, directors).toarray()
        oracle, largest = anisotropic_oracle(mesh, gamma)
        assert directors[3] == pytest.approx(largest, rel=1e-12)
        assert max_diffusion_rate(mesh, gamma) == directors[3]
    assert np.abs(L - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.array_equal(L, L.T)

    masses = voronoi_oracle(mesh)
    assert np.abs(geometry.masses - masses).max() <= 1e-12 * masses.max()
    u = np.random.default_rng(5).uniform(0.5, 2.0, mesh.n_v)
    expect = np.array([
        hat_gradients_oracle(mesh.vertices[face]).T @ u[face]
        for face in mesh.faces
    ])
    got = np.einsum("fkc,fk->fc", geometry.hat_gradients(), u[mesh.faces])
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    # the engine's velocity: area-weighted mean of the face gradients
    weighted, total = np.zeros((mesh.n_v, 3)), np.zeros(mesh.n_v)
    for face, grad in zip(mesh.faces, expect):
        a, b, c = mesh.vertices[face]
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        weighted[face] += area * grad
        total[face] += area
    expect = weighted / total[:, None]
    got = geometry.vertex_gradients(u)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("builder", [bumpy_sphere, open_cap])
def test_face_edges_equal_fancy_indexed_edges(builder):
    mesh = builder()
    p = mesh.vertices[mesh.faces]
    edges = FaceGeometry(mesh.vertices, mesh.faces).edges
    assert np.array_equal(edges, (p[:, [2, 0, 1]] - p[:, [1, 2, 0]]).transpose(1, 2, 0))
    # the layout the per-edge products are fast on: faces last, every
    # (corner, component) row contiguous
    assert edges.shape == (3, 3, mesh.n_f) and edges.flags.c_contiguous


def obtuse_sphere():
    """icosphere(2) squashed to a sixth of its height: many obtuse faces."""
    mesh = icosphere(2)
    return mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.0 / 6.0])


def faces_first_oracle(mesh, u):
    """Per-face fields in the (n_f, corner, component) layout: edges, 2A,
    unit normals from np.cross on fancy-indexed corners, mixed-Voronoi
    masses (the obtuse corner by argmin of the cotangents) and the
    2A-weighted vertex means of the face gradients n x sum_k u_k e_k / 2A."""
    p = mesh.vertices[mesh.faces]
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    double_area = np.linalg.norm(cross, axis=1)
    normals = cross / double_area[:, None]
    lengths = np.einsum("fkc,fkc->fk", edges, edges)
    cot = np.einsum("fkc,fkc->fk", edges[:, [1, 2, 0]], -edges[:, [2, 0, 1]])
    cot /= double_area[:, None]
    share = lengths * cot / 8.0
    contrib = share[:, [1, 2, 0]] + share[:, [2, 0, 1]]
    corner = np.argmin(cot, axis=1)
    obtuse = np.nonzero(cot[np.arange(mesh.n_f), corner] < 0.0)[0]
    contrib[obtuse] = 0.125 * double_area[obtuse, None]
    contrib[obtuse, corner[obtuse]] *= 2.0
    masses = np.zeros(mesh.n_v)
    np.add.at(masses, mesh.faces, contrib)
    weighted = np.cross(normals, np.einsum("fkc,fk->fc", edges, u[mesh.faces]))
    sums, total = np.zeros((mesh.n_v, 3)), np.zeros(mesh.n_v)
    for k in range(3):
        np.add.at(sums, mesh.faces[:, k], weighted)
        np.add.at(total, mesh.faces[:, k], double_area)
    return edges, double_area, normals, masses, sums / total[:, None], obtuse.size


@pytest.mark.parametrize("builder", [bumpy_sphere, open_cap, obtuse_sphere])
def test_faces_last_fields_match_faces_first_oracle(builder):
    mesh = builder()
    u = np.random.default_rng(7).uniform(0.5, 2.0, mesh.n_v)
    geometry = FaceGeometry(mesh.vertices, mesh.faces)
    *want, obtuse = faces_first_oracle(mesh, u)
    got = (geometry.edges.transpose(2, 0, 1), geometry.double_area,
           geometry.normals.T, geometry.masses, geometry.vertex_gradients(u))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
    if builder is obtuse_sphere:
        assert obtuse > 100


@pytest.mark.parametrize("ratio, collapsed", [(1e-6, False), (1e-10, True)])
def test_collapse_check_agrees_with_svd(ratio, collapsed):
    # centred x spread sqrt(1/2), y spread sqrt(2/3) h: sigma2/sigma1 = 1.1547 h
    h = ratio / np.sqrt(4.0 / 3.0)
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, h, 0.0]])
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    tri = flat @ q.T + np.array([0.3, -1.2, 2.0])
    geometry = FaceGeometry(tri, np.array([[0, 1, 2]]))
    if collapsed:
        with pytest.raises(DegenerateMeshError):
            face_directors(tri, 1.0)
        with pytest.raises(DegenerateMeshError):
            stretch_directors(geometry, 1.0)
        return
    *_, a1, a2 = face_directors(tri, 1.0)
    _, alpha1, alpha2, _ = stretch_directors(geometry, 1.0)
    assert [alpha2[0], alpha1[0]] == pytest.approx([a2, a1], rel=1e-9)


def test_degenerate_geometry_is_an_engine_error():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    geometry = FaceGeometry(v, np.array([[0, 1, 2]]))
    topology = MeshTopology(geometry.faces, 3)
    # directors of a sound triangle: laplacian checks the areas itself
    sound = stretch_directors(FaceGeometry(np.eye(3), geometry.faces), 1.0)
    for call in (
        geometry.hat_gradients,
        lambda: stretch_directors(geometry, 1.0),
        lambda: topology.laplacian(geometry),
        lambda: topology.laplacian(geometry, sound),
    ):
        with pytest.raises(EngineError):
            call()
    flat = FaceGeometry(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(EngineError, match="no area"):
        flat.density()
