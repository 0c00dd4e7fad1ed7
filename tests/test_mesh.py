import numpy as np
import pytest

from equimesh import (
    Contour2D,
    SpheroidDomain,
    TopologyError,
    TriangleMesh,
    area_density,
    compare_surfaces,
    detect_normal_flips,
    face_metrics,
    forward_coords,
    icosphere,
    load_mesh,
    quality_report,
    sample_cap_grid,
    save_mesh,
    vertex_voronoi_areas,
)
from equimesh.mesh import (
    _chain_loops,
    _point_triangle_distance,
    _run_starts,
    ring_lengths,
)


def tetrahedron():
    # regular tetrahedron, all faces equilateral with edge 2*sqrt(2)
    v = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TriangleMesh(v, f)


def single_triangle(vertices):
    return TriangleMesh(np.asarray(vertices, dtype=float), [[0, 1, 2]])


# ---------------------------------------------------------------------------
# construction and topology


def test_tetrahedron_is_closed():
    m = tetrahedron()
    assert m.is_closed
    assert m.boundary_loop() is None
    assert m.n_v - len(m.unique_edges()) + m.n_f == 2


def test_single_triangle_boundary_loop():
    m = single_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert not m.is_closed
    loop = m.boundary_loop()
    assert sorted(loop) == [0, 1, 2]


@pytest.mark.parametrize("vertices, faces", [
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2, 3]]),
])
def test_rejects_malformed_arrays(vertices, faces):
    with pytest.raises(ValueError, match=r"must be an \(n_[vf], 3\) array"):
        TriangleMesh(vertices, faces)


def test_rejects_out_of_range_face_index():
    with pytest.raises(ValueError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_vertex(bad):
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    v[1][2] = bad
    with pytest.raises(ValueError, match="finite"):
        TriangleMesh(v, [[0, 1, 2]])


def test_rejects_degenerate_face():
    with pytest.raises(ValueError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_rejects_inconsistent_orientation():
    # two triangles sharing edge (1,2) traversed the same way twice
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    f = [[0, 1, 2], [3, 1, 2]]
    with pytest.raises(TopologyError, match=r"\(directed edge used twice\)$"):
        TriangleMesh(v, f)


def test_rejects_nonmanifold_edge():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    f = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(TopologyError, match="^non-manifold or inconsistently oriented edge"):
        TriangleMesh(v, f)


def test_rejects_two_boundary_loops():
    # two disjoint triangles: connected components aside, two boundary loops
    v = [
        [0, 0, 0], [1, 0, 0], [0, 1, 0],
        [10, 0, 0], [11, 0, 0], [10, 1, 0],
    ]
    f = [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(TopologyError, match=r"^2 boundary loops \(at most one supported\)$"):
        TriangleMesh(v, f)


def test_rejects_non_manifold_boundary_vertex():
    # two triangles that share only vertex 0: two boundary edges leave it
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    f = [[0, 1, 2], [0, 3, 4]]
    with pytest.raises(TopologyError, match="^non-manifold boundary vertex$"):
        TriangleMesh(v, f)


def test_directed_edge_check_runs_before_the_boundary_check():
    # face 1 repeats the directed edge 0 -> 1 and leaves an open rim
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0]]
    with pytest.raises(TopologyError, match="directed edge used twice"):
        TriangleMesh(v, [[0, 1, 2], [0, 1, 3]])


def test_vertices_are_readonly():
    m = tetrahedron()
    with pytest.raises((ValueError, RuntimeError)):
        m.vertices[0, 0] = 99.0


def test_with_vertices_keeps_connectivity():
    m = tetrahedron()
    m2 = m.with_vertices(m.vertices * 2.0)
    assert np.array_equal(m.faces, m2.faces)
    assert m2.total_area() == pytest.approx(4.0 * m.total_area())


def _boundary_loop_by_unique(mesh):
    """The boundary loop as found with np.unique: the edges whose
    undirected key is counted once, chained in directed-edge order."""
    edges = mesh.directed_edges()
    lo, hi = np.sort(edges, axis=1).T
    _, inverse, counts = np.unique(lo * mesh.n_v + hi, return_inverse=True,
                                   return_counts=True)
    loops = _chain_loops(edges[counts[inverse] == 1])
    return loops[0] if loops else None


def _cap(rings, sectors):
    domain = SpheroidDomain(kind="oblate-hemispheroid", e=0.7, zeta0=1.0)
    coords, faces = sample_cap_grid(domain, rings=rings, sectors=sectors)
    return TriangleMesh(forward_coords(domain, coords.eta, coords.phi), faces)


@pytest.mark.parametrize("rings, sectors", [(1, 3), (3, 8), (12, 40), (40, 64)])
def test_cap_boundary_loop_order_matches_unique_reference(rings, sectors):
    cap = _cap(rings, sectors)
    loop = cap.boundary_loop()
    assert np.array_equal(loop, _boundary_loop_by_unique(cap))
    assert loop.size == sectors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sort_helpers_match_np_unique(seed):
    rng = np.random.default_rng(seed)
    # few distinct values, so most keys repeat; one key alone at the end
    keys = np.append(rng.integers(-50, 50, 2000), 10**12)
    values, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    ordered = np.sort(keys)
    starts = _run_starts(ordered)
    assert np.array_equal(ordered[starts], values)
    order = np.argsort(keys)
    starts = _run_starts(keys[order])
    assert np.array_equal(keys[order[starts]], values)
    assert np.array_equal(np.minimum.reduceat(order, np.flatnonzero(starts)), first)
    run = np.empty_like(order)
    run[order] = np.cumsum(starts) - 1
    assert np.array_equal(run, inverse)
    assert np.array_equal(np.diff(np.append(np.flatnonzero(starts), keys.size)), counts)
    # a single key and no keys
    assert np.array_equal(_run_starts(keys[:1]), [True])
    assert _run_starts(keys[:0]).shape == (0,)


def test_unique_edges_match_sorted_unique():
    for mesh in (icosphere(2), _cap(40, 64)):
        expected = np.unique(np.sort(mesh.directed_edges(), axis=1), axis=0)
        assert np.array_equal(mesh.unique_edges(), expected)


# ---------------------------------------------------------------------------
# icosphere


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_icosphere_counts(r):
    m = icosphere(r)
    assert m.n_v == 10 * 4**r + 2
    assert m.n_f == 20 * 4**r


def test_icosphere_vertices_on_unit_sphere():
    verts = icosphere(3).vertices
    radii = np.linalg.norm(verts, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)


@pytest.mark.parametrize("r", range(7))
def test_icosphere_faces_point_outward(r):
    m = icosphere(r)
    p = m.vertices[m.faces]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.all(np.einsum("ij,ij->i", normals, p.mean(axis=1)) > 0.0)


def _icosphere_by_unique(refinements):
    """Vertices and faces of icosphere(refinements) as numbered with
    np.unique: each midpoint by the first use of its edge."""
    verts, faces = icosphere(0).vertices, icosphere(0).faces
    for _ in range(refinements):
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        keys = edges.min(axis=1) * len(verts) + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        ab, bc, ca = (len(verts) + np.argsort(order)[inverse]).reshape(-1, 3).T
        m = verts[edges[first[order]]].sum(axis=1)
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1).reshape(-1, 3)
    return verts, faces


@pytest.mark.parametrize("r", range(7))
def test_icosphere_matches_unique_reference(r):
    verts, faces = _icosphere_by_unique(r)
    m = icosphere(r)
    assert np.array_equal(m.vertices, verts)
    assert np.array_equal(m.faces, faces)


def test_icosphere_valid_closed_mesh():
    m = icosphere(2)
    assert m.is_closed
    assert m.n_v - len(m.unique_edges()) + m.n_f == 2


# ---------------------------------------------------------------------------
# metrics


def test_face_metrics_equilateral():
    """Unit-edge equilateral triangle: area sqrt(3)/4, rho_hat exactly 1."""
    m = single_triangle([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
    areas, normals, rho = face_metrics(m)
    assert areas[0] == pytest.approx(np.sqrt(3) / 4, rel=1e-14)
    np.testing.assert_allclose(normals[0], [0, 0, 1], atol=1e-14)
    assert abs(rho[0] - 1.0) <= 1e-12


def test_rho_hat_grows_for_needle_face():
    # a needle: circumradius blows up against the mean edge
    m = single_triangle([[0, 0, 0], [1, 0, 0], [0.5, 1e-5, 0]])
    _, _, rho = face_metrics(m)
    assert rho[0] > 100.0


def test_rho_hat_lower_bound(unit_sphere_2):
    _, _, rho = face_metrics(unit_sphere_2)
    # 1 is the equilateral minimum; allow only rounding below it
    assert rho.min() >= 1.0 - 1e-12
    assert rho.max() < 2.0


def test_voronoi_equilateral_thirds():
    m = single_triangle([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
    w = vertex_voronoi_areas(m)
    np.testing.assert_allclose(w, m.total_area() / 3.0, rtol=1e-12)


def test_voronoi_right_triangle_hand_values():
    """Right isoceles triangle, circumcenter at hypotenuse midpoint.

    The Voronoi cell of the right-angle vertex is the quarter square
    [0, .5]^2 (area 1/4); each acute vertex gets a 1/8 triangle.
    """
    m = single_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    w = vertex_voronoi_areas(m)
    np.testing.assert_allclose(w, [0.25, 0.125, 0.125], atol=1e-12)


def test_voronoi_conserves_total_area(unit_sphere_2):
    w = vertex_voronoi_areas(unit_sphere_2)
    assert w.sum() == pytest.approx(unit_sphere_2.total_area(), rel=1e-12)
    assert (w > 0).all()


def test_area_density_normalized(unit_sphere_2):
    u = area_density(unit_sphere_2)
    assert u.sum() == pytest.approx(1.0, rel=1e-12)


def collapsed_face_sphere():
    """icosphere(2) with the three corners of face 0 moved onto one point."""
    mesh = icosphere(2)
    v = mesh.vertices.copy()
    v[mesh.faces[0]] = v[mesh.faces[0, 0]]
    return mesh.with_vertices(v)


def test_collapsed_face_masses_stay_non_finite():
    # the Voronoi split of a zero-area face multiplies NaN cotangents; the
    # obtuse test must not read them as obtuse and split the face by its
    # zero area instead, which would make the masses finite
    mesh = collapsed_face_sphere()
    areas, _, _ = face_metrics(mesh)
    masses = vertex_voronoi_areas(mesh)
    flat = np.unique(mesh.faces[areas == 0.0])
    assert flat.size > 3
    assert np.array_equal(np.flatnonzero(~np.isfinite(masses)), flat)


def test_collapsed_face_density_raises():
    mesh = collapsed_face_sphere()
    with pytest.raises(ValueError, match="collapsed face"):
        area_density(mesh)
    with pytest.raises(ValueError, match="collapsed face"):
        quality_report(mesh)


def test_detect_normal_flips():
    m = tetrahedron()
    _, normals, _ = face_metrics(m)
    assert detect_normal_flips(m, normals).size == 0
    flipped = normals.copy()
    flipped[2] *= -1.0
    assert detect_normal_flips(m, flipped).tolist() == [2]


def test_detect_normal_flips_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"\(3, 3\) does not match 4 faces"):
        detect_normal_flips(tetrahedron(), np.zeros((3, 3)))


def test_compare_surfaces_identity(unit_sphere_2):
    d, a, b = compare_surfaces(unit_sphere_2, unit_sphere_2)
    assert d <= 1e-14
    assert a == b


def test_compare_surfaces_offset_spheres():
    ma = icosphere(3)
    mb = ma.with_vertices(ma.vertices * 1.1)
    d, _, _ = compare_surfaces(ma, mb)
    # concentric spheres 1.0 and 1.1: nearest-distance is about 0.1
    assert d == pytest.approx(0.1, rel=0.05)


@pytest.mark.parametrize(
    "point, expected",
    [
        ((-1.0, -1.0, 0.0), np.sqrt(2.0)),  # vertex region of (0, 0, 0)
        ((2.0, -1.0, 1.0), np.sqrt(3.0)),  # vertex region of (1, 0, 0)
        ((0.5, -2.0, 0.0), 2.0),  # edge region of the x-axis edge
        ((1.0, 1.0, 3.0), np.sqrt(9.5)),  # edge region of the hypotenuse
        ((0.25, 0.25, -0.7), 0.7),  # face interior
    ],
)
def test_point_triangle_distance_hand_values(point, expected):
    tri = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    d = _point_triangle_distance(np.array(point), tri)
    assert d == pytest.approx([expected], rel=1e-15)


def test_point_triangle_distance_zero_area_faces():
    tri = np.array(
        [
            [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # collinear
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],  # repeated vertex
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],  # a point
        ]
    )
    d = _point_triangle_distance(np.array([1.0, 1.0, 1.0]), tri)
    assert d == pytest.approx([np.sqrt(2.0), np.sqrt(2.0), 1.0], rel=1e-15)
    d = _point_triangle_distance(np.array([3.0, 0.0, 4.0]), tri)
    assert d == pytest.approx([np.sqrt(17.0), np.sqrt(13.0), np.sqrt(21.0)], rel=1e-15)


def test_quality_report_summary(unit_sphere_2, tmp_path):
    rep = quality_report(unit_sphere_2)
    assert rep.mean_rho_hat >= 1.0 - 1e-12
    assert rep.area_density.shape[0] == unit_sphere_2.n_v
    lines = rep.summary_lines()
    assert any("rho_hat" in ln for ln in lines)
    out = tmp_path / "quality.csv"
    rep.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0] == "kind,index,area,rho_hat,area_density"
    assert len(text) == 1 + unit_sphere_2.n_f + unit_sphere_2.n_v


# ---------------------------------------------------------------------------
# file round-trips


@pytest.mark.parametrize("ext", ["obj", "off", "ply"])
def test_mesh_roundtrip(tmp_path, ext):
    m = icosphere(1)
    path = tmp_path / f"sphere.{ext}"
    save_mesh(m, path)
    back = load_mesh(path)
    np.testing.assert_allclose(back.vertices, m.vertices, atol=1e-12)
    assert np.array_equal(back.faces, m.faces)


def test_load_mesh_rejects_garbage(tmp_path):
    from equimesh import FormatError

    path = tmp_path / "bad.obj"
    path.write_text("v 0 0\nf 1 2\n")
    with pytest.raises(FormatError):
        load_mesh(path)


def test_load_mesh_rejects_non_finite_vertex(tmp_path):
    path = tmp_path / "nan.obj"
    path.write_text(
        "v nan 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
    )
    with pytest.raises(ValueError, match="finite"):
        load_mesh(path)


# ---------------------------------------------------------------------------
# OFF and PLY files, accepted and rejected

_TET_V = "1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
_TET_F = "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
_OFF_TET = "OFF\n4 4 6\n" + _TET_V + _TET_F
_PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"
_PLY_FACE = "element face 4\nproperty list uchar int vertex_indices\nend_header\n"
_PLY_TET = ("ply\nformat ascii 1.0\nelement vertex 4\n" + _PLY_XYZ + _PLY_FACE
            + _TET_V + _TET_F)

# unit cube of outward quads, fan-triangulated on load
_CUBE_V = "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
_CUBE_QUADS = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
               (2, 3, 7, 6), (0, 4, 7, 3), (1, 2, 6, 5)]


def _cube():
    faces = [t for a, b, c, d in _CUBE_QUADS for t in ((a, b, c), (a, c, d))]
    return TriangleMesh(np.loadtxt(_CUBE_V.splitlines()), faces)


_ACCEPTED = {
    "plain.off": (_OFF_TET, tetrahedron),
    "counts_on_header.off": ("OFF 4 4 6\n" + _TET_V + _TET_F, tetrahedron),
    "headerless.off": ("4 4 6\n" + _TET_V + _TET_F, tetrahedron),
    "comments.off": (
        "# scanned grain\nOFF\n4 4 6  # counts\n\n"
        + _TET_V.replace("\n", "  # xyz\n", 1) + _TET_F,
        tetrahedron,
    ),
    "plain.ply": (_PLY_TET, tetrahedron),
    "extra_property.ply": (
        _PLY_TET.replace(_PLY_XYZ, "property float confidence\n" + _PLY_XYZ
                         + "property uchar red\n")
        .replace(_TET_V, "".join(f"0.5 {row} 7\n" for row in _TET_V.splitlines())),
        tetrahedron,
    ),
    "unknown_element_first.ply": (
        _PLY_TET.replace("element vertex", "comment made by a scanner\n"
                         "element material 2\nproperty float k\nelement vertex")
        .replace(_TET_V, "0.1\n0.2\n" + _TET_V),
        tetrahedron,
    ),
    "face_scalar_before_list.ply": (
        _PLY_TET.replace("property list", "property uchar flags\nproperty list")
        .replace(_TET_F, "".join(f"0 {row}\n" for row in _TET_F.splitlines())),
        tetrahedron,
    ),
    "quads.ply": (
        _PLY_TET.replace("vertex 4", "vertex 8").replace("face 4", "face 6")
        .replace(_TET_V + _TET_F, _CUBE_V + "".join(
            "4 %d %d %d %d\n" % q for q in _CUBE_QUADS)),
        _cube,
    ),
}


@pytest.mark.parametrize("name", list(_ACCEPTED))
def test_load_mesh_accepts(tmp_path, name):
    text, expected = _ACCEPTED[name]
    path = tmp_path / name
    path.write_text(text)
    got, want = load_mesh(path), expected()
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)


_REJECTED = {
    "truncated.off": _OFF_TET[: _OFF_TET.index("3 0 2 3")],
    "short_face_row.off": _OFF_TET.replace("3 1 3 2", "4 1 3 2"),
    "negative_index.off": _OFF_TET.replace("3 1 3 2", "3 1 -3 2"),
    "bad_counts.off": _OFF_TET.replace("4 4 6", "four 4 6"),
    "missing_counts.off": "OFF\n",
    "empty.off": "",
    "short_vertex_row.off": _OFF_TET.replace("1 1 1\n", "0 0\n"),
    "no_end_header.ply": _PLY_TET.replace("end_header\n", ""),
    "no_format.ply": _PLY_TET.replace("format ascii 1.0\n", ""),
    "property_first.ply": _PLY_TET.replace("element vertex",
                                           "property float w\nelement vertex"),
    "no_xyz.ply": _PLY_TET.replace(_PLY_XYZ, "property float a\n" * 3),
    "truncated.ply": _PLY_TET[: _PLY_TET.index("3 0 2 3")],
    "bad_face_row.ply": _PLY_TET.replace("3 1 3 2", "3 1 3"),
    "not_a_ply.ply": _PLY_TET.replace("ply\n", "plx\n", 1),
    "no_element_count.ply": _PLY_TET.replace("vertex 4", "vertex"),
    "bare_property.ply": _PLY_TET.replace("property float y", "property"),
    "word_count.ply": _PLY_TET.replace("vertex 4", "vertex four"),
    "vertex_list_before_xyz.ply": _PLY_TET.replace(
        _PLY_XYZ, "property list uchar float normal\n" + _PLY_XYZ
    ).replace(_TET_V, "".join(f"3 0 0 1 {row}\n" for row in _TET_V.splitlines())),
    # the face rows still name vertex 4 after its v line is gone
    "index_past_vertices.obj": "".join(f"v {row}\n" for row in _TET_V.splitlines()[:3])
    + "f 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n",
    "unknown_extension.stl": _OFF_TET,
    "two_index_face.obj": "v 1 1 1\nv 1 -1 -1\nv -1 1 -1\nf 1 2\n",
    # a binary format line over a text body
    "binary_header.ply": _PLY_TET.replace("format ascii", "format binary_little_endian"),
    "face_without_list.ply": _PLY_TET.replace("property list uchar int vertex_indices",
                                              "property int vertex_index"),
    # scanners write binary PLY; its float bytes are not UTF-8
    "binary.ply": (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        + _PLY_XYZ.encode() + b"end_header\n"
        + np.array([1.0, -0.5, 0.25], dtype="<f4").tobytes()
    ),
}


@pytest.mark.parametrize("name", list(_REJECTED))
def test_load_mesh_rejects(tmp_path, name):
    from equimesh import FormatError

    content = _REJECTED[name]
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(FormatError):
        load_mesh(path)


# ---------------------------------------------------------------------------
# contours


def test_contour_segment_lengths():
    c = Contour2D(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    np.testing.assert_allclose(c.segment_lengths(), 1.0)
    assert c.length() == pytest.approx(4.0)
    # a closed surface's rim is the empty ring
    assert ring_lengths(np.zeros((0, 3))).shape == (0,)


def test_contour_rejects_repeated_point():
    with pytest.raises(ValueError):
        Contour2D(np.array([[0, 0], [0, 0], [1, 1]], dtype=float))


def test_contour_rejects_non_finite_point():
    with pytest.raises(ValueError, match="finite"):
        Contour2D(np.array([[0, 0], [1, 0], [np.inf, 1]], dtype=float))
    with pytest.raises(ValueError, match="finite"):
        Contour2D(np.array([[0, 0], [1, 0], [1, np.nan]], dtype=float))


def test_open_contour_segment_lengths():
    c = Contour2D(np.array([[0, 0], [3, 0], [3, 4]], dtype=float), closed=False)
    np.testing.assert_allclose(c.segment_lengths(), [3.0, 4.0])
    assert c.length() == pytest.approx(7.0)


def test_contour_rejects_bad_shape():
    with pytest.raises(ValueError, match=r"\(n, 2\) array"):
        Contour2D(np.zeros((4, 3)))


def test_closed_contour_rejects_repeated_first_point():
    with pytest.raises(ValueError, match="must not repeat its first point"):
        Contour2D(np.array([[0, 0], [1, 0], [1, 1], [0, 0]], dtype=float))


def test_contour_rejects_too_few_points():
    with pytest.raises(ValueError):
        Contour2D(np.array([[0, 0], [1, 0]], dtype=float))


@pytest.mark.parametrize("n", [0, 1])
def test_open_contour_rejects_fewer_than_two_points(n):
    with pytest.raises(ValueError, match="open contour needs at least 2 points"):
        Contour2D(np.zeros((n, 2)), closed=False)
