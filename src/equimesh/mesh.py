"""Triangle meshes and planar contours: containers, file IO, quality measures.

`FaceGeometry` is the one pass from a vertex array to face edges, areas,
normals, masses and gradients, stored faces last; every measure reads it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateMeshError,
    FormatError,
    GuardError,
    TopologyError,
    naming,
    read_lines,
    row_values,
)

__all__ = [
    "TriangleMesh",
    "Contour2D",
    "FaceGeometry",
    "QualityReport",
    "load_mesh",
    "save_mesh",
    "icosphere",
    "mean_edge_length",
    "ring_lengths",
    "face_metrics",
    "vertex_voronoi_areas",
    "area_density",
    "detect_normal_flips",
    "compare_surfaces",
    "quality_report",
]

# ρ̂ sentinel reported for zero-area faces, one past the open upper bound of
# the valid range [1, 2).
DEGENERATE_RHO_HAT = 2.0

MAX_ICOSPHERE_REFINEMENTS = 8


class TriangleMesh:
    """Immutable oriented triangle mesh, checked once when it is built.

    Parameters
    ----------
    vertices : (n_v, 3) float array
    faces : (n_f, 3) int array
        Consistently oriented (counter-clockwise seen from outside).

    Raises
    ------
    ValueError
        Malformed arrays, non-finite coordinates, out-of-range indices, or
        degenerate faces.
    TopologyError
        Non-manifold edges, inconsistent orientation, or more than one
        boundary loop.
    """

    def __init__(self, vertices, faces):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        f = np.ascontiguousarray(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n_v, 3) array")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be an (n_f, 3) array")
        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f
        self._boundary_loop = self._validate()

    @property
    def n_v(self):
        return self.vertices.shape[0]

    @property
    def n_f(self):
        return self.faces.shape[0]

    def directed_edges(self):
        f = self.faces
        return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])

    def _validate(self):
        """The boundary loop, after the structural checks."""
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        f = self.faces
        if self.n_f == 0:
            return None
        if f.min() < 0 or f.max() >= self.n_v:
            raise ValueError("face index out of range")
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])):
            raise ValueError("degenerate face (repeated vertex index)")
        return _single_boundary_loop(self.directed_edges(), self.n_v)

    def boundary_loop(self):
        """Ordered vertex indices of the boundary, or None when closed."""
        return self._boundary_loop

    @property
    def is_closed(self):
        return self.boundary_loop() is None

    def unique_edges(self):
        """(n_e, 2) vertex pairs lo < hi, one per edge, in lexicographic order."""
        e = self.directed_edges()
        n = self.n_v
        key = np.sort(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
        key = key[_run_starts(key)]
        return np.column_stack([key // n, key % n])

    def mean_edge_length(self):
        return mean_edge_length(self.vertices, self.unique_edges())

    def total_area(self):
        return float(FaceGeometry(self.vertices, self.faces).areas.sum())

    def with_vertices(self, vertices):
        """Same connectivity, new vertex positions."""
        return TriangleMesh(vertices, self.faces)


def _run_starts(sorted_keys):
    """Flags over sorted keys: True where a run of equal keys starts.

    With a sort, this is np.unique without its hash path, which is many
    times slower than np.sort on int64 keys: sorted_keys[flags] are the
    unique keys, and cumsum(flags) - 1 numbers each key's run.
    """
    starts = np.ones(sorted_keys.shape, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _single_boundary_loop(edges, n_v):
    """The one loop of directed edges whose undirected edge has a single
    face, or None.

    TopologyError when a directed edge is used twice or when there is
    more than one loop. One sort serves both checks: the key of each edge
    is its undirected key with its direction in the lowest bit.
    """
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = (lo * n_v + hi) * 2 + (edges[:, 0] > edges[:, 1])
    ordered = np.sort(key)
    if not _run_starts(ordered).all():
        raise TopologyError(
            "non-manifold or inconsistently oriented edge "
            "(directed edge used twice)"
        )
    # an undirected edge of one face is a run of length one
    starts = _run_starts(ordered >> 1)
    single = ordered[starts & np.append(starts[1:], True)]
    if single.size == 0:
        return None
    # look each edge's key up among the single ones, keeping edge order
    at = np.minimum(np.searchsorted(single, key), single.size - 1)
    loops = _chain_loops(edges[single[at] == key])
    if len(loops) > 1:
        raise TopologyError(f"{len(loops)} boundary loops (at most one supported)")
    return loops[0]


def _chain_loops(boundary_edges):
    """Chain directed boundary edges into ordered loops.

    The edges come from a mesh that uses no directed edge twice, so every
    vertex starts as many boundary edges as it ends; with at most one
    outgoing edge per vertex, each chain returns to its start.
    """
    succ = {}
    for a, b in boundary_edges:
        a = int(a)
        if a in succ:
            raise TopologyError("non-manifold boundary vertex")
        succ[a] = int(b)
    loops = []
    remaining = dict(succ)
    while remaining:
        start = next(iter(remaining))
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            loop.append(cur)
            cur = remaining.pop(cur)
        loops.append(np.asarray(loop, dtype=np.int64))
    return loops


@dataclass
class Contour2D:
    """Closed or open planar polyline.

    points : (n, 2) float array, consecutive points distinct (cyclically for
    closed contours); closed contours need at least 3 points and do not
    repeat the first point at the end, open ones at least 2.
    """

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        p = np.ascontiguousarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if not np.isfinite(p).all():
            raise ValueError("contour points must be finite")
        if self.closed and p.shape[0] < 3:
            raise ValueError("closed contour needs at least 3 points")
        if p.shape[0] < 2:
            raise ValueError("open contour needs at least 2 points")
        d = np.linalg.norm(np.diff(p, axis=0), axis=1)
        if np.any(d == 0.0):
            raise ValueError("repeated consecutive point")
        if self.closed and np.linalg.norm(p[0] - p[-1]) == 0.0:
            raise ValueError("closed contour must not repeat its first point")
        self.points = p

    def segment_lengths(self):
        if self.closed:
            return ring_lengths(self.points)
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    def length(self):
        return float(self.segment_lengths().sum())


# ---------------------------------------------------------------------------
# file IO

def _mesh_format(path):
    fmt = Path(path).suffix.lower()[1:]
    if fmt not in ("obj", "off", "ply"):
        raise FormatError(f"cannot infer mesh format from {str(path)!r}")
    return fmt


def load_mesh(path):
    """Read an OBJ, OFF, or ascii-PLY triangle mesh; the extension names the format.

    Polygonal faces are fan-triangulated. Parse problems, a face index past
    the vertex list included, raise FormatError; connectivity problems
    raise TopologyError. Every message names the file.
    """
    parsers = {"obj": _parse_obj, "off": _parse_off, "ply": _parse_ply}
    vertices, polygons = parsers[_mesh_format(path)](path, read_lines(path))
    if not vertices:
        raise FormatError(f"{path}: mesh file contains no vertices")
    faces = []
    for number, poly in polygons:
        if len(poly) < 3:
            raise FormatError(f"{path}:{number}: face with fewer than 3 vertices")
        if min(poly) < 0 or max(poly) >= len(vertices):
            raise FormatError(
                f"{path}:{number}: face index out of range for {len(vertices)} vertices"
            )
        for k in range(1, len(poly) - 1):
            faces.append((poly[0], poly[k], poly[k + 1]))
    if not faces:
        raise FormatError(f"{path}: mesh file contains no faces")
    with naming(path):
        return TriangleMesh(np.asarray(vertices, dtype=float), np.asarray(faces))


def _parse_obj(path, lines):
    vertices, polygons = [], []
    for number, line in lines:
        key, *args = line.split()
        if key == "v":
            vertices.append(row_values(path, number, "vertex", args[:3], float, 3))
        elif key == "f":
            refs = [arg.split("/", 1)[0] for arg in args]
            indices = row_values(path, number, "face", refs, int)
            polygons.append((number, [i - 1 for i in indices]))
    return vertices, polygons


def _read_rows(path, lines, elements):
    """The vertices and (line number, polygon) pairs of a counted format
    (OFF, ascii PLY).

    `elements` lists (name, count, columns) in file order: each "vertex" row
    holds x, y, z at the three columns, each "face" row a count k at its
    column and then k indices, and the rows of any other element are
    skipped.
    """
    vertices, polygons = [], []
    for name, count, columns in elements:
        for _ in range(count):
            number, line = next(lines, (None, None))
            if line is None:
                raise FormatError(f"{path}: truncated {name} data")
            parts = line.split()
            if name == "vertex":
                width = max(columns) + 1
                row = row_values(path, number, "vertex", parts[:width], float, width)
                vertices.append([row[c] for c in columns])
            elif name == "face":
                head = parts[columns : columns + 1]
                (k,) = row_values(path, number, "face count", head, int, 1)
                indices = parts[columns + 1 : columns + 1 + k]
                poly = row_values(path, number, "face", indices, int, k)
                polygons.append((number, poly))
    return vertices, polygons


def _parse_off(path, lines):
    number, header = next(lines, (None, None))
    if header is None:
        raise FormatError(f"{path}: empty OFF file")
    # the counts follow "OFF" on the same line or the next, or open a
    # headerless file
    counts = header[3:] if header.upper().startswith("OFF") else header
    if not counts.strip():
        number, counts = next(lines, (number, ""))
    n_v, n_f = row_values(path, number, "OFF counts", counts.split()[:2], int, 2)
    elements = [("vertex", n_v, (0, 1, 2)), ("face", n_f, 0)]
    return _read_rows(path, lines, elements)


def _parse_ply(path, lines):
    if next(lines, (None, None))[1] != "ply":
        raise FormatError(f"{path}: not a PLY file")
    elements = []  # (name, count, [(is_list, property name)])
    fmt_seen = False
    for number, line in lines:
        key, *args = line.split()
        if key == "format":
            if not args or args[0] != "ascii":
                raise FormatError(f"{path}:{number}: only ascii PLY is supported")
            fmt_seen = True
        elif key == "element":
            (count,) = row_values(path, number, "PLY element", args[1:], int, 1)
            elements.append((args[0], count, []))
        elif key == "property":
            if not elements:
                raise FormatError(f"{path}:{number}: PLY property before any element")
            if not args:
                raise FormatError(f"{path}:{number}: PLY property line without a type")
            elements[-1][2].append((args[0] == "list", args[-1]))
        elif key == "end_header":
            break
    else:
        raise FormatError(f"{path}: PLY header missing end_header")
    if not fmt_seen:
        raise FormatError(f"{path}: PLY header missing format line")
    rows = []
    for name, count, props in elements:
        names = [prop for _, prop in props]
        # a list's length varies per row, so only the columns up to the
        # first list (its count included) have a fixed position
        fixed = next((k for k, (is_list, _) in enumerate(props) if is_list), len(props))
        columns = None
        if name == "vertex":
            if not {"x", "y", "z"} <= set(names[:fixed]):
                raise FormatError(
                    f"{path}: PLY vertex element lacks x/y/z before any list"
                )
            columns = [names.index(c) for c in "xyz"]
        elif name == "face":
            if fixed == len(props):
                raise FormatError(f"{path}: PLY face element has no index list")
            columns = fixed
        rows.append((name, count, columns))
    return _read_rows(path, lines, rows)


# header template, vertex-row prefix, face-row prefix, first vertex index
_LAYOUTS = {
    "obj": ("", "v ", "f ", 1),
    "off": ("OFF\n{n_v} {n_f} 0\n", "", "3 ", 0),
    "ply": (
        "ply\nformat ascii 1.0\nelement vertex {n_v}\nproperty double x\n"
        "property double y\nproperty double z\nelement face {n_f}\n"
        "property list uchar int vertex_indices\nend_header\n",
        "", "3 ", 0,
    ),
}


def save_mesh(mesh, path):
    """Write a mesh in the format its extension names; floats carry 17
    significant digits so loads round-trip."""
    header, v_prefix, f_prefix, base = _LAYOUTS[_mesh_format(path)]
    out = [header.format(n_v=mesh.n_v, n_f=mesh.n_f)]
    out.extend(f"{v_prefix}{x:.17g} {y:.17g} {z:.17g}\n"
               for x, y, z in mesh.vertices)
    out.extend(f"{f_prefix}{a} {b} {c}\n" for a, b, c in mesh.faces + base)
    Path(path).write_text("".join(out))


# ---------------------------------------------------------------------------
# icosphere

def _check_refinements(r):
    """The one sampling depth cap, of the icosphere and the cap grid alike."""
    if not (isinstance(r, (int, np.integer)) and 0 <= r <= MAX_ICOSPHERE_REFINEMENTS):
        raise GuardError(f"refinement {r} is outside [0, {MAX_ICOSPHERE_REFINEMENTS}]")


def icosphere(refinements):
    """Unit icosphere: icosahedron subdivided `refinements` times.

    Vertex/face counts are 10*4^r + 2 and 20*4^r. The seed faces wind
    outward and midpoint subdivision keeps their winding, so every face
    normal points outward.
    """
    _check_refinements(refinements)
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(refinements):
        # face edges ab, bc, ca as (lo, hi) pairs; each midpoint is
        # numbered by the first use of its edge
        ends = faces, np.roll(faces, -1, axis=1)
        lo, hi = np.minimum(*ends).ravel(), np.maximum(*ends).ravel()
        keys = lo * len(verts) + hi
        order = np.argsort(keys)
        starts = _run_starts(keys[order])
        first = np.minimum.reduceat(order, np.flatnonzero(starts))
        used = np.zeros(lo.shape, dtype=bool)
        used[first] = True
        number = len(verts) + np.cumsum(used) - 1
        mid = np.empty_like(lo)
        mid[order] = number[first][np.cumsum(starts) - 1]
        ab, bc, ca = mid.reshape(-1, 3).T
        m = verts[lo[used]] + verts[hi[used]]
        # the batched row dot rounds as np.linalg.norm does on one row
        m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1).reshape(-1, 3)
    return TriangleMesh(verts, faces)


# ---------------------------------------------------------------------------
# per-face and per-vertex measures

def mean_edge_length(points, edges):
    """Mean length of the (n_e, 2) vertex-pair `edges` over `points`."""
    d = points[edges[:, 0]] - points[edges[:, 1]]
    return float(np.mean(np.linalg.norm(d, axis=1)))


def ring_lengths(points):
    """Segment lengths of the closed polyline through `points`, from each
    point to the next; empty for no points."""
    return np.linalg.norm(np.diff(points, axis=0, append=points[:1]), axis=1)


class FaceGeometry:
    """One geometry pass over a vertex array with fixed faces, faces last.

    edges[k, c] is component c of the edge opposite corner k and normals[c]
    that of the unit normals (zero on zero-area faces), each one contiguous
    row over the faces, which every product here and in the operators
    reads by component. Areas are per face and masses per vertex; the hat
    gradients n x e_k / 2A are built only on request.
    """

    def __init__(self, points, faces):
        self.points = points
        self.faces = faces
        # one (3, n_f) gather per corner, every temporary a third of the
        # block or less, freed before the products: e_k = p_{k-1} - p_{k+1}
        turned = np.ascontiguousarray(points.T)
        corners = [np.take(turned, corner, axis=1) for corner in faces.T]
        self.edges = np.empty((3, 3, len(faces)))
        for k in range(3):
            np.subtract(corners[k - 1], corners[k - 2], out=self.edges[k])
        del turned, corners
        cross = _cross(self.edges[1], self.edges[2])
        self.double_area = np.sqrt(_inner(cross, cross))
        self.areas = 0.5 * self.double_area
        self.normals = np.divide(cross, self.double_area, where=self.double_area > 0.0,
                                 out=np.zeros_like(cross))
        self.masses = _voronoi_masses(faces, len(points), self.edges, self.double_area)

    def hat_gradients(self):
        """(n_f, 3, 3): [f, k] is the gradient of corner k's hat function
        on face f, after checking that every face still has area."""
        if np.any(self.areas <= 0.0):
            raise DegenerateMeshError("degenerate face in gradient operator")
        return (_cross(self.normals, self.edges) / self.double_area).transpose(2, 0, 1)

    def density(self):
        """Normalized vertex area density u = A_i / sum(A)."""
        total = self.masses.sum()
        # an engine failure (exit 4); `area_density` checks a caller's mesh
        # and raises a plain ValueError (bad input, exit 2) instead
        if not total > 0.0:
            raise DegenerateMeshError("mesh has no area or a collapsed face")
        return self.masses / total

    def vertex_gradients(self, u):
        """(n_v, 3) area-weighted average of the face gradients around each vertex."""
        index, n_v = self.faces.ravel(), self.points.shape[0]
        # 2A times the face gradient is n x sum_k u_k e_k
        edge_sum = sum(e_k * u_k for e_k, u_k in zip(self.edges, u[self.faces.T]))
        total = np.bincount(index, weights=np.repeat(self.double_area, 3), minlength=n_v)
        return np.column_stack([
            np.bincount(index, weights=np.repeat(row, 3), minlength=n_v)
            for row in _cross(self.normals, edge_sum)
        ]) / total[:, None]


def _inner(a, b):
    """Dot products of faces-last vectors, components on axis -2."""
    return (a[..., 0, :] * b[..., 0, :] + a[..., 1, :] * b[..., 1, :]
            + a[..., 2, :] * b[..., 2, :])


def _cross(a, b):
    """Cross products of faces-last vectors, components on axis -2."""
    (ax, ay, az), (bx, by, bz) = np.moveaxis(a, -2, 0), np.moveaxis(b, -2, 0)
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=-2)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _voronoi_masses(f, n_v, edges, double_area):
    """Mixed-Voronoi vertex masses from the faces-last edges e_k opposite
    each corner k.

    The Voronoi split multiplies the raw cotangents, so the corners of a
    zero-area face get non-finite masses, which callers check.
    """
    # the cotangent at corner k is e_{k+1} . -e_{k+2} / 2A
    e0, e1, e2 = edges
    cot = np.stack([_inner(e1, e2), _inner(e2, e0), _inner(e0, e1)]) / -double_area
    # edge k gives |e_k|^2 cot_k / 8 to each of its two ends
    half = _inner(edges, edges) * cot / 8.0
    contrib = half[[1, 2, 0]] + half[[2, 0, 1]]
    # an obtuse face gives half its area to the obtuse corner and a
    # quarter to the others; NaN < 0 is false, so a face collapsed to a
    # point keeps its NaN split
    obtuse = cot < 0.0
    contrib = np.where(obtuse.any(axis=0), 0.125 * double_area * (1.0 + obtuse), contrib)
    # bincount sums in index order, as np.add.at would, only faster
    return np.bincount(f.ravel(), weights=contrib.T.ravel(), minlength=n_v)


def face_metrics(mesh):
    """Per-face areas, unit normals, and normalized circumradius.

    The normalized circumradius rho_hat = circumradius * sqrt(3) / mean side
    is 1 for equilateral triangles and approaches 2 as a triangle collapses;
    zero-area faces get the sentinel value 2 and a zero normal.

    Returns
    -------
    areas : (n_f,) float
    normals : (n_f, 3) float
    rho_hat : (n_f,) float
    """
    geometry = FaceGeometry(mesh.vertices, mesh.faces)
    a, b, c = np.sqrt(_inner(geometry.edges, geometry.edges))
    ok = geometry.double_area > 0.0
    rho_hat = np.full(mesh.n_f, DEGENERATE_RHO_HAT)
    a_avg = (a + b + c) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = a * b * c / (4.0 * geometry.areas)
        rho_hat[ok] = circum[ok] * np.sqrt(3.0) / a_avg[ok]
    return geometry.areas, geometry.normals.T, rho_hat


def vertex_voronoi_areas(mesh):
    """Per-vertex area mass under the mixed Voronoi rule.

    Non-obtuse triangles are split by the true Voronoi (circumcentric) cells;
    obtuse triangles give half their area to the obtuse corner and a quarter
    to each other corner, which keeps every contribution positive. The masses
    always sum to the total surface area.
    """
    return FaceGeometry(mesh.vertices, mesh.faces).masses


def area_density(mesh):
    """Normalized per-vertex area density u = A_i / sum(A); sums to 1."""
    masses = vertex_voronoi_areas(mesh)
    total = masses.sum()
    # a zero-area face makes the total NaN; bad input, not the engine
    # error of FaceGeometry.density(), so `equimesh metrics` exits 2
    if not (total > 0.0 and np.isfinite(total)):
        raise ValueError("mesh has no area or a collapsed face")
    return masses / total


def detect_normal_flips(mesh, reference_normals):
    """Indices of faces whose normal reversed against a reference set."""
    ref = np.asarray(reference_normals, dtype=float)
    if ref.shape != (mesh.n_f, 3):
        raise ValueError(
            f"reference normals shape {ref.shape} does not match {mesh.n_f} faces"
        )
    normals = FaceGeometry(mesh.vertices, mesh.faces).normals
    return np.nonzero(_inner(normals, ref.T) < 0.0)[0]


# ---------------------------------------------------------------------------
# surface-to-surface distance

def _point_triangle_distance(point, tri):
    """Distances from one point to each triangle in tri ((k,3,3) array).

    The nearest point is the foot of the perpendicular on the plane when
    its barycentric weights lie in [0, 1], and on one of the three edges
    otherwise. A zero-area face has NaN weights and takes the edge branch.
    Both candidates are points of the triangle, so the smaller distance is
    exact even where round-off misjudges the weights of a sliver face.
    """
    a, ab, ac = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    ap = point - a
    d00, d01, d11 = _dot(ab, ab), _dot(ab, ac), _dot(ac, ac)
    d0p, d1p = _dot(ab, ap), _dot(ac, ap)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = d00 * d11 - d01 * d01
        v = (d11 * d0p - d01 * d1p) / det
        w = (d00 * d1p - d01 * d0p) / det
        inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0)
    # edge i runs from vertex i to vertex i - 1; a zero-length edge is a point
    edge, to_point = np.roll(tri, 1, axis=1) - tri, point - tri
    length2 = _dot(edge, edge)
    t = np.divide(_dot(to_point, edge), length2, out=np.zeros_like(length2),
                  where=length2 > 0.0)
    along = np.clip(t, 0.0, 1.0)[..., None] * edge
    dist = np.linalg.norm(to_point - along, axis=2).min(axis=1)
    foot = ap[inside] - v[inside, None] * ab[inside] - w[inside, None] * ac[inside]
    dist[inside] = np.minimum(dist[inside], np.linalg.norm(foot, axis=1))
    return dist


def _dot(x, y):
    """Dot products over the last axis."""
    return np.einsum("...j,...j->...", x, y)


def _mean_distance_to_surface(points, target):
    tri = target.vertices[target.faces]
    centroids = tri.mean(axis=1)
    spread = np.max(np.linalg.norm(tri - centroids[:, None, :], axis=2), axis=1)
    r_max = float(spread.max())
    tree = cKDTree(centroids)
    d_centroid, nearest = tree.query(points)
    dists = np.empty(points.shape[0])
    for i, point in enumerate(points):
        # exact distance to the nearest-centroid face bounds the search radius
        upper = _point_triangle_distance(point, tri[nearest[i]][None, :, :])[0]
        candidates = tree.query_ball_point(point, upper + r_max + 1e-12)
        dists[i] = _point_triangle_distance(point, tri[candidates]).min()
    return float(dists.mean())


def compare_surfaces(mesh_a, mesh_b):
    """Symmetric mean vertex-to-surface distance plus both total areas.

    Returns
    -------
    mean_distance : float
        Average of (mean distance from A's vertices to surface B) and the
        reverse direction.
    area_a, area_b : float
    """
    d_ab = _mean_distance_to_surface(mesh_a.vertices, mesh_b)
    d_ba = _mean_distance_to_surface(mesh_b.vertices, mesh_a)
    return 0.5 * (d_ab + d_ba), mesh_a.total_area(), mesh_b.total_area()


# ---------------------------------------------------------------------------
# quality report

@dataclass
class QualityReport:
    """Per-face and per-vertex quality measures with summary statistics."""

    face_areas: np.ndarray
    rho_hat: np.ndarray
    area_density: np.ndarray
    std_u: float
    mean_rho_hat: float
    hist_rho_hat: tuple

    def to_csv(self, path):
        """One row per face (area, rho_hat) and per vertex (area_density)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "index", "area", "rho_hat", "area_density"])
            for i, (area, rho) in enumerate(zip(self.face_areas, self.rho_hat)):
                writer.writerow(["face", i, f"{area:.17g}", f"{rho:.17g}", ""])
            for i, u in enumerate(self.area_density):
                writer.writerow(["vertex", i, "", "", f"{u:.17g}"])

    def summary_lines(self):
        lines = [
            f"vertices {self.area_density.shape[0]} faces {self.face_areas.shape[0]}",
            f"std area density  {self.std_u:.6e}",
            f"mean rho_hat      {self.mean_rho_hat:.6f}",
            "rho_hat histogram:",
        ]
        edges, counts = self.hist_rho_hat
        for lo, hi, n in zip(edges[:-1], edges[1:], counts):
            lines.append(f"  [{lo:.3f}, {hi:.3f}): {n}")
        return lines


def quality_report(mesh, bins=16):
    areas, _, rho_hat = face_metrics(mesh)
    u = area_density(mesh)
    hist_rho = np.histogram(rho_hat, bins=bins, range=(1.0, 2.0))
    return QualityReport(
        face_areas=areas,
        rho_hat=rho_hat,
        area_density=u,
        std_u=float(u.std()),
        mean_rho_hat=float(rho_hat.mean()),
        hist_rho_hat=(hist_rho[1], hist_rho[0]),
    )
