"""Discrete differential operators on the evolving manifold mesh.

One kernel serves every operator. It reads the faces-last rows of
`mesh.FaceGeometry` by component, and `stretch_directors` adds the stretch.
`MeshTopology` fixes the CSR pattern of the weak-form operator
L = -sum_f A_f g_k^T D_f g_l (g_k = n x e_k / 2A) once per connectivity and
fills it face by face from the edges (D = I when isotropic); it finds L's
diagonal slots once too, for the implicit step's matrix in that pattern.
The public operators wrap this kernel. Rates are capped at ALPHA_CAP; the
SVD-based per-face reference they are checked against lives in the tests.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateMeshError
from .mesh import FaceGeometry, _cross, _inner, _run_starts, vertex_voronoi_areas
from .solver import StepMatrix

__all__ = [
    "ALPHA_CAP",
    "COLLAPSE_RATIO",
    "MeshTopology",
    "stretch_directors",
    "gradient_operator",
    "vertex_mass_matrix",
    "laplacian_iso",
    "laplacian_aniso",
    "max_diffusion_rate",
]

ALPHA_CAP = 1e4
COLLAPSE_RATIO = 1e-8


def _rates(ratio, gamma):
    """Rates damping along (alpha1) and amplifying across (alpha2) the stretch,
    each within [1/ALPHA_CAP, ALPHA_CAP]."""
    log_cap = np.log(ALPHA_CAP)
    alpha1 = np.exp(np.maximum((1.0 - ratio) / gamma, -log_cap))
    alpha2 = np.exp(np.minimum((1.0 - 1.0 / ratio) * gamma, log_cap))
    return alpha1, alpha2


def stretch_directors(geometry, gamma):
    """Per-face stretch of a `FaceGeometry`: (w, alpha1, alpha2, alpha_max).

    On in-plane gradients D = alpha2 v1 v1^T + alpha1 v2 v2^T + n n^T is
    alpha1 I plus a rank-one term along v2 = n x v1, so w[k, f] = e_k . v2
    and the rates define it. sigma1 and v1 come from the in-plane Gram
    matrix of the centred corners, a third of sum_k e_k e_k^T;
    sigma2 = 2A / (sqrt(3) sigma1) has no cancellation.
    """
    edges = geometry.edges
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = edges[2] / np.sqrt(_inner(edges[2], edges[2]))
        x = _inner(edges, t1)
        y = _inner(edges, _cross(geometry.normals, t1))
        sxx, syy, sxy = ((a * b).sum(0) / 3 for a, b in ((x, x), (y, y), (x, y)))
        half_gap = 0.5 * (sxx - syy)
        sigma1 = np.sqrt(0.5 * (sxx + syy) + np.hypot(half_gap, sxy))
        sigma2 = geometry.double_area / (np.sqrt(3.0) * sigma1)
    # written so that NaN from a collapsed face also trips it
    if not np.all(sigma2 >= COLLAPSE_RATIO * sigma1):
        raise DegenerateMeshError("collapsed face in director computation")
    theta = 0.5 * np.arctan2(sxy, half_gap)
    # v1 = cos t1 + sin t2, so v2 = cos t2 - sin t1
    w = np.cos(theta) * y - np.sin(theta) * x
    alpha1, alpha2 = _rates(sigma1 / sigma2, gamma)
    return w, alpha1, alpha2, float(np.maximum(alpha1, alpha2).max())


class MeshTopology:
    """CSR pattern of L for one connectivity, and the implicit step's
    S = M - dt L in it (`step_matrix`), both found once.

    scatter maps the corner pairs (k, l) of every face f, in (k, l, f)
    order, to their slots in L.data, as int32: L has fewer than 2^31
    entries at any refinement the sampler allows."""

    def __init__(self, faces, n_v):
        self.n_v = n_v
        # the key row * n_v + column of each corner pair, written pair by
        # pair into one array; each temporary below is freed once read
        keys = np.empty((9, len(faces)), dtype=np.int64)
        for i, (k, l) in enumerate(np.ndindex(3, 3)):
            np.multiply(faces[:, k], n_v, out=keys[i])
            keys[i] += faces[:, l]
        keys = keys.ravel()
        order = np.argsort(keys)
        ordered = keys[order]
        del keys
        starts = _run_starts(ordered)
        keys = ordered[starts]
        del ordered
        rank = np.cumsum(starts, dtype=np.int32) - 1
        self.scatter = np.empty_like(rank)
        self.scatter[order] = rank
        del order, starts, rank
        # L[i, i] is where the pairs (k, k) of vertex i's faces land
        diagonal = np.zeros(n_v, dtype=np.intp)
        diagonal[faces.T] = self.scatter.reshape(3, 3, -1)[[0, 1, 2], [0, 1, 2]]
        self.step_matrix = StepMatrix(
            keys % n_v, np.searchsorted(keys, np.arange(n_v + 1) * n_v), diagonal)
        # S's pattern in scipy's own index dtype: each L shares it uncopied
        S = self.step_matrix.matrix
        self.indices, self.indptr = S.indices, S.indptr

    def laplacian(self, geometry, directors=None):
        """L = -sum_f A_f g_k^T D_f g_l, D = I without directors; -L is PSD.
        Blocks -(alpha1 e_k.e_l + (alpha2 - alpha1) w_k w_l) / 4A are exactly
        symmetric; alpha1 = 1, w = 0 give the cotangent weights."""
        if np.any(geometry.areas <= 0.0):
            raise DegenerateMeshError("degenerate face in weak-form operator")
        blocks = np.einsum("kcf,lcf->klf", geometry.edges, geometry.edges)
        if directors is not None:
            w, alpha1, alpha2, _ = directors
            blocks *= alpha1
            lift = alpha2 - alpha1
            # one (3, n_f) row of w_k w_l lift at a time, not a (3, 3, n_f) block
            for k in range(3):
                blocks[k] += w[k] * w * lift
        blocks *= -0.25 / geometry.areas
        # an edge's two faces add up the same in L[i, j] and L[j, i]
        data = np.bincount(self.scatter, weights=blocks.ravel(),
                           minlength=self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_v, self.n_v))


def gradient_operator(mesh):
    """Sparse (3*n_f, n_v) map from vertex scalars to per-face gradients.

    Rows 3f..3f+2 hold the Cartesian gradient of the piecewise-linear
    interpolant on face f. Constant fields map to zero by construction.
    """
    grads = FaceGeometry(mesh.vertices, mesh.faces).hat_gradients()
    n_f = grads.shape[0]
    # row 3f + c: component c of the three corner gradients of face f
    return sp.csr_matrix(
        (grads.transpose(0, 2, 1).ravel(), np.repeat(mesh.faces, 3, axis=0).ravel(),
         np.arange(0, 9 * n_f + 1, 3)),
        shape=(3 * n_f, mesh.vertices.shape[0]),
    )


def vertex_mass_matrix(mesh):
    """Diagonal (n_v, n_v) of Voronoi vertex areas; trace = total area."""
    return sp.diags(vertex_voronoi_areas(mesh), format="csr")


def laplacian_iso(mesh):
    """Weak-form Laplace-Beltrami: L = -G^T A G.

    Symmetric with zero row sums; -L is positive semidefinite. Entrywise
    this is the half-cotangent-weight matrix.
    """
    return laplacian_aniso(mesh, 0.0)


def _check_gamma(gamma):
    """The one rule for the anisotropy gamma: finite and nonnegative, else
    ValueError; a chained comparison is false for NaN, so NaN fails it."""
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and nonnegative")


def laplacian_aniso(mesh, gamma):
    """Anisotropic weak-form operator L = -G^T D A G.

    gamma = 0 is the isotropic operator (all rates clamp to 1, D = I).
    """
    _check_gamma(gamma)
    geometry = FaceGeometry(mesh.vertices, mesh.faces)
    directors = stretch_directors(geometry, gamma) if gamma > 0.0 else None
    return MeshTopology(mesh.faces, mesh.n_v).laplacian(geometry, directors)


def max_diffusion_rate(mesh, gamma):
    """Largest per-face diffusion rate max(alpha1, alpha2); 1 when gamma=0."""
    _check_gamma(gamma)
    if gamma == 0.0:
        return 1.0
    return stretch_directors(FaceGeometry(mesh.vertices, mesh.faces), gamma)[3]
