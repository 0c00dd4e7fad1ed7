"""Spheroidal coordinate charts: forward/inverse maps, domain fitting, sampling.

A spheroid shell is parameterized by (eta, phi) at a fixed radial coordinate
zeta0. Oblate and prolate families, and the planar ellipse chart of
`contour2d`, share one focal-distance rule (`focal_chart`) and one
complex-arccosh inversion (`confocal_inverse`). The hemispheroidal
variants restrict eta to the upper half range and keep a small offset
between sampling points and the open rim.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FoldError, GuardError, SingularityError, TopologyError
from .mesh import MAX_ICOSPHERE_REFINEMENTS, _check_refinements, icosphere

__all__ = [
    "OBLATE",
    "PROLATE",
    "OBLATE_HEMISPHEROID",
    "PROLATE_HEMISPHEROID",
    "KINDS",
    "SpheroidDomain",
    "CurvilinearCoords",
    "wrap_angle",
    "focal_chart",
    "confocal_inverse",
    "forward_coords",
    "inverse_coords",
    "pullback",
    "xi_of_eta",
    "fit_domain",
    "align_to_principal_axes",
    "map_to_domain",
    "surface_normals",
    "sample_icosphere",
    "cap_grid_size",
    "sample_cap_grid",
]

OBLATE = "oblate"
PROLATE = "prolate"
OBLATE_HEMISPHEROID = "oblate-hemispheroid"
PROLATE_HEMISPHEROID = "prolate-hemispheroid"
KINDS = (OBLATE, PROLATE, OBLATE_HEMISPHEROID, PROLATE_HEMISPHEROID)

# relative semi-axis gap below which a shape counts as a sphere (a contour
# as a circle) and the focal distance is floored at 5% of the larger radius
SPHERE_GAP = 1e-3
SPHERE_FOCAL_FRACTION = 0.05

# eta offset between the rim ring of a cap grid and the open edge
_RIM_OFFSET = 1e-3
# |zeta| below which a point counts as on the focal set
_SINGULAR_ZETA = 1e-8
# eta and phi gap below which two mapped vertices count as collapsed
_COLLAPSE_GAP = 1e-8


@dataclass(frozen=True)
class SpheroidDomain:
    """A confocal spheroid family member: kind, focal distance, shell radius."""

    kind: str
    e: float
    zeta0: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown spheroid kind {self.kind!r}")
        if not (self.e > 0.0 and np.isfinite(self.e)):
            raise ValueError("focal distance e must be positive and finite")
        if not (self.zeta0 > 0.0 and np.isfinite(self.zeta0)):
            raise ValueError("shell coordinate zeta0 must be positive and finite")

    @property
    def is_hemispheroid(self):
        return self.kind in (OBLATE_HEMISPHEROID, PROLATE_HEMISPHEROID)

    @property
    def is_oblate_family(self):
        return self.kind in (OBLATE, OBLATE_HEMISPHEROID)

    @property
    def eta_range(self):
        """Closed eta interval of the chart."""
        if self.kind == OBLATE:
            return (-np.pi / 2.0, np.pi / 2.0)
        if self.kind == PROLATE:
            return (0.0, np.pi)
        return (0.0, np.pi / 2.0)

    def semi_axes(self):
        """(equatorial, polar) radii of the shell."""
        if self.is_oblate_family:
            return self.e * np.cosh(self.zeta0), self.e * np.sinh(self.zeta0)
        return self.e * np.sinh(self.zeta0), self.e * np.cosh(self.zeta0)


@dataclass
class CurvilinearCoords:
    """Per-vertex surface coordinates (eta, phi) bound to a domain."""

    eta: np.ndarray
    phi: np.ndarray
    domain: SpheroidDomain

    def __post_init__(self):
        eta = np.ascontiguousarray(self.eta, dtype=np.float64)
        phi = np.ascontiguousarray(self.phi, dtype=np.float64)
        if eta.shape != phi.shape or eta.ndim != 1:
            raise ValueError("eta and phi must be matching 1-D arrays")
        lo, hi = self.domain.eta_range
        tol = 1e-9
        if eta.size and (eta.min() < lo - tol or eta.max() > hi + tol):
            raise ValueError(
                f"eta outside [{lo:.6f}, {hi:.6f}] for kind {self.domain.kind!r}"
            )
        if phi.size and (phi.min() < -tol or phi.max() >= 2.0 * np.pi + tol):
            raise ValueError("phi must lie in [0, 2*pi)")
        eta.setflags(write=False)
        phi.setflags(write=False)
        self.eta = eta
        self.phi = phi

    @property
    def n(self):
        return self.eta.shape[0]


def wrap_angle(angle):
    """Angles wrapped to [0, 2*pi)."""
    angle = np.mod(angle, 2.0 * np.pi)
    # mod can return 2*pi for tiny negative inputs
    angle[angle >= 2.0 * np.pi] = 0.0
    return angle


def focal_chart(big, small):
    """(e, zeta0) of the confocal shell whose semi-axes are big >= small.

    The ellipse and spheroid charts share this: a shape within SPHERE_GAP
    of round (a sphere, a circle) gets the focal distance floored at
    SPHERE_FOCAL_FRACTION of big, which stays exact, so the chart stays
    nondegenerate.
    """
    if (big - small) / big < SPHERE_GAP:
        e = SPHERE_FOCAL_FRACTION * big
        return e, float(np.arccosh(big / e))
    return float(np.sqrt(big * big - small * small)), float(np.arctanh(small / big))


def confocal_inverse(u, v, e):
    """(zeta, eta) with u + i*v = e*cosh(zeta + i*eta), by complex arccosh.

    u runs along the focal axis. Points with |zeta| below 1e-8 lie on the
    focal set, where eta is ambiguous, and raise SingularityError.
    """
    w = np.arccosh((u + 1j * v) / e)
    zeta = np.real(w)
    if np.any(np.abs(zeta) < _SINGULAR_ZETA):
        raise SingularityError(
            "point lies on the singular focal set (zeta below tolerance); "
            "eta is ambiguous there"
        )
    return zeta, np.imag(w)


def forward_coords(domain, eta, phi):
    """Map (eta, phi) on the shell zeta = zeta0 to 3-space.

    Returns an (n, 3) array.
    """
    eta = np.asarray(eta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a, c = domain.semi_axes()
    if domain.is_oblate_family:
        rho, z = a * np.cos(eta), c * np.sin(eta)
    else:
        rho, z = a * np.sin(eta), c * np.cos(eta)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def inverse_coords(domain, points):
    """Analytic inversion of the spheroidal chart.

    Points with |zeta| below 1e-8 lie on the focal set, where eta is
    ambiguous, and raise SingularityError.

    Parameters
    ----------
    domain : SpheroidDomain
    points : (n, 3) array

    Returns
    -------
    zeta, eta, phi : 1-D arrays; phi wrapped to [0, 2*pi).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho = np.hypot(x, y)
    if domain.is_oblate_family:
        zeta, eta = confocal_inverse(rho, z, domain.e)
    else:
        zeta, eta = confocal_inverse(z, rho, domain.e)
    return zeta, eta, wrap_angle(np.arctan2(y, x))


def pullback(domain, points):
    """Project 3-space points radially (in zeta) onto the shell zeta = zeta0."""
    _, eta, phi = inverse_coords(domain, points)
    lo, hi = domain.eta_range
    eta = np.clip(eta, lo, hi)
    return CurvilinearCoords(eta=eta, phi=phi, domain=domain)


def xi_of_eta(domain, eta):
    """Substitution variable feeding the Legendre basis.

    oblate: sin(eta); prolate: cos(eta); oblate hemispheroid: 2*sin(eta)-1;
    prolate hemispheroid: 1-cos(eta).
    """
    eta = np.asarray(eta, dtype=float)
    if domain.kind == OBLATE:
        return np.sin(eta)
    if domain.kind == PROLATE:
        return np.cos(eta)
    if domain.kind == OBLATE_HEMISPHEROID:
        return 2.0 * np.sin(eta) - 1.0
    return 1.0 - np.cos(eta)


def surface_normals(domain, points):
    """Outward unit normals of the shell at its (n, 3) points, as
    `forward_coords` returns them; pole-safe."""
    a, c = domain.semi_axes()
    n = np.asarray(points, dtype=float) / np.array([a * a, a * a, c * c])
    norm = np.linalg.norm(n, axis=1)
    norm[norm == 0.0] = 1.0
    return n / norm[:, None]


# ---------------------------------------------------------------------------
# fitting

def align_to_principal_axes(mesh):
    """Center a mesh on its vertex centroid and rotate principal axes onto x/y/z.

    The axis whose variance is most separated from the other two (the
    spheroid symmetry axis) goes to z. Determinant of the rotation is kept
    positive so orientation is preserved.
    """
    v = mesh.vertices - mesh.vertices.mean(axis=0)
    cov = v.T @ v / v.shape[0]
    evals, evecs = np.linalg.eigh(cov)  # ascending
    # the eigenvalue most separated from the other two marks the symmetry axis
    if evals[2] - evals[1] >= evals[1] - evals[0]:
        order = [1, 0, 2]  # largest isolated -> prolate-like, its axis to z
    else:
        order = [2, 1, 0]  # smallest isolated -> oblate-like, its axis to z
    R = evecs[:, order]
    if np.linalg.det(R) < 0:
        R = R.copy()
        R[:, 0] = -R[:, 0]
    return mesh.with_vertices(v @ R)


def fit_domain(mesh, kind_hint=None):
    """Fit a spheroidal domain to a centered, axis-aligned TriangleMesh.

    Semi-axes come from vertex extents: a = max cylindrical radius,
    c = half the z extent (full extent for hemispheroids, whose rim is
    expected near the z = 0 plane). Near-spheres get the focal floor of
    `focal_chart`. `kind_hint` may force one of
    the four kinds or the value "hemispheroid" (family chosen from extents);
    open meshes require a hemispheroidal hint.
    """
    pts = mesh.vertices
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points to fit a spheroid")
    hemis = kind_hint in ("hemispheroid", OBLATE_HEMISPHEROID, PROLATE_HEMISPHEROID)
    if not hemis and kind_hint not in (None, OBLATE, PROLATE):
        raise ValueError(f"unknown kind hint {kind_hint!r}")
    if not hemis and not mesh.is_closed:
        raise TopologyError(
            "open surface: fitting requires a hemispheroidal kind hint"
        )

    a = float(np.hypot(pts[:, 0], pts[:, 1]).max())
    if hemis:
        c = float(pts[:, 2].max() - pts[:, 2].min())
    else:
        c = float((pts[:, 2].max() - pts[:, 2].min()) / 2.0)
    if a <= 0.0 or c <= 0.0:
        raise ValueError("degenerate extents: surface has no volume")

    if kind_hint in (OBLATE, OBLATE_HEMISPHEROID):
        family = "oblate"
    elif kind_hint in (PROLATE, PROLATE_HEMISPHEROID):
        family = "prolate"
    else:
        family = "oblate" if a >= c else "prolate"

    big, small = (a, c) if family == "oblate" else (c, a)
    if (small - big) / big >= SPHERE_GAP:
        raise ValueError(
            f"extents (a={a:.6g}, c={c:.6g}) are inconsistent with a "
            f"{family} domain"
        )
    e, zeta0 = focal_chart(big, small)
    if family == "oblate":
        kind = OBLATE_HEMISPHEROID if hemis else OBLATE
    else:
        kind = PROLATE_HEMISPHEROID if hemis else PROLATE
    return SpheroidDomain(kind=kind, e=e, zeta0=zeta0)


# ---------------------------------------------------------------------------
# mapping a mesh onto the shell

def _parameter_orientation_sign(domain):
    # d(surface)/d(eta) x d(surface)/d(phi) points inward for the oblate
    # chart and outward for the prolate chart, so outward-oriented faces map
    # to clockwise parameter triangles on oblates.
    return -1.0 if domain.is_oblate_family else 1.0


def map_to_domain(mesh, domain):
    """Hyperbolic projection of mesh vertices onto the shell.

    Every vertex keeps only (eta, phi). A pole face has a vertex within
    1e-9 of a pole or wraps a pole: its phi steps around the three edges,
    each wrapped to [-pi, pi), sum to +-2 pi. Raises FoldError when a non-pole
    parameter triangle reverses orientation (the projection folded) and
    ValueError when two vertices collapse onto the same parameter point.
    """
    coords = pullback(domain, mesh.vertices)
    eta, phi = coords.eta, coords.phi

    # collapse check
    order = np.lexsort((phi, eta))
    de = np.diff(eta[order])
    dp = np.abs(np.diff(phi[order]))
    dp = np.minimum(dp, 2.0 * np.pi - dp)
    if np.any((np.abs(de) < _COLLAPSE_GAP) & (dp < _COLLAPSE_GAP)):
        raise ValueError("two vertices collapse onto the same (eta, phi) point")

    f = mesh.faces
    e1, e2, e3 = eta[f[:, 0]], eta[f[:, 1]], eta[f[:, 2]]
    p1, p2, p3 = phi[f[:, 0]], phi[f[:, 1]], phi[f[:, 2]]
    # unwrap phi within each face so seam-crossing faces get consistent values
    p2 = p2 - 2.0 * np.pi * np.round((p2 - p1) / (2.0 * np.pi))
    p3 = p3 - 2.0 * np.pi * np.round((p3 - p1) / (2.0 * np.pi))
    signed = (e2 - e1) * (p3 - p1) - (e3 - e1) * (p2 - p1)
    # parameter triangles touching a pole are degenerate; skip them
    lo, hi = domain.eta_range
    if domain.is_hemispheroid:
        pole_eta = [hi] if domain.kind == OBLATE_HEMISPHEROID else [lo]
    else:
        pole_eta = [lo, hi]
    at_pole = np.zeros(mesh.n_v, dtype=bool)
    for pe in pole_eta:
        at_pole |= np.abs(eta - pe) < 1e-9
    # a face around a pole winds once in phi although no vertex sits on it
    turn = np.diff(phi[f[:, [0, 1, 2, 0]]], axis=1)
    turn = (turn + np.pi) % (2.0 * np.pi) - np.pi
    winds = np.abs(turn.sum(axis=1)) > np.pi
    face_at_pole = at_pole[f].any(axis=1) | winds
    expected = _parameter_orientation_sign(domain)
    folded = (~face_at_pole) & (signed * expected <= 0.0)
    if np.any(folded):
        raise FoldError(
            f"{int(folded.sum())} parameter triangles fold under the projection "
            "(surface not star-shaped about the domain)"
        )
    return coords


# ---------------------------------------------------------------------------
# samplers

def sample_icosphere(domain, refinements):
    """Sample a closed domain: icosphere scaled to the shell's semi-axes,
    pulled back onto the shell. Returns (coords, faces)."""
    if domain.is_hemispheroid:
        raise ValueError("icosphere sampling requires a closed domain")
    base = icosphere(refinements)
    a, c = domain.semi_axes()
    scaled = base.vertices * np.array([a, a, c])
    coords = pullback(domain, scaled)
    return coords, base.faces


def cap_grid_size(refinements):
    """(rings, sectors) = (4 * 2^r, 8 * 2^r), the cap grid of refinement r."""
    _check_refinements(refinements)
    return 4 * 2**refinements, 8 * 2**refinements


def sample_cap_grid(domain, rings, sectors):
    """Sample a hemispheroidal cap on a pole-fan polar grid.

    Ring latitudes are placed so every cell covers (nearly) the same shell
    area: the pole fan holds `sectors` triangles and each ring band holds
    twice that, so ring j sits at cumulative area fraction (2j-1)/(2*rings-1)
    measured from the pole. The rim ring sits 1e-3 in eta inside the true
    edge so no sample touches the open boundary. A grid of more cells than
    `cap_grid_size(MAX_ICOSPHERE_REFINEMENTS)` raises GuardError before
    anything is allocated. Returns (coords, faces).
    """
    if not domain.is_hemispheroid:
        raise ValueError("cap sampling requires a hemispheroidal domain")
    if rings < 1 or sectors < 3:
        raise ValueError("need rings >= 1 and sectors >= 3")
    max_rings, max_sectors = cap_grid_size(MAX_ICOSPHERE_REFINEMENTS)
    if rings * sectors > max_rings * max_sectors:
        raise GuardError(
            f"cap grid {rings} x {sectors} exceeds the {max_rings} x {max_sectors} "
            f"grid of refinement {MAX_ICOSPHERE_REFINEMENTS}"
        )
    lo, hi = domain.eta_range
    if domain.kind == PROLATE_HEMISPHEROID:
        pole, rim = lo, hi - _RIM_OFFSET
    else:
        pole, rim = hi, lo + _RIM_OFFSET
    # cumulative shell area from the pole, by trapezoid quadrature of the
    # axisymmetric area element  hoop_radius * |d p / d eta|
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
    # the pole, then ring by ring one vertex per sector
    k = np.arange(sectors)
    coords = CurvilinearCoords(
        eta=np.concatenate(([pole], np.repeat(ring_etas, sectors))),
        phi=np.concatenate(([0.0], np.tile(2.0 * np.pi * k / sectors, rings))),
        domain=domain,
    )
    # pole fan, then per ring band and sector the quad's two triangles, all
    # wound so that their normals point outward on the shell
    ring = 1 + k + sectors * np.arange(rings)[:, None]
    step = np.roll(ring, -1, axis=1)
    fan = np.stack([np.zeros_like(k), ring[0], step[0]], axis=1)
    quads = [ring[:-1], ring[1:], step[1:], ring[:-1], step[1:], step[:-1]]
    faces = np.concatenate([fan, np.stack(quads, axis=-1).reshape(-1, 3)])
    return coords, faces
