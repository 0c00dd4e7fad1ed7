"""Planar counterpart of the surface pipeline.

Closed contours are parameterized by the elliptic angle eta of a fitted
confocal ellipse, expanded in cos(m eta), sin(m eta) with the fit's real
coefficients as weights, and re-sampled by 1D diffusion of the eta samples
until segment lengths equalize. A batch driver applies this per particle
for 2D microstructures.

The decisions the plane shares with the surface are made once, in the
surface modules: the ellipse chart takes its focal distance and its
inversion from `spheroidal.focal_chart` and `spheroidal.confocal_inverse`,
the fit its cos/sin rows and its least-squares solver (with the surface
fit's error messages) from `harmonics`, the trace is a
`diffusion.TraceTable`, and the time-step halving budget is
`diffusion.MAX_DT_HALVINGS`.

The 1D step is staggered: the density lives on segments and each sample
moves by the jump of the diffused density across it, so alternating
segment lengths are seen and corrected. The time step is the largest at
which no explicit sample move passes 0.3 of its smaller eta gap, so the
iteration count grows about linearly with the segment budget. Per
particle the step builds once its [coef | slope] table, whose zero sin-0
row lets one product take the Fourier rows as `_multiple_angles` writes
them into the particle's rows buffer, the ring's neighbour indices, a gap
buffer, and the ring solve's right-hand side and LAPACK routine. Per
iteration it builds the Fourier rows once, and the gaps of the accepted
angles serve the next step's bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .diffusion import MAX_DT_HALVINGS, TraceTable, column
from .errors import (
    EngineError,
    FormatError,
    IntersectionError,
    check_count,
    naming,
    read_lines,
    read_only,
    row_values,
)
from .harmonics import _check_degree, _lapack, _least_squares, _multiple_angles
from .mesh import Contour2D
from .spheroidal import confocal_inverse, focal_chart, wrap_angle

__all__ = [
    "MIN_SEGMENTS",
    "EllipticDomain",
    "ContourWeights",
    "ContourTrace",
    "inverse_elliptic",
    "fit_ellipse",
    "decompose_contour",
    "reconstruct_contour",
    "contour_tangents",
    "remesh_contour",
    "segment_budgets",
    "remesh_microstructure_2d",
    "self_intersects",
    "write_contour_csv",
    "read_contours",
    "write_contours",
]

MIN_SEGMENTS = 5

# largest explicit eta move of a sample, as a fraction of its smaller gap
_ETA_MOVE_FRACTION = 0.3


@dataclass(frozen=True)
class EllipticDomain:
    """Confocal elliptic chart: shell ellipse plus its rigid placement."""

    e: float
    zeta0: float
    center: tuple = (0.0, 0.0)
    rotation: float = 0.0

    def __post_init__(self):
        if not (self.e > 0.0 and np.isfinite(self.e)):
            raise ValueError("focal distance e must be positive")
        if not (self.zeta0 > 0.0 and np.isfinite(self.zeta0)):
            raise ValueError("zeta0 must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 2:
            raise ValueError("center must be a 2-vector")

    def semi_axes(self):
        return (
            self.e * np.cosh(self.zeta0),
            self.e * np.sinh(self.zeta0),
        )

    def _rotation_matrix(self):
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return np.array([[c, -s], [s, c]])


def inverse_elliptic(domain, points):
    """Elliptic chart coordinates (zeta, eta) of world points.

    eta is wrapped to [0, 2*pi). Points on the focal segment have an
    ambiguous angle and raise SingularityError (`confocal_inverse`).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    local = (pts - np.asarray(domain.center)) @ domain._rotation_matrix()
    zeta, eta = confocal_inverse(local[:, 0], local[:, 1], domain.e)
    return zeta, wrap_angle(eta)


def fit_ellipse(contour):
    """Second-moment ellipse of a closed contour as an EllipticDomain.

    Center and covariance come from the vertices; the principal axis sets
    the rotation. Near-circles get the focal floor of `focal_chart`, as
    near-spheres do, so the chart stays nondegenerate.
    """
    if not contour.closed:
        raise ValueError("ellipse fitting expects a closed contour")
    pts = contour.points
    center = pts.mean(axis=0)
    v = pts - center
    cov = v.T @ v / v.shape[0]
    evals, evecs = np.linalg.eigh(cov)  # ascending
    a = float(np.sqrt(2.0 * max(evals[1], 0.0)))
    b = float(np.sqrt(2.0 * max(evals[0], 0.0)))
    if a <= 0.0:
        raise ValueError("contour is degenerate (zero extent)")
    major = evecs[:, 1]
    # canonical sign keeps the fit deterministic under vertex order
    if major[0] < 0.0 or (major[0] == 0.0 and major[1] < 0.0):
        major = -major
    rotation = float(np.arctan2(major[1], major[0]))
    e, zeta0 = focal_chart(a, b)
    return EllipticDomain(
        e=e, zeta0=zeta0, center=(center[0], center[1]), rotation=rotation
    )


@dataclass
class ContourWeights:
    """Fourier weights of x(eta), y(eta): the fit's real (2 n_max + 1, 2)
    coefficients, rows cos(m eta) for m = 0..n_max, then sin(m eta) for
    m = 1..n_max (the fit's rows)."""

    coef: np.ndarray
    n_max: int
    domain: EllipticDomain
    residual_rms: float | None = None

    def __post_init__(self):
        _check_degree(self.n_max)
        coef = np.asarray(self.coef)
        if coef.shape != (2 * self.n_max + 1, 2):
            raise ValueError(
                f"weights must have shape ({2 * self.n_max + 1}, 2)"
            )
        self.coef = np.ascontiguousarray(coef, dtype=float)


def _fourier_rows(eta, rows):
    """rows, a (2, n_max + 1, n) buffer, filled with cos(m eta), then
    sin(m eta), m = 0..n_max, at the n angles eta, and returned as
    (2 n_max + 2, n) rows; the sin-0 row is zero."""
    return _multiple_angles(np.cos(eta), np.sin(eta), rows).reshape(-1, rows.shape[2])


def decompose_contour(contour, n_max):
    """Least-squares Fourier weights of a closed contour.

    Each vertex is assigned the elliptic angle of the fitted ellipse chart
    (the planar analogue of the surface projection); the fit then solves
    for x(eta), y(eta) over `_fourier_rows` without the zero sin-0 row, as
    dense rows passed to the surface fit's least-squares policy
    (`harmonics._least_squares`), so it needs at least 2*n_max + 1 points.
    """
    if not contour.closed:
        raise ValueError("decomposition expects a closed contour")
    _check_degree(n_max)
    domain = fit_ellipse(contour)
    _, eta = inverse_elliptic(domain, contour.points)
    rows = _fourier_rows(eta, np.empty((2, n_max + 1, eta.shape[0])))
    # the cos rows move down onto the zero sin-0 row: cos 0..n_max, sin 1..n_max
    rows[1 : n_max + 2] = rows[: n_max + 1]
    Bt, V = rows[1:], contour.points
    coef, residual_rms = _least_squares(
        Bt @ Bt.T, Bt @ V, V, lambda c: Bt @ (V - Bt.T @ c),
        lambda c: ((V - Bt.T @ c) ** 2).sum(axis=1).sum(), lambda: Bt
    )
    return ContourWeights(
        coef=coef, n_max=n_max, domain=domain, residual_rms=residual_rms
    )


def reconstruct_contour(weights, eta):
    """Evaluate the contour at angles eta; returns (n, 2) points."""
    return _evaluate(weights, eta)[:, :2]


def contour_tangents(weights, eta):
    """d(point)/d(eta) of the reconstruction — the local chart speed."""
    return _evaluate(weights, eta)[:, 2:]


def _evaluate(weights, eta):
    """[points | d/d(eta)] at angles eta, (n, 4): one product of the
    Fourier rows with `_evaluation_table`."""
    rows = _fourier_rows(eta, np.empty((2, weights.n_max + 1, len(eta))))
    return rows.T @ _evaluation_table(weights)


def _evaluation_table(weights):
    """(2 n_max + 2, 4) table [coef | slope] in `_fourier_rows` order, its
    sin-0 row zero: x(eta) = sum_m a_m cos(m eta) + b_m sin(m eta), so
    d/d(eta) takes a_m, b_m to m b_m, -m a_m."""
    n = weights.n_max
    m = np.arange(1, n + 1)[:, None]
    a, b = weights.coef[: n + 1], weights.coef[n + 1 :]
    table = np.zeros((2 * n + 2, 4))
    table[: n + 1, :2], table[n + 2 :, :2] = a, b
    table[1 : n + 1, 2:], table[n + 2 :, 2:] = m * b, -m * a[1:]
    return table


@dataclass
class ContourTrace(TraceTable):
    """Per-iteration log of a 1D remeshing run."""

    t: list = column(int)
    dt: list = column(float)
    std_length: list = column(float)
    total_length: list = column(float)
    initial_std_length: float = float("nan")
    stop_reason: str = ""


def _gaps(eta, out):
    """Angle from each sample to the next, each in [0, 2 pi), into out; the
    last is (eta[0] + 2 pi) - eta[-1], as np.diff takes it when appended."""
    np.subtract(eta[1:], eta[:-1], out=out[:-1])
    out[-1] = (eta[0] + 2.0 * np.pi) - eta[-1]
    return np.mod(out, 2.0 * np.pi, out=out)


def _cyclic_increasing(gap):
    """True when angles whose `_gaps` are gap wind once around the circle
    without crossing."""
    return bool((gap > 0.0).all() and abs(gap.sum() - 2.0 * np.pi) < 1e-9)


def remesh_contour(weights, n_points, i_max=200, std_target=0.2, trace=None):
    """Equalize segment lengths by 1D diffusion of the eta samples.

    Starts from uniform angles. Each iteration diffuses the segment-length
    density one implicit step on the ring of segments and moves every
    sample up the difference of its two adjacent diffused densities; the
    step is the largest at which no explicit move passes a fixed fraction
    of the neighbouring angle gaps, halved only if the ordering still
    breaks. Succeeds when the segment-length STD falls to std_target times
    the initial STD (or is negligible against the mean); raises EngineError
    with the trace attached otherwise. trace.stop_reason records why the
    run ended: "converged", "i_max" or "ordering". n_points and i_max must
    be integers, std_target a nonnegative number.
    """
    n_points = check_count("n_points", n_points, MIN_SEGMENTS)
    i_max = check_count("i_max", i_max, 1)
    # a NaN target would make both `std <= goal` and `std > goal` false
    if not std_target >= 0.0:
        raise ValueError(f"std_target must be nonnegative, not {std_target!r}")
    if trace is None:
        trace = ContourTrace()
    # the ring plan: what every iteration reuses, built once per particle
    table = _evaluation_table(weights)
    rows = np.empty((2, weights.n_max + 1, n_points))
    prev = np.arange(-1, n_points - 1)  # i - 1, cyclically
    nxt = np.arange(1, n_points + 1) % n_points  # i + 1
    gap, rhs = np.empty(n_points), np.zeros((n_points, 2), order="F")
    dptsv = _lapack().dptsv
    eta = 2.0 * np.pi * np.arange(n_points) / n_points
    _gaps(eta, gap)
    points, speed, seg, total, std = _ring_state(table, eta, rows, nxt)
    trace.initial_std_length = std
    # a uniform start (circle-like weights) is already converged
    goal = max(std_target * std, 1e-3 * float(total / n_points))

    for t in range(1, i_max + 1):
        if std <= goal:
            break
        # staggered density: one value per segment; sample i sits between
        # segments i - 1 and i, a spacing h_i apart
        u = seg / total
        h = 0.5 * (seg + seg[prev])
        conductance = 1.0 / h
        # the largest step whose explicit move keeps every sample within
        # _ETA_MOVE_FRACTION of its nearer neighbour in eta
        reach = np.abs(_eta_velocity(u, u[prev], h, speed))
        reach /= np.minimum(gap, gap[prev])
        dt = _ETA_MOVE_FRACTION / float(np.maximum.reduce(reach))
        for _ in range(MAX_DT_HALVINGS + 1):
            # implicit ring-diffusion step: (M - dt L) u' = M u
            u_new = _ring_implicit_step(seg, conductance, u, dt, rhs, dptsv)
            velocity = _eta_velocity(u_new, u_new[prev], h, speed)
            cand = np.mod(eta + dt * velocity, 2.0 * np.pi)
            if _cyclic_increasing(_gaps(cand, gap)):
                break
            dt *= 0.5
        else:
            trace.stop_reason = "ordering"
            raise EngineError(
                f"sample ordering could not be preserved at iteration {t}",
                trace=trace,
            )
        eta = cand
        points, speed, seg, total, std = _ring_state(table, eta, rows, nxt)
        trace.append(t=t, dt=dt, std_length=std, total_length=total)

    if std > goal:
        trace.stop_reason = "i_max"
        raise EngineError(
            f"segment spread {std:.3e} still above target {goal:.3e} "
            f"after {i_max} iterations",
            trace=trace,
        )
    trace.stop_reason = "converged"
    return Contour2D(points=read_only(points.copy()), closed=True)


def _ring_state(table, eta, rows, nxt):
    """Points (n, 2), chart speeds, segment lengths, their sum and their STD
    at angles eta: the arithmetic of `mesh.ring_lengths`, `np.linalg.norm`
    and `ndarray.std`, bit for bit, in fewer numpy calls."""
    vals = _fourier_rows(eta, rows).T @ table
    points, tangent, n = vals[:, :2], vals[:, 2:] ** 2, eta.shape[0]
    d = (points[nxt] - points) ** 2
    seg = np.sqrt(d[:, 0] + d[:, 1])
    total = np.add.reduce(seg)
    std = math.sqrt(np.add.reduce((seg - total / n) ** 2) / n)
    speed = np.maximum(np.sqrt(tangent[:, 0] + tangent[:, 1]), 1e-15)
    return points, speed, seg, total, std


def _eta_velocity(u, u_prev, h, speed):
    """d(eta)/dt of each sample: the jump of the segment density across it
    (u_prev is the density of the segment before) over the spacing h,
    relative to the mean adjacent density, per unit of chart speed."""
    return 2.0 * (u - u_prev) / (h * np.maximum(u + u_prev, 1e-15) * speed)


def _ring_implicit_step(masses, conductance, u, dt, rhs, dptsv):
    """Backward Euler on a ring of nodes: solves (M - dt L) u' = M u.

    conductance[j] couples node j - 1 and node j (node -1 is the last).
    The matrix is symmetric positive definite and cyclic tridiagonal; the
    corner coupling is split off as a rank-one term (Sherman-Morrison), so
    two banded Cholesky solves give u' in O(n). rhs is an (n, 2) Fortran
    buffer that the solve overwrites; dptsv is LAPACK's, which solveh_banded
    runs on a band of two rows, called directly without its checks.
    """
    off = -dt * conductance
    # node j couples to j - 1 through off[j] and to j + 1 through off[j + 1]
    diag = masses - off
    diag[:-1] -= off[1:]
    diag[-1] -= off[0]
    corner = off[0]
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= corner * corner / gamma
    np.multiply(masses, u, out=rhs[:, 0])
    rhs[:, 1] = 0.0
    rhs[0, 1] = gamma
    rhs[-1, 1] = corner
    _, _, solution, info = dptsv(diag, off[1:], rhs, overwrite_d=True,
                                 overwrite_e=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    y, z = solution.T
    ratio = corner / gamma
    return y - z * (y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1])


def segment_budgets(lengths, max_segments_largest):
    """Per-particle segment counts: linear in contour length from
    MIN_SEGMENTS (shortest) to max_segments_largest (longest), an integer.
    A NaN, infinite or negative length raises ValueError."""
    largest = check_count("largest budget", max_segments_largest, MIN_SEGMENTS)
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0:
        raise ValueError("need at least one contour")
    # written so that a NaN length fails it too
    if not np.all((lengths >= 0.0) & (lengths < np.inf)):
        raise ValueError("contour lengths must be finite and nonnegative")
    lo, hi = float(lengths.min()), float(lengths.max())
    if hi == lo:
        return np.full(lengths.shape, largest, dtype=int)
    frac = (lengths - lo) / (hi - lo)
    budgets = np.rint(MIN_SEGMENTS + frac * (largest - MIN_SEGMENTS))
    return budgets.astype(int)


def self_intersects(contour):
    """True when any two non-adjacent segments of the closed contour cross:
    each has the other's ends strictly on opposite sides. side[i, j] is the
    orientation of point j against segment i, from a_i to b_i = a_{i+1}, so
    the orientations of the ends b_j are its columns shifted by one."""
    a = contour.points
    nxt = np.arange(1, a.shape[0] + 1) % a.shape[0]
    d = a[nxt] - a
    side = d[:, :1] * (a[:, 1] - a[:, 1:]) - d[:, 1:] * (a[:, 0] - a[:, :1])
    apart = side * side[:, nxt] < 0.0
    # no mask needed: a segment's own end, or a neighbour's, lies on it at
    # orientation exactly 0.0, so no segment is apart from itself or a neighbour
    return bool(np.any(apart & apart.T))


def remesh_microstructure_2d(contours, max_segments_largest, n_max, i_max=200):
    """Independently remesh each particle with a length-scaled budget.

    The per-particle degree is lowered when a small contour cannot support
    the requested n_max, which must pass the degree cap itself.
    Self-intersecting outputs abort the batch with the offending particles.
    """
    _check_degree(n_max)
    lengths = [c.length() for c in contours]
    budgets = segment_budgets(lengths, max_segments_largest)

    out = []
    for contour, budget in zip(contours, budgets):
        degree = min(n_max, (contour.points.shape[0] - 1) // 2)
        weights = decompose_contour(contour, degree)
        out.append(remesh_contour(weights, int(budget), i_max=i_max))
    bad = [k for k, c in enumerate(out) if self_intersects(c)]
    if bad:
        raise IntersectionError(
            f"remeshed contours self-intersect: particles {bad}",
            particle_ids=bad,
        )
    return out


# ---------------------------------------------------------------------------
# contour files

def _csv_contour(path, lines):
    """Single contour from the significant lines of a CSV of x,y rows; the
    first may be a header."""
    rows = []
    for k, (number, line) in enumerate(lines):
        parts = line.replace(",", " ").split()
        if k == 0 and not all(_is_float(p) for p in parts):
            continue  # a header such as x,y
        rows.append(row_values(path, number, "point", parts, float, 2))
    if len(rows) < 3:
        raise FormatError(f"{path}: a contour needs at least 3 points")
    with naming(path):
        return Contour2D(points=np.array(rows), closed=True)


def write_contour_csv(contour, path):
    lines = ["x,y"]
    for x, y in contour.points:
        lines.append(f"{x:.17g},{y:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


_CONTOURS_MAGIC = "contours v1"


def read_contours(path):
    """Particles of a file as a list of (particle_id, Contour2D). A file whose
    first significant line is `contours v1` is a multi-contour document;
    any other file is a single-contour CSV, read as particle "0"."""
    lines = list(read_lines(path))
    if not lines or lines[0][1] != _CONTOURS_MAGIC:
        return [("0", _csv_contour(path, lines))]
    if len(lines) < 2 or lines[1][1].split()[0] != "count":
        raise FormatError(f"{path}: missing contour count")
    number, line = lines[1]
    (count,) = row_values(path, number, "contour count", line.split()[1:], int, 1)
    out = []
    idx = 2
    for _ in range(count):
        if idx >= len(lines):
            raise FormatError(f"{path}: truncated document")
        number, line = lines[idx]
        parts = line.split()
        if len(parts) != 3 or parts[0] != "contour":
            raise FormatError(f"{path}:{number}: expected 'contour <id> <n>' header")
        pid = parts[1]
        (n,) = row_values(path, number, "point count", parts[2:], int, 1)
        block = lines[idx + 1 : idx + 1 + n]
        if len(block) != n:
            raise FormatError(
                f"{path}:{number}: contour {pid} is truncated: {n} points declared, "
                f"{len(block)} follow"
            )
        pts = [row_values(path, k, "point", row.split(), float, 2) for k, row in block]
        idx += 1 + n
        with naming(f"{path}:{number}: contour {pid}"):
            out.append((pid, Contour2D(points=np.array(pts), closed=True)))
    if idx < len(lines):
        raise FormatError(
            f"{path}:{lines[idx][0]}: text after the {count} declared contours"
        )
    return out


def write_contours(named_contours, path):
    lines = [_CONTOURS_MAGIC, f"count {len(named_contours)}"]
    for pid, contour in named_contours:
        pid = str(pid)
        if "#" in pid or pid.split() != [pid]:
            raise ValueError(
                f"particle id {pid!r} is empty or holds whitespace or '#'"
            )
        pts = contour.points
        lines.append(f"contour {pid} {pts.shape[0]}")
        for x, y in pts:
            lines.append(f"{x:.17g} {y:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
