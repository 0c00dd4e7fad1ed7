"""Harmonic expansion of genus-0 surfaces over spheroidal charts.

Surfaces are encoded as complex weights Q[(n, m), axis] of fully normalized
associated Legendre functions times circular harmonics in phi. Rows are
n-major with m ascending from -n, so truncating to a lower degree is a
prefix slice. Real surfaces have conjugate-consistent weights.

The fit and the fast reconstruction share one real-arithmetic kernel, a
double Fourier series (Townsend, Wilber & Wright 2016): with t = arccos xi,
each P_nm(cos t) is a short trigonometric series in t, cos(k t) for even m
and sin((k + 1) t) for odd m, whose coefficients are cached per degree. So
the basis needs only cos/sin rows of k t and m phi, built by angle
addition, and one small GEMM per order parity; no complex basis is built
and fitted weights are conjugate-consistent by construction. The fit
solves the normal equations by Cholesky with one step of iterative
refinement, and falls back to the SVD least-squares solver when the
Cholesky factorization fails or the condition estimate of the normal
matrix exceeds 1e8. The planar pipeline fits and evaluates contours with
the same least-squares solver and the same cos/sin row builder, in one
angle. basis_matrix and reconstruct_full, which evaluate the Legendre
recurrence directly, stay the independent complex-basis reference.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from .errors import EngineError, FormatError, GuardError, read_lines, row_values
from .spheroidal import SpheroidDomain, xi_of_eta

__all__ = [
    "MAX_DEGREE",
    "ExpansionConfig",
    "FourierWeights",
    "PsdDescriptors",
    "basis_matrix",
    "decompose",
    "reconstruct_full",
    "reconstruct_fast",
    "psd_descriptors",
    "save_weights",
    "load_weights",
]

MAX_DEGREE = 80

# largest 1-norm condition estimate of B^T B fitted through the normal
# equations (cond(B) up to about 1e4); worse bases go to the SVD solver
_MAX_NORMAL_COND = 1e8


def _check_degree(n_max):
    """The one degree cap of every expansion, surface or contour."""
    if not (isinstance(n_max, (int, np.integer)) and 0 <= n_max <= MAX_DEGREE):
        raise GuardError(f"n_max must be an integer in [0, {MAX_DEGREE}]")


@dataclass(frozen=True)
class ExpansionConfig:
    """Expansion truncation; beta/beta_hat count full and half basis columns."""

    n_max: int

    def __post_init__(self):
        _check_degree(self.n_max)

    @property
    def beta(self):
        return (self.n_max + 1) ** 2

    @property
    def beta_hat(self):
        return (self.n_max + 1) * (self.n_max + 2) // 2


def full_orders(n_max):
    """(n, m) per column, n-major, m ascending from -n."""
    n = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    m = np.concatenate([np.arange(-k, k + 1) for k in range(n_max + 1)])
    return n, m


def half_orders(n_max):
    """(n, m) per column for m >= 0, n-major."""
    n = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    m = np.concatenate([np.arange(k + 1) for k in range(n_max + 1)])
    return n, m


@dataclass
class FourierWeights:
    """Expansion weights: complex (beta, 3) array plus its domain.

    Conjugate consistency (row (n,-m) = (-1)^m * conj(row (n,m))) is what
    makes the encoded surface real-valued.
    """

    q: np.ndarray
    n_max: int
    domain: SpheroidDomain
    residual_rms: float | None = None

    def __post_init__(self):
        _check_degree(self.n_max)
        q = np.ascontiguousarray(self.q, dtype=np.complex128)
        beta = (self.n_max + 1) ** 2
        if q.shape != (beta, 3):
            raise ValueError(
                f"weights must have shape ({beta}, 3) for n_max={self.n_max}"
            )
        self.q = q

    @staticmethod
    def row_index(n, m):
        return n * n + n + m

    def truncated(self, n_max):
        """Weights restricted to degrees <= n_max (a prefix of the rows)."""
        if n_max > self.n_max:
            raise ValueError(f"cannot truncate to n_max={n_max} > {self.n_max}")
        if n_max == self.n_max:
            return self
        beta = (n_max + 1) ** 2
        return FourierWeights(self.q[:beta].copy(), n_max, self.domain)

    def conjugate_error(self):
        """Max deviation from conjugate consistency (0 for real surfaces)."""
        n, m = full_orders(self.n_max)
        neg = self.row_index(n, -m)
        expected = ((-1.0) ** m)[:, None] * np.conj(self.q[neg])
        return float(np.abs(self.q - expected).max())


@dataclass
class PsdDescriptors:
    """Per-degree power of the expansion, one column per coordinate."""

    power: np.ndarray  # (n_max + 1, 3)

    @property
    def n_max(self):
        return self.power.shape[0] - 1

    def total(self):
        return self.power.sum(axis=1)


# ---------------------------------------------------------------------------
# associated Legendre functions (fully normalized, Condon-Shortley phase)

def _seed_amplitudes(n_max):
    """abs of the sectoral seed P~_mm(0-argument part): sqrt(prod/(4pi))."""
    amp = np.empty(n_max + 1)
    acc = 1.0 / (4.0 * np.pi)
    amp[0] = np.sqrt(acc)
    for m in range(1, n_max + 1):
        acc *= (2.0 * m + 1.0) / (2.0 * m)
        amp[m] = np.sqrt(acc)
    return amp


def _checked_xi(xi):
    """xi as a float array, clipped to [-1, 1]; ValueError when it holds a
    value more than 1e-12 outside that range or a NaN."""
    xi = np.asarray(xi, dtype=float)
    if xi.size and not (xi.min() >= -1.0 - 1e-12 and xi.max() <= 1.0 + 1e-12):
        raise ValueError("xi outside [-1, 1]")
    return np.clip(xi, -1.0, 1.0)


def _legendre_blocks(n_max, xi):
    """Yield (m, P_m) for m = 0..n_max: the (n_max - m + 1, k) block of
    normalized associated Legendre values P_nm(xi), n = m..n_max. The
    three-term recurrence over n at fixed m is numerically stable for the
    supported degree range (values stay O(sqrt(n)))."""
    _check_degree(n_max)
    xi = _checked_xi(xi)
    amp = _seed_amplitudes(n_max)
    sin_pow = np.sqrt(np.maximum(0.0, 1.0 - xi * xi))
    for m in range(n_max + 1):
        block = np.empty((n_max - m + 1, xi.shape[0]))
        # sectoral seed with Condon-Shortley phase
        block[0] = ((-1.0) ** m * amp[m]) * sin_pow**m if m else amp[0]
        if m < n_max:
            block[1] = np.sqrt(2.0 * m + 3.0) * xi * block[0]
        for n in range(m + 2, n_max + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt((2.0 * n + 1.0) * ((n - 1.0) ** 2 - m * m)
                        / ((2.0 * n - 3.0) * (n * n - m * m)))
            block[n - m] = a * xi * block[n - m - 1] - b * block[n - m - 2]
        yield m, block


# one entry per degree in use (a staged run uses a few); the largest,
# n_max 80, holds about 2 MiB
@functools.lru_cache(maxsize=16)
def _fourier_table(n_max):
    """Tuple of read-only F_m, m = 0..n_max, each (n_max - m + 1, n_max + 1):
    P_nm(cos t) = sum_k F_m[n - m, k] tau_k(t), with tau_k = cos(k t) for
    even m and sin((k + 1) t) for odd m.

    P_nm(cos t) is sin^m t times a polynomial of degree n - m in cos t, so
    the series is exact. F_m interpolates the recurrence: cosine series at
    t_j = pi j / n_max, which include both poles, so the series reproduce
    the pole values there; sine series, which vanish at the poles, at
    t_j = pi (j + 1) / (n_max + 2). Both matrices are orthogonal up to
    weights and well conditioned.
    """
    size = n_max + 1
    k = np.arange(size)
    t_cos = np.pi * k / max(n_max, 1)
    t_sin = np.pi * (k + 1) / (size + 1)
    tau = (np.cos(np.outer(t_cos, k)), np.sin(np.outer(t_sin, k + 1)))
    table = []
    for m, block in _legendre_blocks(n_max, np.cos(np.concatenate([t_cos, t_sin]))):
        odd = m % 2
        nodes = block[:, size:] if odd else block[:, :size]
        f_m = np.linalg.solve(tau[odd], nodes.T).T
        f_m.setflags(write=False)
        table.append(f_m)
    return tuple(table)


def _multiple_angles(cos_1, sin_1, count):
    """(count, k) rows cos(j a) and sin(j a), j = 0..count-1, from cos a and
    sin a by angle addition, written in place row by row."""
    cos_j = np.empty((count, cos_1.shape[0]))
    sin_j = np.empty_like(cos_j)
    cos_j[0], sin_j[0] = 1.0, 0.0
    for j in range(1, count):
        np.multiply(cos_j[j - 1], cos_1, out=cos_j[j])
        cos_j[j] -= sin_j[j - 1] * sin_1
        np.multiply(sin_j[j - 1], cos_1, out=sin_j[j])
        sin_j[j] += cos_j[j - 1] * sin_1
    return cos_j, sin_j


def _fourier_rows(coords, n_max):
    """Trigonometric rows of the double Fourier kernel at coords: the tau
    rows cos(k t) and sin((k + 1) t), k = 0..n_max, at t = arccos xi, and
    cos(m phi), sin(m phi) for m = 0..n_max; each (n_max + 1, k)."""
    xi = _checked_xi(xi_of_eta(coords.domain, coords.eta))
    cos_kt, sin_kt = _multiple_angles(xi, np.sqrt(1.0 - xi * xi), n_max + 2)
    cos_m, sin_m = _multiple_angles(np.cos(coords.phi), np.sin(coords.phi),
                                    n_max + 1)
    return (cos_kt[:-1], sin_kt[1:]), cos_m, sin_m


def alp_table(n_max, xi):
    """(k, beta_hat) normalized associated Legendre values for m >= 0 at the
    k points xi in [-1, 1]; column order matches half_orders(n_max)."""
    out = np.empty((len(xi), (n_max + 1) * (n_max + 2) // 2))
    for m, block in _legendre_blocks(n_max, xi):
        n = np.arange(m, n_max + 1)
        out[:, n * (n + 1) // 2 + m] = block.T
    return out


# ---------------------------------------------------------------------------
# basis evaluation

def basis_matrix(coords, config):
    """Full (n_v, beta) complex basis matrix.

    Negative orders follow from the conjugate relation
    column(n, -m) = (-1)^m * conj(column(n, m)).
    """
    n_max = config.n_max
    xi = xi_of_eta(coords.domain, coords.eta)
    _, m_half = half_orders(n_max)
    half = alp_table(n_max, xi) * np.exp(1j * np.outer(coords.phi, m_half))
    n, m = full_orders(n_max)
    out = np.empty((half.shape[0], config.beta), dtype=np.complex128)
    half_col = n * (n + 1) // 2 + np.abs(m)
    pos = m >= 0
    out[:, pos] = half[:, half_col[pos]]
    neg = ~pos
    out[:, neg] = ((-1.0) ** m[neg]) * np.conj(half[:, half_col[neg]])
    return out


def decompose(mesh, coords, config):
    """Least-squares expansion weights of mesh vertices over the basis.

    The fit is real: basis row (n, m >= 0) holds P_nm cos(m phi) and row
    (n, -m) holds P_nm sin(m phi), filled into the transposed (beta, n_v)
    basis Bt order by order (_real_basis). Each order's Legendre block is
    its cached Fourier table times the cos(k t) or sin((k + 1) t) rows
    (_fourier_table). Coefficients a, b map to q_n0 = a,
    q_nm = (a - i b) / 2, q_n,-m = (-1)^m conj(q_nm), so fitted weights are
    conjugate-consistent by construction.

    The fit itself is _least_squares, shared with the contour fit.
    """
    if mesh.n_v != coords.n:
        raise ValueError("mesh and coords disagree on vertex count")
    n_max = config.n_max
    coef, residual_rms = _least_squares(_real_basis(coords, n_max), mesh.vertices)
    n, m = full_orders(n_max)
    pos = np.flatnonzero(m > 0)
    neg = FourierWeights.row_index(n[pos], -m[pos])
    q = coef.astype(np.complex128)
    q[pos] = 0.5 * (coef[pos] - 1j * coef[neg])
    q[neg] = ((-1.0) ** m[pos])[:, None] * np.conj(q[pos])
    return FourierWeights(
        q=q, n_max=n_max, domain=coords.domain, residual_rms=residual_rms
    )


def _real_basis(coords, n_max):
    """Transposed real basis Bt, (beta, n): row (n, m >= 0) holds
    P_nm cos(m phi) and row (n, -m) holds P_nm sin(m phi)."""
    table = _fourier_table(n_max)
    tau, cos_m, sin_m = _fourier_rows(coords, n_max)
    Bt = np.empty(((n_max + 1) ** 2, coords.n))
    for m in range(n_max + 1):
        # P_nm(-xi) = (-1)^(n+m) P_nm(xi), so row j = n - m of F_m is zero
        # at every k of the other parity than j
        f_m, tau_m = table[m], tau[m % 2]
        block = np.empty((n_max - m + 1, coords.n))
        block[0::2] = f_m[0::2, 0::2] @ tau_m[0::2]
        block[1::2] = f_m[1::2, 1::2] @ tau_m[1::2]
        n = np.arange(m, n_max + 1)
        Bt[FourierWeights.row_index(n, m)] = block * cos_m[m]
        if m:
            Bt[FourierWeights.row_index(n, -m)] = block * sin_m[m]
    return Bt


def _least_squares(Bt, V):
    """Least-squares coefficients of the samples V (n, c) over the rows of
    the transposed basis Bt (k, n), and the rms over samples of the
    residual norm.

    Requires n >= k; non-finite samples raise ValueError. The normal
    equations G = Bt Bt^T are solved by Cholesky with one step of
    iterative refinement on the residual, which gives the least-squares
    solution to working accuracy for a well-conditioned basis. When the
    Cholesky factorization fails or the estimate of cond_1(G) exceeds
    _MAX_NORMAL_COND, the SVD least-squares solver runs instead. Raises
    EngineError for underdetermined, rank-deficient or ill-conditioned
    systems.
    """
    k, n = Bt.shape
    if n < k:
        raise EngineError(f"underdetermined fit: {n} samples < {k} basis columns")
    if not np.isfinite(V).all():
        raise ValueError("samples must be finite")
    G = Bt @ Bt.T
    factor, info = lapack.dpotrf(G)
    if info == 0:
        rcond, info = lapack.dpocon(factor, np.abs(G).sum(axis=0).max())
    if info == 0 and rcond * _MAX_NORMAL_COND >= 1.0:
        coef, _ = lapack.dpotrs(factor, Bt @ V)
        correction, _ = lapack.dpotrs(factor, Bt @ (V - Bt.T @ coef))
        coef = coef + correction
    else:
        coef, _, rank, sv = np.linalg.lstsq(Bt.T, V, rcond=None)
        if rank < k:
            raise EngineError(
                f"rank-deficient basis (rank {rank} < {k}); sampling does "
                "not resolve the requested degree"
            )
        cond = sv[0] / sv[-1]
        if cond > 1e12:
            raise EngineError(f"basis condition estimate {cond:.3e} too large")
    resid = ((V - Bt.T @ coef) ** 2).sum(axis=1)
    return coef, float(np.sqrt(resid.mean()))


def _check_domains_match(weights, coords):
    a, b = weights.domain, coords.domain
    same = (
        a.kind == b.kind
        and np.isclose(a.e, b.e, rtol=1e-12, atol=0.0)
        and np.isclose(a.zeta0, b.zeta0, rtol=1e-12, atol=0.0)
    )
    if not same:
        raise ValueError(
            f"weights domain {a} does not match coordinate domain {b}"
        )


def reconstruct_full(weights, coords):
    """Evaluate the expansion with the complete (positive and negative m) basis.

    Returns real (n, 3) positions; the imaginary residual must stay below
    1e-9 for conjugate-consistent weights.
    """
    _check_domains_match(weights, coords)
    B = basis_matrix(coords, ExpansionConfig(weights.n_max))
    vals = B @ weights.q
    imag_max = float(np.abs(vals.imag).max(initial=0.0))
    if imag_max > 1e-9:
        raise EngineError(
            f"imaginary reconstruction residual {imag_max:.3e}; weights are "
            "not conjugate-consistent"
        )
    return np.ascontiguousarray(vals.real)


def reconstruct_fast(weights, coords):
    """Evaluate the expansion as a double Fourier series in real arithmetic.

    With t = arccos xi, the expansion is sum_m a_m(t) cos(m phi) +
    b_m(t) sin(m phi), where a_m = (2 - delta_m0) sum_n Re q_nm P_nm and
    b_m = -2 sum_n Im q_nm P_nm. Each order's weight rows are folded into
    the Fourier coefficients of a_m and b_m in t through the cached table
    F_m (_fourier_table); per order parity one GEMM of those coefficients
    with the cos(k t) or sin((k + 1) t) rows evaluates every a_m and b_m,
    which are then contracted with the cos(m phi) and sin(m phi) rows. For
    conjugate-consistent weights this equals reconstruct_full.
    """
    _check_domains_match(weights, coords)
    n_max = weights.n_max
    table = _fourier_table(n_max)
    tau, cos_m, sin_m = _fourier_rows(coords, n_max)
    out = np.zeros((3, coords.n))
    for parity in (0, 1):
        orders = range(parity, n_max + 1, 2)
        if not orders:
            continue
        coef = []
        for m in orders:
            q_m = weights.q[FourierWeights.row_index(np.arange(m, n_max + 1), m)]
            ab_m = np.vstack([q_m.real.T, -q_m.imag.T]) * (2.0 if m else 1.0)
            coef.append(ab_m @ table[m])
        vals = (np.vstack(coef) @ tau[parity]).reshape(len(orders), 2, 3, -1)
        out += np.einsum("mcv,mv->cv", vals[:, 0], cos_m[parity::2])
        out += np.einsum("mcv,mv->cv", vals[:, 1], sin_m[parity::2])
    return np.ascontiguousarray(out.T)


def psd_descriptors(weights):
    """Per-degree power spectrum: sum over m of |Q|^2, per coordinate."""
    n, _ = full_orders(weights.n_max)
    power = np.zeros((weights.n_max + 1, 3))
    np.add.at(power, n, np.abs(weights.q) ** 2)
    return PsdDescriptors(power=power)


# ---------------------------------------------------------------------------
# weights file format

_WEIGHTS_MAGIC = "spheroidal-weights v1"
_WEIGHTS_HEADER = (
    ("kind", str), ("e", float), ("zeta0", float), ("n_max", int), ("rows", int)
)


def save_weights(weights, path):
    """Structured-text weights file; floats carry 17 significant digits."""
    lines = [
        _WEIGHTS_MAGIC,
        f"kind {weights.domain.kind}",
        f"e {weights.domain.e:.17g}",
        f"zeta0 {weights.domain.zeta0:.17g}",
        f"n_max {weights.n_max}",
        f"rows {weights.q.shape[0]}",
    ]
    n, m = full_orders(weights.n_max)
    for i in range(weights.q.shape[0]):
        qx, qy, qz = weights.q[i]
        lines.append(
            f"{n[i]} {m[i]} "
            f"{qx.real:.17g} {qx.imag:.17g} "
            f"{qy.real:.17g} {qy.imag:.17g} "
            f"{qz.real:.17g} {qz.imag:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_weights(path):
    lines = read_lines(path)
    if next(lines, (None, None))[1] != _WEIGHTS_MAGIC:
        raise FormatError(f"{path}: not a spheroidal weights file")
    header = {}
    for key, convert in _WEIGHTS_HEADER:
        number, line = next(lines, (None, None))
        if line is None:
            raise FormatError(f"{path}: truncated weights header")
        name, *value = line.split()
        if name != key:
            raise FormatError(f"{path}:{number}: expected {key!r}")
        (header[key],) = row_values(path, number, key, value, convert, 1)
    try:
        domain = SpheroidDomain(
            kind=header["kind"], e=header["e"], zeta0=header["zeta0"]
        )
    except ValueError as exc:
        raise FormatError(f"{path}: bad weights header: {exc}") from exc
    n_max, rows = header["n_max"], header["rows"]
    beta = (n_max + 1) ** 2
    if rows != beta:
        raise FormatError(f"{path}:{number}: weights row count {rows} != beta {beta}")
    body = list(lines)
    if len(body) != rows:
        raise FormatError(f"{path}: expected {rows} weight rows, found {len(body)}")
    n_expected, m_expected = full_orders(n_max)
    q = np.empty((beta, 3), dtype=np.complex128)
    for i, (number, line) in enumerate(body):
        parts = line.split()
        n_i, m_i = row_values(path, number, "orders", parts[:2], int, 2)
        vals = row_values(path, number, "weights", parts[2:], float, 6)
        if n_i != n_expected[i] or m_i != m_expected[i]:
            raise FormatError(
                f"{path}:{number}: orders ({n_i}, {m_i}); expected "
                f"({n_expected[i]}, {m_expected[i]})"
            )
        q[i] = [
            complex(vals[0], vals[1]),
            complex(vals[2], vals[3]),
            complex(vals[4], vals[5]),
        ]
    return FourierWeights(q=q, n_max=n_max, domain=domain)
