"""Harmonic expansion of genus-0 surfaces over spheroidal charts.

Surfaces are encoded as complex weights Q[(n, m), axis] of fully normalized
associated Legendre functions times circular harmonics in phi. Rows are
n-major with m ascending from -n, so truncating to a lower degree is a
prefix slice. Real surfaces have conjugate-consistent weights.

The fit and the fast reconstruction share one real-arithmetic kernel, a
double Fourier series (Townsend, Wilber & Wright 2016): with t = arccos xi,
each P_nm(cos t) is a short trigonometric series in t, cos(k t) for even m
and sin((k + 1) t) for odd m, whose coefficients are cached per degree in
one table, with the zeros of the parity of P_nm exact. So the basis needs
only cos/sin rows of k t and m phi, built row by row by angle addition,
and one small GEMM per order parity; no complex basis is built and fitted
weights are conjugate-consistent by construction.

The fit solves the normal equations without forming the (n_v, beta) basis.
By the product-to-sum rules its Gram matrix is a Toeplitz-plus-Hankel
array of trigonometric moments sum_v {cos, sin}(a t_v) {cos, sin}(b phi_v)
(Feichtinger, Groechenig & Strohmer 1995; Keiner, Kunis & Potts 2007),
taken through the cached series on both sides; B^T R and B c come from the
same cos/sin rows. It solves by Cholesky with one step of iterative
refinement, and falls back to the SVD least-squares solver on the dense
basis when the Cholesky factorization fails or the condition estimate of
the normal matrix exceeds 1e8. One memory limit bounds both the rows with
the Gram matrix and the dense basis. The planar pipeline passes its dense
cos/sin rows in one angle through the same least-squares policy.
basis_matrix and reconstruct_full, which evaluate the Legendre recurrence
directly, stay the independent complex-basis reference.
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
    "basis_matrix",
    "decompose",
    "reconstruct_full",
    "reconstruct_fast",
    "psd_descriptors",
    "save_weights",
    "load_weights",
]

MAX_DEGREE = 80

# largest array set, in bytes, that one surface fit allocates: the moment
# rows and Gram matrix, or the dense basis of the SVD fallback. Refinement 8
# at MAX_DEGREE would take 3.4 GB of rows, refinement 6 2.1 GB of basis
_MAX_FIT_BYTES = 2**30

# largest 1-norm condition estimate of B^T B fitted through the normal
# equations (cond(B) up to about 1e4); worse bases go to the SVD solver
_MAX_NORMAL_COND = 1e8


def _check_degree(n_max):
    """The one degree cap of every expansion, surface or contour."""
    if not (isinstance(n_max, (int, np.integer)) and 0 <= n_max <= MAX_DEGREE):
        raise GuardError(f"n_max must be an integer in [0, {MAX_DEGREE}]")


def _check_fit_bytes(what, nbytes):
    """The one memory cap of the surface fit: GuardError when `what` needs
    more than _MAX_FIT_BYTES."""
    if nbytes > _MAX_FIT_BYTES:
        raise GuardError(
            f"{what} needs {nbytes / 2**20:.1f} MiB, more than "
            f"{_MAX_FIT_BYTES / 2**20:.1f} MiB"
        )


@dataclass(frozen=True)
class ExpansionConfig:
    """Expansion truncation; beta counts the basis columns."""

    n_max: int

    def __post_init__(self):
        _check_degree(self.n_max)

    @property
    def beta(self):
        return (self.n_max + 1) ** 2


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


def _read_only(array):
    array.setflags(write=False)
    return array


def _multiple_angles(cos_1, sin_1, count):
    """(2, count, k) rows cos(j a) and sin(j a), j = 0..count-1, from cos a
    and sin a by angle addition, row by row in place."""
    rows = np.empty((2, count, cos_1.shape[0]))
    cos_j, sin_j = rows
    cos_j[0], sin_j[0] = 1.0, 0.0
    for j in range(1, count):
        np.multiply(cos_j[j - 1], cos_1, out=cos_j[j])
        cos_j[j] -= sin_j[j - 1] * sin_1
        np.multiply(sin_j[j - 1], cos_1, out=sin_j[j])
        sin_j[j] += cos_j[j - 1] * sin_1
    return rows


def _angle_rows(coords, n_max, moments=False):
    """Trigonometric rows of the double Fourier kernel at coords, each
    (2, count, n): cos and sin of a t, at t = arccos xi, and of b phi.

    The kernel takes the tau rows cos(k t) and sin((k + 1) t) and the rows
    cos(m phi), sin(m phi), k, m = 0..n_max. With moments, the rows go on
    to a = 2 n_max + 2 and b = 2 n_max for the fit's moments.
    """
    xi = _checked_xi(xi_of_eta(coords.domain, coords.eta))
    t_count, phi_count = n_max + 2, n_max + 1
    if moments:
        t_count, phi_count = 2 * n_max + 3, 2 * n_max + 1
    return (
        _multiple_angles(xi, np.sqrt(1.0 - xi * xi), t_count),
        _multiple_angles(np.cos(coords.phi), np.sin(coords.phi), phi_count),
    )


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

    The fit is real: basis column (n, m >= 0) holds P_nm cos(m phi) and
    column (n, -m) holds P_nm sin(m phi). Coefficients a, b map to
    q_n0 = a, q_nm = (a - i b) / 2, q_n,-m = (-1)^m conj(q_nm), so fitted
    weights are conjugate-consistent by construction.

    The normal equations never form the (n_v, beta) basis. Each column is
    F_m tau(t) {cos, sin}(m phi) (_fit_tables), so the Gram matrix
    B^T B follows from trigonometric moments of the samples
    (_moment_gram), B^T R from the tau rows weighted by R against the
    m phi rows (_project), and B c is the reconstruction kernel
    (_synthesize); one build of the cos/sin rows serves all three. The fit
    policy is _least_squares, shared with the contour fit; only its SVD
    fallback builds the dense basis (_real_basis).
    """
    if mesh.n_v != coords.n:
        raise ValueError("mesh and coords disagree on vertex count")
    n_max = config.n_max
    # 8 (n_max + 1) cos/sin values per sample, and G
    _check_fit_bytes(f"fit of {coords.n} samples at degree {n_max}",
                     64 * (n_max + 1) * coords.n + 8 * (n_max + 1) ** 4)
    rows = _angle_rows(coords, n_max, moments=True)
    fit, residual_rms = _least_squares(
        _moment_gram(n_max, *rows),
        lambda R: _project(n_max, *rows, R),
        lambda c: _synthesize(n_max, *rows, c),
        mesh.vertices,
        lambda: _real_basis(n_max, *rows),
    )
    coef = np.empty_like(fit)
    coef[_fit_tables(n_max).column] = fit
    n, m = full_orders(n_max)
    pos = np.flatnonzero(m > 0)
    neg = FourierWeights.row_index(n[pos], -m[pos])
    q = coef.astype(np.complex128)
    q[pos] = 0.5 * (coef[pos] - 1j * coef[neg])
    q[neg] = ((-1.0) ** m[pos])[:, None] * np.conj(q[pos])
    return FourierWeights(
        q=q, n_max=n_max, domain=coords.domain, residual_rms=residual_rms
    )


# the product-to-sum rules of the tau rows k and k' of two orders of
# parities p and p', as (sign, cos or sin, c0) of a term at t-frequency
# k - k' + c0 (Toeplitz) and one at k + k' + c0 (Hankel):
#   cos(k t) cos(k' t)             = (cos((k - k') t) + cos((k + k') t)) / 2
#   sin((k + 1) t) sin((k' + 1) t) = (cos((k - k') t) - cos((k + k' + 2) t)) / 2
#   cos(k t) sin((k' + 1) t)       = (-sin((k - k' - 1) t) + sin((k + k' + 1) t)) / 2
#   sin((k + 1) t) cos(k' t)       = (sin((k - k' + 1) t) + sin((k + k' + 1) t)) / 2
_TAU_PRODUCTS = {
    (0, 0): ((1.0, 0, 0), (1.0, 0, 0)),
    (1, 1): ((1.0, 0, 0), (-1.0, 0, 2)),
    (0, 1): ((-1.0, 1, -1), (1.0, 1, 1)),
    (1, 0): ((1.0, 1, 1), (1.0, 1, 1)),
}

# classes (c, c') of a Gram block in the order (cos, cos), (cos, sin),
# (sin, cos), (sin, sin). With d = m' - m and s = m' + m,
# {cos, sin}(m phi) {cos, sin}(m' phi) = (eps_d Y(d phi) + eps_s Y(s phi)) / 2,
# where Y is cos for c = c' and sin otherwise.
_CLASS_Y = np.array([0, 1, 1, 0])
_CLASS_EPS = np.array([[1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0]])  # eps_d, eps_s


@dataclass(frozen=True)
class _FitTables:
    """Read-only tables of the real fit at one degree.

    The fit orders its basis columns order-major: order m holds its
    cos(m phi) columns (m + j, m), then, for m > 0, its sin(m phi) columns
    (m + j, -m), j = 0..n_max - m. present[m, c, j] marks these columns
    among all (m, c, j), c = 1 for sin, in that order; start[m] is the
    first column of order m and column[i] the row_index of column i.

    table[m] is F_m, zero-padded to n_max + 1 rows: P_nm(cos t) =
    sum_k F_m[n - m, k] tau_k(t), tau_k = cos(k t) for even m and
    sin((k + 1) t) for odd m, exact as P_nm(cos t) is sin^m t times a
    polynomial of degree n - m in cos t. F_m interpolates the recurrence at
    t_j = pi j / n_max, poles included, for cosine series and at
    t_j = pi (j + 1) / (n_max + 2) for sine series, which vanish there;
    both matrices are well conditioned. As P_nm(-xi) = (-1)^(n+m) P_nm(xi),
    the entries j + k odd are exactly 0.

    The reconstruction reads only these fields; the fit also reads the
    properties, which are built on its first use of the degree.
    """

    n_max: int
    table: np.ndarray
    present: np.ndarray
    start: np.ndarray
    column: np.ndarray

    @functools.cached_property
    def moment_layout(self):
        """(index, sign): sign * moments.take(index) lays the moments
        [y, b, x, a] of _moment_gram (y, x = cos, sin) out as
        [part, p, b, class, term, n_max + a'].

        Part 0 holds the phi-frequency b = m' - m and part 1 b = m' + m of
        a class pair, times its eps; term 0 holds the Toeplitz and term 1
        the Hankel term of the tau product of an order of parity p with
        one of parity p + b, at t-frequency a' + c0, times its sign
        (_TAU_PRODUCTS); 1/4 comes from the two product-to-sum rules.
        """
        size = self.n_max + 1
        count = 2 * size - 1
        a = np.arange(3 * size - 2) - self.n_max
        index = np.empty((2, count, 4, 2, a.size), dtype=np.intp)
        sign = np.empty((2,) + index.shape)
        for p in (0, 1):
            for b in range(count):
                for term, (rule, x, c0) in enumerate(_TAU_PRODUCTS[p, (p + b) % 2]):
                    freq = a + c0
                    row = (_CLASS_Y[:, None] * count + b) * 2 + x
                    index[p, b, :, term] = row * (count + 2) + np.abs(freq)
                    parity = np.where((x == 1) & (freq < 0), -1.0, 1.0)
                    sign[:, p, b, :, term] = (
                        0.25 * rule * parity * _CLASS_EPS[..., None])
        return _read_only(index), _read_only(sign)

    @functools.cached_property
    def tile_rows(self):
        """tile_rows[m] picks the columns of orders m' = m + d >= m, in
        column order, from the (d, j, c') rows, j <= n_max - m, of the
        blocks that _moment_gram computes for order m."""
        rows = []
        for m in range(self.n_max + 1):
            span = self.n_max + 1 - m
            d, c, j = np.nonzero(self.present[m:, :, :span])
            rows.append(_read_only((d * span + j) * 2 + c))
        return tuple(rows)


# one entry per degree in use (a staged run uses a few); at n_max 30 one
# holds 0.24 MiB, 2.4 MiB once the fit has used it (20 MiB at MAX_DEGREE)
@functools.lru_cache(maxsize=16)
def _fit_tables(n_max):
    size = n_max + 1
    j = np.arange(size)
    t_cos = np.pi * j / max(n_max, 1)
    t_sin = np.pi * (j + 1) / (size + 1)
    tau = (np.cos(np.outer(t_cos, j)), np.sin(np.outer(t_sin, j + 1)))
    table = np.zeros((size, size, size))
    for m, block in _legendre_blocks(n_max, np.cos(np.concatenate([t_cos, t_sin]))):
        nodes = block[:, size:] if m % 2 else block[:, :size]
        table[m, : size - m] = np.linalg.solve(tau[m % 2], nodes.T).T
    table[:, (j[:, None] + j) % 2 == 1] = 0.0
    m = j[:, None, None]
    present = (m + j <= n_max) & ((np.arange(2)[:, None] == 0) | (m > 0))
    start = np.concatenate([[0], np.cumsum(present.sum(axis=(1, 2)))])
    m, c, j = np.nonzero(present)
    column = FourierWeights.row_index(m + j, np.where(c, -m, m))
    return _FitTables(n_max, *map(_read_only, (table, present, start, column)))


def _moment_gram(n_max, t_rows, phi_rows):
    """Gram matrix B^T B of the real basis, in the column order of
    _FitTables, from trigonometric moments.

    One GEMM gives the moments S(a, b) = sum_v {cos, sin}(a t_v)
    {cos, sin}(b phi_v), a <= 2 n_max + 2, b <= 2 n_max. The product-to-sum
    rules write the block of orders m <= m' and classes c, c' as
    F_m T F_m'^T, where T[k, k'] is a Toeplitz plus a Hankel matrix of
    moments at t-frequencies k - k' and k + k' (_TAU_PRODUCTS) and
    phi-frequencies m' - m and m' + m. The moments are laid out once per
    parity of m (_FitTables.moment_layout) so that, per order m, two
    strided views give T for every m' >= m and class pair; two GEMMs then
    apply F_m' and F_m, and the blocks fill G below the block diagonal
    and, mirrored, above it.
    """
    size = n_max + 1
    tables = _fit_tables(n_max)
    F, start = tables.table, tables.start.tolist()
    n = t_rows.shape[2]
    moments = (phi_rows.reshape(-1, n) @ t_rows.reshape(-1, n).T).ravel()
    index, sign = tables.moment_layout
    by_diff, by_sum = sign * np.take(moments, index)
    phi_terms = np.empty((size,) + by_diff.shape[2:])
    # windows[d, term, r, c', c, k] = phi_terms[d, 2 c + c', term, r + k]
    step = phi_terms.strides
    windows = np.ndarray(
        (size, 2, 2 * size - 1, 2, 2, size), buffer=phi_terms,
        strides=(step[0], step[2], step[3], step[1], 2 * step[1], step[3]))
    toeplitz = windows[:, 0, :size][:, ::-1]
    hankel = windows[:, 1, n_max:]
    kernel = np.empty((size, size, 2, 2, size))  # [d, k', c', c, k]
    G = np.empty((start[-1], start[-1]))
    for m in range(size):
        span, first, last = size - m, start[m], start[m + 1]
        np.add(by_diff[m % 2, :span], by_sum[m % 2, 2 * m : size + m],
               out=phi_terms[:span])
        np.add(toeplitz[:span], hankel[:span], out=kernel[:span])
        half = np.matmul(F[m:, :span], kernel[:span].reshape(span, size, 4 * size))
        block = half.reshape(-1, size) @ F[m, :span].T  # [(d, j', c'), (c, j)]
        tile = np.take(block.reshape(-1, 2 * span), tables.tile_rows[m], axis=0)
        tile = tile[:, : last - first]
        G[first:, first:last] = tile
        G[first:last, last:] = tile[last - first :].T
    return G


def _project(n_max, t_rows, phi_rows, R):
    """B^T R for samples R (n, c): per order parity, one GEMM of the tau
    rows weighted by each column of R with the m phi rows, then F_m per
    order."""
    size = n_max + 1
    tables = _fit_tables(n_max)
    n, c = R.shape
    weighted = np.empty((size, c, n))
    moments = np.empty((size, 2, size, c))  # [m, class, k, column of R]
    for p, tau in enumerate((t_rows[0, :size], t_rows[1, 1 : size + 1])):
        np.multiply(tau[:, None], R.T, out=weighted)
        z = np.matmul(weighted.reshape(size * c, -1),
                      phi_rows[:, p:size:2].transpose(0, 2, 1))
        moments[p::2] = z.reshape(2, size, c, -1).transpose(3, 0, 1, 2)
    out = np.matmul(tables.table[:, None], moments)
    return out.reshape(-1, c)[tables.present.ravel()]


def _synthesize(n_max, t_rows, phi_rows, coef):
    """B coef, (n, c), for real coefficients coef (beta, c) in the column
    order of _FitTables.

    With t = arccos xi, the expansion is sum_m a_m(t) cos(m phi) +
    b_m(t) sin(m phi). Each order's rows are folded into the Fourier
    coefficients of a_m and b_m in t through the cached table F_m
    (_fit_tables); per order parity one GEMM of those coefficients with
    the cos(k t) or sin((k + 1) t) rows evaluates every a_m and b_m, which
    are then contracted with the cos(m phi) and sin(m phi) rows.
    """
    size = n_max + 1
    tables = _fit_tables(n_max)
    tau = (t_rows[0, :size], t_rows[1, 1 : size + 1])
    cos_m, sin_m = phi_rows[:, :size]
    c = coef.shape[1]
    ab = np.zeros((size, 2, c, size))  # [m, class, column, j]
    ab.transpose(0, 1, 3, 2)[tables.present] = coef
    fold = np.matmul(ab.reshape(size, 2 * c, size), tables.table)
    out = np.zeros((c, t_rows.shape[2]))
    buffer = np.empty(((size + 1) // 2 * 2 * c, t_rows.shape[2]))
    for parity in (0, 1):
        orders = len(range(parity, size, 2))
        if not orders:
            continue
        vals = np.matmul(fold[parity::2].reshape(-1, size), tau[parity],
                         out=buffer[: orders * 2 * c]).reshape(orders, 2, c, -1)
        out += np.einsum("mcv,mv->cv", vals[:, 0], cos_m[parity::2])
        out += np.einsum("mcv,mv->cv", vals[:, 1], sin_m[parity::2])
    return np.ascontiguousarray(out.T)


def _real_basis(n_max, t_rows, phi_rows):
    """Transposed real basis Bt, (beta, n), in the column order of
    _FitTables: P_nm cos(m phi) and P_nm sin(m phi). Raises GuardError
    before allocating more than _MAX_FIT_BYTES."""
    size = n_max + 1
    n = t_rows.shape[2]
    _check_fit_bytes(f"dense fit basis of {n} samples x {size * size} columns",
                     size * size * n * 8)
    tables = _fit_tables(n_max)
    start = tables.start
    tau = (t_rows[0, :size], t_rows[1, 1 : size + 1])
    cos_m, sin_m = phi_rows[:, :size]
    Bt = np.empty((size * size, n))
    for m in range(size):
        block = tables.table[m, : size - m] @ tau[m % 2]
        Bt[start[m] : start[m] + size - m] = block * cos_m[m]
        if m:
            Bt[start[m] + size - m : start[m + 1]] = block * sin_m[m]
    return Bt


def _least_squares(G, project, evaluate, V, basis):
    """Least-squares coefficients of the samples V (n, c) over a real basis
    B (n, k), and the rms over samples of the residual norm.

    The basis enters as its Gram matrix G = B^T B (k, k), which is factored
    in place, and through project(R) = B^T R and evaluate(x) = B x; basis()
    returns the transposed basis B^T (k, n) and is called only on the SVD
    fallback. Requires n >= k; non-finite samples raise ValueError. The
    normal equations are solved by Cholesky with one step of iterative
    refinement on the residual, which gives the least-squares solution to
    working accuracy for a well-conditioned basis. When the Cholesky
    factorization fails or the estimate of cond_1(G) exceeds
    _MAX_NORMAL_COND, the SVD least-squares solver runs instead. Raises
    EngineError for underdetermined, rank-deficient or ill-conditioned
    systems.
    """
    k, n = G.shape[0], V.shape[0]
    if n < k:
        raise EngineError(f"underdetermined fit: {n} samples < {k} basis columns")
    if not np.isfinite(V).all():
        raise ValueError("samples must be finite")
    norm_1 = np.abs(G).sum(axis=0).max()
    # G is symmetric: its transpose is G in the Fortran order dpotrf
    # overwrites
    factor, info = lapack.dpotrf(G.T, overwrite_a=True)
    if info == 0:
        rcond, info = lapack.dpocon(factor, norm_1)
    if info == 0 and rcond * _MAX_NORMAL_COND >= 1.0:
        coef, _ = lapack.dpotrs(factor, project(V))
        correction, _ = lapack.dpotrs(factor, project(V - evaluate(coef)))
        coef = coef + correction
    else:
        coef, _, rank, sv = np.linalg.lstsq(basis().T, V, rcond=None)
        if rank < k:
            raise EngineError(
                f"rank-deficient basis (rank {rank} < {k}); sampling does "
                "not resolve the requested degree"
            )
        cond = sv[0] / sv[-1]
        if cond > 1e12:
            raise EngineError(f"basis condition estimate {cond:.3e} too large")
    resid = ((V - evaluate(coef)) ** 2).sum(axis=1)
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

    The weights become real coefficients a_nm = (2 - delta_m0) Re q_nm and
    b_nm = -2 Im q_nm, and the fit's reconstruction kernel (_synthesize)
    evaluates them. For conjugate-consistent weights this equals
    reconstruct_full.
    """
    _check_domains_match(weights, coords)
    n_max = weights.n_max
    column = _fit_tables(n_max).column
    n, m = full_orders(n_max)
    n, m = n[column], m[column]
    q = weights.q[FourierWeights.row_index(n, np.abs(m))]
    coef = np.where(m[:, None] > 0, 2.0 * q.real, q.real)
    coef[m < 0] = -2.0 * q[m < 0].imag
    return _synthesize(n_max, *_angle_rows(coords, n_max), coef)


def psd_descriptors(weights):
    """Per-degree power spectrum, an (n_max + 1, 3) array: row n holds the
    sum over m of |Q_nm|^2, one column per coordinate."""
    n, _ = full_orders(weights.n_max)
    power = np.zeros((weights.n_max + 1, 3))
    np.add.at(power, n, np.abs(weights.q) ** 2)
    return power


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
