"""Harmonic expansion of genus-0 surfaces over spheroidal charts.

Surfaces are encoded as complex weights Q[(n, m), axis] of fully normalized
associated Legendre functions times circular harmonics in phi. Rows are
n-major with m ascending from -n, so truncating to a lower degree is a
prefix slice. Real surfaces have conjugate-consistent weights. The fit and
the fast reconstruction share one real-arithmetic kernel that runs order by
order: the Legendre block P_nm (n = m..n_max) times cos(m phi) and sin(m phi),
so fitted weights are conjugate-consistent by construction and no complex
basis is built. The fit solves the normal equations by Cholesky with one
step of iterative refinement, and falls back to the SVD least-squares solver
when the Cholesky factorization fails or the condition estimate of the
normal matrix exceeds 1e8. basis_matrix and reconstruct_full stay the
independent complex-basis reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from .errors import EngineError, FormatError, GuardError
from .spheroidal import KINDS, SpheroidDomain, xi_of_eta

__all__ = [
    "MAX_DEGREE",
    "ExpansionConfig",
    "FourierWeights",
    "PsdDescriptors",
    "normalized_alp",
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


@dataclass(frozen=True)
class ExpansionConfig:
    """Expansion truncation; beta/beta_hat count full and half basis columns."""

    n_max: int

    def __post_init__(self):
        n = self.n_max
        if not (isinstance(n, (int, np.integer)) and 0 <= n <= MAX_DEGREE):
            raise GuardError(f"n_max must be an integer in [0, {MAX_DEGREE}]")

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
        q = np.ascontiguousarray(self.q, dtype=np.complex128)
        beta = (int(self.n_max) + 1) ** 2
        if q.shape != (beta, 3):
            raise ValueError(
                f"weights must have shape ({beta}, 3) for n_max={self.n_max}"
            )
        if not (0 <= int(self.n_max) <= MAX_DEGREE):
            raise GuardError(f"n_max must be in [0, {MAX_DEGREE}]")
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


def _legendre_blocks(n_max, xi):
    """Yield (m, P_m) for m = 0..n_max: the (n_max - m + 1, k) block of
    normalized associated Legendre values P_nm(xi), n = m..n_max. The
    three-term recurrence over n at fixed m is numerically stable for the
    supported degree range (values stay O(sqrt(n)))."""
    if not 0 <= n_max <= MAX_DEGREE:
        raise GuardError(f"n_max must be in [0, {MAX_DEGREE}]")
    xi = np.asarray(xi, dtype=float)
    if xi.size and (xi.min() < -1.0 - 1e-12 or xi.max() > 1.0 + 1e-12):
        raise ValueError("xi outside [-1, 1]")
    xi = np.clip(xi, -1.0, 1.0)
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


def alp_table(n_max, xi):
    """(k, beta_hat) normalized associated Legendre values for m >= 0 at the
    k points xi in [-1, 1]; column order matches half_orders(n_max)."""
    out = np.empty((len(xi), (n_max + 1) * (n_max + 2) // 2))
    for m, block in _legendre_blocks(n_max, xi):
        n = np.arange(m, n_max + 1)
        out[:, n * (n + 1) // 2 + m] = block.T
    return out


def normalized_alp(n, m, xi):
    """Fully normalized associated Legendre value(s) at xi.

    Includes the sqrt((2n+1)/(4pi) * (n-m)!/(n+m)!) normalization and the
    Condon-Shortley phase. m must satisfy 0 <= m <= n <= MAX_DEGREE.
    """
    if not (0 <= m <= n <= MAX_DEGREE):
        raise ValueError(f"need 0 <= m <= n <= {MAX_DEGREE}, got n={n}, m={m}")
    scalar = np.isscalar(xi) or np.asarray(xi).ndim == 0
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    table = alp_table(n, xi_arr)
    vals = table[:, n * (n + 1) // 2 + m]
    return float(vals[0]) if scalar else vals


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


def _order_blocks(coords, n_max):
    """Yield (m, P_m, cos(m phi), sin(m phi)) per order m = 0..n_max, with
    cos and sin advanced by the angle-addition recurrence."""
    xi = xi_of_eta(coords.domain, coords.eta)
    cos_1, sin_1 = np.cos(coords.phi), np.sin(coords.phi)
    cos_m, sin_m = np.ones_like(cos_1), np.zeros_like(sin_1)
    for m, block in _legendre_blocks(n_max, xi):
        if m:
            cos_m, sin_m = (cos_m * cos_1 - sin_m * sin_1,
                            sin_m * cos_1 + cos_m * sin_1)
        yield m, block, cos_m, sin_m


def decompose(mesh, coords, config):
    """Least-squares expansion weights of mesh vertices over the basis.

    The fit is real: basis row (n, m >= 0) holds P_nm cos(m phi) and row
    (n, -m) holds P_nm sin(m phi), filled order by order into the
    transposed (beta, n_v) basis Bt. Coefficients a, b map to q_n0 = a,
    q_nm = (a - i b) / 2, q_n,-m = (-1)^m conj(q_nm), so fitted weights are
    conjugate-consistent by construction.

    Requires n_v >= beta. The normal equations G = Bt Bt^T are solved by
    Cholesky with one step of iterative refinement on the residual, which
    gives the least-squares solution to working accuracy for a
    well-conditioned basis. When the Cholesky factorization fails or the
    condition estimate of G exceeds 1e8, the fit runs the SVD least-squares
    solver instead. Raises EngineError for underdetermined, rank-deficient
    or ill-conditioned systems.
    """
    if mesh.n_v != coords.n:
        raise ValueError("mesh and coords disagree on vertex count")
    if coords.domain.kind not in KINDS:
        raise ValueError("bad domain")
    n_max, beta = config.n_max, config.beta
    if mesh.n_v < beta:
        raise EngineError(
            f"underdetermined decomposition: {mesh.n_v} samples < {beta} basis "
            "columns"
        )
    Bt = np.empty((beta, mesh.n_v))
    for m, block, cos_m, sin_m in _order_blocks(coords, n_max):
        n = np.arange(m, n_max + 1)
        Bt[FourierWeights.row_index(n, m)] = block * cos_m
        if m:
            Bt[FourierWeights.row_index(n, -m)] = block * sin_m
    V = mesh.vertices
    coef = _cholesky_lsq(Bt, V)
    if coef is None:
        coef, _, rank, sv = np.linalg.lstsq(Bt.T, V, rcond=None)
        if rank < beta:
            raise EngineError(
                f"rank-deficient basis (rank {rank} < {beta}); sampling does "
                "not resolve the requested degree"
            )
        cond = sv[0] / sv[-1]
        if cond > 1e12:
            raise EngineError(f"basis condition estimate {cond:.3e} too large")
    resid = ((V - Bt.T @ coef) ** 2).sum(axis=1)
    residual_rms = float(np.sqrt(resid.mean()))
    n, m = full_orders(n_max)
    pos = np.flatnonzero(m > 0)
    neg = FourierWeights.row_index(n[pos], -m[pos])
    q = coef.astype(np.complex128)
    q[pos] = 0.5 * (coef[pos] - 1j * coef[neg])
    q[neg] = ((-1.0) ** m[pos])[:, None] * np.conj(q[pos])
    return FourierWeights(
        q=q, n_max=n_max, domain=coords.domain, residual_rms=residual_rms
    )


def _cholesky_lsq(Bt, V):
    """Normal equations solved by Cholesky plus one refinement step on the
    residual, or None when the factorization fails or the estimate of
    cond_1(Bt Bt^T) exceeds _MAX_NORMAL_COND."""
    G = Bt @ Bt.T
    factor, info = lapack.dpotrf(G)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(factor, np.abs(G).sum(axis=0).max())
    if info != 0 or not rcond * _MAX_NORMAL_COND >= 1.0:
        return None
    coef, _ = lapack.dpotrs(factor, Bt @ V)
    correction, _ = lapack.dpotrs(factor, Bt @ (V - Bt.T @ coef))
    return coef + correction


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
    """Evaluate the expansion order by order in real arithmetic.

    For each order m the Legendre block is contracted with its weight rows
    first, C_m = P_m^T [Re Q_m, Im Q_m], and only then combined with phi as
    (2 - delta_m0) (Re C_m cos(m phi) - Im C_m sin(m phi)). For
    conjugate-consistent weights this equals reconstruct_full.
    """
    _check_domains_match(weights, coords)
    n_max = weights.n_max
    out = np.zeros((3, coords.n))
    for m, block, cos_m, sin_m in _order_blocks(coords, n_max):
        n = np.arange(m, n_max + 1)
        q_m = weights.q[FourierWeights.row_index(n, m)]
        c_m = np.vstack([q_m.real.T, q_m.imag.T]) @ block
        out += 2.0 * (c_m[:3] * cos_m - c_m[3:] * sin_m) if m else c_m[:3]
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _WEIGHTS_MAGIC:
        raise FormatError("not a spheroidal weights file")
    header = {}
    idx = 1
    for key in ("kind", "e", "zeta0", "n_max", "rows"):
        if idx >= len(lines):
            raise FormatError("truncated weights header")
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected {key!r} on weights line {idx + 1}")
        header[key] = parts[1]
        idx += 1
    try:
        domain = SpheroidDomain(
            kind=header["kind"], e=float(header["e"]), zeta0=float(header["zeta0"])
        )
        n_max = int(header["n_max"])
        rows = int(header["rows"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"bad weights header: {exc}") from exc
    beta = (n_max + 1) ** 2
    if rows != beta:
        raise FormatError(f"weights row count {rows} != beta {beta}")
    if len(lines) - idx != rows:
        raise FormatError(
            f"expected {rows} weight rows, found {len(lines) - idx}"
        )
    n_expected, m_expected = full_orders(n_max)
    q = np.empty((beta, 3), dtype=np.complex128)
    for i in range(rows):
        parts = lines[idx + i].split()
        if len(parts) != 8:
            raise FormatError(f"weights row {i} malformed")
        try:
            n_i, m_i = int(parts[0]), int(parts[1])
            vals = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise FormatError(f"weights row {i} malformed: {exc}") from exc
        if n_i != n_expected[i] or m_i != m_expected[i]:
            raise FormatError(
                f"weights row {i} has orders ({n_i}, {m_i}); expected "
                f"({n_expected[i]}, {m_expected[i]})"
            )
        q[i] = [
            complex(vals[0], vals[1]),
            complex(vals[2], vals[3]),
            complex(vals[4], vals[5]),
        ]
    return FourierWeights(q=q, n_max=n_max, domain=domain)
