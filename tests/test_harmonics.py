"""Tests for the spheroidal harmonic expansion.

The associated Legendre implementation is checked against an independent
oracle built from Rodrigues' formula with exact rational arithmetic, and
the basis is checked for orthonormality under Gauss-Legendre quadrature.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from equimesh import benchmarks, harmonics
from equimesh.contour2d import (
    ContourWeights,
    EllipticDomain,
    decompose_contour,
    remesh_microstructure_2d,
)
from equimesh.errors import EngineError, FormatError, GuardError
from equimesh.harmonics import (
    MAX_DEGREE,
    ExpansionConfig,
    FourierWeights,
    _angle_rows,
    _fit_tables,
    _least_squares,
    _legendre_blocks,
    _moment_gram,
    _multiple_angles,
    _project,
    _real_basis,
    _synthesize,
    alp_table,
    basis_matrix,
    decompose,
    full_orders,
    half_orders,
    load_weights,
    psd_descriptors,
    reconstruct_fast,
    reconstruct_full,
    save_weights,
)
from equimesh.mesh import TriangleMesh
from equimesh.spheroidal import (
    KINDS,
    PROLATE_HEMISPHEROID,
    CurvilinearCoords,
    SpheroidDomain,
    forward_coords,
    sample_cap_grid,
    sample_icosphere,
)


# ---------------------------------------------------------------------------
# oracle: associated Legendre functions from Rodrigues' formula, evaluated
# with exact rational coefficients (independent of the recurrence under test)

def _poly_diff(coefs):
    return [k * c for k, c in enumerate(coefs)][1:] or [Fraction(0)]

def _legendre_coefs(n):
    """Exact coefficients of P_n(x) via Rodrigues: d^n/dx^n (x^2-1)^n / (2^n n!)."""
    coefs = [Fraction(0)] * (2 * n + 1)
    for k in range(n + 1):
        coefs[2 * k] = Fraction(math.comb(n, k) * (-1) ** (n - k))
    for _ in range(n):
        coefs = _poly_diff(coefs)
    scale = Fraction(1, 2**n * math.factorial(n))
    return [c * scale for c in coefs]

def oracle_alp(n, m, x):
    """Fully normalized P~_nm(x), Condon-Shortley phase, via Rodrigues."""
    coefs = _legendre_coefs(n)
    for _ in range(m):
        coefs = _poly_diff(coefs)
    xf = Fraction(x)  # exact value of the float
    poly = sum(c * xf**k for k, c in enumerate(coefs))
    norm = math.sqrt(
        (2 * n + 1)
        / (4.0 * math.pi)
        * math.factorial(n - m)
        / math.factorial(n + m)
    )
    return (-1.0) ** m * (1.0 - x * x) ** (m / 2.0) * float(poly) * norm


def _random_consistent_weights(n_max, domain, rng, scale=1.0):
    """Random weights satisfying row(n,-m) = (-1)^m conj(row(n,m))."""
    beta = (n_max + 1) ** 2
    q = np.zeros((beta, 3), dtype=np.complex128)
    for n in range(n_max + 1):
        for m in range(n + 1):
            row = rng.normal(size=3) + 1j * rng.normal(size=3)
            if m == 0:
                row = row.real.astype(np.complex128)
            q[FourierWeights.row_index(n, m)] = scale * row
            if m > 0:
                q[FourierWeights.row_index(n, -m)] = (
                    (-1.0) ** m * np.conj(scale * row)
                )
    return FourierWeights(q, n_max, domain)


# ---------------------------------------------------------------------------
# configuration and index bookkeeping

def test_expansion_config_counts():
    cfg = ExpansionConfig(4)
    assert cfg.beta == 25


@pytest.mark.parametrize("bad", [-1, 81, 2.5])
def test_expansion_config_rejects_bad_degree(bad):
    with pytest.raises(GuardError):
        ExpansionConfig(bad)


_ELLIPSE = EllipticDomain(e=1.0, zeta0=0.5)

# every entry that takes an expansion degree; the contour batch lowers the
# degree per particle, so its entry must refuse the requested one first
_DEGREE_ENTRIES = {
    "ExpansionConfig": ExpansionConfig,
    "FourierWeights": lambda n: FourierWeights(
        np.zeros((9, 3)), n, SpheroidDomain("oblate", 0.8, 1.1)
    ),
    "_legendre_blocks": lambda n: next(_legendre_blocks(n, np.zeros(3))),
    "ContourWeights": lambda n: ContourWeights(np.zeros((3, 2)), n, _ELLIPSE),
    "decompose_contour": lambda n: decompose_contour(benchmarks.ellipse_contour(), n),
    "remesh_microstructure_2d": lambda n: remesh_microstructure_2d(
        [benchmarks.ellipse_contour()], 16, n
    ),
}


@pytest.mark.parametrize("entry", sorted(_DEGREE_ENTRIES))
@pytest.mark.parametrize("bad", [-1, 81, 2.5])
def test_every_degree_entry_raises_one_guard(entry, bad):
    with pytest.raises(GuardError) as exc:
        _DEGREE_ENTRIES[entry](bad)
    assert str(exc.value) == f"n_max must be an integer in [0, {MAX_DEGREE}]"


def test_order_layouts():
    n, m = full_orders(3)
    assert n.shape == (16,)
    assert list(n[:4]) == [0, 1, 1, 1]
    assert list(m[:4]) == [0, -1, 0, 1]
    # row_index must invert the layout
    for i in range(16):
        assert FourierWeights.row_index(n[i], m[i]) == i

    nh, mh = half_orders(3)
    assert nh.shape == (10,)
    assert np.all(mh >= 0)
    assert np.all(mh <= nh)
    assert list(nh) == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]


# ---------------------------------------------------------------------------
# associated Legendre values

def alp(n, m, xi):
    """P_nm at the points xi, read from the degree-n table."""
    return alp_table(n, np.atleast_1d(np.asarray(xi, dtype=float)))[
        :, n * (n + 1) // 2 + m
    ]


def test_alp_matches_rodrigues_oracle():
    xs = np.linspace(-0.95, 0.95, 11)
    for n in range(9):
        for m in range(n + 1):
            got = alp(n, m, xs)
            want = np.array([oracle_alp(n, m, x) for x in xs])
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13), (n, m)


def test_alp_anchor_values():
    assert alp(0, 0, 0.3)[0] == pytest.approx(
        math.sqrt(1.0 / (4.0 * math.pi)), rel=1e-14
    )
    assert alp(1, 0, 1.0)[0] == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)), rel=1e-14
    )
    assert alp(1, 1, 0.0)[0] == pytest.approx(
        -math.sqrt(3.0 / (8.0 * math.pi)), rel=1e-14
    )
    assert alp(2, 0, 1.0)[0] == pytest.approx(
        math.sqrt(5.0 / (4.0 * math.pi)), rel=1e-14
    )


def test_alp_table_layout_matches_scalar_calls():
    """Column j of the degree-5 table is (n, m) = half_orders(5)[j], and its
    values do not depend on the table's degree."""
    xs = np.array([-0.7, 0.0, 0.4, 0.9])
    table = alp_table(5, xs)
    assert table.shape == (4, 21)
    nh, mh = half_orders(5)
    for j, (n, m) in enumerate(zip(nh, mh)):
        assert j == n * (n + 1) // 2 + m
        assert table[:, j] == pytest.approx(alp(n, m, xs), rel=1e-14)


def test_alp_validation():
    with pytest.raises(ValueError):
        alp_table(3, np.array([1.5]))
    with pytest.raises(GuardError):
        alp_table(99, np.array([0.0]))
    with pytest.raises(ValueError):
        alp_table(3, np.array([0.5, np.nan]))


def test_high_degree_stays_finite():
    xs = np.linspace(-1.0, 1.0, 64)
    table = alp_table(80, xs)
    assert np.isfinite(table).all()
    # normalized values grow like sqrt(n), never explode
    assert np.abs(table).max() < 50.0


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 30, 80])
def test_fourier_table_reproduces_alp(n_max):
    """P_nm(cos t) = sum_k F_m[n - m, k] tau_k(t), with tau_k = cos(k t) for
    even m and sin((k + 1) t) for odd m, at random angles and both poles;
    t = arccos xi as in the kernel."""
    rng = np.random.default_rng(n_max)
    xi = np.concatenate([[1.0, -1.0], np.cos(rng.uniform(0.0, np.pi, 200))])
    t = np.arccos(xi)
    k = np.arange(n_max + 1)
    tau = (np.cos(np.outer(k, t)), np.sin(np.outer(k + 1, t)))
    expected = alp_table(n_max, xi)
    table = [f[: n_max + 1 - m] for m, f in enumerate(_fit_tables(n_max).table)]
    assert len(table) == n_max + 1
    for m, f_m in enumerate(table):
        n = np.arange(m, n_max + 1)
        assert f_m.shape == (n_max - m + 1, n_max + 1)
        assert not f_m.flags.writeable
        got = f_m @ tau[m % 2]
        want = expected[:, n * (n + 1) // 2 + m].T
        # values grow like sqrt(n) (3.6 at degree 80), and so does round-off
        assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n_max", [0, 1, 12, 30, 80])
def test_fourier_table_parity_zeros_are_exact(n_max):
    # P_nm(-xi) = (-1)^(n+m) P_nm(xi): row j = n - m of F_m has no term at
    # a k of the other parity
    table = _fit_tables(n_max).table
    j = np.arange(n_max + 1)
    odd = (j[:, None] + j) % 2 == 1
    assert np.all(table[:, odd] == 0.0)


def test_multiple_angles_match_cos_sin():
    # 2 MAX_DEGREE + 3 rows, the most the fit's moments take
    count = 2 * MAX_DEGREE + 3
    a = np.concatenate([[0.0, np.pi / 2.0, np.pi],
                        np.random.default_rng(3).uniform(-np.pi, np.pi, 61)])
    cos_j, sin_j = _multiple_angles(np.cos(a), np.sin(a), count)
    j = np.arange(count)[:, None]
    assert np.abs(cos_j - np.cos(j * a)).max() <= 1e-12
    assert np.abs(sin_j - np.sin(j * a)).max() <= 1e-12


# ---------------------------------------------------------------------------
# basis matrix

def test_basis_is_orthonormal_under_quadrature():
    """Gram matrix of the full basis under the (xi, phi) product measure."""
    domain = SpheroidDomain("oblate", e=0.8, zeta0=1.1)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    n_phi = 64
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    # oblate substitution is xi = sin(eta), so eta = arcsin(xi)
    eta = np.repeat(np.arcsin(nodes), n_phi)
    coords = CurvilinearCoords(eta, np.tile(phi, nodes.size), domain)
    w = np.repeat(wts, n_phi) * (2.0 * np.pi / n_phi)

    B = basis_matrix(coords, ExpansionConfig(6))
    gram = B.conj().T @ (w[:, None] * B)
    assert np.abs(gram - np.eye(49)).max() < 1e-12


def test_basis_negative_orders_are_conjugates():
    domain = SpheroidDomain("prolate", e=0.9, zeta0=0.9)
    rng = np.random.default_rng(7)
    eta = rng.uniform(0.05, np.pi - 0.05, 40)
    phi = rng.uniform(0.0, 2.0 * np.pi, 40)
    coords = CurvilinearCoords(eta, phi, domain)
    B = basis_matrix(coords, ExpansionConfig(5))
    n, m = full_orders(5)
    for j in range(B.shape[1]):
        jneg = FourierWeights.row_index(n[j], -m[j])
        expect = (-1.0) ** m[j] * np.conj(B[:, jneg])
        assert B[:, j] == pytest.approx(expect, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# weights container

def test_weights_shape_validation():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    with pytest.raises(ValueError):
        FourierWeights(np.zeros((5, 3), dtype=complex), 2, domain)


def test_truncated_takes_row_prefix():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    rng = np.random.default_rng(3)
    w = _random_consistent_weights(4, domain, rng)
    t = w.truncated(2)
    assert t.n_max == 2
    assert np.array_equal(t.q, w.q[:9])
    assert w.truncated(4) is w
    with pytest.raises(ValueError):
        w.truncated(5)


def test_conjugate_error_detects_asymmetry():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    rng = np.random.default_rng(5)
    w = _random_consistent_weights(3, domain, rng)
    assert w.conjugate_error() < 1e-15
    broken = w.q.copy()
    broken[FourierWeights.row_index(2, -1)] += 0.25
    w2 = FourierWeights(broken, 3, domain)
    assert w2.conjugate_error() == pytest.approx(0.25, rel=1e-12)


def test_psd_descriptors_hand_value():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    q = np.zeros((9, 3), dtype=complex)
    q[FourierWeights.row_index(1, 0), 2] = 2.0  # degree 1, z column
    q[FourierWeights.row_index(2, 1), 0] = 3.0 + 4.0j  # degree 2, x column
    q[FourierWeights.row_index(2, -1), 0] = -(3.0 - 4.0j)
    w = FourierWeights(q, 2, domain)
    power = psd_descriptors(w)
    assert power.shape == (3, 3)
    assert power[1, 2] == pytest.approx(4.0)
    assert power[2, 0] == pytest.approx(50.0)  # both signed orders
    assert power.sum(axis=1) == pytest.approx([0.0, 4.0, 50.0])


# ---------------------------------------------------------------------------
# decompose / reconstruct

def test_decompose_recovers_band_limited_weights(oblate_dom, rng):
    w = _random_consistent_weights(3, oblate_dom, rng, scale=0.05)
    # anchor on a sphere-ish degree-(0,1) part so the surface is sane
    w.q[FourierWeights.row_index(0, 0)] = 0.0
    base = math.sqrt(4.0 * math.pi / 3.0)
    w.q[FourierWeights.row_index(1, 0)] = [0.0, 0.0, base]
    w.q[FourierWeights.row_index(1, 1)] = [-base / math.sqrt(2.0),
                                           1j * base / math.sqrt(2.0), 0.0]
    w.q[FourierWeights.row_index(1, -1)] = np.conj(
        -w.q[FourierWeights.row_index(1, 1)]
    )

    coords, faces = sample_icosphere(oblate_dom, 2)
    points = reconstruct_full(w, coords)
    mesh = TriangleMesh(points, faces)
    got = decompose(mesh, coords, ExpansionConfig(3))
    assert got.n_max == 3
    assert np.abs(got.q - w.q).max() < 1e-9
    assert got.residual_rms < 1e-9


def test_reconstruct_fast_equals_full(oblate_dom, rng):
    w = _random_consistent_weights(10, oblate_dom, rng)
    eta = rng.uniform(-1.4, 1.4, 300)
    phi = rng.uniform(0.0, 2.0 * np.pi, 300)
    coords = CurvilinearCoords(eta, phi, oblate_dom)
    full = reconstruct_full(w, coords)
    fast = reconstruct_fast(w, coords)
    scale = np.abs(full).max()
    assert np.abs(full - fast).max() / scale < 1e-13


def test_reconstruct_full_rejects_inconsistent_weights(oblate_dom, rng):
    w = _random_consistent_weights(2, oblate_dom, rng)
    w.q[FourierWeights.row_index(1, -1)] += 1.0  # break the symmetry
    eta = rng.uniform(-1.0, 1.0, 10)
    phi = rng.uniform(0.0, 2.0 * np.pi, 10)
    with pytest.raises(EngineError):
        reconstruct_full(w, CurvilinearCoords(eta, phi, oblate_dom))


def test_reconstruct_rejects_domain_mismatch(oblate_dom, prolate_dom, rng):
    w = _random_consistent_weights(2, oblate_dom, rng)
    eta = rng.uniform(0.1, np.pi - 0.1, 10)
    phi = rng.uniform(0.0, 2.0 * np.pi, 10)
    with pytest.raises(ValueError):
        reconstruct_fast(w, CurvilinearCoords(eta, phi, prolate_dom))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite_vertices(bad):
    """A TriangleMesh holds finite vertices only; the fit policy checks its
    samples itself, for the contour fit too."""
    samples = np.ones((4, 3))
    samples[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _least_squares(np.eye(2), None, None, samples, None)


def test_decompose_rejects_vertex_count_mismatch(oblate_dom):
    coords, _ = sample_icosphere(oblate_dom, 1)
    mesh = TriangleMesh(np.zeros((coords.n - 1, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="disagree on vertex count"):
        decompose(mesh, coords, ExpansionConfig(2))


def test_benchmark_surfaces_refuse_other_domains():
    with pytest.raises(ValueError, match="closed kinds only"):
        benchmarks.shell_weights(benchmarks.cap_domain())
    with pytest.raises(ValueError, match="n_max >= 1"):
        benchmarks.shell_weights(benchmarks.oblate_domain(), n_max=0)
    with pytest.raises(ValueError, match="band must not exceed n_max"):
        benchmarks.bumpy_weights(benchmarks.oblate_domain(), n_max=4, band=5)
    with pytest.raises(ValueError, match="hemispheroidal domain"):
        benchmarks.cap_weights(benchmarks.oblate_domain())


def test_decompose_underdetermined_raises(oblate_dom):
    coords, faces = sample_icosphere(oblate_dom, 0)  # 12 vertices
    from equimesh.spheroidal import forward_coords

    mesh = TriangleMesh(forward_coords(oblate_dom, coords.eta, coords.phi), faces)
    with pytest.raises(EngineError):
        decompose(mesh, coords, ExpansionConfig(5))  # 36 columns > 12 rows


def test_decompose_rank_deficient_raises(oblate_dom):
    coords, faces = sample_icosphere(oblate_dom, 1)
    squashed = CurvilinearCoords(
        np.full_like(coords.eta, 0.3), np.full_like(coords.phi, 1.0), oblate_dom
    )
    from equimesh.spheroidal import forward_coords

    mesh = TriangleMesh(forward_coords(oblate_dom, coords.eta, coords.phi), faces)
    with pytest.raises(EngineError):
        decompose(mesh, squashed, ExpansionConfig(2))


def _edge_case_coords(domain, n_max, rng):
    """Random samples plus both ends of the eta range (the poles, or pole and
    rim) at phi = 0 and at the largest double below 2*pi."""
    lo, hi = domain.eta_range
    k = max(4 * (n_max + 1) ** 2, 64)
    phi_top = np.nextafter(2.0 * np.pi, 0.0)
    eta = np.concatenate([[lo, hi, lo, hi], rng.uniform(lo, hi, k)])
    phi = np.concatenate([[0.0, 0.0, phi_top, phi_top],
                          rng.uniform(0.0, 2.0 * np.pi, k)])
    return CurvilinearCoords(eta, phi, domain)


@pytest.mark.parametrize("n_max", [0, 1, 12, 30])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_edge_cases(kind, n_max):
    domain = SpheroidDomain(kind, e=0.8, zeta0=1.1)
    rng = np.random.default_rng(n_max)
    coords = _edge_case_coords(domain, n_max, rng)
    w = _random_consistent_weights(n_max, domain, rng)
    full = reconstruct_full(w, coords)
    fast = reconstruct_fast(w, coords)
    assert np.abs(fast - full).max() <= 1e-12 * np.abs(full).max()

    mesh = TriangleMesh(full, np.zeros((0, 3), dtype=int))
    config = ExpansionConfig(n_max)
    if kind == PROLATE_HEMISPHEROID and n_max >= 12:
        # xi = 1 - cos(eta) spans only [0, 1] on this chart, so the basis
        # loses numerical rank as the degree grows
        if n_max == 30:
            with pytest.raises(EngineError):
                decompose(mesh, coords, config)
            return
        got = decompose(mesh, coords, config)
        assert np.abs(reconstruct_full(got, coords) - full).max() < 1e-10
    else:
        got = decompose(mesh, coords, config)
        assert np.abs(got.q - w.q).max() < 1e-10
    assert got.residual_rms < 1e-12
    assert got.conjugate_error() == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_reconstruct_fast_equals_full_at_max_degree(kind):
    """The double Fourier kernel at MAX_DEGREE, on both ends of the eta
    range (xi = +-1, or pole and rim), on the phi seam and at random
    points; test_kernel_edge_cases covers the lower degrees."""
    domain = SpheroidDomain(kind, e=0.8, zeta0=1.1)
    rng = np.random.default_rng(80)
    lo, hi = domain.eta_range
    phi_top = np.nextafter(2.0 * np.pi, 0.0)
    eta = np.concatenate([[lo, hi, lo, hi], rng.uniform(lo, hi, 300),
                          rng.uniform(lo, hi, 50)])
    phi = np.concatenate([[0.0, 0.0, phi_top, phi_top],
                          rng.uniform(0.0, 2.0 * np.pi, 300),
                          np.zeros(25), np.full(25, phi_top)])
    coords = CurvilinearCoords(eta, phi, domain)
    w = _random_consistent_weights(80, domain, rng)
    full = reconstruct_full(w, coords)
    fast = reconstruct_fast(w, coords)
    assert np.abs(fast - full).max() <= 1e-12 * np.abs(full).max()
    assert np.abs(fast[:4] - full[:4]).max() <= 1e-12


def _svd_reference(mesh, coords, n_max):
    """Weights and residual rms of an SVD least-squares fit on the real basis
    taken from the complex reference basis: Re and Im of column (n, m >= 0)
    are the cos and sin columns (n, m) and (n, -m)."""
    n, m = full_orders(n_max)
    complex_basis = basis_matrix(coords, ExpansionConfig(n_max))
    pos = m >= 0
    B = np.empty(complex_basis.shape)
    B[:, pos] = complex_basis[:, pos].real
    B[:, ~pos] = complex_basis[:, FourierWeights.row_index(n[~pos], -m[~pos])].imag
    coef = np.linalg.lstsq(B, mesh.vertices, rcond=None)[0]
    q = coef.astype(np.complex128)
    for k in np.flatnonzero(m > 0):
        neg = FourierWeights.row_index(n[k], -m[k])
        q[k] = 0.5 * (coef[k] - 1j * coef[neg])
        q[neg] = (-1.0) ** m[k] * np.conj(q[k])
    rms = np.sqrt(((B @ coef - mesh.vertices) ** 2).sum(axis=1).mean())
    return q, rms


def _bumpy_fixture(domain, refinement, n_max):
    weights = benchmarks.bumpy_weights(domain, n_max=n_max, seed=3)
    coords, faces = sample_icosphere(domain, refinement)
    return weights, coords, faces


def _cap_fixture():
    weights = benchmarks.cap_weights()
    coords, faces = sample_cap_grid(weights.domain, rings=40, sectors=64)
    return weights, coords, faces


_FIT_FIXTURES = {
    "prolate-r3-n12": lambda: _bumpy_fixture(benchmarks.prolate_domain(), 3, 12),
    "oblate-r4-n30": lambda: _bumpy_fixture(benchmarks.oblate_domain(), 4, 30),
    "cap-n25": _cap_fixture,
}


@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("fixture", sorted(_FIT_FIXTURES))
def test_decompose_matches_svd_reference(fixture, noise):
    weights, coords, faces = _FIT_FIXTURES[fixture]()
    points = reconstruct_fast(weights, coords)
    points += noise * np.random.default_rng(5).normal(size=points.shape)
    mesh = TriangleMesh(points, faces)
    got = decompose(mesh, coords, ExpansionConfig(weights.n_max))
    q_ref, rms_ref = _svd_reference(mesh, coords, weights.n_max)
    assert np.abs(got.q - q_ref).max() <= 1e-12 * np.abs(q_ref).max()
    assert got.conjugate_error() == 0.0
    if noise:
        assert got.residual_rms == pytest.approx(rms_ref, rel=1e-12, abs=0.0)
    else:
        assert np.abs(got.q - weights.q).max() < 1e-12


def _ill_conditioned_fixture():
    """Degree-12 samples on the prolate hemispheroid, where cond(B) is about
    4e8, far past the normal-equation limit."""
    domain = SpheroidDomain(PROLATE_HEMISPHEROID, e=0.8, zeta0=1.1)
    coords = _edge_case_coords(domain, 12, np.random.default_rng(12))
    w = _random_consistent_weights(12, domain, np.random.default_rng(12))
    mesh = TriangleMesh(reconstruct_full(w, coords), np.zeros((0, 3), dtype=int))
    return mesh, coords


def test_ill_conditioned_fit_takes_svd_path(monkeypatch):
    # the cap basis (cond about 1e3) stays on Cholesky
    mesh, coords = _ill_conditioned_fixture()
    calls, lstsq = [], np.linalg.lstsq

    def spy(B, *args, **kwargs):
        calls.append(B.shape)
        return lstsq(B, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    decompose(mesh, coords, ExpansionConfig(12))
    assert calls == [(coords.n, 169)]

    calls.clear()
    weights, coords, faces = _cap_fixture()
    decompose(TriangleMesh(reconstruct_fast(weights, coords), faces), coords,
              ExpansionConfig(25))
    assert calls == []


def test_svd_fallback_guards_dense_basis_memory(monkeypatch):
    # the guard counts n_v * beta float64 values before the basis exists
    mesh, coords = _ill_conditioned_fixture()
    nbytes = coords.n * 169 * 8
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", nbytes - 1)
    with pytest.raises(GuardError, match=rf"^dense fit basis of {coords.n} samples x "
                       r"169 columns needs 0\.9 MiB, more than 0\.9 MiB$"):
        decompose(mesh, coords, ExpansionConfig(12))
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", nbytes)
    decompose(mesh, coords, ExpansionConfig(12))


def test_fit_guards_rows_and_gram_memory(monkeypatch):
    # 8 (n_max + 1) cos/sin values per sample and the beta^2 Gram matrix,
    # refused before any row is built
    weights, coords, faces = _cap_fixture()
    mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    nbytes = 64 * 13 * coords.n + 8 * 13**4

    def refused(*args, **kwargs):
        raise AssertionError("the rows were built")

    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", nbytes - 1)
    monkeypatch.setattr(harmonics, "_angle_rows", refused)
    with pytest.raises(GuardError, match=rf"^fit of {coords.n} samples at degree 12 "
                       r"needs \d+\.\d MiB, more than \d+\.\d MiB$"):
        decompose(mesh, coords, ExpansionConfig(12))
    monkeypatch.undo()
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", nbytes)
    decompose(mesh, coords, ExpansionConfig(12))


def _check_moment_products(coords, n_max, rng):
    """The moment Gram, B^T R and B c against products with the dense basis."""
    rows = _angle_rows(coords, n_max, moments=True)
    Bt = _real_basis(n_max, *rows)
    R = rng.normal(size=(coords.n, 3))
    coef = rng.normal(size=(Bt.shape[0], 3))
    for got, want in (
        (_moment_gram(n_max, *rows), Bt @ Bt.T),
        (_project(n_max, *rows, R), Bt @ R),
        (_synthesize(n_max, *rows, coef), Bt.T @ coef),
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_max", [0, 1, 12, 30])
@pytest.mark.parametrize("kind", KINDS)
def test_moment_products_match_dense_basis(kind, n_max):
    domain = SpheroidDomain(kind, e=0.8, zeta0=1.1)
    rng = np.random.default_rng(n_max)
    _check_moment_products(_edge_case_coords(domain, n_max, rng), n_max, rng)


def test_moment_products_match_dense_basis_on_cap_grid():
    _, coords, _ = _cap_fixture()
    _check_moment_products(coords, 25, np.random.default_rng(25))


def test_cholesky_path_never_builds_dense_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense basis was built on the Cholesky path")

    monkeypatch.setattr(harmonics, "_real_basis", refuse)
    weights, coords, faces = _FIT_FIXTURES["oblate-r4-n30"]()
    mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    got = decompose(mesh, coords, ExpansionConfig(30))
    assert np.abs(got.q - weights.q).max() < 1e-12


def test_decompose_memory_stays_below_dense_basis():
    # the (n_v, beta) basis alone would take 75 MiB at refinement 5, n_max 30
    weights, coords, faces = _bumpy_fixture(benchmarks.prolate_domain(), 5, 30)
    mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    config = ExpansionConfig(30)
    decompose(mesh, coords, config)  # builds the cached tables
    tracemalloc.start()
    try:
        got = decompose(mesh, coords, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert np.abs(got.q - weights.q).max() < 1e-12


def test_decompose_error_messages(oblate_dom):
    coords, _ = sample_icosphere(oblate_dom, 1)
    squashed = CurvilinearCoords(
        np.full_like(coords.eta, 0.3), np.full_like(coords.phi, 1.0), oblate_dom
    )
    mesh = TriangleMesh(forward_coords(oblate_dom, coords.eta, coords.phi),
                        np.zeros((0, 3), dtype=int))
    with pytest.raises(EngineError, match=r"^rank-deficient basis \(rank 1 < 9\); "
                       "sampling does not resolve the requested degree$"):
        decompose(mesh, squashed, ExpansionConfig(2))

    # full numerical rank, but cond(B) about 3e12 on this chart at degree 17
    domain = SpheroidDomain(PROLATE_HEMISPHEROID, e=0.8, zeta0=1.1)
    rng = np.random.default_rng(0)
    lo, hi = domain.eta_range
    eta, phi = rng.uniform(lo, hi, 648), rng.uniform(0.0, 2.0 * np.pi, 648)
    mesh = TriangleMesh(forward_coords(domain, eta, phi),
                        np.zeros((0, 3), dtype=int))
    with pytest.raises(EngineError,
                       match=r"^basis condition estimate \d\.\d{3}e\+12 too large$"):
        decompose(mesh, CurvilinearCoords(eta, phi, domain), ExpansionConfig(17))


# ---------------------------------------------------------------------------
# weights file round trip

def test_save_load_roundtrip(tmp_path, oblate_dom, rng):
    w = _random_consistent_weights(5, oblate_dom, rng)
    path = tmp_path / "weights.txt"
    save_weights(w, path)
    back = load_weights(path)
    assert back.n_max == 5
    assert np.array_equal(back.q, w.q)  # 17 digits round-trips doubles
    assert back.domain.kind == oblate_dom.kind
    assert back.domain.e == oblate_dom.e
    assert back.domain.zeta0 == oblate_dom.zeta0


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "nope.txt"
    p.write_text("something else\nkind oblate\n")
    with pytest.raises(FormatError):
        load_weights(p)


def test_load_rejects_truncated_file(tmp_path, oblate_dom, rng):
    w = _random_consistent_weights(2, oblate_dom, rng)
    p = tmp_path / "w.txt"
    save_weights(w, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(FormatError):
        load_weights(p)


def test_load_weights_messages_give_file_lines(tmp_path, oblate_dom, rng):
    p = tmp_path / "w.txt"
    save_weights(_random_consistent_weights(2, oblate_dom, rng), p)
    lines = p.read_text().splitlines()
    lines[2] = "eccentricity 0.5"
    p.write_text("\n\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"w\.txt:5: expected 'e'"):
        load_weights(p)


def test_load_weights_rejects_row_count_and_order(tmp_path, oblate_dom, rng):
    p = tmp_path / "w.txt"
    save_weights(_random_consistent_weights(2, oblate_dom, rng), p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:5] + ["rows 8"] + lines[6:]) + "\n")
    with pytest.raises(FormatError, match=r"w\.txt:6: weights row count 8 != beta 9"):
        load_weights(p)
    lines[7], lines[8] = lines[8], lines[7]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError,
                       match=r"w\.txt:8: orders \(1, 0\); expected \(1, -1\)"):
        load_weights(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_weights(tmp_path / "absent.txt")
