"""Tests for the spheroidal harmonic expansion.

The associated Legendre implementation is checked against an independent
oracle built from Rodrigues' formula with exact rational arithmetic, and
the basis is checked for orthonormality under Gauss-Legendre quadrature.
"""

import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

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
    _fold,
    _apply_table,
    _least_squares,
    _legendre_blocks,
    _moment_gram,
    _moments,
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
    """Random weights whose complex rows are q_nm = scale (g + i h) for
    normal rows g, h drawn per order m >= 0 (h unused at m = 0):
    a_n0 = scale g, a_nm = 2 scale g and b_nm = -2 scale h."""
    coef = np.zeros(((n_max + 1) ** 2, 3))
    for n in range(n_max + 1):
        for m in range(n + 1):
            g, h = rng.normal(size=3), rng.normal(size=3)
            if m == 0:
                coef[FourierWeights.row_index(n, 0)] = scale * g
            else:
                coef[FourierWeights.row_index(n, m)] = 2.0 * scale * g
                coef[FourierWeights.row_index(n, -m)] = -2.0 * scale * h
    return FourierWeights(coef, n_max, domain)


# ---------------------------------------------------------------------------
# configuration and index bookkeeping

def test_expansion_config_counts():
    cfg = ExpansionConfig(4)
    assert cfg.beta == 25


@pytest.mark.parametrize("bad", [-1, 81, 2.5])
def test_expansion_config_rejects_bad_degree(bad):
    with pytest.raises(GuardError):
        ExpansionConfig(bad)


def test_expansion_config_refuses_a_bool_degree():
    # Python counts True as an int: ExpansionConfig(True).beta once read 4
    for bad in (True, False):
        with pytest.raises(GuardError, match="n_max must be an integer"):
            ExpansionConfig(bad)
    assert ExpansionConfig(np.int32(4)).beta == 25


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


def test_multiple_angles_first_rows_are_exact():
    a = np.random.default_rng(5).uniform(-np.pi, np.pi, 97)
    cos_j, sin_j = _multiple_angles(np.cos(a), np.sin(a), 13)
    assert np.array_equal(cos_j[0], np.ones(97))
    assert np.array_equal(sin_j[0], np.zeros(97))
    assert np.array_equal(cos_j[1], np.cos(a))
    assert np.array_equal(sin_j[1], np.sin(a))
    # count 1 gives row 0 alone
    assert np.array_equal(_multiple_angles(np.cos(a), np.sin(a), 1),
                          [[np.ones(97)], [np.zeros(97)]])


@pytest.mark.parametrize("n_max", [4, 12, 30])
@pytest.mark.parametrize("moments", [False, True])
def test_angle_rows_equal_one_recurrence_per_angle(n_max, moments):
    coords, _ = sample_icosphere(benchmarks.oblate_domain(), 2)
    part = slice(5, 150)
    t_rows, phi_rows = _angle_rows(coords, n_max, moments, part)
    xi = harmonics._checked_xi(harmonics.xi_of_eta(coords.domain, coords.eta[part]))
    phi = coords.phi[part]
    t_count, phi_count = (2 * n_max + 3, 2 * n_max + 1) if moments else (n_max + 2, n_max + 1)
    assert np.array_equal(t_rows, _multiple_angles(xi, np.sqrt(1.0 - xi * xi), t_count))
    assert np.array_equal(phi_rows, _multiple_angles(np.cos(phi), np.sin(phi), phi_count))


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
        FourierWeights(np.zeros((5, 3)), 2, domain)


def test_weights_refuse_complex_input():
    # a float copy of complex q would drop its imaginary part with only a
    # warning, and so encode another surface
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    with pytest.raises(ValueError, match="real coefficients"):
        FourierWeights(np.zeros((9, 3), dtype=complex), 2, domain)


def test_weights_are_read_only_copies(oblate_dom, rng):
    w = _random_consistent_weights(2, oblate_dom, rng)
    for array in (w.coef, w.q):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    given = w.coef.copy()
    copy = FourierWeights(given, 2, oblate_dom)
    given[0, 0] += 1.0
    assert np.array_equal(copy.coef, w.coef)


def test_truncated_takes_row_prefix():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    rng = np.random.default_rng(3)
    w = _random_consistent_weights(4, domain, rng)
    t = w.truncated(2)
    assert t.n_max == 2
    assert np.array_equal(t.coef, w.coef[:9])
    assert w.truncated(4) is w
    with pytest.raises(ValueError):
        w.truncated(5)


def test_psd_descriptors_hand_value():
    domain = SpheroidDomain("oblate", e=0.5, zeta0=1.0)
    coef = np.zeros((9, 3))
    coef[FourierWeights.row_index(1, 0), 2] = 2.0  # degree 1, z column
    # degree 2, x column: q_21 = (a - i b) / 2 = 3 + 4i, q_2,-1 = -(3 - 4i)
    coef[FourierWeights.row_index(2, 1), 0] = 6.0
    coef[FourierWeights.row_index(2, -1), 0] = -8.0
    w = FourierWeights(coef, 2, domain)
    power = psd_descriptors(w)
    assert power.shape == (3, 3)
    assert power[1, 2] == pytest.approx(4.0)
    assert power[2, 0] == pytest.approx(50.0)  # both signed orders
    assert power.sum(axis=1) == pytest.approx([0.0, 4.0, 50.0])


# ---------------------------------------------------------------------------
# decompose / reconstruct

def test_decompose_recovers_band_limited_weights(oblate_dom, rng):
    coef = _random_consistent_weights(3, oblate_dom, rng, scale=0.05).coef.copy()
    # anchor on a sphere-ish degree-(0,1) part so the surface is sane
    coef[FourierWeights.row_index(0, 0)] = 0.0
    base = math.sqrt(4.0 * math.pi / 3.0)
    coef[FourierWeights.row_index(1, 0)] = [0.0, 0.0, base]
    coef[FourierWeights.row_index(1, 1)] = [-math.sqrt(2.0) * base, 0.0, 0.0]
    coef[FourierWeights.row_index(1, -1)] = [0.0, -math.sqrt(2.0) * base, 0.0]
    w = FourierWeights(coef, 3, oblate_dom)

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
    # FourierWeights derives a consistent q, so a stub carries the broken one
    q = _random_consistent_weights(2, oblate_dom, rng).q.copy()
    q[FourierWeights.row_index(1, -1)] += 1.0  # break the symmetry
    stub = SimpleNamespace(q=q, n_max=2, domain=oblate_dom)
    eta = rng.uniform(-1.0, 1.0, 10)
    phi = rng.uniform(0.0, 2.0 * np.pi, 10)
    with pytest.raises(EngineError):
        reconstruct_full(stub, CurvilinearCoords(eta, phi, oblate_dom))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
def test_reconstruct_full_bounds_imaginary_part_relative_to_size(scale):
    # at scale 1e8 the imaginary round-off reads about 4e-9, past an
    # absolute 1e-9 bound
    weights, coords, _ = _bumpy_fixture(benchmarks.oblate_domain(), 4, 30)
    scaled = FourierWeights(scale * weights.coef, 30, weights.domain)
    full = reconstruct_full(scaled, coords)
    fast = reconstruct_fast(scaled, coords)
    assert np.abs(full - fast).max() <= 1e-13 * np.abs(fast).max()


_REFERENCE_DOMAINS = {
    "oblate": benchmarks.oblate_domain,
    "prolate": benchmarks.prolate_domain,
    "cap": benchmarks.cap_domain,
}


@pytest.mark.parametrize("n_max", [0, 1, 12, 30])
@pytest.mark.parametrize("domain", sorted(_REFERENCE_DOMAINS))
def test_reconstruct_full_equals_dense_basis_product(domain, n_max):
    domain = _REFERENCE_DOMAINS[domain]()
    rng = np.random.default_rng(n_max)
    coords = _edge_case_coords(domain, n_max, rng)
    w = _random_consistent_weights(n_max, domain, rng)
    dense = (basis_matrix(coords, ExpansionConfig(n_max)) @ w.q).real
    full = reconstruct_full(w, coords)
    assert np.abs(full - dense).max() <= 1e-13 * np.abs(dense).max()


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
        _least_squares(np.eye(2), None, samples, None, None, None)


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
    rms = np.sqrt(((B @ coef - mesh.vertices) ** 2).sum(axis=1).mean())
    return FourierWeights(coef, n_max, coords.domain).q, rms


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


def test_fit_guard_refuses_dense_basis_before_its_rows(monkeypatch):
    # the moment pass builds the moment rows; the SVD fallback would build
    # the short rows, and the guard refuses its basis before the first one
    mesh, coords = _ill_conditioned_fixture()
    built, angle_rows = [], harmonics._angle_rows

    def spy(coords, n_max, moments=False, part=slice(None)):
        built.append(moments)
        return angle_rows(coords, n_max, moments, part)

    monkeypatch.setattr(harmonics, "_angle_rows", spy)
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", coords.n * 169 * 8 - 1)
    with pytest.raises(GuardError, match=rf"^dense fit basis of {coords.n} samples"):
        decompose(mesh, coords, ExpansionConfig(12))
    assert built and all(built)


def test_fit_is_not_limited_by_its_rows_and_gram_matrix(monkeypatch):
    # the fit used to refuse 64 (n_max + 1) bytes of cos/sin rows per sample
    # plus the 8 (n_max + 1)^4 bytes of G; the limit now guards only the
    # SVD fallback's dense basis, which this well-conditioned fit never builds
    weights, coords, faces = _cap_fixture()
    mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    size = weights.n_max + 1
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES",
                        64 * size * coords.n + 8 * size**4 - 1)
    got = decompose(mesh, coords, ExpansionConfig(weights.n_max))
    assert np.abs(got.q - weights.q).max() < 1e-12


def _real_coef(weights):
    """The weights' coefficients in the column order of _FitTables."""
    return weights.coef[_fit_tables(weights.n_max).column]


def test_fit_vertex_blocks_match_one_block(monkeypatch):
    weights, coords, faces = _FIT_FIXTURES["prolate-r3-n12"]()
    mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    config = ExpansionConfig(weights.n_max)
    assert harmonics._block_size(weights.n_max, moments=True) > coords.n
    # a copy of (G, B^T V) of every fit: G is factored in place
    seen, least_squares = [], harmonics._least_squares

    def spy(G, BtV, *args):
        seen.append((G.copy(), BtV.copy()))
        return least_squares(G, BtV, *args)

    monkeypatch.setattr(harmonics, "_least_squares", spy)
    one_block = decompose(mesh, coords, config)
    (G_one, BtV_one), = seen
    # the fit's working set per vertex, as _block_size counts it
    per_vertex = 88 * (weights.n_max + 2)
    for count in (1, coords.n - 1, coords.n, coords.n + 1):
        monkeypatch.setattr(harmonics, "_BLOCK_BYTES", count * per_vertex)
        assert harmonics._block_size(weights.n_max, moments=True) == count
        got = decompose(mesh, coords, config)
        G, BtV = seen[-1]
        assert np.abs(G - G_one).max() <= 1e-13 * np.abs(G_one).max()
        assert np.abs(BtV - BtV_one).max() <= 1e-13 * np.abs(BtV_one).max()
        assert np.abs(got.q - one_block.q).max() <= 1e-12


def test_one_block_fit_equals_the_fit_on_whole_sampling_rows(monkeypatch):
    # protrusion_weights fits 642 samples at degree 12, one block: bit for
    # bit the normal equations on the moment rows of the whole sampling
    calls = []

    def spy(mesh, coords, config):
        calls.append((mesh, coords, config.n_max))
        return decompose(mesh, coords, config)

    monkeypatch.setattr(benchmarks, "decompose", spy)
    got = benchmarks.protrusion_weights()
    (mesh, coords, n_max), = calls
    assert coords.n <= harmonics._block_size(n_max, moments=True)
    rows, V = _angle_rows(coords, n_max, moments=True), mesh.vertices

    def residual(coef):
        return V - _synthesize(_fold(n_max, coef), *rows)

    coef, rms = _least_squares(
        _moment_gram(n_max, _moments(*rows)),
        _apply_table(n_max, _project(n_max, *rows, V)),
        V,
        lambda c: _apply_table(n_max, _project(n_max, *rows, residual(c))),
        lambda c: (residual(c) ** 2).sum(axis=1).sum(),
        None,
    )
    assert np.array_equal(_real_coef(got), coef)
    assert got.residual_rms == rms


def _check_moment_products(coords, n_max, rng):
    """The moment Gram, B^T R and B c against products with the dense basis."""
    rows = _angle_rows(coords, n_max, moments=True)
    Bt = _real_basis(n_max, coords)
    R = rng.normal(size=(coords.n, 3))
    coef = rng.normal(size=(Bt.shape[0], 3))
    for got, want in (
        (_moment_gram(n_max, _moments(*rows)), Bt @ Bt.T),
        (_apply_table(n_max, _project(n_max, *rows, R)), Bt @ R),
        (_synthesize(_fold(n_max, coef), *rows), Bt.T @ coef),
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
    assert peak < 20 * 2**20
    assert np.abs(got.q - weights.q).max() < 1e-12


def test_fit_memory_does_not_grow_with_the_sampling():
    # the Gram matrix and its factor set the peak; the rows of one vertex
    # block add about 1 MiB (116 MiB at refinement 6 with the rows of
    # every vertex)
    config, peaks = ExpansionConfig(30), []
    for refinement in (4, 6):
        weights, coords, faces = _bumpy_fixture(benchmarks.oblate_domain(), refinement, 30)
        mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
        decompose(mesh, coords, config)  # builds the cached tables
        tracemalloc.start()
        try:
            got = decompose(mesh, coords, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.abs(got.q - weights.q).max() < 1e-12
    assert peaks[1] <= 1.25 * peaks[0]


def test_reconstruct_fast_vertex_blocks_match_one_block(oblate_dom, rng):
    n_max = 12
    w = _random_consistent_weights(n_max, oblate_dom, rng)
    block = harmonics._block_size(n_max)
    coef = _real_coef(w)
    for count in (0, 1, block - 1, block, block + 1):
        eta = rng.uniform(-1.4, 1.4, count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        coords = CurvilinearCoords(eta, phi, oblate_dom)
        one_block = _synthesize(_fold(n_max, coef), *_angle_rows(coords, n_max))
        blocked = reconstruct_fast(w, coords)
        assert blocked.shape == (count, 3)
        assert np.abs(blocked - one_block).max(initial=0.0) <= (
            1e-14 * np.abs(one_block).max(initial=0.0))


@pytest.mark.parametrize("refinement", [4, 5])
def test_reconstruct_memory_is_bounded(refinement):
    # at n_max 30 the dense complex basis alone takes 373 MiB at
    # refinement 5, and the fast kernel on the whole sampling 4.6 and
    # 18 MiB at refinements 4 and 5
    weights, coords, _ = _bumpy_fixture(benchmarks.oblate_domain(), refinement, 30)
    bounds = [(reconstruct_fast, 3 * 2**20)]
    if refinement == 5:
        bounds.append((reconstruct_full, 12 * 2**20))
    for reconstruct, bound in bounds:
        reconstruct(weights, coords)  # builds the cached tables
        tracemalloc.start()
        try:
            reconstruct(weights, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, reconstruct.__name__


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
    assert np.array_equal(back.coef, w.coef)
    assert back.domain.kind == oblate_dom.kind
    assert back.domain.e == oblate_dom.e
    assert back.domain.zeta0 == oblate_dom.zeta0


@pytest.mark.parametrize("source", ["decompose", "bumpy"])
def test_save_load_gives_coef_bit_for_bit(tmp_path, source):
    if source == "decompose":
        weights = benchmarks.cap_weights()
    else:
        weights = benchmarks.bumpy_weights(benchmarks.oblate_domain(), n_max=30)
    path = tmp_path / "weights.txt"
    save_weights(weights, path)
    assert np.array_equal(load_weights(path).coef, weights.coef)


def _spoiled_weights_file(path, row, token, delta=0.05):
    """A bumpy n_max-12 weights file with delta added to one token (2..7:
    re and im of x, y, z) of the row (n, m); returns the row's line."""
    save_weights(benchmarks.bumpy_weights(benchmarks.oblate_domain(), n_max=12), path)
    lines = path.read_text().splitlines()
    number = 7 + FourierWeights.row_index(*row)
    tokens = lines[number - 1].split()
    assert tokens[:2] == [str(row[0]), str(row[1])]
    tokens[token] = repr(float(tokens[token]) + delta)
    lines[number - 1] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return number


@pytest.mark.parametrize("row, token, named", [
    pytest.param((3, -2), 2, (3, -2), id="mirror"),
    pytest.param((3, 2), 3, (3, -2), id="pair"),  # its mirror no longer agrees
    pytest.param((2, 0), 7, (2, 0), id="m0-imaginary"),
])
def test_load_weights_refuses_inconsistent_rows(tmp_path, row, token, named):
    path = tmp_path / "w.txt"
    _spoiled_weights_file(path, row, token)
    line = 7 + FourierWeights.row_index(*named)
    n, m = named
    with pytest.raises(FormatError, match=(
            rf"^{re.escape(str(path))}:{line}: weights row \({n}, {m}\) is not "
            rf"\(-1\)\^m conj of row \({n}, {-m}\)$")):
        load_weights(path)


def test_load_weights_accepts_only_consistent_files(tmp_path):
    # one value spoiled at a time: only the real part of an m = 0 row keeps
    # the rows consistent, and what loads is one surface for both evaluators
    path = tmp_path / "w.txt"
    coords, _ = sample_icosphere(benchmarks.oblate_domain(), 2)
    n, m = full_orders(12)
    rows = [0, 6, *np.random.default_rng(10).choice(169, 10, replace=False)]
    for i in rows:
        for token in range(2, 8):
            _spoiled_weights_file(path, (n[i], m[i]), token)
            if m[i] == 0 and token % 2 == 0:
                weights = load_weights(path)
                full = reconstruct_full(weights, coords)
                assert np.abs(reconstruct_fast(weights, coords) - full).max() <= (
                    1e-12 * np.abs(full).max())
            else:
                with pytest.raises(FormatError, match="conj of row"):
                    load_weights(path)


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
