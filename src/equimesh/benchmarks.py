"""Deterministic benchmark inputs used by tests, demos, and docs.

Everything here is constructed spectrally or from seeded generators, so
runs are reproducible and cheap: no external data files.
"""
from __future__ import annotations

import numpy as np

from .harmonics import ExpansionConfig, FourierWeights, decompose
from .mesh import Contour2D, TriangleMesh
from .spheroidal import (
    OBLATE,
    OBLATE_HEMISPHEROID,
    PROLATE,
    SpheroidDomain,
    focal_chart,
    forward_coords,
    sample_cap_grid,
    sample_icosphere,
    xi_of_eta,
)

__all__ = [
    "oblate_domain",
    "prolate_domain",
    "cap_domain",
    "shell_weights",
    "bumpy_weights",
    "protrusion_weights",
    "cap_weights",
    "ellipse_contour",
    "blob_contour",
]

# fully normalized degree-1 factors: P~_1^0 = N10 * xi, P~_1^1 = -N11 * sqrt(1-xi^2)
_N10 = np.sqrt(3.0 / (4.0 * np.pi))
_N11 = np.sqrt(3.0 / (8.0 * np.pi))


def oblate_domain(a=1.2, c=0.8):
    """Closed oblate test domain with semi-axes (a, a, c), a > c."""
    return SpheroidDomain(OBLATE, *focal_chart(a, c))


def prolate_domain(a=0.7, c=1.4):
    """Closed prolate test domain with semi-axes (a, a, c), c > a."""
    return SpheroidDomain(PROLATE, *focal_chart(c, a))


def cap_domain(a=1.0, c=0.55):
    """Open oblate-hemispheroid domain (rim on the z = 0 plane)."""
    return SpheroidDomain(OBLATE_HEMISPHEROID, *focal_chart(a, c))


def shell_weights(domain, n_max=1):
    """Exact expansion of the closed spheroid shell itself.

    Both closed charts put the shell entirely in degree <= 1: x is
    a_11 P_11 cos(phi), y is b_11 P_11 sin(phi) and z is a_10 P_10.
    """
    if domain.is_hemispheroid:
        raise ValueError("analytic shell weights exist for closed kinds only")
    if n_max < 1:
        raise ValueError("shell weights need n_max >= 1")
    a, c = domain.semi_axes()
    coef = np.zeros(((n_max + 1) ** 2, 3))
    coef[FourierWeights.row_index(1, 1), 0] = -a / _N11
    coef[FourierWeights.row_index(1, -1), 1] = -a / _N11
    coef[FourierWeights.row_index(1, 0), 2] = c / _N10
    return FourierWeights(coef, n_max, domain)


def bumpy_weights(domain, n_max=30, band=10, amplitude=0.04, seed=7):
    """Shell plus seeded lumps decaying like 1/n^2, band-limited to `band`.

    Order m of degree n draws normal rows g, h: a_nm = 2 s g and, m > 0,
    b_nm = -2 s h, s = amplitude * a / n^2. Degrees above `band` stay
    exactly zero, which makes reconstructions at any n_max >= band
    equivalent.
    """
    if band > n_max:
        raise ValueError("band must not exceed n_max")
    coef = shell_weights(domain, n_max=n_max).coef.copy()
    a, _ = domain.semi_axes()
    rng = np.random.default_rng(seed)
    for n in range(2, band + 1):
        scale = amplitude * a / (n * n)
        for m in range(0, n + 1):
            g, h = rng.standard_normal(3), rng.standard_normal(3)
            coef[FourierWeights.row_index(n, m)] = 2.0 * scale * g
            if m:
                coef[FourierWeights.row_index(n, -m)] = -2.0 * scale * h
    return FourierWeights(coef, n_max, domain)


def protrusion_weights(amplitude=0.6):
    """A single smooth protrusion at the north pole of the prolate test shell.

    The surface is shell * (1 + amplitude * ((1 + xi)/2)^8), which is
    band-limited to degree 9, so the returned degree-12 weights capture it
    exactly (fit residual at rounding level).
    """
    domain = prolate_domain()
    coords, faces = sample_icosphere(domain, refinements=3)
    xi = xi_of_eta(domain, coords.eta)
    factor = 1.0 + amplitude * ((1.0 + xi) / 2.0) ** 8
    points = forward_coords(domain, coords.eta, coords.phi) * factor[:, None]
    mesh = TriangleMesh(points, faces)
    return decompose(mesh, coords, ExpansionConfig(12))


def cap_weights(domain=None, n_max=25, rings=40, sectors=64):
    """Bumpy open cap fitted on a dense polar grid of an oblate hemispheroid.

    The bumps vanish at the pole (no cone artifact) and keep the rim a
    mildly wavy closed curve. The fit residual is stored on the weights.
    """
    if domain is None:
        domain = cap_domain()
    if not domain.is_hemispheroid:
        raise ValueError("cap benchmark expects a hemispheroidal domain")
    coords, faces = sample_cap_grid(domain, rings=rings, sectors=sectors)
    eta, phi = coords.eta, coords.phi
    bump = (
        1.0
        + 0.10 * np.cos(eta) ** 2 * np.cos(3.0 * phi)
        + 0.06 * np.sin(eta) * np.cos(eta) * np.sin(2.0 * phi)
        + 0.05 * np.sin(3.0 * eta)
    )
    points = forward_coords(domain, eta, phi) * bump[:, None]
    mesh = TriangleMesh(points, faces)
    return decompose(mesh, coords, ExpansionConfig(n_max))


def ellipse_contour(a=2.0, b=0.5, n_points=64):
    """High-eccentricity ellipse sampled uniformly in the elliptic angle."""
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    return Contour2D(points=pts, closed=True)


def blob_contour(n_points=64):
    """Star-shaped smooth blob with three dominant lobes."""
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    r = (
        1.0
        + 0.25 * np.cos(2.0 * theta)
        + 0.15 * np.sin(3.0 * theta)
        + 0.08 * np.cos(5.0 * theta)
    )
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return Contour2D(points=pts, closed=True)
