"""Acceptance gate: the eleven product-level checks, one test each.

Every test prints a single `CRITERION k: PASS/FAIL (...)` line through the
terminal-summary hook in conftest.py and asserts the same condition, so
the suite both documents and enforces the bar.
"""

import time

import numpy as np
import pytest

import conftest
from equimesh.benchmarks import (
    blob_contour,
    bumpy_weights,
    cap_domain,
    cap_weights,
    ellipse_contour,
    oblate_domain,
    protrusion_weights,
)
from equimesh.contour2d import decompose_contour, remesh_contour
from equimesh.diffusion import DiffusionConfig, diffuse_remesh
from equimesh.harmonics import (
    ExpansionConfig,
    FourierWeights,
    decompose,
    reconstruct_fast,
    reconstruct_full,
)
from equimesh.mesh import (
    TriangleMesh,
    compare_surfaces,
    face_metrics,
    icosphere,
    mean_edge_length,
)
from equimesh.operators import (
    MeshTopology,
    laplacian_aniso,
    laplacian_iso,
    vertex_mass_matrix,
)
from equimesh.solver import backward_euler_step
from equimesh.spheroidal import (
    CurvilinearCoords,
    SpheroidDomain,
    forward_coords,
    sample_cap_grid,
    sample_icosphere,
)


def record(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"CRITERION {criterion}: {verdict} ({detail})"
    )
    assert ok, f"criterion {criterion}: {detail}"


def consistent_random_weights(n_max, domain, rng, scale=1.0):
    """Random weights whose complex rows are q_nm = scale (g + i h) for
    normal rows g, h drawn per order m >= 0 (h unused at m = 0)."""
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


def bumpy_mesh():
    base = icosphere(3)
    x, y, z = base.vertices.T
    r = 1.0 + 0.08 * np.sin(3.0 * x) * np.cos(2.0 * y) * np.cos(z)
    scaled = base.vertices * r[:, None] * np.array([1.2, 1.2, 0.8])
    return base.with_vertices(scaled)


def signed_volume(mesh):
    """Volume enclosed by a closed, outward-oriented triangle mesh: the sum
    of the signed tetrahedra spanned by the origin and each face."""
    a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    return float(np.einsum("ij,ij->", a, np.cross(b, c))) / 6.0


def cotangent_oracle(mesh):
    n_v = mesh.n_v
    L = np.zeros((n_v, n_v))
    for face in mesh.faces:
        pts = mesh.vertices[face]
        for k in range(3):
            i, j = face[(k + 1) % 3], face[(k + 2) % 3]
            a = pts[(k + 1) % 3] - pts[k]
            b = pts[(k + 2) % 3] - pts[k]
            cot = np.dot(a, b) / np.linalg.norm(np.cross(a, b))
            L[i, j] += 0.5 * cot
            L[j, i] += 0.5 * cot
            L[i, i] -= 0.5 * cot
            L[j, j] -= 0.5 * cot
    return L


# ---------------------------------------------------------------------------
# shared expensive run: the closed-surface benchmark used by criteria 5 and 10

@pytest.fixture(scope="module")
def closed_benchmark():
    domain = oblate_domain()
    weights = bumpy_weights(domain, n_max=30, band=10, amplitude=0.04, seed=7)
    coef_before = weights.coef.copy()
    coords, faces = sample_icosphere(domain, 4)
    initial_mesh = TriangleMesh(reconstruct_fast(weights, coords), faces)
    config = DiffusionConfig(
        stages=((30, 50),), dt_scale=4.0, std_tolerance=0.0
    )
    started = time.perf_counter()
    out_coords, out_mesh, trace = diffuse_remesh(weights, coords, faces, config)
    elapsed = time.perf_counter() - started
    return {
        "weights": weights,
        "coef_before": coef_before,
        "initial_mesh": initial_mesh,
        "out_mesh": out_mesh,
        "trace": trace,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------

def test_criterion_1_fast_full_equivalence():
    domain = oblate_domain()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n_max in (5, 10, 25):
        w = consistent_random_weights(n_max, domain, rng)
        eta = rng.uniform(-1.45, 1.45, 500)
        phi = rng.uniform(0.0, 2.0 * np.pi, 500)
        coords = CurvilinearCoords(eta, phi, domain)
        full = reconstruct_full(w, coords)
        fast = reconstruct_fast(w, coords)
        worst = max(worst, float(np.abs(full - fast).max()))
    record(1, worst <= 1e-10,
           f"max |fast - full| = {worst:.3e} over degrees 5/10/25, bound 1e-10")


def test_criterion_2_analytic_shell_exactness():
    domain = SpheroidDomain("oblate", e=1.0, zeta0=1.0)
    coords, faces = sample_icosphere(domain, 3)
    points = forward_coords(domain, coords.eta, coords.phi)
    mesh = TriangleMesh(points, faces)
    w = decompose(mesh, coords, ExpansionConfig(2))
    back = reconstruct_fast(w, coords)
    rms = float(np.sqrt(((back - points) ** 2).sum(axis=1).mean()))
    mags = np.abs(w.q)
    top = float(mags.max())
    beta_low = 4  # rows of degrees 0 and 1
    high = float(mags[beta_low:].max()) / top
    ok = rms < 1e-8 and high < 1e-9
    record(2, ok,
           f"reconstruction RMS {rms:.3e} < 1e-8; degree>=2 weight fraction "
           f"{high:.3e} < 1e-9")


def test_criterion_3_operator_suite():
    meshes = [icosphere(2), icosphere(3), icosphere(4), bumpy_mesh()]
    worst_sym = worst_row = worst_eig = worst_oracle = 0.0
    for mesh in meshes:
        L = laplacian_iso(mesh)
        dense = L.toarray()
        worst_sym = max(worst_sym, float(np.abs(dense - dense.T).max()))
        worst_row = max(worst_row, float(np.abs(dense.sum(axis=1)).max()))
        eig_min = float(np.linalg.eigvalsh(-dense).min())
        worst_eig = min(worst_eig, eig_min) if worst_eig else eig_min
        oracle = cotangent_oracle(mesh)
        worst_oracle = max(worst_oracle,
                           float(np.abs(dense - oracle).max()))
    ok = (worst_sym < 1e-12 and worst_row < 1e-10 and worst_eig >= -1e-9
          and worst_oracle < 1e-10)
    record(3, ok,
           f"symmetry {worst_sym:.2e}; row sums {worst_row:.2e} < 1e-10; "
           f"min eig of -L {worst_eig:.2e} >= -1e-9; cotangent oracle gap "
           f"{worst_oracle:.2e} < 1e-10")


def test_criterion_4_mass_conservation():
    mesh = bumpy_mesh()
    M = vertex_mass_matrix(mesh)
    L = laplacian_iso(mesh)
    rng = np.random.default_rng(77)
    u = rng.uniform(0.5, 2.0, mesh.n_v)
    ones = np.ones(mesh.n_v)
    total0 = float(ones @ (M @ u))
    dt = conftest.first_dt(mesh)
    step_matrix = MeshTopology(mesh.faces, mesh.n_v).step_matrix
    for _ in range(30):
        u = backward_euler_step(M.diagonal(), L, u, dt, step_matrix=step_matrix)
    drift = abs(float(ones @ (M @ u)) - total0) / abs(total0)
    record(4, drift < 1e-9,
           f"relative mass drift {drift:.3e} after 30 implicit steps, "
           "bound 1e-9")


def test_criterion_5_closed_surface_remeshing(closed_benchmark):
    tr = closed_benchmark["trace"]
    ratio = tr.std_u[-1] / tr.initial_std_u
    area_drift = abs(tr.area[-1] - tr.initial_area) / tr.initial_area
    volume_before = signed_volume(closed_benchmark["initial_mesh"])
    volume_drift = abs(signed_volume(closed_benchmark["out_mesh"])
                       - volume_before) / abs(volume_before)
    flips = int(np.sum(tr.flip_count))
    stds = [tr.initial_std_u] + tr.std_u
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(stds, stds[1:]))
    elapsed = closed_benchmark["elapsed"]
    ok = (ratio <= 1.0 / 3.0 and area_drift <= 0.01 and volume_drift <= 0.01
          and flips == 0 and monotone and elapsed < 120.0)
    record(5, ok,
           f"STD ratio {ratio:.4f} <= 1/3; area drift {area_drift:.2e} <= 1%; "
           f"volume drift {volume_drift:.2e} <= 1%; flipped faces {flips}; "
           f"monotone={monotone}; {elapsed:.1f}s")


def test_criterion_6_open_surface_fidelity():
    domain = cap_domain()
    weights = cap_weights(domain)  # degree-25 bump fit
    coords, faces = sample_cap_grid(domain, rings=28, sectors=56)
    config = DiffusionConfig(stages=((25, 100),), dt_scale=1.0,
                             std_tolerance=0.0)
    _, _, tr = diffuse_remesh(weights, coords, faces, config)
    boundary_drift = abs(
        tr.boundary_length[-1] - tr.initial_boundary_length
    ) / tr.initial_boundary_length
    # per-vertex density is normalized, so its mean only moves through the
    # total surface area (the vertex count is fixed): mean raw Voronoi
    # area = area / n_v
    mean_drift = abs(tr.area[-1] - tr.initial_area) / tr.initial_area
    ok = boundary_drift <= 0.01 and mean_drift <= 0.02 and tr.n_rows == 100
    record(6, ok,
           f"boundary length drift {boundary_drift:.4%} <= 1%; mean "
           f"vertex-area drift {mean_drift:.4%} <= 2%; "
           f"{tr.n_rows}/100 iterations")


def test_criterion_7_hierarchical_efficiency():
    domain = oblate_domain()
    weights = bumpy_weights(domain, n_max=50, band=10, amplitude=0.04, seed=7)
    coords, faces = sample_icosphere(domain, 4)

    flat_cfg = DiffusionConfig(stages=((50, 30),), dt_scale=4.0,
                               std_tolerance=0.0)
    _, _, tr_flat = diffuse_remesh(weights, coords, faces, flat_cfg)

    staged_cfg = DiffusionConfig(stages=((30, 25), (50, 7)), dt_scale=4.0,
                                 std_tolerance=0.0)
    _, _, tr_staged = diffuse_remesh(weights, coords, faces, staged_cfg)

    std_flat = tr_flat.std_u[-1]
    std_staged = tr_staged.std_u[-1]
    rel = abs(std_staged - std_flat) / std_flat
    evals = (tr_staged.basis_evaluation_count[-1]
             / tr_flat.basis_evaluation_count[-1])
    ok = rel <= 0.10 and evals <= 0.60
    record(7, ok,
           f"final STD staged {std_staged:.4e} vs flat {std_flat:.4e} "
           f"(diff {rel:.2%} <= 10%); basis-evaluation ratio {evals:.4f} "
           "<= 0.60")


def test_criterion_8_anisotropy_tradeoff():
    weights = protrusion_weights()
    domain = weights.domain
    coords, faces = sample_icosphere(domain, 3)
    rho_means = []
    std_finals = []
    for gamma in (1.0, 50.0, 250.0):
        config = DiffusionConfig(stages=((12, 30),), gamma=gamma,
                                 dt_scale=1.0, std_tolerance=0.0)
        _, out_mesh, tr = diffuse_remesh(weights, coords, faces, config)
        _, _, rho = face_metrics(out_mesh)
        rho_means.append(float(rho.mean()))
        std_finals.append(tr.std_u[-1] if tr.n_rows else tr.initial_std_u)

    inversions = [max(0.0, b - a) / a
                  for a, b in zip(rho_means, rho_means[1:])]
    rho_ok = (sum(1 for v in inversions if v > 0.0) <= 1
              and max(inversions) <= 0.005)
    std_ok = all(b >= a * (1.0 - 1e-9)
                 for a, b in zip(std_finals, std_finals[1:]))

    # equilateral-faced mesh: anisotropic operator collapses to isotropic
    tet = TriangleMesh(
        np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0),
        np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
    )
    Li = laplacian_iso(tet).toarray()
    iso_gap = max(
        float(np.abs(laplacian_aniso(tet, g).toarray() - Li).max())
        for g in (1.0, 50.0, 250.0)
    )
    ok = rho_ok and std_ok and iso_gap < 1e-10
    rhos = "/".join(f"{v:.6f}" for v in rho_means)
    stds = "/".join(f"{v:.3e}" for v in std_finals)
    record(8, ok,
           f"mean rho_hat {rhos} non-increasing over gamma 1/50/250; final "
           f"STD {stds} non-decreasing; equilateral aniso-iso gap "
           f"{iso_gap:.2e} < 1e-10")


def test_criterion_9_contour_remeshing():
    results = []
    for name, contour in (("ellipse", ellipse_contour(a=2.0, b=0.5,
                                                      n_points=64)),
                          ("blob", blob_contour(n_points=64))):
        w = decompose_contour(contour, 12)
        eta0 = 2.0 * np.pi * np.arange(64) / 64
        from equimesh.contour2d import reconstruct_contour

        start = reconstruct_contour(w, eta0)
        seg0 = np.linalg.norm(np.roll(start, -1, axis=0) - start, axis=1)
        out = remesh_contour(w, 64, i_max=400, std_target=0.15)
        seg = np.linalg.norm(np.roll(out.points, -1, axis=0) - out.points,
                             axis=1)
        ratio = seg.std() / seg0.std()
        length_drift = abs(seg.sum() - seg0.sum()) / seg0.sum()
        mean_drift = abs(seg.mean() - seg0.mean()) / seg0.mean()
        results.append((name, ratio, length_drift, mean_drift))
    ok = all(r <= 0.20 and ld <= 0.01 and md <= 0.01
             for _, r, ld, md in results)
    detail = "; ".join(
        f"{name}: STD ratio {r:.4f} <= 0.20, length drift {ld:.4%}, "
        f"mean spacing drift {md:.4%}"
        for name, r, ld, md in results
    )
    record(9, ok, detail)


def test_criterion_10_morphology_preservation(closed_benchmark):
    initial = closed_benchmark["initial_mesh"]
    final = closed_benchmark["out_mesh"]
    d, _, _ = compare_surfaces(initial, final)
    h = mean_edge_length(initial.vertices, initial.unique_edges())
    frac = d / h
    unchanged = np.array_equal(closed_benchmark["weights"].coef,
                               closed_benchmark["coef_before"])
    ok = frac <= 0.05 and unchanged
    record(10, ok,
           f"mean nearest distance {d:.3e} = {frac:.2%} of mean edge "
           f"{h:.3e} (<= 5%); weights bit-identical: {unchanged}")


def test_criterion_11_metric_sanity(closed_benchmark):
    worst_low, worst_high = 1.0, 1.0
    meshes = [icosphere(r) for r in range(5)]
    meshes.append(bumpy_mesh())
    meshes.append(closed_benchmark["out_mesh"])
    for mesh in meshes:
        _, _, rho = face_metrics(mesh)
        worst_low = min(worst_low, float(rho.min()))
        worst_high = max(worst_high, float(rho.max()))
    side = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                     [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    _, _, rho_eq = face_metrics(TriangleMesh(side, np.array([[0, 1, 2]])))
    eq_err = abs(float(rho_eq[0]) - 1.0)

    counts_ok = True
    for r in range(6):
        m = icosphere(r)
        counts_ok = counts_ok and (m.n_v == 10 * 4**r + 2
                                   and m.n_f == 20 * 4**r)
    ok = (worst_low >= 1.0 - 1e-12 and worst_high < 2.0
          and eq_err <= 1e-12 and counts_ok)
    record(11, ok,
           f"rho_hat in [{worst_low:.12f}, {worst_high:.6f}] within [1, 2); "
           f"equilateral error {eq_err:.1e} <= 1e-12; icosphere vertex/face "
           f"counts exact for r=0..5 (10242/20480 at r=5): {counts_ok}")
