"""Remesh a bumpy closed spheroid while holding its shape fixed.

The surface is encoded once as spheroidal-harmonic weights; the diffusion
flow then slides the sample points along the surface until all triangles
carry about the same area. Outputs land in demos/out/.
"""

import pathlib
import time

import numpy as np

from equimesh.benchmarks import bumpy_weights, oblate_domain
from equimesh.diffusion import DiffusionConfig, diffuse_remesh
from equimesh.harmonics import psd_descriptors, reconstruct_fast
from equimesh.mesh import TriangleMesh, compare_surfaces, save_mesh
from equimesh.spheroidal import sample_icosphere

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

domain = oblate_domain()
weights = bumpy_weights(domain, n_max=30, band=10, amplitude=0.04, seed=7)
print(f"domain: {domain.kind}, e={domain.e}, zeta0={domain.zeta0}")
print(f"weights: degree {weights.n_max}, "
      f"conjugate error {weights.conjugate_error():.3e}")

coords, faces = sample_icosphere(domain, 4)
before = TriangleMesh(reconstruct_fast(weights, coords), faces)
save_mesh(before, out_dir / "bumpy_before.obj")
print(f"sampling: {before.n_v} vertices, {before.n_f} faces")

config = DiffusionConfig(stages=((30, 50),), dt_scale=4.0, std_tolerance=0.0)
t0 = time.perf_counter()
final_coords, after, trace = diffuse_remesh(weights, coords, faces, config)
elapsed = time.perf_counter() - t0

save_mesh(after, out_dir / "bumpy_after.obj")
trace.to_csv(out_dir / "bumpy_trace.csv")

ratio = trace.std_u[-1] / trace.initial_std_u
drift = abs(trace.area[-1] - trace.initial_area) / trace.initial_area
print(f"\n{trace.n_rows} iterations in {elapsed:.1f}s, "
      f"{trace.basis_evaluation_count[-1]} basis evaluations")
print(f"area-density STD: {trace.initial_std_u:.3e} -> {trace.std_u[-1]:.3e} "
      f"(x{ratio:.3f})")
print(f"total area drift: {drift:.2e}")
print(f"rejected candidates: {sum(trace.halvings)}, "
      f"flipped faces among them: {sum(trace.flip_count)}")

# the morphology carrier is untouched, so the shape cannot have moved
d, _, _ = compare_surfaces(before, after)
print(f"mean surface distance before/after: {d:.3e} "
      f"({d / before.mean_edge_length():.2%} of mean edge length)")
power = psd_descriptors(weights).sum(axis=1)
print(f"descriptor power, degrees 0..3: {np.round(power[:4], 6)}")
print(f"\nwrote {out_dir}/bumpy_before.obj, bumpy_after.obj, bumpy_trace.csv")
