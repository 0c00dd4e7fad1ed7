"""Sweep the anisotropy strength on a surface with a sharp protrusion.

Isotropic flow equalizes areas but can leave skinny triangles on the
protrusion flank. The anisotropic operator diffuses faster across a
face's stretch direction (rate alpha2 >= 1) and slower along it
(alpha1 <= 1), trading equalization speed for roundness. Larger gamma
means rounder faces but a smaller stable time step, so the flow freezes
in the high-gamma limit — the sweep makes that trade-off visible.
"""

from equimesh.benchmarks import protrusion_weights
from equimesh.diffusion import DiffusionConfig, diffuse_remesh
from equimesh.mesh import face_metrics
from equimesh.operators import max_diffusion_rate
from equimesh.spheroidal import sample_icosphere

weights = protrusion_weights()
domain = weights.domain
coords, faces = sample_icosphere(domain, 3)
print(f"protrusion surface: degree {weights.n_max}, {coords.n} samples, "
      f"{domain.kind} chart\n")

print(f"{'gamma':>7} {'max rate':>10} {'iters':>6} {'final STD':>12} "
      f"{'mean rho_hat':>13} {'worst rho_hat':>14}")
for gamma in (0.0, 1.0, 50.0, 250.0):
    config = DiffusionConfig(stages=((12, 30),), gamma=gamma,
                             dt_scale=1.0, std_tolerance=0.0)
    _, mesh, trace = diffuse_remesh(weights, coords, faces, config)
    _, _, rho = face_metrics(mesh)
    final_std = trace.std_u[-1] if trace.n_rows else trace.initial_std_u
    rate = max_diffusion_rate(mesh, gamma)
    print(f"{gamma:>7.0f} {rate:>10.3g} {trace.n_rows:>6} "
          f"{final_std:>12.4e} {rho.mean():>13.7f} {rho.max():>14.7f}")

print("\nreading the table: STD measures leftover area spread (lower is")
print("better equalized), rho_hat measures face roundness (1 = equilateral).")
print("gamma buys roundness until the rate cap freezes the flow entirely.")
