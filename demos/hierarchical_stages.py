"""Compare a flat remeshing schedule against a staged one.

Reconstruction cost per iteration scales with the number of basis
columns, which grows quadratically in the degree. Running most of the
iterations at a lower degree and only finishing at full degree reaches
practically the same equalization for roughly half the basis
evaluations.
"""

import time

from equimesh.benchmarks import bumpy_weights, oblate_domain
from equimesh.diffusion import DiffusionConfig, diffuse_remesh
from equimesh.spheroidal import sample_icosphere

domain = oblate_domain()
weights = bumpy_weights(domain, n_max=50, band=10, amplitude=0.04, seed=7)
coords, faces = sample_icosphere(domain, 4)
print(f"input: degree-{weights.n_max} surface, {coords.n} samples")

runs = {}
for label, stages in (
    ("flat (30 iters at degree 50)", ((50, 30),)),
    ("staged (degree 30 x25, then 50 x7)", ((30, 25), (50, 7))),
):
    config = DiffusionConfig(stages=stages, dt_scale=4.0, std_tolerance=0.0)
    t0 = time.perf_counter()
    _, _, trace = diffuse_remesh(weights, coords, faces, config)
    runs[label] = (trace, time.perf_counter() - t0)

print()
for label, (trace, seconds) in runs.items():
    print(f"{label}:")
    print(f"  final STD {trace.std_u[-1]:.4e}  "
          f"basis evaluations {trace.basis_evaluation_count[-1]:,}  "
          f"{seconds:.1f}s")

flat, staged = runs[list(runs)[0]][0], runs[list(runs)[1]][0]
rel = abs(staged.std_u[-1] - flat.std_u[-1]) / flat.std_u[-1]
ratio = staged.basis_evaluation_count[-1] / flat.basis_evaluation_count[-1]
print(f"\nstaged final STD is within {rel:.1%} of flat "
      f"at {ratio:.1%} of the basis-evaluation cost")
