"""Remesh a batch of planar particle contours with length-scaled budgets.

The 2D pipeline mirrors the 3D one: fit an ellipse chart, expand the
contour in a Fourier basis, then diffuse the sample angles until segment
lengths even out. Each particle gets a segment budget proportional to
its perimeter, and the batch aborts if any remeshed contour crosses
itself.
"""

import pathlib

import numpy as np

from equimesh.benchmarks import blob_contour, ellipse_contour
from equimesh.contour2d import (
    decompose_contour,
    reconstruct_contour,
    remesh_microstructure_2d,
    segment_budgets,
    write_contours,
)

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

particles = [
    ("needle", ellipse_contour(a=2.0, b=0.35, n_points=64)),
    ("grain", blob_contour(n_points=64)),
    ("pebble", ellipse_contour(a=0.9, b=0.7, n_points=48)),
]

lengths = [c.length() for _, c in particles]
budgets = segment_budgets(lengths, max_segments_largest=48)
print(f"{'particle':>9} {'perimeter':>10} {'budget':>7} {'fit residual':>13}")
for (name, contour), length, budget in zip(particles, lengths, budgets):
    w = decompose_contour(contour, 12)
    print(f"{name:>9} {length:>10.4f} {budget:>7} {w.residual_rms:>13.3e}")

remeshed = remesh_microstructure_2d(
    [c for _, c in particles], max_segments_largest=48, n_max=12,
    i_max=400,
)

print(f"\n{'particle':>9} {'STD before':>11} {'STD after':>10} "
      f"{'length drift':>13}")
for (name, contour), out in zip(particles, remeshed):
    w = decompose_contour(contour, 12)
    n = out.points.shape[0]
    start = reconstruct_contour(w, 2.0 * np.pi * np.arange(n) / n)
    seg0 = np.linalg.norm(np.roll(start, -1, axis=0) - start, axis=1)
    seg = np.linalg.norm(np.roll(out.points, -1, axis=0) - out.points, axis=1)
    drift = abs(seg.sum() - seg0.sum()) / seg0.sum()
    print(f"{name:>9} {seg0.std():>11.3e} {seg.std():>10.3e} {drift:>13.4%}")

doc = out_dir / "microstructure_remeshed.txt"
write_contours([(name, out) for (name, _), out in zip(particles, remeshed)],
               doc)
print(f"\nwrote {doc}")
