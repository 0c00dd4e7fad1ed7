"""Outside-in span tracing of the equimesh layers.

`instrument` rebinds each traced public function in its defining module
and in every equimesh module that imported it by name, so calls made
inside the library are recorded too. `equimesh.solver.cg` is wrapped with
a chained callback that counts conjugate-gradient iterations. Spans stay
in memory; self time is a span's duration minus the time its child spans
cover. Nothing is recorded unless `Tracer.enabled` is set, so the checks
that run between measured operations leave no spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer (equimesh module) -> traced public functions
TRACED = {
    "harmonics": ("reconstruct_fast", "alp_table", "basis_matrix", "decompose"),
    "operators": (
        "laplacian_aniso",
        "laplacian_iso",
        "max_diffusion_rate",
        "gradient_operator",
        "vertex_mass_matrix",
    ),
    "mesh": (
        "face_metrics",
        "vertex_voronoi_areas",
        "detect_normal_flips",
        "area_density",
    ),
    "solver": ("backward_euler_step", "solve_sparse"),
    "spheroidal": (
        "forward_coords",
        "pullback",
        "surface_normals",
        "sample_icosphere",
    ),
    "diffusion": ("diffuse_remesh",),
    "contour2d": (
        "remesh_contour",
        "contour_tangents",
        "reconstruct_contour",
        "decompose_contour",
        "self_intersects",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    """In-memory span store: one [name, start, end, parent] row per call."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def summary(self):
        """(calls, self seconds) per span name and total root-span seconds."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        rooted = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            if parent < 0:
                rooted += end - start
        return calls, self_s, rooted


def _equimesh_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if key == "equimesh" or key.startswith("equimesh.")
    ]


@contextmanager
def instrument(tracer):
    """Rebind the traced functions to `tracer` for the duration of the block."""
    rebound = []
    modules = _equimesh_modules()
    for layer, names in TRACED.items():
        defining = importlib.import_module(f"equimesh.{layer}")
        for name in names:
            original = getattr(defining, name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    solver = importlib.import_module("equimesh.solver")
    cg = solver.cg

    @functools.wraps(cg)
    def counted_cg(*args, callback=None, **kwargs):
        def chained(xk):
            if tracer.enabled:
                tracer.counts["cg_iterations"] += 1
            if callback is not None:
                callback(xk)

        return cg(*args, callback=chained, **kwargs)

    rebound.append((solver, "cg", cg))
    solver.cg = counted_cg
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(rebound):
            setattr(module, attr, original)
