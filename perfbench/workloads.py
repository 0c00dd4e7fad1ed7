"""Benchmark workloads: seeded fixtures, one measured operation, output checks.

Each workload is built from the seed alone (construction plus warm-up is
the set-up that `setup_s` times), runs one operation through the public
equimesh API, and checks that operation's outputs afterwards, outside the
timed section. Operations call the library through module attributes so
that the rebinding in `tracing.instrument` sees them.
"""
from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass

import numpy as np

from equimesh import benchmarks, contour2d, diffusion, harmonics, spheroidal
from equimesh.errors import EngineError
from equimesh.mesh import Contour2D, TriangleMesh, detect_normal_flips, face_metrics

# criterion 5 of the acceptance suite: relative area drift of a remesh
AREA_DRIFT_BOUND = 0.01
FAST_FULL_BOUND = 1e-9
FIT_ERROR_BOUND = 1e-10


@dataclass
class Outcome:
    """Checked result of one operation.

    attempted/failed count units of work (remesh runs, fits, particles);
    a unit fails when the library raises EngineError or a check fails.
    `wrong` lists failed checks: any entry makes the run incorrect.
    `digest` fingerprints every output bit for the equality checks.
    """

    attempted: int
    failed: int
    wrong: list
    std_ratio: float
    iters_to_target: int
    digest: str
    counts: dict


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _Remesh3D:
    """Single-stage density-equalizing remesh of frozen weights on a fresh
    icosphere.

    The seed turns the icosphere sampling about the symmetry axis, so each
    seed starts the flow from a different sampling of the same surface.
    """

    refinement = 4

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.turn = rng.uniform(0.0, 2.0 * np.pi)
        self.weights = self.make_weights(rng)
        self.q0 = self.weights.q.copy()
        coords, faces = self.sampling(self.refinement)
        self.n_v = coords.n
        start = TriangleMesh(harmonics.reconstruct_fast(self.weights, coords), faces)
        _, self.start_normals, _ = face_metrics(start)

    def sampling(self, refinement):
        coords, faces = spheroidal.sample_icosphere(self.weights.domain, refinement)
        phi = np.mod(coords.phi + self.turn, 2.0 * np.pi)
        phi[phi >= 2.0 * np.pi] = 0.0
        turned = spheroidal.CurvilinearCoords(eta=coords.eta, phi=phi, domain=coords.domain)
        return turned, faces

    def warm_up(self):
        coords, faces = self.sampling(2)
        ((n_max, _),) = self.config.stages
        warm = diffusion.DiffusionConfig(
            stages=((n_max, 2),), gamma=self.config.gamma, dt_scale=self.config.dt_scale
        )
        diffusion.diffuse_remesh(self.weights, coords, faces, warm)

    def run(self):
        coords, faces = self.sampling(self.refinement)
        try:
            final_coords, remeshed, trace = diffusion.diffuse_remesh(
                self.weights, coords, faces, self.config
            )
        except EngineError as exc:
            return None, None, exc.trace
        return final_coords, remeshed, trace

    def check(self, result):
        final_coords, remeshed, trace = result
        wrong = []
        if not np.array_equal(self.weights.q, self.q0):
            wrong.append("weights changed during the run")
        if final_coords is not None:
            fast = harmonics.reconstruct_fast(self.weights, final_coords)
            full = harmonics.reconstruct_full(self.weights, final_coords)
            gap = float(np.abs(fast - full).max())
            if not gap <= FAST_FULL_BOUND:
                wrong.append(f"fast/full reconstruction gap {gap:.3e}")
            flips = detect_normal_flips(remeshed, self.start_normals).size
            if flips:
                wrong.append(f"{flips} faces flipped against the start mesh")
            drift = abs(trace.area[-1] - trace.initial_area) / trace.initial_area
            if not drift <= AREA_DRIFT_BOUND:
                wrong.append(f"area drift {drift:.3e}")
        ratios = np.asarray(trace.std_u) / trace.initial_std_u
        reached = np.nonzero(ratios <= self.target)[0]
        ((n_max, i_max),) = self.config.stages
        beta_hat = (n_max + 1) * (n_max + 2) // 2
        evals = trace.basis_evaluation_count[-1] if trace.n_rows else 0
        # one reconstruction starts the stage; each further one is a candidate
        candidates = max(evals // (beta_hat * self.n_v) - 1, 0)
        coords_bits = (
            [] if final_coords is None else [final_coords.eta, final_coords.phi]
        )
        return Outcome(
            attempted=1,
            failed=int(final_coords is None or bool(wrong)),
            wrong=wrong,
            std_ratio=float(ratios[-1]) if ratios.size else 1.0,
            iters_to_target=int(trace.t[reached[0]]) if reached.size else i_max + 1,
            digest=_digest([np.asarray(v) for v in astuple(trace)] + coords_bits),
            counts={
                "harmonics.basis_evals": evals,
                "diffusion.accepted": trace.n_rows,
                "diffusion.candidates": candidates,
                "diffusion.flipped_faces": int(sum(trace.flip_count)),
            },
        )


class ClosedIso(_Remesh3D):
    """The acceptance fixture: isotropic flow at degree 30, 50 iterations."""

    config = diffusion.DiffusionConfig(
        stages=((30, 50),), dt_scale=4.0, std_tolerance=0.0
    )
    target = 0.25

    @staticmethod
    def make_weights(rng):
        return benchmarks.bumpy_weights(benchmarks.oblate_domain(), n_max=30)


class AnisoProtrusion(_Remesh3D):
    """Anisotropic flow on the prolate protrusion at degree 12."""

    config = diffusion.DiffusionConfig(stages=((12, 50),), gamma=1.0, dt_scale=4.0)
    target = 0.8

    @staticmethod
    def make_weights(rng):
        # the seed also sets the protrusion height within 5% of the stock 0.6
        return benchmarks.protrusion_weights(amplitude=rng.uniform(0.57, 0.63))


class Encode:
    """Least-squares fits with known sampling coordinates.

    Inputs are reconstructions of known weights, so the fit must return
    the generating weights. Sampling coordinates are passed in because the
    mesh-in path (`map_to_domain`) rejects bumpy closed inputs: it flags
    two pole faces as folded, since `at_pole` tests |eta - pole| < 1e-9
    and the bumps move the pole vertices about 0.02 off the pole.
    """

    def __init__(self, seed):
        self.fixtures = []
        for domain, refinement in (
            (benchmarks.prolate_domain(), 5),
            (benchmarks.oblate_domain(), 4),
        ):
            weights = benchmarks.bumpy_weights(domain, n_max=30, seed=seed)
            coords, faces = spheroidal.sample_icosphere(domain, refinement)
            self._add(weights, coords, faces)
        cap = benchmarks.cap_weights()
        coords, faces = spheroidal.sample_cap_grid(cap.domain, rings=40, sectors=64)
        self._add(cap, coords, faces)

    def _add(self, weights, coords, faces):
        mesh = TriangleMesh(harmonics.reconstruct_fast(weights, coords), faces)
        config = harmonics.ExpansionConfig(weights.n_max)
        self.fixtures.append((mesh, coords, config, weights.q))

    def warm_up(self):
        mesh, coords, _, _ = self.fixtures[-1]
        harmonics.decompose(mesh, coords, harmonics.ExpansionConfig(4))

    def run(self):
        out = []
        for mesh, coords, config, _ in self.fixtures:
            try:
                out.append(harmonics.decompose(mesh, coords, config))
            except EngineError:
                out.append(None)
        return out

    def check(self, result):
        wrong = []
        failed = 0
        for fitted, (_, _, _, q) in zip(result, self.fixtures):
            if fitted is None:
                failed += 1
                continue
            error = float(np.abs(fitted.q - q).max())
            if not error <= FIT_ERROR_BOUND:
                failed += 1
                wrong.append(f"fit error {error:.3e} at n_max {fitted.n_max}")
        return Outcome(
            attempted=len(self.fixtures),
            failed=failed,
            wrong=wrong,
            # encode does not remesh: the sampling keeps its spread (ratio 1)
            # and the dense fit is one direct solve per fixture
            std_ratio=1.0,
            iters_to_target=1,
            digest=_digest([f.q for f in result if f is not None]),
            counts={},
        )


def particle_contours(seed, count=200, n_points=64):
    """Seeded half ellipses, half three-lobed blobs, sizes 1 to 6.

    Shapes follow `benchmarks.ellipse_contour` and `benchmarks.blob_contour`
    with seeded aspect ratios, lobe strengths, phases and placement. Sizes
    are drawn one per stratum of [1, 6], so every seed gets the same spread
    of segment budgets and the seeds differ in shape, not in workload size.
    """
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    out = []
    for k in rng.permutation(count):
        size = 1.0 + 5.0 * (k + rng.random()) / count
        if k % 2 == 0:
            aspect = rng.uniform(0.35, 0.95)
            local = benchmarks.ellipse_contour(size, size * aspect, n_points).points
        else:
            lobes = rng.uniform(0.5, 1.0, 3) * (0.25, 0.15, 0.08)
            phase = rng.uniform(0.0, 2.0 * np.pi, 3)
            r = size * (
                1.0
                + lobes[0] * np.cos(2.0 * theta + phase[0])
                + lobes[1] * np.sin(3.0 * theta + phase[1])
                + lobes[2] * np.cos(5.0 * theta + phase[2])
            )
            local = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        turn = rng.uniform(0.0, np.pi)
        c, s = np.cos(turn), np.sin(turn)
        placed = local @ np.array([[c, s], [-s, c]]) + rng.uniform(-50.0, 50.0, 2)
        out.append(Contour2D(points=placed, closed=True))
    return out


class ContourBatch:
    """Per-particle 2D remesh of a seeded microstructure.

    Particles run one by one through the public steps, so one particle's
    EngineError is counted as a failed particle instead of aborting the
    batch as `remesh_microstructure_2d` does.
    """

    max_segments = 96
    n_max = 12
    i_max = 400

    def __init__(self, seed):
        self.contours = particle_contours(seed)
        lengths = [c.length() for c in self.contours]
        self.budgets = contour2d.segment_budgets(lengths, self.max_segments)

    def warm_up(self):
        weights = contour2d.decompose_contour(self.contours[0], self.n_max)
        contour2d.remesh_contour(weights, 16, i_max=5, std_target=1.0)

    def run(self):
        out = []
        for contour, budget in zip(self.contours, self.budgets):
            degree = min(self.n_max, (contour.points.shape[0] - 1) // 2)
            weights = contour2d.decompose_contour(contour, degree)
            trace = contour2d.ContourTrace()
            try:
                remeshed = contour2d.remesh_contour(
                    weights, int(budget), i_max=self.i_max, trace=trace
                )
            except EngineError:
                remeshed = None
            crossed = remeshed is not None and contour2d.self_intersects(remeshed)
            out.append((remeshed, trace, crossed))
        return out

    def check(self, result):
        wrong = []
        failed = 0
        ratios = []
        arrays = []
        for k, (remeshed, trace, crossed) in enumerate(result):
            if remeshed is None:
                failed += 1
            elif crossed:
                failed += 1
                wrong.append(f"particle {k} self-intersects")
            else:
                arrays.append(remeshed.points)
            final = trace.std_length[-1] if trace.n_rows else trace.initial_std_length
            ratios.append(final / trace.initial_std_length)
            arrays.extend(np.asarray(v) for v in astuple(trace))
        iterations = sum(trace.n_rows for _, trace, _ in result)
        return Outcome(
            attempted=len(result),
            failed=failed,
            wrong=wrong,
            std_ratio=float(np.median(ratios)),
            iters_to_target=iterations,
            digest=_digest(arrays),
            counts={
                "contour2d.iterations": iterations,
                "contour2d.failed_particles": failed,
            },
        )


WORKLOADS = {
    "closed-iso": ClosedIso,
    "aniso-protrusion": AnisoProtrusion,
    "encode": Encode,
    "contour-batch": ContourBatch,
}
