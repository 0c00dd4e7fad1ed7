"""Remeshing engine: nonlinear diffusion of surface coordinates.

Vertices carry fixed connectivity while their (eta, phi) coordinates flow
toward a uniform area density. Each iteration reconstructs the surface from
its harmonic weights, diffuses the vertex area density one implicit step,
advects vertices up the diffused density gradient, and pulls them back to
the shell. The weights object is never touched: remeshing only re-samples
the same morphology.

Connectivity is fixed, so a run checks its mesh, lists its edges and
builds its `MeshTopology` (with the implicit step's matrix) once. A stage
folds its weights once into a `harmonics.SurfaceKernel`, which evaluates
its start and every candidate, each followed by one `mesh.FaceGeometry`
pass, the source of every area, normal, mass and gradient.
From a stage's second row on, each solve starts from u plus the last
accepted increment, rescaled to the candidate's time step. Engine
failures, geometric ones included, raise `EngineError` subclasses carrying
the partial trace. A trace is a `TraceTable`: its columns are declared once,
as fields, and `contour2d.ContourTrace` is the planar one.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path

import numpy as np

from .errors import EngineError, GuardError, check_count, read_only
from .harmonics import SurfaceKernel
from .mesh import FaceGeometry, TriangleMesh, mean_edge_length, ring_lengths
from .operators import MeshTopology, _check_gamma, stretch_directors
from .solver import backward_euler_step
from .spheroidal import CurvilinearCoords, forward_coords, pullback, surface_normals

__all__ = [
    "MAX_DT_HALVINGS",
    "DiffusionConfig",
    "column",
    "TraceTable",
    "DiffusionTrace",
    "update_coordinates",
    "diffuse_remesh",
]

MAX_DT_HALVINGS = 20

# per-step slack on the monotone-STD acceptance test
_STD_SLACK = 1e-9
_EARLY_STOP_WINDOW = 5
# growth limit of the time step on the unit-area surface, over alpha_max:
# about 16 h^2 at icosphere refinement 4, 64 h^2 at refinement 5
_DT_CEILING = 0.0075


@dataclass(frozen=True)
class DiffusionConfig:
    """Remeshing schedule and physics knobs.

    stages: sequence of (n_max, i_max) pairs with strictly increasing
    degrees — a single pair is the flat schedule. gamma = 0 selects the
    isotropic operator; anisotropic rates are capped at operators.ALPHA_CAP.
    dt_scale sets each stage's first time step, dt_scale * h^2 / alpha_max
    on the unit-area surface (h its mean edge length). Each accepted step
    doubles the next, up to a fixed ceiling over alpha_max (or up to the
    first step, if that is larger); a rejected candidate halves it.
    std_tolerance stops a stage early once the STD falls by less than
    std_tolerance times the run's initial STD over five accepted iterations;
    0 runs every stage to its i_max.
    """

    stages: tuple
    gamma: float = 0.0
    dt_scale: float = 0.5
    std_tolerance: float = 1e-2

    def __post_init__(self):
        # a float or bool degree or budget is refused, not truncated
        stages = tuple((check_count("stage degree", n, 0), check_count("i_max", i, 1))
                       for n, i in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("stages must be non-empty")
        if any(n >= m for (n, _), (m, _) in zip(stages, stages[1:])):
            raise ValueError("stage degrees must be strictly increasing")
        _check_gamma(self.gamma)
        if not 0.0 < self.dt_scale < np.inf:
            raise ValueError("dt_scale must be finite and positive")
        if not 0.0 <= self.std_tolerance < np.inf:
            raise ValueError("std_tolerance must be finite and nonnegative")


def column(kind):
    """A trace column: one `kind` (int or float) value per row."""
    return field(default_factory=list, metadata={"column": kind})


# CSV cell format of each column kind
_CELL_FORMATS = {int: "d", float: ".17g"}


class TraceTable:
    """Per-iteration log whose dataclass fields made by `column` are its
    columns, in CSV order. Rows are appended by column name."""

    @classmethod
    @cache
    def columns(cls):
        """(name, kind) of each column, in CSV order; read once per class."""
        return tuple((f.name, f.metadata["column"]) for f in fields(cls)
                     if "column" in f.metadata)

    @property
    def n_rows(self):
        return len(getattr(self, self.columns()[0][0]))

    def append(self, **row):
        columns = self.columns()
        if row.keys() != {name for name, _ in columns}:
            raise TypeError(
                f"a row needs exactly the columns {[name for name, _ in columns]}"
            )
        for name, kind in columns:
            getattr(self, name).append(kind(row[name]))

    def to_csv(self, path):
        columns = self.columns()
        lines = [",".join(name for name, _ in columns)]
        cells = [(getattr(self, name), _CELL_FORMATS[kind]) for name, kind in columns]
        for i in range(self.n_rows):
            lines.append(",".join(format(values[i], spec) for values, spec in cells))
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class DiffusionTrace(TraceTable):
    """Convergence log: one row per accepted iteration.

    basis_evaluation_count is cumulative and includes rejected candidate
    reconstructions, so it is the honest cost meter. halvings counts the
    candidates a row rejected, each halving its time step; flip_count sums
    the flipped faces of those candidates. stop_reason is why the
    last stage ended: "converged-early", "i_max" or "stalled" (the smallest
    step flips no face but raises the STD; if it flips one, the run
    raises); it stays empty when the run raises.
    """

    stage: list = column(int)
    t: list = column(int)
    dt: list = column(float)
    std_u: list = column(float)
    flip_count: list = column(int)
    boundary_length: list = column(float)
    area: list = column(float)
    basis_evaluation_count: list = column(int)
    halvings: list = column(int)
    initial_std_u: float = float("nan")
    initial_area: float = float("nan")
    initial_boundary_length: float = 0.0
    stop_reason: str = ""

    def append(self, **row):
        counts = self.basis_evaluation_count
        if counts and row.get("basis_evaluation_count", counts[-1]) < counts[-1]:
            raise ValueError("basis evaluation count must be monotone")
        super().append(**row)


def _rim_source(loop, u, edge_masses, dt):
    """Averaged-flux source of an open rim for the implicit-step RHS.

    Each boundary vertex receives dt * (mean(u) - u) weighted by its share
    of boundary edge length, steering the rim density toward the mean of
    u; a uniform field gets no source.
    """
    source = np.zeros(u.shape[0])
    source[loop] = dt * (u.mean() - u[loop]) * edge_masses
    return source


def update_coordinates(coords, vertex_gradient, dt):
    """Advect shell coordinates by the tangential gradient for one step.

    Each vertex is displaced in 3-space by dt times the tangential part of
    its gradient vector, then pulled back to the shell of `coords.domain`
    (eta clamped to the domain range, phi wrapped).
    """
    g = np.asarray(vertex_gradient, dtype=float)
    if g.shape != (coords.n, 3):
        raise ValueError("vertex gradient must be (n, 3)")
    domain = coords.domain
    points = forward_coords(domain, coords.eta, coords.phi)
    normals = surface_normals(domain, points)
    tangential = g - (g * normals).sum(axis=1, keepdims=True) * normals
    return pullback(domain, points + dt * tangential)


def _run_stage(
    weights, coords, faces, edges, topology, rim, config, stage_index,
    n_stage, i_max, trace, evals,
):
    """One stage; returns (coords, geometry, scale, evals, stop_reason).

    rim holds the boundary loop of an open surface and is empty on a closed
    one, where every rim term is a no-op or an exact 0.0. An accepted
    candidate's geometry serves the next iteration: normals as flip
    reference, masses for u and the implicit step, areas for averaging and
    trace. Its rate (u' - u) / dt starts the next rows' solves at
    u + rate * dt.
    """
    surface = SurfaceKernel(weights.truncated(n_stage))
    n_v = coords.n
    cost = (n_stage + 1) * (n_stage + 2) // 2 * n_v

    points = surface(coords)
    evals += cost
    area0 = float(FaceGeometry(points, faces).areas.sum())
    if not area0 > 0.0:
        raise EngineError("reconstruction has nonpositive area")
    scale = 1.0 / np.sqrt(area0)
    geometry = FaceGeometry(points * scale, faces)
    u = geometry.density()

    # rim vertices slide along the rim: their eta stays pinned
    rim_eta = coords.eta[rim]
    rim_lengths = ring_lengths(geometry.points[rim])

    if stage_index == 0:
        trace.initial_std_u = float(u.std())
        trace.initial_area = float(area0)
        trace.initial_boundary_length = float(rim_lengths.sum()) / scale

    dt = dt_first = rate = None
    window = deque(maxlen=_EARLY_STOP_WINDOW)
    stop_reason = "i_max"

    for t in range(1, i_max + 1):
        directors, alpha = None, 1.0
        if config.gamma > 0.0:
            directors = stretch_directors(geometry, config.gamma)
            alpha = directors[3]
        if dt is None:
            # the first step, dt_scale h^2 / alpha_max on the unit-area mesh
            h = mean_edge_length(geometry.points, edges)
            dt = dt_first = config.dt_scale * h * h / alpha
        else:
            # each accepted step doubles the next, up to the ceiling or
            # the first step if that is larger
            dt = min(2.0 * dt, max(dt_first, _DT_CEILING / alpha))
        L = topology.laplacian(geometry, directors)
        edge_masses = 0.5 * (rim_lengths + np.roll(rim_lengths, 1))

        flips_seen = halvings = 0
        candidate = None
        for _ in range(MAX_DT_HALVINGS + 1):
            rhs_extra = _rim_source(rim, u, edge_masses, dt)
            u_diffused = backward_euler_step(
                geometry.masses, L, u, dt, rhs_extra,
                step_matrix=topology.step_matrix,
                x0=None if rate is None else u + rate * dt,
            )
            velocity = (
                geometry.vertex_gradients(u_diffused)
                / np.maximum(u_diffused, 1e-15)[:, None]
            )
            moved = update_coordinates(coords, velocity, dt)
            eta = moved.eta.copy()
            eta[rim] = rim_eta
            cand_coords = CurvilinearCoords(read_only(eta), moved.phi, moved.domain)
            cand = FaceGeometry(surface(cand_coords) * scale, faces)
            evals += cost
            flips = int(np.count_nonzero((cand.normals * geometry.normals).sum(0) < 0.0))
            cand_u = cand.density()
            if flips == 0 and cand_u.std() <= u.std() * (1.0 + _STD_SLACK):
                candidate = cand_coords, cand, cand_u
                break
            flips_seen += flips
            halvings += 1
            dt *= 0.5

        if candidate is None:
            if flips:
                raise EngineError(
                    f"flip recovery exhausted after {MAX_DT_HALVINGS} time-step "
                    f"halvings (stage {stage_index}, iteration {t})"
                )
            stop_reason = "stalled"
            break

        rate = (u_diffused - u) / dt
        coords, geometry, u = candidate

        std_now = float(u.std())
        rim_lengths = ring_lengths(geometry.points[rim])
        trace.append(
            stage=stage_index,
            t=t,
            dt=dt,
            std_u=std_now,
            flip_count=flips_seen,
            boundary_length=float(rim_lengths.sum()) / scale,
            area=float(geometry.areas.sum()) / (scale * scale),
            basis_evaluation_count=evals,
            halvings=halvings,
        )
        window.append(std_now)
        if (
            len(window) == _EARLY_STOP_WINDOW
            and window[0] - window[-1] < config.std_tolerance * trace.initial_std_u
        ):
            stop_reason = "converged-early"
            break

    return coords, geometry, scale, evals, stop_reason


def diffuse_remesh(weights, initial_coords, faces, config):
    """Equalize the sampling of a harmonic surface; returns
    (final_coords, remeshed_mesh, trace).

    Runs the configured stages in order, carrying coordinates forward.
    Connectivity is fixed throughout; the weights object is never modified.
    The returned mesh is the reconstruction at the final coordinates at its
    natural (original) surface area.
    """
    for n_stage, _ in config.stages:
        if n_stage > weights.n_max:
            raise GuardError(
                f"stage degree {n_stage} exceeds weight degree {weights.n_max}"
            )
    # the connectivity checks need the vertex count only
    template = TriangleMesh(read_only(np.zeros((initial_coords.n, 3))), faces)
    edges = template.unique_edges()
    topology = MeshTopology(template.faces, template.n_v)
    loop = template.boundary_loop()
    # a closed surface is the open case with an empty rim
    rim = np.zeros(0, dtype=np.int64) if loop is None else loop
    trace = DiffusionTrace()
    coords = initial_coords
    evals = 0
    try:
        for k, (n_stage, i_max) in enumerate(config.stages):
            coords, geometry, scale, evals, stop_reason = _run_stage(
                weights, coords, template.faces, edges, topology, rim, config,
                stage_index=k, n_stage=n_stage, i_max=i_max, trace=trace,
                evals=evals,
            )
    except EngineError as exc:
        exc.trace = trace
        raise
    trace.stop_reason = stop_reason
    return coords, template.with_vertices(read_only(geometry.points / scale)), trace
