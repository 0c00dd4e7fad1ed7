"""Command-line frontend: decompose, remesh, remesh2d, metrics.

Every command accepts `--config FILE` (a JSON object of option names);
explicit flags override config-file values. Error classes map to distinct
exit codes so scripts can react: parse/format 2, topology 3, engine 4,
resource guards 5.
"""
from __future__ import annotations

import argparse
import json
import sys

from .contour2d import (
    read_contours,
    remesh_microstructure_2d,
    segment_budgets,
    write_contours,
)
from .diffusion import DiffusionConfig, diffuse_remesh
from .errors import (
    EngineError,
    FoldError,
    FormatError,
    GuardError,
    SingularityError,
    TopologyError,
    read_text,
)
from .harmonics import ExpansionConfig, decompose, load_weights, save_weights
from .mesh import load_mesh, quality_report, save_mesh
from .spheroidal import (
    KINDS,
    align_to_principal_axes,
    cap_grid_size,
    fit_domain,
    map_to_domain,
    sample_cap_grid,
    sample_icosphere,
)

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="equimesh",
        description=(
            "Morphology-preserving remeshing: harmonic decomposition of "
            "genus-0 surfaces and density-equalizing resampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument(
        "--config", help="JSON file of option values; explicit flags win"
    )
    mesh_in = argparse.ArgumentParser(add_help=False)
    mesh_in.add_argument(
        "--in", dest="input", help="mesh file (obj/off/ply) to decompose"
    )
    mesh_in.add_argument("--nmax", type=int, help="expansion degree")
    mesh_in.add_argument(
        "--kind",
        choices=KINDS + ("hemispheroid",),
        help="domain kind hint (open meshes need a hemispheroidal one)",
    )
    mesh_in.add_argument(
        "--no-align",
        action="store_true",
        default=None,
        help="skip principal-axes alignment of the input mesh",
    )

    p = sub.add_parser("decompose", parents=[mesh_in, config],
                       help="fit a domain and write weights")
    p.add_argument("--out", help="weights file to write")

    p = sub.add_parser("remesh", parents=[mesh_in, config],
                       help="density-equalize a surface sampling")
    p.add_argument("--weights", help="weights file from decompose (instead of --in)")
    p.add_argument("--out", help="remeshed mesh file")
    p.add_argument("--trace", help="iteration trace CSV")
    p.add_argument(
        "--refine", type=int,
        help="icosphere refinements for closed sampling (default 4)",
    )
    p.add_argument("--rings", type=int, help="cap sampling rings")
    p.add_argument("--sectors", type=int, help="cap sampling sectors")
    p.add_argument(
        "--stages",
        help="schedule nmax:imax[,nmax:imax...]; default one stage at the "
        "weight degree",
    )
    p.add_argument("--imax", type=int, help="iterations (default 50)")
    p.add_argument("--gamma", type=float, help="anisotropy strength")
    p.add_argument("--dt-scale", type=float,
                   help="first time step constant (the step then grows to a ceiling)")
    p.add_argument(
        "--std-tol", type=float,
        help="stop a stage once the STD falls by less than this fraction of "
        "the initial STD over five iterations; 0 never stops early",
    )

    p = sub.add_parser("metrics", parents=[config],
                       help="per-face/vertex quality report")
    p.add_argument("--in", dest="input", help="mesh file")
    p.add_argument("--out", help="report CSV")
    p.add_argument("--bins", type=int, help="histogram bins")

    p = sub.add_parser("remesh2d", parents=[config],
                       help="remesh planar particle contours")
    p.add_argument("--in", dest="input", help="contours document or contour CSV")
    p.add_argument("--out", help="remeshed contours document")
    p.add_argument("--max-segments", type=int, help="budget of the longest contour")
    p.add_argument("--nmax", type=int, help="contour expansion degree")
    p.add_argument("--imax", type=int, help="diffusion iterations")

    return parser, sub.choices


def _merge_config(args, command_parser):
    """Overlay config-file values under explicit flags; flags win. Each value
    goes through its flag's type, as the same text on the command line would;
    a flag without a type takes a JSON string, and a switch such as no_align
    a JSON true or false."""
    values = vars(args)
    if args.config is not None:
        try:
            data = json.loads(read_text(args.config))
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad config file: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError("config file must hold a JSON object")
        actions = {action.dest: action for action in command_parser._actions}
        for key, value in data.items():
            name = key.replace("-", "_")
            if name not in values:
                raise FormatError(f"unknown config key {key!r}")
            if values[name] is not None:
                continue
            kind = actions[name].type
            if actions[name].nargs == 0:
                if not isinstance(value, bool):
                    raise FormatError(f"config value for {key!r} must be true or false")
            elif kind is None and not isinstance(value, str):
                raise FormatError(f"config value for {key!r} must be a string")
            try:
                values[name] = value if kind is None else kind(str(value))
            except ValueError as exc:
                raise FormatError(f"bad config value {value!r} for {key!r}") from exc
    return args


def _flag(name):
    return "--in" if name == "input" else "--" + name.replace("_", "-")


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise FormatError(f"missing required option {_flag(name)}")


def _given(**options):
    """The options the user set; the library keeps its own defaults."""
    return {name: value for name, value in options.items() if value is not None}


def _parse_stages(text):
    stages = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n_str, i_str = part.split(":")
            stages.append((int(n_str), int(i_str)))
        except ValueError as exc:
            raise FormatError(
                f"bad stage {part!r}; expected nmax:imax"
            ) from exc
    if not stages:
        raise FormatError("empty stage schedule")
    return stages


def _decompose_pipeline(mesh_path, n_max, kind_hint, align):
    mesh = load_mesh(mesh_path)
    if align:
        mesh = align_to_principal_axes(mesh)
    domain = fit_domain(mesh, kind_hint=kind_hint)
    coords = map_to_domain(mesh, domain)
    weights = decompose(mesh, coords, ExpansionConfig(n_max))
    return weights


def cmd_decompose(args):
    _require(args, "input", "out", "nmax")
    align = not bool(args.no_align)
    weights = _decompose_pipeline(args.input, args.nmax, args.kind, align)
    save_weights(weights, args.out)
    beta = (weights.n_max + 1) ** 2
    print(f"kind={weights.domain.kind} beta={beta} "
          f"residual_rms={weights.residual_rms:.6e}")
    print(f"wrote {args.out}")
    return 0


def _sample_for(domain, refine, rings, sectors):
    if not domain.is_hemispheroid:
        return sample_icosphere(domain, refine)
    default_rings, default_sectors = cap_grid_size(refine)
    return sample_cap_grid(
        domain,
        rings=default_rings if rings is None else rings,
        sectors=default_sectors if sectors is None else sectors,
    )


def cmd_remesh(args):
    # each pair sets one thing twice, or shapes a fit that --weights skips;
    # from flags or config alike
    conflicts = (("weights", "input"), ("weights", "nmax"), ("weights", "kind"),
                 ("weights", "no_align"), ("stages", "imax"))
    for first, second in conflicts:
        if getattr(args, first) is not None and getattr(args, second) is not None:
            raise FormatError(f"{_flag(first)} and {_flag(second)} exclude each other")
    if args.weights is not None:
        weights = load_weights(args.weights)
    else:
        _require(args, "input", "nmax")
        align = not bool(args.no_align)
        weights = _decompose_pipeline(args.input, args.nmax, args.kind, align)
    _require(args, "out")

    refine = 4 if args.refine is None else args.refine
    if args.stages is not None:
        stages = _parse_stages(args.stages)
    else:
        stages = [(weights.n_max, 50 if args.imax is None else args.imax)]
    config = DiffusionConfig(
        stages=tuple(stages),
        **_given(gamma=args.gamma, dt_scale=args.dt_scale, std_tolerance=args.std_tol),
    )
    coords, faces = _sample_for(weights.domain, refine, args.rings, args.sectors)
    try:
        final_coords, remeshed, trace = diffuse_remesh(
            weights, coords, faces, config
        )
    except EngineError as exc:
        if args.trace is not None:
            exc.trace.to_csv(args.trace)
            print(f"wrote partial trace {args.trace}", file=sys.stderr)
        raise
    save_mesh(remeshed, args.out)
    if args.trace is not None:
        trace.to_csv(args.trace)
    final_std = trace.std_u[-1] if trace.n_rows else trace.initial_std_u
    final_area = trace.area[-1] if trace.n_rows else trace.initial_area
    drift = abs(final_area - trace.initial_area) / trace.initial_area
    print(
        f"iterations={trace.n_rows} initial_std={trace.initial_std_u:.6e} "
        f"final_std={final_std:.6e} area_drift={drift:.3%} "
        f"rejected={sum(trace.halvings)} flipped_faces={sum(trace.flip_count)} "
        f"basis_evaluations="
        f"{trace.basis_evaluation_count[-1] if trace.n_rows else 0} "
        f"stop_reason={trace.stop_reason}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_metrics(args):
    _require(args, "input", "out")
    mesh = load_mesh(args.input)
    report = quality_report(mesh, **_given(bins=args.bins))
    report.to_csv(args.out)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {args.out}")
    return 0


def cmd_remesh2d(args):
    _require(args, "input", "out", "max_segments", "nmax")
    named = read_contours(args.input)
    ids = [pid for pid, _ in named]
    contours = [c for _, c in named]
    lengths = [c.length() for c in contours]
    budgets = segment_budgets(lengths, args.max_segments)
    print("particle length budget")
    for pid, length, budget in zip(ids, lengths, budgets):
        print(f"{pid} {length:.6g} {budget}")
    remeshed = remesh_microstructure_2d(
        contours, args.max_segments, args.nmax, **_given(i_max=args.imax)
    )
    write_contours(list(zip(ids, remeshed)), args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "remesh": cmd_remesh,
    "metrics": cmd_metrics,
    "remesh2d": cmd_remesh2d,
}


# exit code of each error class, first match wins: FoldError and
# SingularityError are EngineErrors, and DegenerateMeshError is both an
# EngineError and a ValueError
_EXIT_CODES = {
    FormatError: 2,
    TopologyError: 3,
    FoldError: 3,
    SingularityError: 3,
    GuardError: 5,
    EngineError: 4,
    ValueError: 2,
}


def main(argv=None):
    parser, command_parsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, command_parsers[args.command])
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
