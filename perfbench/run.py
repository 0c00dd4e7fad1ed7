"""equimesh benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload closed-iso --seed 1 --seconds 20 --trace 0

Run from the repository root: the package is imported from `src/`. The
whole load runs in this one process with OpenBLAS pinned to one thread.

--trace 0 times repeated set-ups and operations with tracing off and
prints the end-to-end metrics. --trace 1 alternates untraced and traced
operations and prints the per-layer metrics. Either way every operation's
outputs are checked, every repeat must reproduce the first one bit for
bit, and the last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
# set-ups before each operation are repeated until this much time is
# spent, so that cheap set-ups get enough samples for a steady median
SETUP_SECONDS_PER_ROUND = 0.5
MIN_OPS = 3
MAX_REPORTED_PROBLEMS = 10


def make_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def pin_blas_threads():
    """Must run before numpy is imported: OpenBLAS reads these at load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "cpu": cpu,
        "python": platform.python_version(),
    }


class Runner:
    """Sets up, runs and checks one workload, keeping every outcome.

    Each round builds the workload afresh from the seed (timed as set-up,
    repeated while it is cheap) and then runs one operation on it, so
    set-up samples spread over the whole run like the operations do. With
    a tracer, spans are recorded around the operation only, never around
    set-up or checks.
    """

    def __init__(self, workload_cls, seed, tracer=None):
        self.workload_cls = workload_cls
        self.seed = seed
        self.tracer = tracer
        self.setup_times = []
        self.outcomes = []

    def round(self, traced=False):
        round_start = perf_counter()
        while True:
            start = perf_counter()
            workload = self.workload_cls(self.seed)
            workload.warm_up()
            self.setup_times.append(perf_counter() - start)
            if perf_counter() - round_start >= SETUP_SECONDS_PER_ROUND:
                break
        if traced:
            self.tracer.enabled = True
        try:
            start = perf_counter()
            result = workload.run()
            seconds = perf_counter() - start
        finally:
            if traced:
                self.tracer.enabled = False
        self.outcomes.append(workload.check(result))
        return seconds

    def verdict(self):
        wrong = [w for o in self.outcomes for w in o.wrong]
        if len({o.digest for o in self.outcomes}) > 1:
            wrong.append("repeated operations disagree bit for bit")
        attempted = sum(o.attempted for o in self.outcomes)
        failed = sum(o.failed for o in self.outcomes)
        return wrong, attempted, failed


def out_of_time(start, rounds, seconds):
    """True once another round of average length would overrun `seconds`."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / rounds > seconds


def end_to_end(workload_cls, seed, seconds):
    runner = Runner(workload_cls, seed)
    op_times = []
    start = perf_counter()
    while len(op_times) < MIN_OPS or not out_of_time(start, len(op_times), seconds):
        op_times.append(runner.round())
    wrong, attempted, failed = runner.verdict()
    first = runner.outcomes[0]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(runner.setup_times), "s"),
        "run_s": (statistics.median(op_times), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "std_ratio": (first.std_ratio, "ratio"),
        "iters_to_target": (first.iters_to_target, "count"),
        "success_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return wrong, attempted, failed, metrics, len(op_times)


def per_layer(workload_cls, seed, seconds):
    from tracing import SPAN_NAMES, Tracer, instrument

    tracer = Tracer()
    runner = Runner(workload_cls, seed, tracer)
    plain, traced = [], []
    start = perf_counter()
    with instrument(tracer):
        while not traced or not out_of_time(start, len(traced), seconds):
            plain.append(runner.round())
            traced.append(runner.round(traced=True))
    wrong, attempted, failed = runner.verdict()
    calls, self_s, rooted = tracer.summary()
    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
    counts = runner.outcomes[-1].counts
    for name in (
        "harmonics.basis_evals",
        "diffusion.accepted",
        "diffusion.candidates",
        "diffusion.flipped_faces",
        "contour2d.iterations",
        "contour2d.failed_particles",
    ):
        metrics[name] = (counts.get(name, 0), "count")
    candidates = counts.get("diffusion.candidates", 0)
    metrics["diffusion.acceptance_ratio"] = (
        counts.get("diffusion.accepted", 0) / candidates if candidates else 0.0,
        "ratio",
    )
    solves = calls["solver.solve_sparse"]
    metrics["solver.cg_iterations"] = (tracer.counts["cg_iterations"] / n, "count")
    metrics["solver.cg_iterations_per_solve"] = (
        tracer.counts["cg_iterations"] / solves if solves else 0.0,
        "count",
    )
    metrics["trace.run_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_run_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain),
        "s",
    )
    metrics["trace.span_coverage"] = (rooted / sum(traced), "ratio")
    return wrong, attempted, failed, metrics, len(plain) + n


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equimesh" / "__init__.py").is_file():
        print(f"error: no equimesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    print(json.dumps({"environment": environment(args.seed)}))
    measure = per_layer if args.trace else end_to_end
    wrong, attempted, failed, metrics, ops = measure(
        WORKLOADS[args.workload], args.seed, args.seconds
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in declared}
    print(
        f"# {args.workload}: seed {args.seed}, {ops} operations, "
        f"{attempted} units attempted, {failed} failed"
    )
    for problem in wrong[:MAX_REPORTED_PROBLEMS]:
        print(f"# CHECK FAILED: {problem}")
    if len(wrong) > MAX_REPORTED_PROBLEMS:
        print(f"# ... and {len(wrong) - MAX_REPORTED_PROBLEMS} more failed checks")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
