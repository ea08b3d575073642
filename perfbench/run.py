#!/usr/bin/env python3
"""wg-sfem benchmark: time to a checked solution, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload square-L7-k1 --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` beside this directory.  With
``--trace 0`` the run times untraced passes, scaled to the machine's
reference speed (speed.py), and reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  A human-readable summary goes to stderr, a
run record (environment, every solve, spans) to ``.perfbench-runs/``, and
the last line of stdout is the JSON result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-runs"
# One BLAS thread per process: unpinned, the square-L7-k1 solve time was
# bimodal on a 2-core machine (see NOTES.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYERS = ("polymesh", "localspaces", "wgsolve.assemble", "wgsolve.solve", "analysis")
SETUP_WARMUP = 1
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import wg_sfem; "
    "print(time.perf_counter() - t)"
)


def measure_setup(env: dict, calibrator) -> tuple[list[float], list[float]]:
    """Seconds to import wg_sfem (with numpy and scipy) in fresh interpreters:
    as measured, and scaled to the reference speed by a calibration sample
    taken just before and just after each import.

    The first import may compile bytecode, so it is run but not counted.
    """
    from speed import REFERENCE_S

    wall, scaled = [], []
    for i in range(SETUP_WARMUP + SETUP_REPEATS):
        before = calibrator.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = calibrator.sample()
        if i >= SETUP_WARMUP:
            t = float(out.stdout.strip().splitlines()[-1])
            wall.append(t)
            scaled.append(t * 2.0 * REFERENCE_S / (before + after))
    return wall, scaled


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def spmv_bytes(matrix) -> int:
    """Bytes one CSR product streams, computed from the arrays' sizes:
    values, column indices and row pointers once, x read and y written."""
    n = matrix.shape[0]
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + 2 * n * matrix.dtype.itemsize)


def solve_rows(result) -> list[dict]:
    rows = []
    for rec in result.records:
        row = {"solve": rec.solve_id, "failures": rec.failures}
        if rec.solution is not None:
            A = rec.system.matrix
            row.update(
                free_dofs=int(A.shape[0]), nnz=int(A.nnz), method=rec.solution.method,
                iterations=int(rec.solution.iterations),
                residual=rec.residual,
                spmv_bytes=spmv_bytes(A) * (int(rec.solution.iterations) + 1),
                l2_err=rec.l2_err, energy_err=rec.energy_err,
            )
        rows.append(row)
    return rows


def layer_metrics(tracer, rows: list[dict], census: list[dict], n_warn: int) -> dict:
    """Per-layer values of one traced pass."""
    self_s = tracer.self_times()
    total = tracer.root_seconds()
    solved = [r for r in rows if "method" in r]
    methods = [r["method"] for r in solved]
    cells = sum(c["cells"] for c in census)
    classes = sum(c["shape_classes"] for c in census)
    iters = sum(r["iterations"] for r in solved)
    direct = sum(m in ("direct", "direct+cg") for m in methods)
    solve_s = self_s.get("wgsolve.solve", 0.0)
    build_s = self_s.get("localspaces", 0.0)
    return {
        "polymesh.build_s": (self_s.get("polymesh", 0.0), "s"),
        "polymesh.cells": (cells, "count"),
        "polymesh.shape_classes": (classes, "count"),
        "polymesh.shape_reuse": (1.0 - classes / cells, "ratio"),
        "localspaces.build_s": (build_s, "s"),
        "localspaces.us_per_cell": (1e6 * build_s / cells, "us"),
        "localspaces.share": (build_s / total, "ratio"),
        "localspaces.condition_warnings": (n_warn, "count"),
        "wgsolve.assemble_s": (self_s.get("wgsolve.assemble", 0.0), "s"),
        "wgsolve.solve_s": (solve_s, "s"),
        # A direct factorisation counts as one solver step.
        "wgsolve.ms_per_iter": (1e3 * solve_s / max(1, iters + direct), "ms"),
        "wgsolve.free_dofs": (sum(r["free_dofs"] for r in solved), "count"),
        "wgsolve.nnz": (sum(r["nnz"] for r in solved), "count"),
        "wgsolve.pcg_iters": (iters, "count"),
        "wgsolve.direct_solves": (direct, "count"),
        "wgsolve.pcg_solves": (methods.count("pcg"), "count"),
        "wgsolve.direct_cg_fallbacks": (methods.count("direct+cg"), "count"),
        "wgsolve.residual_max": (max((r["residual"] for r in solved), default=0.0), "1"),
        "wgsolve.spmv_bytes_computed": (sum(r["spmv_bytes"] for r in solved), "B"),
        "analysis.errors_s": (self_s.get("analysis", 0.0), "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring budget: another pass starts only if the "
                        "passes so far plus their median fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, problems, reference, calibrator) -> dict:
    """Run passes while one more is expected to fit in ``args.seconds``.

    At least one pass (with tracing, one untraced and one traced) runs.
    Untraced passes give the end-to-end time, timed by a ``SpeedClock``;
    with tracing, each untraced pass is followed by a traced one, which
    gives the per-layer values.  Every pass is checked after it ends,
    outside its timed region.
    """
    import workloads
    from speed import SpeedClock
    from tracing import NullTracer, Tracer

    out = {"untraced_s": [], "untraced_wall_s": [], "traced_s": [], "layer_runs": [],
           "passes": []}
    units: list[float] = []
    while not units or sum(units) + statistics.median(units) <= args.seconds:
        units.append(0.0)
        for traced in ((False, True) if args.trace else (False,)):
            gc.collect()
            t0 = time.perf_counter()
            if traced:
                tracer = Tracer()
                result = workloads.run_pass(problems, tracer)
                elapsed = time.perf_counter() - t0
                timing = {"seconds": elapsed}
            else:
                clock = SpeedClock(calibrator)
                clock.start()
                result = workloads.run_pass(problems, NullTracer(), clock.checkpoint)
                clock.stop()
                timing = {"seconds": clock.wall_s, "scaled_s": clock.scaled_s,
                          "segments_s": clock.segments_s, "calibration_s": clock.samples_s}
            units[-1] += time.perf_counter() - t0
            workloads.check_pass(result, args.workload, args.seed, reference)
            rows = solve_rows(result)
            out["passes"].append({"traced": traced, **timing, "solves": rows})
            if traced:
                census = [
                    {"problem": prob.label, "cells": mesh.n_cells,
                     "shape_classes": workloads.count_shape_classes(mesh.vertices, mesh.cells)}
                    for prob, mesh in result.meshes
                ]
                out["traced_s"].append(tracer.root_seconds())
                out["layer_runs"].append(
                    layer_metrics(tracer, rows, census, result.condition_warnings))
                out.update(census=census, spans=tracer.spans, self_s=tracer.self_times())
            else:
                out["untraced_s"].append(clock.scaled_s)
                out["untraced_wall_s"].append(clock.wall_s)
            # Free this pass's meshes and caches before the next one starts,
            # so peak RSS is that of one pass.
            del result
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wg_sfem" / "__init__.py").is_file():
        print(f"perfbench: no wg_sfem package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import wg_sfem
    import workloads
    from speed import Calibrator

    if Path(wg_sfem.__file__).resolve().parent != SRC / "wg_sfem":
        print(f"perfbench: imported wg_sfem from {wg_sfem.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    calibrator = Calibrator()
    setup_wall, setup_samples = measure_setup(child_env, calibrator)
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        problems = workloads.make_problems(args.workload, args.seed, Path(tmp))
        run = measure(args, problems, reference, calibrator)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = run["passes"]
    attempted = sum(len(p["solves"]) for p in passes)
    failed = sum(bool(s["failures"]) for p in passes for s in p["solves"])
    tts = statistics.median(run["untraced_s"])
    end_to_end = {
        "time_to_solution_s": (tts, "s", len(run["untraced_s"])),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    per_layer = {}
    if args.trace:
        for name, (_, unit) in run["layer_runs"][0].items():
            values = [lr[name][0] for lr in run["layer_runs"]]
            per_layer[name] = (statistics.median(values), unit)
        per_layer["trace.overhead_frac"] = (
            statistics.median(run["traced_s"]) / statistics.median(run["untraced_wall_s"])
            - 1.0, "ratio")

    record = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "setup_wall_s": setup_wall,
        "setup_scaled_s": setup_samples,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in end_to_end.items()},
        "fail_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "passes": passes,
    }
    if args.trace:
        record.update(shape_census=run["census"], self_times_s=run["self_s"],
                      spans=run["spans"])
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    say = functools.partial(print, file=sys.stderr)
    say(f"{args.workload} seed {args.seed}: {len(run['untraced_s'])} untraced and "
        f"{len(run['traced_s'])} traced passes (record: {record_path.relative_to(ROOT)})")
    for name, (value, unit, n) in end_to_end.items():
        say(f"  {name:<32} {value:>14.6g} {unit:<6} median of {n}")
    say(f"  {'(wall, unscaled) pass':<32} {statistics.median(run['untraced_wall_s']):>14.6g} "
        f"{'s':<6} import {statistics.median(setup_wall):.6g} s")
    say(f"  {'fail_frac':<32} {failed / attempted:>14.6g} {'ratio':<6} "
        f"{failed} of {attempted} solves")
    for name, (value, unit) in per_layer.items():
        say(f"  {name:<32} {value:>14.6g} {unit}")
    if args.trace:
        layers = sum(run["self_s"].get(name, 0.0) for name in LAYERS)
        say(f"  last traced pass: layers {layers:.4g} s + glue "
            f"{run['traced_s'][-1] - layers:.4g} s = {run['traced_s'][-1]:.4g} s")
        for c in run["census"]:
            say(f"  census {c['problem']}: {c['shape_classes']} shape classes "
                f"in {c['cells']} cells")
    for p in passes:
        for s in p["solves"]:
            for f in s["failures"]:
                say(f"  FAILED {s['solve']}: {f}")

    chosen = per_layer or {k: (v, u) for k, (v, u, _) in end_to_end.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
