"""Workload inputs, one timed pass through the public API, and the checks.

A pass runs, for every problem of a workload: mesh input (polymesh),
``OperatorCache.get`` for every cell (localspaces), then per manufactured
case ``assemble`` and ``solve`` (wgsolve) and the two error norms
(analysis).  The checks run after the pass, outside the timed region.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wg_sfem import (
    GENERATORS,
    OperatorCache,
    assemble,
    energy_error,
    get_case,
    l2_projection_error,
    read_mesh,
    solve,
)
from wg_sfem.analysis import energy_error_via_projection

SOLVE_TOL = 1e-12
# PCG stops on its recurrence residual, which drifts from the recomputed
# ||b - A x|| / ||b||: at the reference commit the recomputed value was
# 6.5e-12 to 1.1e-11 on the PCG workloads (NOTES.md).  The reported
# residual is held to SOLVE_TOL, the recomputed one to RESIDUAL_MAX.
RESIDUAL_MAX = 1e-10
PATCH_ERR_MAX = 1e-8
REFERENCE_RTOL = 1e-6
PROJECTION_RTOL = 1e-8
PATCH_CASES = ("patch-linear", "patch-quadratic")
JITTER_LEVEL = 7
JITTER_FRAC = 0.2
# The seed whose jitter mesh the frozen reference outputs were recorded on.
REFERENCE_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# How often the cell loop offers the speed clock a segment boundary.
CHECKPOINT_CELLS = 64

# DEFAULT_PLAN of scripts/run_paper_tables.py without its finest level,
# frozen here so that editing the script does not change the workload.
STUDY_PLAN = {
    "square": {0: (4, 5), 1: (4, 5), 2: (4, 5), 3: (3, 4), 4: (2, 3)},
    "quad": {0: (4, 5), 1: (4, 5), 2: (4, 5), 3: (3, 4)},
    "hex": {0: (3, 4), 1: (3, 4), 2: (3, 4), 3: (2, 3)},
}

WORKLOADS = {
    "square-L7-k1": "one shape class in 4096 cells: the case where operator reuse would pay most",
    "jitter-L7-k1": "4096 distinct cells read from JSON: no reuse possible, most PCG iterations",
    "study-sweep": "26 small direct solves, k=0..4: per-solve overhead and high-degree local operators",
    "hex-L5-k2-reuse": "one cache read by three cases: assembly, PCG and error evaluation dominate",
}


@dataclass(frozen=True)
class Problem:
    """One mesh and degree, solved for each of ``cases``."""

    label: str
    k: int
    cases: tuple[str, ...] = ("sin2d",)
    family: str | None = None
    level: int | None = None
    mesh_path: str | None = None
    # The seeded jitter mesh: frozen outputs apply only at REFERENCE_SEED,
    # and its energy error is cross-checked by the projection route.
    seeded: bool = False

    def build_mesh(self):
        if self.mesh_path is not None:
            return read_mesh(self.mesh_path)
        return GENERATORS[self.family](self.level)


@dataclass
class SolveRecord:
    """What one solve produced, kept until the pass has been checked."""

    solve_id: str
    problem: Problem
    case: str
    mesh: object = None
    cache: object = None
    system: object = None
    solution: object = None
    l2_err: float = float("nan")
    energy_err: float = float("nan")
    residual: float = float("nan")
    error: str | None = None
    failures: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    records: list[SolveRecord]
    meshes: list[tuple[Problem, object]]
    condition_warnings: int


def write_jitter_mesh(seed: int, path: Path) -> None:
    """Square level-7 grid with every vertex moved by a seeded offset.

    Interior vertices move by up to JITTER_FRAC*h in x and in y; boundary
    vertices slide along their side of the unit square; corners stay.  The
    quadrilaterals stay convex (a vertex moves at most 0.29h, the diagonals
    of its neighbours are 0.71h away), so every fan anchor is valid.
    """
    m = 2 ** (JITTER_LEVEL - 1)
    h = 1.0 / m
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1))
    x, y = i * h, j * h
    dx = rng.uniform(-JITTER_FRAC * h, JITTER_FRAC * h, size=x.shape)
    dy = rng.uniform(-JITTER_FRAC * h, JITTER_FRAC * h, size=y.shape)
    # x moves unless the vertex is on the left or right side, y unless on
    # the bottom or top: interior vertices move freely, others slide.
    x = x + np.where((i > 0) & (i < m), dx, 0.0)
    y = y + np.where((j > 0) & (j < m), dy, 0.0)
    verts = np.column_stack([x.ravel(), y.ravel()])

    def vid(a, b):
        return b * (m + 1) + a

    cells = [
        [vid(a, b), vid(a + 1, b), vid(a + 1, b + 1), vid(a, b + 1)]
        for b in range(m)
        for a in range(m)
    ]
    classes = count_shape_classes(verts, cells)
    if classes != len(cells):
        raise RuntimeError(f"jitter mesh has {classes} shape classes in {len(cells)} cells")
    payload = {"dim": 2, "vertices": verts.tolist(), "cells": cells}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def make_problems(workload: str, seed: int, tmpdir: Path) -> list[Problem]:
    """The problems of one workload; only the jitter mesh depends on the seed."""
    if workload == "square-L7-k1":
        return [Problem("square-L7-k1", 1, family="square", level=7)]
    if workload == "jitter-L7-k1":
        path = tmpdir / f"jitter-seed{seed}.json"
        write_jitter_mesh(seed, path)
        return [Problem("jitter-L7-k1", 1, mesh_path=str(path), seeded=True)]
    if workload == "study-sweep":
        return [
            Problem(f"{family}-L{level}-k{k}", k, family=family, level=level)
            for family, degrees in STUDY_PLAN.items()
            for k, (lo, hi) in degrees.items()
            for level in range(lo, hi + 1)
        ]
    if workload == "hex-L5-k2-reuse":
        return [Problem("hex-L5-k2", 2, cases=("sin2d",) + PATCH_CASES, family="hex", level=5)]
    raise ValueError(f"unknown workload '{workload}'; choose from {sorted(WORKLOADS)}")


def _no_checkpoint() -> None:
    pass


def run_pass(problems: list[Problem], tracer, checkpoint=_no_checkpoint) -> PassResult:
    """One timed pass: every solve of the workload, from mesh input to errors.

    ``checkpoint`` is called between calls into the program, and every
    CHECKPOINT_CELLS cells while local operators are built; the untraced
    pass passes ``SpeedClock.checkpoint`` there.  An exception in one solve
    is recorded on its record and the pass goes on with the next problem.
    """
    records: list[SolveRecord] = []
    meshes: list[tuple[Problem, object]] = []
    n_warn = 0
    with tracer.span("pass"):
        for prob in problems:
            pending = [SolveRecord(f"{prob.label}/{c}", prob, c) for c in prob.cases]
            records.extend(pending)
            try:
                with tracer.span("problem", prob.label):
                    with tracer.span("polymesh"):
                        mesh = prob.build_mesh()
                    meshes.append((prob, mesh))
                    checkpoint()
                    with tracer.span("localspaces"), warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        cache = OperatorCache(mesh, prob.k)
                        for c in range(mesh.n_cells):
                            cache.get(c)
                            if c % CHECKPOINT_CELLS == CHECKPOINT_CELLS - 1:
                                checkpoint()
                    checkpoint()
                    n_warn += sum(
                        issubclass(w.category, RuntimeWarning)
                        and "mass matrix condition" in str(w.message)
                        for w in caught
                    )
                    for rec in pending:
                        _run_case(rec, mesh, cache, tracer, checkpoint)
            except Exception as exc:  # noqa: BLE001 - a failed solve is data
                for rec in pending:
                    if rec.solution is None and rec.error is None:
                        rec.error = f"{type(exc).__name__}: {exc}"
    return PassResult(records, meshes, n_warn)


def _run_case(rec: SolveRecord, mesh, cache, tracer, checkpoint) -> None:
    case = get_case(rec.case)
    k = rec.problem.k
    rec.mesh, rec.cache = mesh, cache
    try:
        with tracer.span("solve", rec.solve_id):
            with tracer.span("wgsolve.assemble"):
                rec.system = assemble(mesh, k, case.f, case.g, cache=cache)
            checkpoint()
            with tracer.span("wgsolve.solve"):
                rec.solution = solve(rec.system, tol=SOLVE_TOL)
            checkpoint()
            with tracer.span("analysis"):
                rec.l2_err = l2_projection_error(mesh, k, case.u, rec.solution, cache)
                rec.energy_err = energy_error(mesh, k, case.u, case.grad_u, rec.solution, cache)
            checkpoint()
    except Exception as exc:  # noqa: BLE001 - a failed solve is data
        rec.error = f"{type(exc).__name__}: {exc}"


def true_residual(system, solution) -> float:
    """||b - A x|| / ||b|| recomputed from the eliminated system."""
    dofmap = system.dofmap
    x = solution.full_vector(dofmap)[dofmap.free_dofs]
    bnorm = float(np.linalg.norm(system.rhs))
    if bnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(system.rhs - system.matrix @ x)) / bnorm


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_entry(rec: SolveRecord) -> dict:
    return {
        "free_dofs": int(rec.system.dofmap.n_free),
        "method": rec.solution.method,
        "l2_err": rec.l2_err,
        "energy_err": rec.energy_err,
    }


def check_record(rec: SolveRecord, reference: dict | None) -> list[str]:
    """Every check one solve fails; empty when it passes.

    ``reference`` is the frozen entry of this solve, or None where the
    inputs differ from those it was recorded on (jitter at another seed).
    """
    if rec.error is not None:
        return [rec.error]
    fails = []
    if not rec.solution.residual <= SOLVE_TOL:
        fails.append(f"reported residual {rec.solution.residual:.3e} > {SOLVE_TOL:.0e}")
    rec.residual = true_residual(rec.system, rec.solution)
    if not rec.residual <= RESIDUAL_MAX:
        fails.append(f"recomputed residual {rec.residual:.3e} > {RESIDUAL_MAX:.0e}")
    if rec.case in PATCH_CASES:
        for name, val in (("l2", rec.l2_err), ("energy", rec.energy_err)):
            if not val <= PATCH_ERR_MAX:
                fails.append(f"patch {name} error {val:.3e} > {PATCH_ERR_MAX:.0e}")
    if rec.problem.seeded:
        case = get_case(rec.case)
        via = energy_error_via_projection(
            rec.mesh, rec.problem.k, case.u, rec.solution, rec.cache
        )
        if not abs(via - rec.energy_err) <= PROJECTION_RTOL * abs(via):
            fails.append(f"energy_error {rec.energy_err!r} != via projection {via!r}")
    if reference is not None:
        got = reference_entry(rec)
        for key in ("free_dofs", "method"):
            if got[key] != reference[key]:
                fails.append(f"{key} {got[key]!r} != reference {reference[key]!r}")
        # Patch-case errors are rounding noise, so relative agreement with
        # the frozen value means nothing; PATCH_ERR_MAX bounds them instead.
        errors = () if rec.case in PATCH_CASES else ("l2_err", "energy_err")
        for key in errors:
            ref = reference[key]
            if not abs(got[key] - ref) <= REFERENCE_RTOL * ref:
                fails.append(f"{key} {got[key]!r} != reference {ref!r}")
    return fails


def check_pass(result: PassResult, workload: str, seed: int, reference: dict) -> None:
    """Fill ``failures`` (and ``residual``) on every record of the pass."""
    frozen = reference.get(workload, {})
    for rec in result.records:
        if rec.problem.seeded and seed != REFERENCE_SEED:
            rec.failures = check_record(rec, None)
        elif rec.solve_id not in frozen:
            rec.failures = [f"no reference output for {rec.solve_id}"]
        else:
            rec.failures = check_record(rec, frozen[rec.solve_id])


def shape_key(coords: np.ndarray) -> tuple:
    """A cell's shape up to translation and scale: its vertex offsets from
    cycle vertex 0 divided by the cell diameter, rounded to 1e-9."""
    diff = coords[:, None, :] - coords[None, :, :]
    diam = float(np.sqrt((diff**2).sum(axis=2).max()))
    return tuple(np.round((coords - coords[0]) / diam, 9).ravel())


def count_shape_classes(vertices: np.ndarray, cells) -> int:
    """Distinct cell shapes up to translation and scale."""
    return len({shape_key(vertices[list(cyc)]) for cyc in cells})
