"""Manufactured solutions, error norms, rates and the convergence driver.

The L2 error compares the interior solution against the element-wise
projection of the exact solution; the energy error compares weak-gradient
coefficients against the projected exact gradient, using the commuting
property of projection and weak gradient.  Rates are dyadic logs of
consecutive errors, matching the level-halving mesh families; a rate that
touches NOISE_FLOOR is undefined (NaN), since exactly reproduced cases leave
only rounding to compare.  The manufactured cases are prebuilt values in
CASES.  A study table renders as CSV, Markdown or JSON from one record per
row, in which an undefined rate is None.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .localspaces import OperatorCache, _check_degree, _matvec, project_qb
from .polymesh import GENERATORS, PolyMesh
from .wgsolve import (
    DEFAULT_TOL,
    SolverError,
    WGSolution,
    assemble,
    solve,
    triple_bar_norm,
)


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle: u, its gradient, source f = -Laplace(u), and
    boundary data g = u restricted to the boundary."""

    label: str
    u: object
    grad_u: object
    f: object
    g: object


def _sin2d_u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _sin2d_grad_u(x, y):
    return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                     np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)


def _sin2d_f(x, y):
    return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def _linear_u(x, y):
    return 2.0 * x + 3.0 * y - 1.0


def _linear_grad_u(x, y):
    return np.stack([np.full_like(x, 2.0), np.full_like(y, 3.0)], axis=-1)


def _quadratic_u(x, y):
    return x**2 - y**2


def _quadratic_grad_u(x, y):
    return np.stack([2.0 * x, -2.0 * y], axis=-1)


def _zero(x, y):
    return np.zeros_like(x)


CASES = {case.label: case for case in (
    ManufacturedCase("sin2d", _sin2d_u, _sin2d_grad_u, _sin2d_f, _sin2d_u),
    ManufacturedCase("patch-linear", _linear_u, _linear_grad_u, _zero, _linear_u),
    ManufacturedCase("patch-quadratic", _quadratic_u, _quadratic_grad_u, _zero, _quadratic_u),
)}


def get_case(label: str) -> ManufacturedCase:
    try:
        return CASES[label]
    except KeyError:
        raise KeyError(f"unknown case '{label}'; available: {sorted(CASES)}") from None


def l2_projection_error(mesh: PolyMesh, k: int, u, solution: WGSolution,
                        cache: OperatorCache) -> float:
    """L2 norm of (projected exact solution - interior solution).

    Threads: as in wgsolve.assemble, the batches of cells are shared out
    between the calling thread and one thread per further usable CPU, so u
    may be called from several threads at once and in any order, and must
    be thread-safe.  The norm is bit for bit that of one thread."""
    cache.check(mesh, k)
    solution.full_vector(cache.dofmap)  # ValueError unless the solution fits

    def local(ops, cls, cells, offsets, gdofs):
        delta = ops.project_interior(u, cls, offsets) - solution.u0[cells]
        return (float(np.sum(delta * _matvec(ops.mass_scalar[cls], delta), axis=1).sum()),)

    return math.sqrt(cache.walk(local)[0])


def energy_error(mesh: PolyMesh, k: int, u, grad_u, solution: WGSolution,
                 cache: OperatorCache) -> float:
    """Energy norm of (projected exact solution - discrete solution).

    Per cell this is the weak-gradient-space distance between the projected
    exact gradient and the weak gradient of the discrete solution.  Threads:
    as in l2_projection_error, grad_u must be thread-safe, and the norm is
    bit for bit that of one thread.
    """
    cache.check(mesh, k)
    full = solution.full_vector(cache.dofmap)

    def local(ops, cls, cells, offsets, gdofs):
        delta = (ops.project_lambda_field(grad_u, cls, offsets)
                 - _matvec(ops.weak_gradient[cls], full[gdofs]))
        return (float(np.sum(delta * delta, axis=1).sum()),)

    return math.sqrt(cache.walk(local)[0])


def energy_error_via_projection(mesh: PolyMesh, k: int, u, solution: WGSolution,
                                cache: OperatorCache) -> float:
    """Energy error evaluated as the weak gradient of the projected exact
    solution minus the weak gradient of the discrete one; consistency oracle
    for the commuting route used by energy_error.  Threads: as in
    l2_projection_error, u must be thread-safe, and the norm is bit for bit
    that of one thread."""
    cache.check(mesh, k)
    full = solution.full_vector(cache.dofmap)
    n0 = cache.dofmap.n_interior_per_cell
    _, u0 = cache.walk(lambda ops, cls, cells, offsets, gdofs: (
        0.0, (gdofs[:, :n0], ops.project_interior(u, cls, offsets))), cache.dofmap.edge_base)
    ub = project_qb(mesh, np.arange(mesh.n_edges), k, u)
    exact = np.concatenate([u0, ub.ravel()])
    return float(triple_bar_norm(mesh, k, exact - full, cache))


NOISE_FLOOR = 1e-13


def rate(e_prev: float, e_curr: float) -> float:
    """Dyadic convergence rate log2(e_prev / e_curr).  NaN marks it undefined:
    when either error is at most NOISE_FLOOR (an exactly reproduced case,
    where only rounding is left to compare), which covers nonpositive input."""
    if min(e_prev, e_curr) <= NOISE_FLOOR:
        return math.nan
    return math.log2(e_prev / e_curr)


def above_tol(residual: float, tol: float = DEFAULT_TOL, level: int | None = None) -> str:
    """The note for a solve that stopped above tol, which solve does only at
    the rounding floor of the relative residual, naming the level of a
    study if given; "" for a solve that met tol."""
    note = (f"residual {residual:.3E} above tol {tol:.3E}: the solve stopped at the "
            "rounding floor of the relative residual")
    return "" if residual <= tol else (note if level is None else f"level {level}: {note}")


@dataclass(frozen=True)
class ErrorReport:
    """One solve's errors and solver outcome; in a study, also the dyadic
    rates against the level before (NaN where undefined)."""

    level: int
    dofs: int
    l2_err: float
    energy_err: float
    residual: float
    l2_rate: float = math.nan
    energy_rate: float = math.nan


@dataclass
class ConvergenceTable:
    """Per-level errors and dyadic rates for one (family, degree, case) study."""

    family: str
    k: int
    case: str
    rows: list[ErrorReport] = field(default_factory=list)
    failure: str = ""

    @property
    def partial(self) -> bool:
        """Whether a level failed (see ``failure``) and ended the study."""
        return bool(self.failure)

    @property
    def reports(self) -> list[ErrorReport]:
        """The rows, each the full ErrorReport of its level."""
        return self.rows

    def _records(self) -> list[dict]:
        """One record per row, in the JSON key order, an undefined rate as None;
        every format renders these."""
        def defined(r: float) -> float | None:
            return None if math.isnan(r) else r

        return [{"level": row.level, "l2_err": row.l2_err, "l2_rate": defined(row.l2_rate),
                 "energy_err": row.energy_err, "energy_rate": defined(row.energy_rate),
                 "dofs": row.dofs, "residual": row.residual} for row in self.rows]

    def to_csv(self) -> str:
        columns = ("level", "l2_err", "l2_rate", "energy_err", "energy_rate")
        lines = [",".join(columns)] + [
            ",".join("" if rec[c] is None else repr(rec[c]) for c in columns)
            for rec in self._records()
        ]
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        def cell(r: float | None) -> str:
            return "  -- " if r is None else f"{r:5.2f}"

        head = ("| level | l2_err | rate | energy_err | rate |\n"
                "|------:|----------:|-----:|----------:|-----:|\n")
        body = [
            f"| {rec['level']:5d} | {rec['l2_err']:.3E} | {cell(rec['l2_rate'])} | "
            f"{rec['energy_err']:.3E} | {cell(rec['energy_rate'])} |"
            for rec in self._records()
        ]
        return head + "".join(line + "\n" for line in body)

    def to_json(self) -> str:
        payload = {"family": self.family, "k": self.k, "case": self.case,
                   "partial": self.partial, "rows": self._records()}
        if self.partial:
            payload["failure"] = self.failure
        return json.dumps(payload, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        renderers = {"csv": self.to_csv, "md": self.to_markdown, "json": self.to_json}
        if fmt not in renderers:
            raise ValueError(f"unknown table format '{fmt}'")
        return renderers[fmt]()


def solve_case(mesh: PolyMesh, k: int, case: ManufacturedCase, tol: float = DEFAULT_TOL
               ) -> tuple[WGSolution, OperatorCache]:
    """Assemble and solve one manufactured problem on a mesh, with a new cache."""
    system = assemble(mesh, k, case.f, case.g)
    return solve(system, tol=tol), system.cache


def run_level(family: str, level: int, k: int, case: ManufacturedCase,
              tol: float = DEFAULT_TOL) -> ErrorReport:
    mesh = GENERATORS[family](level)
    solution, cache = solve_case(mesh, k, case, tol=tol)
    l2 = l2_projection_error(mesh, k, case.u, solution, cache)
    energy = energy_error(mesh, k, case.u, case.grad_u, solution, cache)
    # level has passed the generator's gate: numpy integers are stored as ints.
    return ErrorReport(
        level=int(level), dofs=int(cache.dofmap.n_dofs), l2_err=l2, energy_err=energy,
        residual=solution.residual,
    )


def run_convergence(family: str, k: int, levels, case: ManufacturedCase,
                    tol: float = DEFAULT_TOL) -> ConvergenceTable:
    """Solve on successive levels and tabulate errors with dyadic rates
    against the row before (``rate``; undefined on the first row and at the
    noise floor).  A failed level flags the table as partial and keeps the
    completed rows.
    """
    if family not in GENERATORS:
        raise ValueError(f"unknown mesh family '{family}'")
    _check_degree(k)
    table = ConvergenceTable(family=family, k=int(k), case=case.label)
    for level in levels:
        try:
            rep = run_level(family, level, k, case, tol=tol)
        except SolverError as exc:
            table.failure = f"level {level}: {exc}"
            break
        if table.rows:
            prev = table.rows[-1]
            rep = replace(rep, l2_rate=rate(prev.l2_err, rep.l2_err),
                          energy_rate=rate(prev.energy_err, rep.energy_err))
        table.rows.append(rep)
    return table
