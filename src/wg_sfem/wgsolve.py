"""Global DOF management, sparse assembly, Dirichlet elimination and solve.

The bilinear form is (grad_w u, grad_w v) summed over cells, with no penalty
term; boundary edge DOFs carry the edge projection of the boundary data and
are eliminated symmetrically.  The reduced system is symmetric positive
definite and solved directly below a size threshold, otherwise by
Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .localspaces import DataError, OperatorCache, dim_pk, project_qb
from .polymesh import PolyMesh

DIRECT_LIMIT = 5000


class SolverError(RuntimeError):
    """Base class for linear-solver failures."""


class SolverConvergenceError(SolverError):
    """Iteration cap exceeded; carries the residual history."""

    def __init__(self, message: str, history: np.ndarray):
        super().__init__(message)
        self.history = history


class SolverStructureError(SolverError):
    """Matrix is not positive definite; signals an assembly bug."""


@dataclass(frozen=True)
class DofMap:
    """Global DOF layout: all cell-interior blocks first, then edge blocks."""

    k: int
    n_cells: int
    n_edges: int
    boundary_edges: np.ndarray
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray

    @property
    def n_interior_per_cell(self) -> int:
        return dim_pk(self.k)

    @property
    def n_per_edge(self) -> int:
        return self.k + 1

    @property
    def edge_base(self) -> int:
        return self.n_cells * self.n_interior_per_cell

    @property
    def n_dofs(self) -> int:
        return self.edge_base + self.n_edges * self.n_per_edge

    @property
    def n_free(self) -> int:
        return self.free_dofs.size

    def cell_dof_array(self, mesh: PolyMesh, cells) -> np.ndarray:
        """Global indices in local operator order (interior, then sides) of
        cells with equal side counts, shape (n_cells, n_local)."""
        cells = np.asarray(cells)
        n0, nb = self.n_interior_per_cell, self.n_per_edge
        interior = cells[:, None] * n0 + np.arange(n0)
        edges = np.array([mesh.cell_edges[c] for c in cells])
        sides = self.edge_base + edges[:, :, None] * nb + np.arange(nb)
        return np.hstack([interior, sides.reshape(cells.size, -1)])


def build_dof_map(mesh: PolyMesh, k: int) -> DofMap:
    n0 = dim_pk(k)
    nb = k + 1
    edge_base = mesh.n_cells * n0
    boundary = np.flatnonzero(mesh.boundary_edges)
    constrained = (edge_base + boundary[:, None] * nb + np.arange(nb)).ravel()
    mask = np.ones(edge_base + mesh.n_edges * nb, dtype=bool)
    mask[constrained] = False
    return DofMap(
        k=k,
        n_cells=mesh.n_cells,
        n_edges=mesh.n_edges,
        boundary_edges=mesh.boundary_edges,
        free_dofs=np.flatnonzero(mask),
        constrained_dofs=constrained,
    )


@dataclass(frozen=True)
class SparseSymSystem:
    """Eliminated SPD system plus the data needed to rebuild full vectors."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained_values: np.ndarray
    dofmap: DofMap
    full_matrix: sp.csr_matrix


@dataclass(frozen=True)
class WGSolution:
    """Discrete solution: per-cell interior and per-edge coefficients."""

    k: int
    u0: np.ndarray
    ub: np.ndarray
    iterations: int
    residual: float
    method: str

    def full_vector(self, dofmap: DofMap) -> np.ndarray:
        return np.concatenate([self.u0.ravel(), self.ub.ravel()])


def assemble(mesh: PolyMesh, k: int, f, g=None, cache: OperatorCache | None = None
             ) -> SparseSymSystem:
    """Assemble the global system for -Laplace(u) = f with u = g on the boundary.

    g = None means homogeneous data; otherwise boundary edge DOFs are set to
    the edge projection of g and eliminated symmetrically.
    """
    if cache is None:
        cache = OperatorCache(mesh, k)
    dofmap = cache.dofmap
    n_dofs = dofmap.n_dofs

    rows, cols, vals = [], [], []
    b = np.zeros(n_dofs)
    n0 = dofmap.n_interior_per_cell
    for ops, cls, cells, offsets in cache.batches():
        gdofs = dofmap.cell_dof_array(mesh, cells)
        n_loc = gdofs.shape[1]
        rows.append(np.repeat(gdofs, n_loc, axis=1).ravel())
        cols.append(np.tile(gdofs, n_loc).ravel())
        vals.append(ops.stiffness[cls].ravel())

        mom = ops.interior_moments(f, cls, offsets)
        bad = ~np.isfinite(mom).all(axis=1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            pts = ops.data_points(cls[i : i + 1])[0][0] + offsets[i]
            fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
            q = int(np.flatnonzero(~np.isfinite(fv))[0])
            raise DataError(
                f"source field non-finite at quadrature point "
                f"({pts[q, 0]}, {pts[q, 1]}) in cell {cells[i]}"
            )
        b[gdofs[:, :n0]] = mom

    # Each local stiffness is exactly symmetric and COO summation adds the
    # same cell contributions for (i, j) and (j, i), so A is exactly symmetric.
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dofs, n_dofs),
    ).tocsr()

    x_c = np.zeros(dofmap.constrained_dofs.size)
    if g is not None and x_c.size:
        x_c = project_qb(mesh, np.flatnonzero(mesh.boundary_edges), k, g).ravel()

    free = dofmap.free_dofs
    cons = dofmap.constrained_dofs
    rhs = b[free]
    if cons.size:
        rhs = rhs - A[free][:, cons] @ x_c
    return SparseSymSystem(
        matrix=A[free][:, free].tocsr(),
        rhs=rhs,
        constrained_values=x_c,
        dofmap=dofmap,
        full_matrix=A,
    )


def _pcg(A: sp.csr_matrix, b: np.ndarray, tol: float, x0: np.ndarray | None = None
         ) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned conjugate gradients to relative residual tol."""
    n = b.size
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverStructureError(
            "nonpositive diagonal entry; matrix cannot be positive definite"
        )
    inv_diag = 1.0 / diag
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(n) if x0 is None else x0.copy()
    r = b - A @ x if x.any() else b.copy()
    history = [float(np.linalg.norm(r)) / bnorm]
    if history[-1] <= tol:
        return x, 0, history[-1]
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    max_iter = 20 * int(np.ceil(np.sqrt(n)))
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverStructureError(
                f"matrix is not positive definite (p'Ap = {pAp:.3e}); "
                "this signals an assembly bug"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        if res <= tol:
            return x, it, res
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverConvergenceError(
        f"conjugate gradients exceeded {max_iter} iterations "
        f"(relative residual {history[-1]:.3e}, target {tol:.1e})",
        np.array(history),
    )


def solve(system: SparseSymSystem, tol: float = 1e-12) -> WGSolution:
    """Solve the eliminated system to the requested relative residual."""
    A, b = system.matrix, system.rhs
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if n == 0 or bnorm == 0.0:
        x = np.zeros(n)
        iterations, residual, method = 0, 0.0, "trivial"
    elif n < DIRECT_LIMIT:
        x = spsolve(A.tocsc(), b)
        residual = float(np.linalg.norm(b - A @ x)) / bnorm
        iterations, method = 0, "direct"
        if residual > tol:
            x, iterations, residual = _pcg(A, b, tol, x0=x)
            method = "direct+cg"
    else:
        x, iterations, residual = _pcg(A, b, tol)
        method = "pcg"

    dofmap = system.dofmap
    full = np.zeros(dofmap.n_dofs)
    full[dofmap.free_dofs] = x
    full[dofmap.constrained_dofs] = system.constrained_values
    n0 = dofmap.n_interior_per_cell
    nb = dofmap.n_per_edge
    u0 = full[: dofmap.edge_base].reshape(dofmap.n_cells, n0)
    ub = full[dofmap.edge_base :].reshape(dofmap.n_edges, nb)
    return WGSolution(
        k=dofmap.k, u0=u0, ub=ub, iterations=iterations, residual=residual,
        method=method,
    )


def constant_function_vector(dofmap: DofMap) -> np.ndarray:
    """Coefficient vector of the function that is 1 on every cell and edge."""
    vec = np.zeros(dofmap.n_dofs)
    n0 = dofmap.n_interior_per_cell
    nb = dofmap.n_per_edge
    vec[: dofmap.edge_base : n0] = 1.0
    vec[dofmap.edge_base :: nb] = 1.0
    return vec


def triple_bar_norm(mesh: PolyMesh, k: int, vec: np.ndarray,
                    cache: OperatorCache | None = None) -> np.ndarray | float:
    """Energy norm (sum of squared weak-gradient norms) of full DOF vectors.

    vec may be (n_dofs,) or (n_dofs, m) for m functions at once.
    """
    if cache is None:
        cache = OperatorCache(mesh, k)
    dofmap = cache.dofmap
    cols = vec.reshape(vec.shape[0], -1)
    acc = 0.0
    for ops, cls, cells, _ in cache.batches():
        local = cols[dofmap.cell_dof_array(mesh, cells)]
        acc = acc + ops.lambda_norm_sq(ops.apply_weak_gradient(local, cls), cls).sum(axis=0)
    return np.sqrt(acc.reshape(vec.shape[1:]))[()]


def discrete_h1_norm(mesh: PolyMesh, k: int, vec: np.ndarray,
                     cache: OperatorCache | None = None) -> np.ndarray | float:
    """Discrete H1 semi-norm: cell gradients plus h_T^-1-weighted
    interior/edge trace mismatch."""
    if cache is None:
        cache = OperatorCache(mesh, k)
    dofmap = cache.dofmap
    n0 = dim_pk(k)
    nb = k + 1
    cols = vec.reshape(vec.shape[0], -1)
    acc = 0.0
    for ops, cls, cells, _ in cache.batches():
        local = cols[dofmap.cell_dof_array(mesh, cells)]
        u0 = local[:, :n0]
        sq = ops.grad_seminorm_sq(u0, cls)
        for s in range(ops.n_sides):
            ub = local[:, n0 + s * nb : n0 + (s + 1) * nb]
            sq = sq + ops.side_mismatch_sq(s, u0, ub, cls) / ops.diameter[cls, None]
        acc = acc + sq.sum(axis=0)
    return np.sqrt(acc.reshape(vec.shape[1:]))[()]
