"""Sparse assembly, Dirichlet elimination and solve.

The bilinear form is (grad_w u, grad_w v) summed over cells, with no penalty
term; boundary edge DOFs carry the edge projection of the boundary data and
are eliminated symmetrically.  The reduced system is symmetric positive
definite.  Every pass is one OperatorCache.walk over the cache's batches,
which carry their cells' global DOF indices in the layout of
localspaces.DofMap: the batches' local products are computed on every
usable CPU, and walk scatters and sums them in batch order.

Interior unknowns couple only inside their own cell, so they are condensed
out row by row of each OperatorStack (OperatorStack.condensed), and only the
system on the free edge unknowns is assembled: the Schur complements
K_bb - K_0b^T K_00^-1 K_0b with the loads -X^T f_0, X = K_00^-1 K_0b.  The
edge system is solved directly when the full system has fewer than
DIRECT_LIMIT free DOFs, otherwise by conjugate gradients, preconditioned by
Jacobi for JACOBI_BUDGET iterations and then, at 1 <= k <= 2, by a
multilevel V-cycle with an l1-Jacobi smoother (see _pcg), whose first
coarse level holds the mesh vertices' values, prolonged to the linear
trace on each free edge (see _multilevel); the interior values are then
recovered per cell as K_00^-1 (f_0 - K_0b u_b).
Convergence is judged in one place, solve, on the full system's true
relative residual ||rhs - A x|| / ||rhs||, computed from the local
stiffnesses.  Both PCG passes run from zero to one absolute target on the
edge residual, 0.5 tol ||rhs||: the first on edge_rhs and, if the full
residual is above tol, one continuation on the true edge residual
edge_rhs - S x, whose solution is added to x.  assemble computes only
the data terms; the three sparse matrices, which depend only on the mesh
and k, are built on first access (the edge matrix by solve).  scipy.sparse
is imported by the two functions that build sparse matrices, _block_matrix
and _multilevel, and scipy.sparse.linalg by spsolve, so importing the
package, and assembling, load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

# build_dof_map is imported for callers of this module.
from .localspaces import DofMap, OperatorCache, _matvec, build_dof_map, project_qb
from .polymesh import PolyMesh

if TYPE_CHECKING:
    import scipy.sparse as sp

DIRECT_LIMIT = 5000
# The relative residual that solve, the study drivers and the CLI ask for
# unless told otherwise.
DEFAULT_TOL = 1e-12
# Jacobi-PCG iterations on the edge system before solve switches to the
# multilevel cycle, and the largest level that cycle inverts densely: at 200
# unknowns the inverse takes the place of the last small levels, whose
# Galerkin operators are nearly dense.
JACOBI_BUDGET = 20
COARSEST = 200


def spsolve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """scipy.sparse.linalg.spsolve, imported on the first direct solve."""
    from scipy.sparse.linalg import spsolve as direct
    return direct(A, b)


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
class SparseSymSystem:
    """Eliminated SPD system, held condensed, plus the data needed to
    rebuild full vectors.

    ``edge_matrix`` and ``edge_rhs`` form the system on the free edge
    unknowns that is left when every cell's interior unknowns are condensed
    out; ``load`` holds each cell's interior load moments, from which solve
    recovers the interior values.  ``rhs`` is the right-hand side of the
    uncondensed system over the free DOFs.  The three matrices depend only
    on the mesh and k and are built from the local operators on first
    access: ``edge_matrix`` from the Schur complements, and the uncondensed
    ``matrix`` (free DOFs) and ``full_matrix`` (all DOFs, before
    elimination) from the local stiffnesses.
    """

    rhs: np.ndarray
    constrained_values: np.ndarray
    edge_rhs: np.ndarray
    load: np.ndarray
    cache: OperatorCache

    @property
    def dofmap(self) -> DofMap:
        return self.cache.dofmap

    def _gathered(self, block, index: np.ndarray, n: int) -> sp.csr_matrix:
        """The n x n sum of every batch's blocks block(ops)[rows], whose
        columns are the last ones of their cells' local DOFs, at the global
        indices index[dofs] (negative: dropped)."""
        blocks = []
        for ops, cls, _, _, gdofs in self.cache.batches():
            M = block(ops)
            blocks.append((M, cls, index[gdofs[:, -M.shape[-1]:]]))
        return _block_matrix(blocks, n)

    @cached_property
    def edge_matrix(self) -> sp.csr_matrix:
        # Interior DOFs are all free and come first, so this is each side
        # DOF's index among the free edge DOFs, negative if constrained.
        index = self.dofmap.free_index - self.dofmap.edge_base
        return self._gathered(lambda ops: ops.condensed[2], index, self.edge_rhs.size)

    @cached_property
    def full_matrix(self) -> sp.csr_matrix:
        n = self.dofmap.n_dofs
        return self._gathered(lambda ops: ops.stiffness, np.arange(n), n)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return self._gathered(lambda ops: ops.stiffness, self.dofmap.free_index, self.dofmap.n_free)


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
        """u0 and ub as one vector; ValueError unless they fit dofmap."""
        shapes = ((dofmap.n_cells, dofmap.n_interior_per_cell), (dofmap.n_edges, dofmap.n_per_edge))
        if dofmap.k != self.k or (self.u0.shape, self.ub.shape) != shapes:
            raise ValueError(f"degree-{self.k} solution, u0 {self.u0.shape}, ub {self.ub.shape}, "
                             f"does not fit the degree-{dofmap.k} DOF map {shapes}")
        return np.concatenate([self.u0.ravel(), self.ub.ravel()])


def _block_matrix(blocks, n: int) -> sp.csr_matrix:
    """The n x n sum of dense cell blocks: ``blocks`` lists triples
    (M, rows, idx) of a stack of matrices, the rows of its cells' blocks
    M[rows], shape (c, m, m), and their global indices idx, shape (c, m);
    entries in a row or column with a negative index are dropped.

    The matrix is built straight into CSR in two passes.  The first reads
    the indices alone: each kept (cell, local row) is one run of that
    cell's kept columns, and the runs, sorted stably by row, lie back to
    back in the CSR arrays, so each run's first slot is a cumulative sum of
    run lengths, computed once per run.  The second gathers one batch's
    blocks at a time and writes every run at its slot; sum_duplicates then
    sorts and sums each row in place, and the arrays are cut to the stored
    entries.  The CSR arrays take 12 bytes per
    entry, and the traced peak is about 17 with the per-run arrays and one
    batch (uncondensed, square level 7, k = 1), where expanding whole-matrix
    COO triplets, masking them and converting them took about 41.  A DOF
    lies on at most two cells, so an entry has at most two contributions,
    whose sum does not depend on their order: the arrays are bit for bit
    those of summing the triplets, and the sum of exactly symmetric blocks
    is exactly symmetric.
    """
    import scipy.sparse as sp
    keeps = [idx >= 0 for _, _, idx in blocks]
    # Pass 1.  A dropped row is an empty run, sorted past the last row.
    row = np.concatenate([np.where(idx >= 0, idx, n).ravel() for _, _, idx in blocks])
    length = np.concatenate([(keep * keep.sum(1, keepdims=True)).ravel() for keep in keeps])
    order = np.argsort(row, kind="stable")
    first = np.empty_like(length)
    first[order] = np.cumsum(length[order]) - length[order]
    nnz = int(length.sum())
    # 32-bit indices where they suffice, as scipy would choose.
    itype = np.int32 if max(n, nnz) < 2**31 else np.int64
    indptr = np.zeros(n + 1, itype)
    indptr[1:] = np.cumsum(np.bincount(row, length, minlength=n + 1))[:n]
    # Pass 2.  Dropped entries all go to one extra slot past the end.
    data, indices = np.empty(nnz + 1), np.empty(nnz + 1, itype)
    starts = np.split(first, np.cumsum([keep.size for keep in keeps]))
    for (M, rows, idx), keep, start in zip(blocks, keeps, starts):
        slot = start.reshape(keep.shape)[:, :, None] + np.cumsum(keep, axis=1)[:, None, :] - 1
        slot = np.where(keep[:, :, None] & keep[:, None, :], slot, nnz)
        data[slot] = M[rows]
        indices[slot] = idx[:, None, :]
    A = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(n, n))
    A.sum_duplicates()
    # sum_duplicates sums in place, packing the entries at the front of the
    # arrays under A's views, and keeps the views; a shrinking realloc of
    # each such array frees its tail without a copy, and A takes the array
    # in place of the view before it reads it again.
    for name in ("data", "indices"):
        owner = getattr(A, name).base
        if owner is not None:
            owner.resize(A.nnz, refcheck=False)
            setattr(A, name, owner)
    return A


def assemble(mesh: PolyMesh, k: int, f, g=None, cache: OperatorCache | None = None
             ) -> SparseSymSystem:
    """Assemble the global system for -Laplace(u) = f with u = g on the boundary.

    g = None means homogeneous data; otherwise boundary edge DOFs are set to
    the edge projection of g and eliminated symmetrically.  The interior
    unknowns are condensed out cell by cell, so only the edge system's
    data terms are assembled here: load, edge_rhs and rhs.  Its matrix,
    which depends only on the mesh and k, is built on first access
    (SparseSymSystem.edge_matrix), by the first solve.

    f(x, y) and g(x, y) get flat arrays of quadrature points, many cells or
    edges at once, and return one value per point or one constant for all;
    any other shape, or a non-finite value, raises localspaces.DataError
    naming the shape or the point (and g's edge).

    Threads: the batches of cells are shared out between the calling thread
    and one thread per further usable CPU, so f may be called from several
    threads at once and in any order, and must be thread-safe.  The results
    are bit for bit those of one thread, and an error is the one the first
    failing batch raises.  The thread count is the number of usable CPUs;
    nothing sets it.
    """
    cache = OperatorCache(mesh, k) if cache is None else cache.check(mesh, k)
    dofmap = cache.dofmap
    n_dofs, base = dofmap.n_dofs, dofmap.edge_base
    n0 = dofmap.n_interior_per_cell

    x_c = np.zeros(dofmap.constrained_dofs.size)
    if g is not None and x_c.size:
        x_c = project_qb(mesh, np.flatnonzero(mesh.boundary_edges), k, g).ravel()
    # The boundary values as a full DOF vector: rhs = f - A x on the free DOFs.
    x = np.zeros(n_dofs)
    x[dofmap.constrained_dofs] = x_c

    def local(ops, cls, cells, offsets, gdofs):
        mom = ops.interior_moments(f, cls, offsets)
        _, X, S = ops.condensed
        # Condensed edge load -X^T f_0, less the boundary values' share.
        cond = _matvec(X[cls].swapaxes(-1, -2), mom) + _matvec(S[cls], x[gdofs[:, n0:]])
        return 0.0, (gdofs[:, :n0], mom), (gdofs[:, n0:], cond), (
            gdofs, _matvec(ops.stiffness[cls], x[gdofs]))

    _, load, cond, Ax = cache.walk(local, base, n_dofs, n_dofs)
    rhs = -Ax
    rhs[:base] += load
    return SparseSymSystem(
        rhs=rhs[dofmap.free_dofs],
        constrained_values=x_c,
        # 0.0 - sum, not -sum: a DOF whose terms are all +0.0 gets +0.0.
        edge_rhs=0.0 - cond[dofmap.free_dofs[base:]],
        load=load.reshape(dofmap.n_cells, n0),
        cache=cache,
    )


def _pcg(A: sp.csr_matrix, b: np.ndarray, atol: float, switch=None, budget: int = 0
         ) -> tuple[np.ndarray, int]:
    """Conjugate gradients from zero until the recurrence residual's norm
    is at most atol; returns x and the number of iterations.

    Jacobi-preconditioned; given ``switch``, CG restarts from x after
    ``budget`` iterations above atol, preconditioned by ``switch()``, and
    the cap counts both phases.  solve passes the V-cycle of _multilevel at
    1 <= k <= 2.  At k = 0 the vertex level's P has a kernel (see
    _multilevel).  At k >= 3 the smoother alone must reduce the edge modes
    m >= 2: forced on, at k = 3 the cycle took 83 and 126 iterations on hex
    L6 and jitter L7 against Jacobi's 382 and 678, in 0.6-0.7 times
    Jacobi's time, but at k = 4 it took 163 and 262 against 463 and 831 in
    the same time, so those degrees stay on Jacobi until interleaved runs
    settle k = 3.
    Its l1 smoother weights 1 / sum_j |a_ij| bound the spectrum of D^-1 A
    by 1, which keeps the cycle positive definite; plain Jacobi's reaches
    2.04 on jittered squares.  The dot products and norms run in BLAS, so
    their last bits follow its thread count on large systems."""
    n = b.size
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverStructureError(
            "nonpositive diagonal entry; matrix cannot be positive definite"
        )
    # Named: numpy writes a product into an operand that nothing else holds.
    inv_diag = 1.0 / diag
    precond = inv_diag.__mul__
    # p = None marks a phase start: Jacobi at iteration 0, switch() after budget.
    x, r, p = np.zeros(n), b.copy(), None
    history = [float(np.linalg.norm(r))]
    max_iter = 20 * int(np.ceil(np.sqrt(n)))
    while not history[-1] <= atol:  # a NaN residual runs to the cap
        if len(history) > max_iter:
            raise SolverConvergenceError(
                f"conjugate gradients exceeded {max_iter} iterations "
                f"(residual norm {history[-1]:.3e}, target {atol:.1e})",
                np.array(history),
            )
        if switch is not None and len(history) == budget + 1:
            precond, p = switch(), None
        if p is None:
            z = precond(r)
            p, rz = z.copy(), float(r @ z)
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
        history.append(float(np.linalg.norm(r)))
        z = precond(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, len(history) - 1


def _multilevel(S: sp.csr_matrix, mesh: PolyMesh, k: int):
    """The symmetric V(1,1) l1-Jacobi cycle r -> z for the free edge system
    S at degree k >= 1.  Level 1 holds a value at every vertex of a free
    edge, boundary vertices included, so that a mesh whose vertices all lie
    on the boundary has one too.  Its prolongation P gives each free edge
    the linear trace of its two vertex values, the trace of continuous P1
    (the coarse space of Cockburn, Dubois, Gopalakrishnan & Tan for the
    condensed HDG system): mode 0 the mean, mode 1 half the rise from the
    low vertex to the high one (the edge basis is s^m, s = -1 at the low
    vertex), the modes m >= 2 zero; its level matrix is P^T S P.  Below it,
    smoothed aggregation: boxes of about eight nodes (vertices, then
    aggregate centroids), P = (I - 4/3 D^-1 A) P_tent with D the l1 row
    sums, and P^T A P, down to at most COARSEST unknowns, which take a
    dense inverse.  A level keeps its P alone and restricts through P.T,
    a CSC view of P's own arrays whose matvec has the bits of a CSR copy's;
    each Galerkin product multiplies a transient CSR copy of P^T, which
    fixes its summation order.  At k = 0 an edge holds its mean alone, and
    the vertex level cannot serve: the vertex graphs of the square, quad,
    hex and jittered meshes are bipartite, so vertex values of alternating
    sign have mean zero on every edge, and P has a kernel."""
    import scipy.sparse as sp
    ends = mesh.edges[~mesh.boundary_edges]
    verts, col = np.unique(ends.ravel(), return_inverse=True)
    # Edge e's modes 0 and 1 are rows (k + 1) e and (k + 1) e + 1.
    rows = (k + 1) * np.arange(ends.shape[0])[:, None] + [0, 0, 1, 1]
    P = sp.csr_matrix((np.tile([0.5, 0.5, -0.5, 0.5], ends.shape[0]),
                       (rows.ravel(), np.tile(col.reshape(-1, 2), 2).ravel())),
                      shape=(S.shape[0], verts.size))
    levels = [(S, 1.0 / (abs(S) @ np.ones(S.shape[0])), P, P.T)]
    A, xy, m = (P.T.tocsr() @ S @ P).tocsr(), mesh.vertices[verts], verts.size
    while m > COARSEST:
        # Boxes of about eight nodes; the second bound coarsens collinear ones.
        lo, ext = xy.min(axis=0), np.ptp(xy, axis=0)
        h = max(np.sqrt(8.0 * ext.prod() / m), 8.0 * ext.max() / m)
        box = np.floor((xy - lo) / h).astype(np.int64)
        _, agg, size = np.unique(box[:, 0] * (m + 1) + box[:, 1], return_inverse=True,
                                 return_counts=True)
        xy = np.stack([np.bincount(agg, c) for c in xy.T], axis=1) / size[:, None]
        T = sp.csr_matrix((np.ones(m), (np.arange(m), agg)), shape=(m, size.size))
        d = 1.0 / (abs(A) @ np.ones(m))
        P = (T - sp.diags(4.0 / 3.0 * d) @ (A @ T)).tocsr()
        levels.append((A, d, P, P.T))
        A, m = (P.T.tocsr() @ A @ P).tocsr(), size.size
    bottom = np.linalg.inv(A.toarray())

    def cycle(r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(levels):
            return bottom @ r
        A, d, P, R = levels[level]
        x = d * r
        x += P @ cycle(R @ (r - A @ x), level + 1)
        x += d * (r - A @ x)
        return x

    return cycle


def _recover(system: SparseSymSystem, x_edge: np.ndarray) -> tuple[np.ndarray, float]:
    """The full DOF vector for given free edge values, with each cell's
    interior values u_0 = K_00^-1 (f_0 - K_0b u_b), and the norm of the
    residual rhs - A x over the free DOFs, both from the local operators."""
    dofmap, cache = system.dofmap, system.cache
    n0, base = dofmap.n_interior_per_cell, dofmap.edge_base
    x = np.zeros(dofmap.n_dofs)
    x[dofmap.free_dofs[base:]] = x_edge
    x[dofmap.constrained_dofs] = system.constrained_values

    def local(ops, cls, cells, offsets, gdofs):
        K00_inv, X, _ = ops.condensed
        xl = x[gdofs]
        xl[:, :n0] = _matvec(K00_inv[cls], system.load[cells]) - _matvec(X[cls], x[gdofs[:, n0:]])
        # On smooth solutions K x cancels to O(h^2) of its terms, so the
        # local products take extended precision: in double, their rounding
        # alone reads as a relative residual of about 5e-13 on the square
        # level-7 mesh at k = 1.
        Kx = np.einsum("nij,nj->ni", ops.stiffness[cls], xl, dtype=np.longdouble)
        return 0.0, (gdofs[:, :n0], xl[:, :n0]), (gdofs, Kx.astype(float))

    _, x[:base], Ax = cache.walk(local, base, x.size)
    r = -Ax
    r[:base] += system.load.ravel()
    return x, float(np.linalg.norm(r[dofmap.free_dofs]))


def solve(system: SparseSymSystem, tol: float = DEFAULT_TOL) -> WGSolution:
    """Solve the eliminated system to the requested relative residual.

    The edge system is solved directly when the full system has fewer than
    DIRECT_LIMIT free DOFs, otherwise by PCG, and the interior values are
    recovered cell by cell.  The only stop test is on the full system's
    residual, recomputed from the recovered solution.  Each PCG pass stops
    when its recurrence residual on the edge system is at most
    0.5 tol ||rhs||; if the full residual is above tol, one more pass solves
    for a correction to x from the true edge residual, to the same target,
    and the solve returns whichever of the two iterates has the lower
    residual.  Where tol lies below the residual's rounding floor (about
    eps |A| |x| / ||rhs||, which grows fourfold per level of refinement),
    that residual stays above tol.  Raises ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    b = system.rhs
    bnorm = float(np.linalg.norm(b))
    # With the interior values recovered exactly, the full residual is the
    # edge system's, so both PCG passes stop there at half the full target.
    target = 0.5 * tol * bnorm
    S, g = system.edge_matrix, system.edge_rhs
    x_edge = np.zeros(g.size)
    iterations, switch = 0, None
    if b.size < DIRECT_LIMIT:
        if g.size:
            x_edge = spsolve(S.tocsc(), g)
        method = "direct"
    else:
        # The Jacobi budget spans both passes; the multilevel cycle is
        # built only once.
        if 1 <= system.dofmap.k <= 2:
            switch = cache(lambda: _multilevel(S, system.cache.mesh, system.dofmap.k))
        x_edge, iterations = _pcg(S, g, target, switch=switch, budget=JACOBI_BUDGET)
        method = "pcg"
    x, rnorm = _recover(system, x_edge)
    residual = rnorm / bnorm if bnorm else 0.0
    if residual > tol and g.any():
        # Restart on the true edge residual: the correction's recurrence
        # starts from g - S x, not from the first pass's drifted one.
        dx, more = _pcg(S, g - S @ x_edge, target, switch=switch,
                        budget=max(JACOBI_BUDGET - iterations, 0))
        iterations += more
        method = "direct+cg" if method == "direct" else method
        x_full, rnorm = _recover(system, x_edge + dx)
        if rnorm / bnorm < residual:
            x, residual = x_full, rnorm / bnorm

    dofmap = system.dofmap
    u0 = x[: dofmap.edge_base].reshape(dofmap.n_cells, dofmap.n_interior_per_cell)
    ub = x[dofmap.edge_base :].reshape(dofmap.n_edges, dofmap.n_per_edge)
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


def _sum_of_squares(cache: OperatorCache, vec: np.ndarray, matrix: str) -> np.ndarray | float:
    """The root of the sum over the cells of |M v|^2, M the named per-row
    matrix of each OperatorStack, for full DOF vectors v, (n_dofs,) or
    (n_dofs, m) for m functions at once; ValueError for any other number
    of rows."""
    if vec.shape[0] != cache.dofmap.n_dofs:
        raise ValueError(f"vector of shape {vec.shape} does not fit the degree-{cache.k} "
                         f"DOF map of {cache.dofmap.n_dofs} DOFs")
    cols = vec.reshape(vec.shape[0], -1)

    def local(ops, cls, cells, offsets, gdofs):
        mv = _matvec(getattr(ops, matrix)[cls], cols[gdofs])
        return (np.sum(mv * mv, axis=1).sum(axis=0),)

    return np.sqrt(cache.walk(local)[0].reshape(vec.shape[1:]))[()]


def triple_bar_norm(mesh: PolyMesh, k: int, vec: np.ndarray, cache: OperatorCache
                    ) -> np.ndarray | float:
    """Energy norm (sum of squared weak-gradient norms) of full DOF vectors,
    (n_dofs,) or (n_dofs, m); the weak-gradient basis is orthonormal."""
    cache.check(mesh, k)
    return _sum_of_squares(cache, vec, "weak_gradient")


def discrete_h1_norm(mesh: PolyMesh, k: int, vec: np.ndarray, cache: OperatorCache
                     ) -> np.ndarray | float:
    """Discrete H1 semi-norm (cell gradients plus h_T^-1-weighted
    interior/edge trace mismatch, OperatorStack.h1) of full DOF vectors,
    (n_dofs,) or (n_dofs, m)."""
    cache.check(mesh, k)
    return _sum_of_squares(cache, vec, "h1")
