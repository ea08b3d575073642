"""Per-cell polynomial machinery for the stabilizer-free discretization.

Scalar bases on cells are centroid-centered, diameter-scaled monomials
((x-x_T)/h_T)^a ((y-y_T)/h_T)^b; edge bases are the powers s^m of the
reference-segment parameter s = 2t - 1, with t in [0, 1] running along the
edge's canonical (low -> high vertex index) direction, so both adjacent cells
see the same single-valued basis.  The centroid x_T and every other frame
shift come from the fan's Jacobians relative to its anchor (_fan_centroids),
so no absolute coordinate enters an operator; only the data passes see
absolute points, where the user's functions are defined.

The vector basis on each fan sub-triangle is the contravariant Piola image
B phi(F^-1 x) / det B, under its affine map x = F(xi) = v0 + B xi, of one
RT_k basis phi that is orthonormal on the reference triangle.  RT_k is
Piola-invariant, so every triangle integral is a table on the reference
triangle, tabulated once per degree and rule (reference_tables, data_tables),
contracted with a small per-triangle matrix (Rognes, Kirby & Logg, SIAM J.
Sci. Comput. 31, 2009): the Gram with B^T B / det B, normal-flux moments on
sides and chords are reference constants, and the scalar mass, gradient mass
and interior divergence terms go through an exact affine change of monomial
frame from the cell to the reference triangle.  The data passes evaluate
only x = F(xi) and the user's function per point, at the points of a fully
symmetric rule of data_degree(k) (quadrature.symmetric_rule), which needs
about two thirds of the collapsed Gauss rule's points.

The weak-gradient space of a cell is the nullspace of the constraint system
(normal-jump moments on fan chords; divergence mismatch between each
sub-triangle and the largest one, over the first's reference monomials;
rows of unit norm), found by a complete QR factorization, with a hard
expected-dimension check on the constraint singular values.

Everything is built for a stack of cells with one vertex count at once
(OperatorStack): each array carries the cell of the stack on its leading
axis, and the Cholesky, QR, singular-value and linear solves run batched.
Each triangle's RT fields are orthonormalized by Cholesky against their Gram
and the nullspace basis is orthonormal, so the weak-gradient mass matrix is
the identity and is never formed.  A single cell is a stack of one.
OperatorCache builds, in its constructor, the global DOF layout (DofMap) and
the operators once per shape class (cells equal up to translation), in
stacks of classes of one vertex count sized by STACK_BYTES, at least
BATCH_CELLS; every pass over the mesh walks its batches of at most
BATCH_CELLS cells, which may mix the classes of one stack and carry their
global DOF indices, and the cache's arrays are read-only.  The stack
builds, and each pass over the batches, go through _batch_map, which
shares them between the calling thread and a pool of one thread per
further usable CPU and returns the results in order.  OperatorCache.walk
is the one place where the batches' results are added up: it sums their
terms and scatters their per-DOF values in that order, so every result is
bit for bit that of one thread.  The tasks issue no warnings: each stack
carries a lower bound on its cells' RT Gram condition, from which
OperatorCache warns in the calling thread after the build.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .polymesh import (
    PolyMesh,
    StarShapeError,
    _readonly,
    fan_triangles,
    first_appearance_labels,
    polygon_diameter,
)
from .quadrature import data_degree, segment_rule, symmetric_rule, triangle_rule

MAX_DEGREE = 4
NULLSPACE_RTOL = 1e-10
# OperatorCache warns for cells whose raw RT Gram condition, by the lower
# bound LambdaBasis.condition, exceeds this.
CONDITION_WARN = 1e12
# Fan triangles whose Gram has |G|_F |L^-1|_F^2 below this are orthonormalized
# in one Cholesky pass.
ONE_PASS_COND = 1e3
# Shape-class keys round the vertex offsets, in units of the cell diameter,
# and the log of the diameter to this many decimals.
KEY_DECIMALS = 12
# Cells per batch of OperatorCache.batches, and the fewest shape classes
# per stacked build.
BATCH_CELLS = 256
# Bytes per stacked build of its largest array, the complete Q of the
# constraint QR, 8 (n_triangles n_fields)^2 per class: more classes per
# stack mean fewer numpy calls; this bounds their transient memory.
STACK_BYTES = 2 << 20
# Per thread: ``busy`` is set while a _batch_map task runs.
_task = threading.local()


class DegreeError(ValueError):
    """Polynomial degree that is not an integer in the validated range
    0..MAX_DEGREE."""


class GeometryError(ValueError):
    """Degenerate geometry: a fan triangle's RT Gram is not positive definite."""


class LambdaDimensionError(RuntimeError):
    """Numerical nullspace dimension disagrees with the closed-form count."""


class DataError(ValueError):
    """User data f, g, u or grad u that returns a value of the wrong dtype
    or shape, or a non-finite value at a quadrature point (see _evaluate)."""


@lru_cache(maxsize=None)
def _thread_pool(threads: int):
    """A pool of this many threads, made on first use; a forked child, which
    has none of its threads, makes its own.  Two first calls at once may
    each make one; the one not kept serves its caller once, and its threads
    end when it is dropped."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads, "wg_sfem")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_thread_pool.cache_clear)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _batch_map(func, items) -> list:
    """[func(*item) for item in items], with the items shared out, next
    untaken first, between the calling thread and a pool of one thread
    fewer than the usable CPUs.  Results and errors come out as in that
    serial loop: no item is taken after a failure, and the first failing
    item's error is raised.  The tasks run in copies of the caller's
    context (numpy's errstate).  With one CPU or one item, or inside a
    task, whose thread may be the pool's, it runs inline."""
    items, nested = list(items), getattr(_task, "busy", False)
    results, failures = [None] * len(items), {}
    taken = iter(range(len(items)))

    def run():
        _task.busy = True
        while not failures and (i := next(taken, None)) is not None:
            try:
                results[i] = func(*items[i])
            except BaseException as exc:  # re-raised by the caller
                failures[i] = exc
        _task.busy = nested

    cpus = 1 if nested else _usable_cpus()
    futures = [_thread_pool(cpus - 1).submit(contextvars.copy_context().run, run)
               for _ in range(min(cpus, len(items)) - 1)]
    run()
    for future in futures:
        future.result()
    if failures:
        raise failures[min(failures)]
    return results


def _check_degree(k: int) -> None:
    """Only an int or numpy integer, not a bool, in 0..MAX_DEGREE passes."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= MAX_DEGREE:
        raise DegreeError(f"degree k={k} is not an integer in the supported range 0..{MAX_DEGREE}")


def dim_pk(k: int) -> int:
    """Dimension of the 2D polynomial space P_k."""
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k: int) -> list[tuple[int, int]]:
    """Graded-lexicographic exponent pairs for P_k; degree-k pairs come last."""
    return [(d - j, j) for d in range(k + 1) for j in range(d + 1)]


def expected_lambda_dim(n_v: int, k: int) -> int:
    """Closed-form dimension of the weak-gradient space on an n_v-gon."""
    return (n_v - 2) * (k + 1) * (k + 3) - (n_v - 3) * ((k + 1) + dim_pk(k))


def edge_basis(k: int, degree: int) -> np.ndarray:
    """The P_k edge basis s^m, s = 2t - 1, at the points t of the segment rule
    of the given degree, shape (npts, k + 1).  On the segment a + t (b - a)
    s runs from -1 at a to 1 at b."""
    s = 2.0 * segment_rule(degree).points - 1.0
    return s[:, None] ** np.arange(k + 1)


def _reference_monomials(k: int, pts: np.ndarray) -> np.ndarray:
    """The monomials x^a y^b of P_k at points (..., 2), shape (..., dim P_k)."""
    ax, ay = np.array(monomial_exponents(k)).T
    return pts[..., 0, None] ** ax * pts[..., 1, None] ** ay


def _raw_fields(k: int, pts: np.ndarray) -> np.ndarray:
    """Vector monomial fields spanning RT_k at points (npts, 2), shape
    (npts, (k + 1)(k + 3), 2): (m, 0) and (0, m) for the P_k monomials m,
    then (x, y) m_h for the k + 1 monomials m_h of degree k."""
    mono = _reference_monomials(k, pts)
    homo, zero = mono[:, -(k + 1) :], np.zeros_like(mono)
    return np.stack([np.hstack([mono, zero, pts[:, :1] * homo]),
                     np.hstack([zero, mono, pts[:, 1:] * homo])], axis=-1)


def _orthonormalize(A: np.ndarray) -> np.ndarray:
    """Upper triangular C for which A @ C has orthonormal columns: classical
    Gram-Schmidt with one reorthogonalization, in the precision of A."""
    Q, C = A.copy(), np.eye(A.shape[1], dtype=A.dtype)
    for j in range(A.shape[1]):
        for _ in range(2):
            r = Q[:, :j].T @ Q[:, j]
            Q[:, j] -= Q[:, :j] @ r
            C[:, j] -= C[:, :j] @ r
        norm = np.sqrt(Q[:, j] @ Q[:, j])
        Q[:, j] /= norm
        C[:, j] /= norm
    return C


def _parts(fx: np.ndarray, fy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The xx, yy and symmetrized xy parts of the weighted Gram of samples
    (npts, n) of the two components of n fields, shape (3, n, n)."""
    xy = (w[:, None] * fx).T @ fy
    return np.stack([(w[:, None] * fx).T @ fx, (w[:, None] * fy).T @ fy, xy + xy.T])


def _contract(S: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """sum_cd S_cd P_cd for symmetric S (..., 2, 2) and the parts of _parts."""
    return np.tensordot(np.stack([S[..., 0, 0], S[..., 1, 1], S[..., 0, 1]], axis=-1),
                        parts, axes=1)


@dataclass(frozen=True)
class ReferenceTables:
    """Read-only integrals of degree k on the reference triangle {x, y >= 0,
    x + y <= 1}, in coordinates centered at (1/3, 1/3).  phi is the RT_k
    basis orthonormal there: the raw fields of _raw_fields times
    ``rt_coeffs`` (extended precision).  m are the P_k monomials
    (x - 1/3)^a (y - 1/3)^b.

    gram: (3, n_fields, n_fields), the parts of int phi phi^T (see _parts).
    flux: (4, k + 1, n_fields), int (phi . n) s^m along the sides v0 -> v1,
        v1 -> v2, v2 -> v0 and v0 -> v2, n the right-hand normal times the
        side's length and s = 2t - 1 running from its first vertex.
    div_coeffs, div_moments: (dim P_k, n_fields), div phi over the m, and
        int m (div phi)^T.
    mass: (dim P_k, dim P_k), int m m^T.
    """

    rt_coeffs: np.ndarray
    gram: np.ndarray
    flux: np.ndarray
    div_coeffs: np.ndarray
    div_moments: np.ndarray
    mass: np.ndarray


@lru_cache(maxsize=None)
def reference_tables(k: int) -> ReferenceTables:
    """The reference tables of degree k, computed on first use in extended
    precision by rules exact for them, and rounded once."""
    _check_degree(k)
    ext = np.longdouble
    rule = triangle_rule(2 * k + 2)
    pts, w = rule.points.astype(ext) - ext(1) / 3, rule.weights.astype(ext)
    raw = _raw_fields(k, pts)
    nf = raw.shape[1]
    coeffs = _orthonormalize((np.sqrt(w)[:, None, None] * raw).swapaxes(1, 2).reshape(-1, nf))
    phi = raw.swapaxes(1, 2) @ coeffs

    corner = np.array([(0, 0), (1, 0), (0, 1)], dtype=ext) - ext(1) / 3
    seg = segment_rule(2 * k + 2)
    s_moments = seg.weights * edge_basis(k, 2 * k + 2).T
    flux = []
    for a, b in ((0, 1), (1, 2), (2, 0), (0, 2)):
        v = corner[b] - corner[a]
        on_side = _raw_fields(k, corner[a] + seg.points[:, None].astype(ext) * v)
        flux.append(s_moments @ (on_side @ np.array([v[1], -v[0]])) @ coeffs)

    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    n0 = len(exps)
    div = np.zeros((n0, nf), dtype=ext)
    for j, (a, b) in enumerate(exps):
        div[index.get((a - 1, b), 0), j] = a
        div[index.get((a, b - 1), 0), n0 + j] = b
    div[n0 - k - 1 :, 2 * n0 :] = (k + 2) * np.eye(k + 1)
    div = div @ coeffs

    mono = _reference_monomials(k, pts)
    mass = (w[:, None] * mono).T @ mono
    tables = ReferenceTables(
        rt_coeffs=coeffs,
        gram=_parts(phi[:, 0], phi[:, 1], w).astype(float),
        flux=np.array(flux, dtype=float),
        div_coeffs=div.astype(float),
        div_moments=(mass @ div).astype(float),
        mass=mass.astype(float),
    )
    for table in vars(tables).values():
        _readonly(table)
    return tables


@lru_cache(maxsize=None)
def data_tables(k: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The points (npts, 2) and weights of symmetric_rule(degree) (the
    collapsed triangle_rule below degree 12), with the centered P_k
    monomials (npts, dim P_k) and the reference RT_k basis (npts, n_fields,
    2) of ReferenceTables at them; read-only, computed on first use."""
    rule = symmetric_rule(degree)
    pts = rule.points.astype(np.longdouble) - np.longdouble(1) / 3
    fields = _raw_fields(k, pts).swapaxes(1, 2) @ reference_tables(k).rt_coeffs
    return (rule.points, rule.weights, _readonly(_reference_monomials(k, pts).astype(float)),
            _readonly(fields.swapaxes(1, 2).astype(float)))


def monomial_change_of_frame(k: int, A: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Exact coefficient map between monomial bases of P_k under an affine
    change of variables, for one pair of frames or stacks of them.

    With source coordinates xi_src = A xi_tgt + shift (A (..., 2, 2), shift
    (..., 2)), returns T, shape (..., dim, dim), with
    m_src_j = sum_i T[i, j] * m_tgt_i.  The source monomials are built degree
    by degree, each as one of the degree below times a source coordinate,
    which is a linear form in the target coordinates.
    """
    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    A, shift = np.asarray(A, dtype=float), np.asarray(shift, dtype=float)
    # Row n stays zero: it stands for the monomials x^-1 y^q and x^p y^-1.
    T = np.zeros(np.broadcast_shapes(A.shape[:-2], shift.shape[:-1]) + (n + 1, n))
    T[..., 0, 0] = 1.0
    below_x = [index.get((p - 1, q), n) for p, q in exps]
    below_y = [index.get((p, q - 1), n) for p, q in exps]
    for d in range(1, k + 1):
        # (d - j, j) is (d - 1 - j, j) times xi_src_0 for j < d, and (0, d)
        # is (0, d - 1) times xi_src_1.
        var = [0] * d + [1]
        prev = T[..., [index[(d - 1 - j, j)] for j in range(d)] + [index[(0, d - 1)]]]
        T[..., :n, dim_pk(d - 1) : dim_pk(d)] = (
            shift[..., var][..., None, :] * prev[..., :n, :]
            + A[..., var, 0][..., None, :] * prev[..., below_x, :]
            + A[..., var, 1][..., None, :] * prev[..., below_y, :])
    return T[..., :n, :]


def _det(B: np.ndarray) -> np.ndarray:
    return B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]


def _fan_centroids(B: np.ndarray) -> np.ndarray:
    """Centroids B (1, 1) / 3 of fan triangles with Jacobians B (..., 2, 2),
    relative to their common anchor v0, shape (..., 2).  Every frame shift
    of the local operators is a difference of these, so none depends on
    where the mesh sits."""
    return B.sum(axis=-1) / 3


def _inv(B: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2 x 2 matrices."""
    adj = np.stack([B[..., 1, 1], -B[..., 0, 1], -B[..., 1, 0], B[..., 0, 0]], axis=-1)
    return (adj / _det(B)[..., None]).reshape(B.shape)


def _gram(ref: ReferenceTables, B: np.ndarray) -> np.ndarray:
    """Grams of the Piola images B phi(F^-1 x) / det B of the reference RT
    basis on triangles with Jacobians B (..., 2, 2):
    (1 / det B) sum_cd (B^T B)_cd int phi_c phi_d^T."""
    return _contract(B.swapaxes(-1, -2) @ B, ref.gram) / _det(B)[..., None, None]


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower triangular matrices, by forward
    substitution one row at a time over the whole stack."""
    X = np.zeros_like(L)
    for i in range(L.shape[-1]):
        X[..., i, i] = 1.0
        X[..., i, :i] = -np.einsum("...j,...jk->...k", L[..., i, :i], X[..., :i, :i])
        X[..., i, : i + 1] /= L[..., i, i, None]
    return X


@dataclass(frozen=True)
class LambdaBasis:
    """Orthonormal coefficient bases of the weak-gradient spaces of a stack
    of cells with one vertex count, with the frames they were built in.
    Every array carries the cell of the stack on its leading axis.

    tri_coords: (S, n_triangles, 3, 2) fan triangle vertices v0, v1, v2.
    jacobian: (S, n_triangles, 2, 2), B = [v1 - v0, v2 - v0] of the affine
        map x = v0 + B xi from the reference triangle; triangle t's fields
        are the Piola images B phi(xi) / det B of the reference RT basis.
    orth: (S, n_triangles, n_fields, n_fields); triangle t's fields times
        orth[:, t] are L2-orthonormal on it.
    coeffs: (S, n_triangles * n_fields, n_lambda); each column is one basis
        field over the per-triangle blocks of orthonormalized RT fields.
    constraint_residual: (S,) Frobenius norm of the row-equilibrated
        constraint matrix times coeffs.
    condition: (S,) the largest (max L_ii / min L_ii)^2 over the fan
        triangles' Gram factors L, a lower bound on the raw RT Gram's
        condition number, which may be larger (OperatorCache warns from it).
    """

    cells: np.ndarray
    k: int
    tri_coords: np.ndarray
    jacobian: np.ndarray
    orth: np.ndarray
    coeffs: np.ndarray
    constraint_residual: np.ndarray
    condition: np.ndarray

    @property
    def n_lambda(self) -> int:
        return self.coeffs.shape[-1]


def build_lambda_basis(mesh: PolyMesh, cells, k: int) -> LambdaBasis:
    """Assemble the constraint systems of a stack of cells with one vertex
    count (one cell index or an array of them) and return orthonormal
    nullspace bases.

    Constraints: (a) on each fan chord, the normal-component jump tested
    against the k+1 edge-parameter moments; (b) for each sub-triangle but
    the largest, the mismatch of its divergence and the largest one's over
    its own centered reference monomials.  Each row is scaled to unit norm.
    Parent polygon sides coincide with single sub-triangle edges, so
    boundary traces are single-piece automatically.  A fan triangle with at
    most 1e-12 of its cell's area raises StarShapeError; geometry and
    dimension errors also name the offending cell.  The bound on each
    cell's RT Gram condition is returned as ``condition``; nothing warns
    here.
    """
    _check_degree(k)
    cells = np.atleast_1d(np.asarray(cells))
    tris = fan_triangles(mesh, cells)
    coords = mesh.vertices[tris]
    n_cells, nt = tris.shape[:2]
    ref = reference_tables(k)
    nf = ref.gram.shape[-1]
    B = (coords[..., 1:, :] - coords[..., :1, :]).swapaxes(-1, -2)
    det = _det(B)
    # det B is twice a fan triangle's signed area; the fan's sum to the cell's.
    bad = np.argwhere(det <= 1e-12 * det.sum(axis=1, keepdims=True))
    if bad.size:
        s, t = bad[0]
        raise StarShapeError(
            f"cell {cells[s]} is not star-shaped with respect to its first "
            f"vertex (fan triangle {tuple(tris[s, t].tolist())} has area "
            f"{det[s, t] / 2:.3e}); re-anchor the cell cycle at a different vertex"
        )

    # Orthonormalize each triangle's fields by Cholesky against their Gram,
    # G = L L^T and orth = L^-T.  The reference basis is orthonormal, so
    # cond(G) <= cond(B^T B), and one pass leaves the fields orthonormal to
    # about eps cond(G) <= eps |G|_F |L^-1|_F^2.  Triangles where that bound
    # is not below ONE_PASS_COND get CholeskyQR2's second pass, on samples of
    # the once-orthonormalized fields.
    gram = _gram(ref, B)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for s, t in np.ndindex(gram.shape[:2]):
            try:
                np.linalg.cholesky(gram[s, t])
            except np.linalg.LinAlgError:
                raise GeometryError(
                    f"sub-triangle {tuple(tris[s, t].tolist())} of cell {cells[s]}: "
                    "singular RT Gram (not positive definite)"
                ) from None
        raise
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    cond = np.max(diag.max(axis=-1) / diag.min(axis=-1), axis=1) ** 2
    orth = _inverse_lower(L).swapaxes(-1, -2)
    redo = np.nonzero(~(np.linalg.norm(gram, axis=(-2, -1)) * np.sum(orth * orth, axis=(-2, -1))
                        < ONE_PASS_COND))
    del L, diag, gram
    if redo[0].size:
        _, w, _, fields = data_tables(k, 2 * k + 2)
        samples = np.einsum("tde,qfe->tqdf", B[redo], fields) * np.sqrt(
            w[:, None, None] / det[redo][:, None, None, None])
        Q = samples.reshape(-1, 2 * w.size, nf) @ orth[redo]
        orth[redo] = orth[redo] @ _inverse_lower(
            np.linalg.cholesky(Q.swapaxes(-1, -2) @ Q)).swapaxes(-1, -2)

    # Chord j joins the anchor to cycle vertex j + 2 and separates fan
    # triangles j and j + 1, where it is the side v0 -> v2 and v0 -> v1.
    # The Piola map keeps normal fluxes, so its moments are reference ones.
    left, right = ref.flux[3] @ orth[:, :-1], ref.flux[0] @ orth[:, 1:]
    # The divergence of a Piola field is (div phi)(xi) / det B.  Fan triangle
    # j matches that of the largest one, * (the first of equals), over j's
    # centered reference monomials, with g the centroids: xi_* - 1/3 =
    # B_*^-1 B_j (xi_j - 1/3) + B_*^-1 (g_j - g_*), bounded by |B_j| / rho_*.
    div = ref.div_coeffs @ orth / det[..., None, None]
    cell, star, rows = np.arange(n_cells)[:, None], det.argmax(axis=1)[:, None], np.arange(nt - 1)
    other = rows + (rows >= star)
    B_inv, g = _inv(B[cell, star]), _fan_centroids(B)
    shift = monomial_change_of_frame(k, B_inv @ B[cell, other],
                                     (B_inv @ (g[cell, other] - g[cell, star])[..., None])[..., 0])
    jumps = np.zeros((n_cells, nt - 1, k + 1, nt, nf))
    matches = np.zeros((n_cells, nt - 1, div.shape[2], nt, nf))
    jumps[cell, rows, :, rows] = left
    jumps[cell, rows, :, rows + 1] = -right
    matches[cell, rows, :, star] = -shift @ div[cell, star]
    matches[cell, rows, :, other] = div[cell, other]

    C = np.concatenate([jumps.reshape(n_cells, -1, nt * nf),
                        matches.reshape(n_cells, -1, nt * nf)], axis=1)
    del jumps, matches
    C /= np.linalg.norm(C, axis=-1, keepdims=True)
    # The constraint rows are independent exactly when the dimension law
    # holds; the last columns of a complete QR of C^T then span the
    # nullspace, and C's singular values are those of the triangular factor
    # R.  Cells with cond(R) <= |R|_F |R^-1|_F < 1/NULLSPACE_RTOL pass the
    # rank test; only the others need singular values.
    n_rows = C.shape[1]
    Q, R = np.linalg.qr(C.swapaxes(-1, -2), mode="complete")
    R = R[:, :n_rows]
    with np.errstate(all="ignore"):
        bound = (np.linalg.norm(R, axis=(-2, -1))
                 * np.linalg.norm(_inverse_lower(R.swapaxes(-1, -2)), axis=(-2, -1)))
    check = np.flatnonzero(~(bound < 1.0 / NULLSPACE_RTOL))
    sv = np.linalg.svd(R[check], compute_uv=False)
    n_null = nt * nf - np.sum(sv > NULLSPACE_RTOL * sv[:, :1], axis=1)
    n_expected = expected_lambda_dim(nt + 2, k)
    bad = np.flatnonzero(n_null != n_expected)
    if bad.size:
        s = bad[0]
        rel, cut = sv[s] / sv[s, 0], nt * nf - n_null[s]
        near = " ".join(f"{v:.2e}" for v in rel[max(cut - 3, 0):cut + 3])
        raise LambdaDimensionError(
            f"cell {cells[check[s]]} (k={k}): nullspace dimension {n_null[s]} != "
            f"expected {n_expected}; constraint singular values over the largest, the "
            f"last {min(cut, 3)} above the rank cut {NULLSPACE_RTOL:.0e} and the next: {near}"
        )
    null = Q[:, :, n_rows:]
    return LambdaBasis(cells, k, coords, B, orth, null, np.linalg.norm(C @ null, axis=(-2, -1)),
                       cond)


def _evaluate(func, x: np.ndarray, y: np.ndarray, shape: tuple, edges=None) -> np.ndarray:
    """User data func at the points (x, y), as floats of shape x.shape +
    shape: the one place that calls f, g, u or grad u.  func gets the points
    flattened and returns one value of ``shape``, which every point takes,
    or one per point, shape (x.size,) + shape.  Values that are not bool,
    integer or real float raise DataError naming their dtype; any other
    shape raises DataError naming both, and ragged nested sequences one
    naming the expected shapes (a ValueError that func itself raises
    propagates unchanged); so does a non-finite value, naming
    its point and, where ``edges`` names the edge of each row of x, its
    edge."""
    vals, per_point = func(x.ravel(), y.ravel()), (x.size,) + shape
    try:
        vals = np.asarray(vals)
    except ValueError as exc:  # ragged nested sequences
        raise DataError(f"ragged data; expected shape {shape} or {per_point}") from exc
    if vals.dtype.kind not in "biuf":
        raise DataError(f"data of dtype {vals.dtype}; expected real numbers")
    if vals.shape not in (shape, per_point):
        raise DataError(f"data of shape {vals.shape}; expected shape {shape} or {per_point}")
    vals = np.broadcast_to(vals.astype(float, copy=False), per_point)
    if not np.isfinite(vals).all():
        q = np.argmin(np.isfinite(vals.reshape(x.size, -1)).all(axis=1))
        edge = "" if edges is None else f" on edge {edges[np.unravel_index(q, x.shape)[0]]}"
        raise DataError(f"data non-finite at quadrature point ({x.flat[q]}, {y.flat[q]}){edge}")
    # A constant is copied out, so that every table product sees the same
    # memory layout as for per-point values and rounds the same.
    return np.ascontiguousarray(vals.reshape(x.shape + shape))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A[i] @ x[i] for every row i; x is (n, dim) or (n, dim, m)."""
    return (A @ x.reshape(*x.shape[:2], -1)).reshape(A.shape[:2] + x.shape[2:])


class OperatorStack:
    """All discrete operators of a stack of cells with one vertex count,
    built in one pass with the cell of the stack on every leading axis.

    Local DOF order: interior P_k coefficients first, then the k+1 edge
    coefficients of each cell side in cycle order.

    Row s serves every translate of cells[s].  The data methods act on n
    cells at once: ``rows`` (n,) names the stack row of each and
    ``offsets`` (n, 2) its translation from that row's cell.  Coefficient
    arguments and results are (n, dim) or (n, dim, m) for m functions.
    ``condition`` is the rows' LambdaBasis.condition.
    """

    def __init__(self, mesh: PolyMesh, cells, k: int):
        lam = build_lambda_basis(mesh, cells, k)
        self.k = k
        self.cells, self.condition = lam.cells, lam.condition
        self.tri_coords, self.jacobian = lam.tri_coords, lam.jacobian
        cyc = mesh.cell_cycles(self.cells)
        self.diameter = polygon_diameter(mesh.vertices[cyc])
        (n_cells, nt, nf), nl = lam.orth.shape[:3], lam.n_lambda
        ref = reference_tables(k)
        B, det = lam.jacobian, _det(lam.jacobian)
        # The cell's centroid is the area-weighted mean of its fan triangles'
        # centroids g; both are held relative to the anchor v0.
        g = _fan_centroids(B)
        self._rel_center = (det[..., None] * g).sum(axis=1) / det.sum(axis=1)[:, None]
        # Lambda basis fields over each triangle's Piola fields; the basis,
        # a view of the complete Q, is not kept.
        self.frame_coeffs = lam.orth @ lam.coeffs.reshape(n_cells, nt, nf, nl)
        del lam

        # Cell-frame monomials over the reference ones: on a triangle with
        # centroid g, zeta = (x - center) / diameter
        # = B (xi - 1/3) / diameter + (g - center) / diameter.
        h = self.diameter[:, None, None]
        to_ref = monomial_change_of_frame(k, B / h[..., None], (g - self._rel_center[:, None]) / h)
        to_ref_t, dx_to_ref = to_ref.swapaxes(-1, -2), det[..., None, None] * to_ref
        self.mass_scalar = (to_ref_t @ ref.mass @ dx_to_ref).sum(axis=1)
        # (u0, div q) per triangle: the Jacobians of div and of dx cancel.
        b_int = -(self.frame_coeffs.swapaxes(-1, -2) @ ref.div_moments.T @ to_ref).sum(axis=1)
        # interior_moments maps each triangle's moments against the reference
        # monomials to the cell's by this; project_interior then solves with
        # mass_scalar.
        self._interior_map = dx_to_ref.reshape(n_cells, -1, to_ref.shape[-1])
        self._projection_map = self._interior_map @ np.linalg.inv(self.mass_scalar).swapaxes(-1, -2)

        # Side s lies on fan triangle 0, s - 1 or n_triangles - 1 (first,
        # middle, last side), as its reference side v0 -> v1, v1 -> v2 or
        # v2 -> v0; the Piola map keeps normal fluxes, so its moments are
        # reference constants.  A side run against canonical order sees
        # s -> -s.
        n_sides = cyc.shape[1]
        forward = cyc < np.roll(cyc, -1, axis=1)
        side_tri = np.clip(np.arange(n_sides) - 1, 0, nt - 1)
        side_ref = np.minimum(np.arange(n_sides), 1)
        side_ref[-1] = 2
        self._side_sign = np.where(forward[..., None], 1.0, (-1.0) ** np.arange(k + 1))
        cols = self._side_sign[..., None] * (ref.flux[side_ref] @ self.frame_coeffs[:, side_tri])
        # The Lambda basis is L2-orthonormal, so its mass matrix is the
        # identity: the weak gradient's coefficients are its moments, and
        # the stiffness is their Gram, exactly symmetric.
        self.weak_gradient = np.concatenate(
            [b_int, cols.transpose(0, 3, 1, 2).reshape(n_cells, nl, -1)], axis=-1
        )
        self.stiffness = K = self.weak_gradient.swapaxes(-1, -2) @ self.weak_gradient

        # Static condensation of the interior unknowns of every row,
        # ``condensed``: the inverse of the SPD interior block K_00, the map
        # X = K_00^-1 K_0b from side values to interior values, and the Schur
        # complement S = K_bb - K_0b^T X on the side unknowns (made exactly
        # symmetric).  X by a solve, not through the inverse: the inverse's
        # error grows with the condition of K_00 (4e3 on hex cells at k = 2)
        # and would show in the full-system residual.  One LU factorization
        # serves both, solving for [K_0b | I].
        n0 = dim_pk(k)
        eye = np.broadcast_to(np.eye(n0), (n_cells, n0, n0))
        sol = np.linalg.solve(K[:, :n0, :n0], np.concatenate([K[:, :n0, n0:], eye], axis=-1))
        X, K00_inv = sol[..., :-n0], sol[..., -n0:]
        S = K[:, n0:, n0:] - K[:, :n0, n0:].swapaxes(-1, -2) @ X
        self.condensed = K00_inv, X, 0.5 * (S + S.swapaxes(-1, -2))

    @cached_property
    def h1(self) -> np.ndarray:
        """The discrete H1 semi-norm of every row as a matrix D over the
        local DOFs, shape (S, n_rows, n_local): |D v|^2 is |grad v_0|^2 over
        the cell plus |v_0 - v_b|^2 / h_T over each side.  Built in the cell
        frame zeta = (x - center) / h_T, where the form reads the same with
        h_T = 1: the rows are the gradients on the fan triangles and the
        trace mismatches on the sides, at Gauss rules exact for these
        degree-2k integrands, times the roots of the weights."""
        k, n0, nb, exps = self.k, dim_pk(self.k), self.k + 1, monomial_exponents(self.k)
        # The fan triangles' vertices relative to the anchor: 0, then B's columns.
        v = np.pad(self.jacobian.swapaxes(-1, -2), ((0, 0), (0, 0), (1, 0), (0, 0)))
        tri = (v - self._rel_center[:, None, None]) / self.diameter[:, None, None, None]
        n_cells, n_sides = len(tri), tri.shape[1] + 2
        # The zeta-gradient of the monomial (a, b) is a (a - 1, b), b (a, b - 1).
        rule, B = triangle_rule(2 * k), tri[:, :, 1:] - tri[:, :, :1]
        mono = _reference_monomials(k, tri[:, :, None, 0] + rule.points @ B)
        index, (ax, ay) = {e: i for i, e in enumerate(exps)}, np.array(exps).T
        grad = np.stack([ax * mono[..., [index[(max(a - 1, 0), b)] for a, b in exps]],
                         ay * mono[..., [index[(a, max(b - 1, 0))] for a, b in exps]]], axis=-2)
        grad *= np.sqrt(rule.weights * _det(B)[..., None])[..., None, None]
        # The cycle, read off the fan, and v_0 less v_b at each side's points.
        Z = np.concatenate([tri[:, :1, 0], tri[:, :, 1], tri[:, -1:, 2]], axis=1)
        rule, side = segment_rule(2 * k), np.roll(Z, -1, axis=1) - Z
        w = np.sqrt(rule.weights * np.linalg.norm(side, axis=-1)[..., None])[..., None]
        trace = np.zeros(w.shape[:3] + (n0 + n_sides * nb,))
        trace[..., :n0] = w * _reference_monomials(
            k, Z[:, :, None] + rule.points[:, None] * side[:, :, None])
        for s in range(n_sides):
            trace[:, s, :, n0 + s * nb : n0 + (s + 1) * nb] = (
                -w[:, s] * edge_basis(k, 2 * k) * self._side_sign[:, s, None])
        grad = np.pad(grad.reshape(n_cells, -1, n0), ((0, 0), (0, 0), (0, n_sides * nb)))
        return _readonly(np.concatenate([grad, trace.reshape(n_cells, -1, trace.shape[-1])], 1))

    def _samples(self, func, rows, offsets, shape):
        """The data_tables of the data-degree rule and func at the rule's
        image x = v0 + B xi on each fan triangle of each cell (_evaluate),
        shape (n, n_triangles, npts) + shape.  The image is mapped once per
        distinct row and moved to each cell by its offset."""
        tables = data_tables(self.k, data_degree(self.k))
        uniq, inv = np.unique(rows, return_inverse=True)
        v0, B = self.tri_coords[uniq, :, 0, :, None], self.jacobian[uniq]
        xi, eta = tables[0].T
        # Each coordinate gathered and shifted on its own: numpy loops over
        # an innermost axis of length 2 several times slower.
        x, y = ((v0[:, :, d] + B[:, :, d, 0, None] * xi + B[:, :, d, 1, None] * eta)[inv]
                + offsets[:, d, None, None] for d in range(2))
        return tables, _evaluate(func, x, y, shape)

    def interior_moments(self, func, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(func, m_j) for the interior basis on each cell, shape (n, dim P_k)."""
        return self._interior(func, rows, offsets, self._interior_map)

    def project_interior(self, func, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """L2 projections onto the interior P_k basis, shape (n, dim P_k)."""
        return self._interior(func, rows, offsets, self._projection_map)

    def _interior(self, func, rows, offsets, per_row):
        """The moments of func against the reference monomials on each fan
        triangle, mapped to the cell by per_row (S, n_triangles * dim, m)."""
        (_, w, monomials, _), vals = self._samples(func, rows, offsets, ())
        raw = vals.reshape(-1, w.size) @ (w[:, None] * monomials)
        return (raw.reshape(len(vals), 1, -1) @ per_row[rows])[:, 0]

    def project_lambda_field(self, func, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """L2 projections of a vector field onto the weak-gradient spaces,
        shape (n, n_lambda).  func(x, y) returns shape (npts, 2) or (2,)."""
        (_, w, _, fields), g = self._samples(func, rows, offsets, (2,))
        n, nt, nq = g.shape[:3]
        # int g . B phi / det B dx = sum_q w_q (B^T g) . phi: the moments
        # against each triangle's Piola fields, shape (n, n_triangles,
        # n_fields); the basis is orthonormal, so contracting them with
        # frame_coeffs gives the projection.
        B = self.jacobian[rows]
        h = np.stack([B[:, :, 0, d, None] * g[..., 0] + B[:, :, 1, d, None] * g[..., 1]
                      for d in range(2)], axis=2)
        table = (w[:, None, None] * fields).transpose(2, 0, 1).reshape(2 * nq, -1)
        raw = (h.reshape(n * nt, -1) @ table).reshape(n, 1, -1)
        return (raw @ self.frame_coeffs[rows].reshape(n, raw.shape[-1], -1))[:, 0]


class LocalCellOperators(NamedTuple):
    """The discrete operators of one cell: row ``index`` of an OperatorStack,
    acting on ``cell``, the translate of the row's cell by ``offset``
    (OperatorCache.get).  Local DOF order as in OperatorStack."""

    stack: OperatorStack
    index: int
    cell: int
    offset: np.ndarray

    @property
    def weak_gradient(self) -> np.ndarray:
        """Weak-gradient matrix (n_lambda, n_local)."""
        return self.stack.weak_gradient[self.index]

    def apply_weak_gradient(self, local_dofs: np.ndarray) -> np.ndarray:
        """Weak-gradient coefficients of a local function, shape (n_lambda, ...)."""
        return self.weak_gradient @ local_dofs

    def project_interior(self, func) -> np.ndarray:
        """L2 projection onto the interior P_k basis."""
        return self.stack.project_interior(func, [self.index], self.offset[None])[0]

    def project_lambda_field(self, func) -> np.ndarray:
        """L2 projection onto the weak-gradient space of a vector field
        func(x, y), which returns shape (npts, 2) or (2,)."""
        return self.stack.project_lambda_field(func, [self.index], self.offset[None])[0]


@dataclass(frozen=True)
class DofMap:
    """Global DOF layout: all cell-interior blocks first, then edge blocks."""

    k: int
    n_cells: int
    n_edges: int
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

    @cached_property
    def free_index(self) -> np.ndarray:
        """Position of each DOF among the free DOFs, -1 for a constrained one."""
        index = np.full(self.n_dofs, -1)
        index[self.free_dofs] = np.arange(self.n_free)
        return index

    def cell_dof_array(self, mesh: PolyMesh, cells) -> np.ndarray:
        """Global indices in local operator order (interior, then sides) of
        cells with equal side counts, shape (n_cells, n_local)."""
        cells = np.asarray(cells)
        n0, nb = self.n_interior_per_cell, self.n_per_edge
        interior = cells[:, None] * n0 + np.arange(n0)
        edges = mesh.cell_sides(cells)
        sides = self.edge_base + edges[:, :, None] * nb + np.arange(nb)
        return np.hstack([interior, sides.reshape(cells.size, -1)])


def build_dof_map(mesh: PolyMesh, k: int) -> DofMap:
    """The DOF layout of a mesh at degree k; boundary edge DOFs are constrained."""
    n0, nb = dim_pk(k), k + 1
    edge_base = mesh.n_cells * n0
    boundary = np.flatnonzero(mesh.boundary_edges)
    constrained = (edge_base + boundary[:, None] * nb + np.arange(nb)).ravel()
    mask = np.ones(edge_base + mesh.n_edges * nb, dtype=bool)
    mask[constrained] = False
    return DofMap(k, mesh.n_cells, mesh.n_edges, np.flatnonzero(mask), constrained)


def shape_classes(mesh: PolyMesh) -> np.ndarray:
    """The shape class of every cell, numbered by first appearance within
    each vertex count, vertex counts ascending.

    Two cells share a class when one is a translate of the other: the same
    vertex count, the same vertex offsets from cycle vertex 0 and the same
    diameter (both to KEY_DECIMALS), and the same side orientations (whether
    each side runs canonical low -> high, which fixes the sign of the odd
    edge basis functions).  Every operator matrix depends only on these.
    """
    class_of = np.empty(mesh.n_cells, dtype=int)
    sizes, n_classes = np.diff(mesh.offsets), 0
    for n_v in np.unique(sizes):
        cells = np.flatnonzero(sizes == n_v)
        cyc = mesh.cell_cycles(cells)
        coords = mesh.vertices[cyc]
        diam = polygon_diameter(coords)
        rel = (coords - coords[:, :1]).reshape(len(cells), -1) / diam[:, None]
        # + 0.0 folds -0.0 into 0.0
        shape = np.round(np.column_stack([rel, np.log(diam)]), KEY_DECIMALS) + 0.0
        forward = cyc < np.roll(cyc, -1, axis=1)
        keys = np.column_stack([shape, forward])
        class_of[cells] = n_classes + first_appearance_labels(keys)[0]
        n_classes = class_of[cells].max() + 1
    return class_of


class OperatorCache:
    """Local operators of a mesh at degree k, built once per shape class
    (see shape_classes), and the mesh's global DOF layout ``dofmap``.

    The constructor builds everything: one stack row, from the class's
    first cell, serves all members of a class, in OperatorStacks of classes
    of one vertex count.  A stack holds the most multiples of BATCH_CELLS
    classes whose complete constraint Q, 8 (n_triangles n_fields)^2 bytes
    per class, fits in STACK_BYTES, and at least BATCH_CELLS; each stack's
    member cells are cut into batches of at most BATCH_CELLS cells, which
    carry their global DOF indices.  Every array of the stacks, the
    offsets and the batches is read-only: a row serves its whole class.
    After the build it issues, in the calling thread and in stack order, a
    RuntimeWarning for each class whose first cell's ``condition`` exceeds
    CONDITION_WARN; a failing build raises without them.
    """

    def __init__(self, mesh: PolyMesh, k: int):
        _check_degree(k)
        self.mesh, self.k = mesh, k
        self.dofmap = build_dof_map(mesh, k)
        class_of = self._class_of = shape_classes(mesh)
        # Members of each class are contiguous in order, classes of one
        # vertex count are numbered contiguously.
        order = np.argsort(class_of, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(class_of))])
        first = order[starts[:-1]]
        origin = mesh.vertices[mesh.cycles[mesh.offsets[:-1]]]
        self._offset = _readonly(origin - origin[first][class_of])
        n_v = np.diff(mesh.offsets)[first]
        groups = [0, *(np.flatnonzero(np.diff(n_v)) + 1).tolist(), n_v.size]
        # Classes per stack: a multiple of BATCH_CELLS, so that a stack's
        # batches of one-cell classes are whole, within STACK_BYTES if it can.
        nq = (n_v - 2) * (k + 1) * (k + 3)
        size = BATCH_CELLS * np.maximum(1, STACK_BYTES // (8 * nq * nq) // BATCH_CELLS)
        spans = [(lo, min(lo + size[start], end)) for start, end in zip(groups, groups[1:])
                 for lo in range(start, end, size[start])]
        # The tables every stack build and data pass reads, made once here.
        reference_tables(k), data_tables(k, 2 * k + 2), data_tables(k, data_degree(k))

        stacks = _batch_map(lambda lo, hi: OperatorStack(mesh, first[lo:hi], k), spans)
        for stack in stacks:
            for a in [*vars(stack).values(), *stack.condensed]:
                if isinstance(a, np.ndarray):
                    _readonly(a)
            for s in np.flatnonzero(stack.condition > CONDITION_WARN):
                warnings.warn(f"cell {stack.cells[s]}: RT frame mass matrix condition "
                              f"{stack.condition[s]:.2e} (lower bound)", RuntimeWarning,
                              stacklevel=2)
        self._rows, self._batches = [], []
        for (lo, hi), stack in zip(spans, stacks):
            self._rows += [(stack, row) for row in range(hi - lo)]
            members = order[starts[lo] : starts[hi]]
            dofs = self.dofmap.cell_dof_array(mesh, members)
            for i in range(0, members.size, BATCH_CELLS):
                cells = members[i : i + BATCH_CELLS]
                self._batches.append((stack, *map(_readonly, (
                    class_of[cells] - lo, cells, self._offset[cells], dofs[i : i + BATCH_CELLS]))))

    def check(self, mesh: PolyMesh, k: int) -> OperatorCache:
        """This cache, if built from this very mesh object at degree k; else
        ValueError: a mesh of the same topology would fit every array.  A k
        that is not an integer raises DegreeError, even if it equals
        self.k."""
        _check_degree(k)
        if mesh is not self.mesh or k != self.k:
            which = "this" if mesh is self.mesh else "another"
            raise ValueError(f"operator cache of degree {self.k} was built for {which} mesh; "
                             f"this pass asks for degree {k}")
        return self

    def get(self, cell: int) -> LocalCellOperators:
        """The operators of ``cell``: its class's stack row, moved by its
        offset from the class's first cell."""
        stack, row = self._rows[self._class_of[cell]]
        return LocalCellOperators(stack, row, cell, self._offset[cell])

    def batches(self):
        """Iterate over (stack, rows, cells, offsets, dofs): at most
        BATCH_CELLS cells, whose classes may differ but share one
        OperatorStack, with each cell's stack row, its offset from that
        row's cell and its global DOF indices (DofMap.cell_dof_array)."""
        return iter(self._batches)

    def walk(self, local, *sizes) -> tuple:
        """One pass over the batches: the one place where their results are
        added up.  local(stack, rows, cells, offsets, dofs) runs on every
        batch through _batch_map and returns a term, then one (indices,
        values) pair per entry of ``sizes``.  Returns the sum of the terms
        and, for each pair, the vector of that size with the values added
        at their indices, by one np.bincount over all batches.  Both sums
        run in batch order, so they are bit for bit those of one thread;
        a vector entry that no value reaches, or that only values of
        -0.0 reach, is +0.0."""
        terms, *columns = zip(*_batch_map(local, self._batches))
        vectors = []
        for pairs, size in zip(columns, sizes, strict=True):
            index, values = (np.concatenate([a.ravel() for a in part]) for part in zip(*pairs))
            vectors.append(np.bincount(index, values, minlength=size))
        return (reduce(np.add, terms, 0.0), *vectors)


def project_qb(mesh: PolyMesh, edge, k: int, func) -> np.ndarray:
    """L2 projection onto the P_k edge basis of one edge, shape (k + 1,), or
    of every edge in an index array, shape (n, k + 1), in one pass, by the
    segment rule of data_degree(k).  func(x, y) gets the points of every
    edge at once and returns one value per point or one constant; any other
    shape, or a non-finite value, raises DataError, naming the edge of a
    non-finite value (_evaluate)."""
    _check_degree(k)
    degree = data_degree(k)
    # An empty list reads as float64, which cannot index.
    edges = np.atleast_1d(edge) if np.size(edge) else np.empty(0, int)
    rule = segment_rule(degree)
    a, b = mesh.vertices[mesh.edges[edges]].transpose(1, 0, 2)
    pts = a[:, None] + rule.points[:, None] * (b - a)[:, None]
    vals = _evaluate(func, pts[..., 0], pts[..., 1], (), edges)
    # Each edge's mass matrix and moments are its length times those on the
    # reference segment, so the length cancels.  The sum runs edge by edge,
    # so an edge's coefficients do not depend on the batch it comes in.
    phi = edge_basis(k, degree)
    w_phi = rule.weights[:, None] * phi
    coeffs = (vals[:, None, :] * np.linalg.solve(phi.T @ w_phi, w_phi.T)).sum(axis=-1)
    return coeffs if np.ndim(edge) else coeffs[0]
