"""Per-cell polynomial machinery for the stabilizer-free discretization.

Scalar bases on cells are centroid-centered, diameter-scaled monomials
((x-x_T)/h_T)^a ((y-y_T)/h_T)^b; edge bases are the powers s^m of the
reference-segment parameter s = 2t - 1, with t in [0, 1] running along the
edge's canonical (low -> high vertex index) direction, so both adjacent cells
see the same single-valued basis.  The vector basis on each sub-triangle
spans [P_k]^2 plus the radial fields (xi, eta) * (homogeneous degree-k
monomials) in the sub-triangle's own centered frame, which keeps Gram
matrices well conditioned through k = 4; divergences are re-expanded into
the shared cell frame by exact binomial shifts, so the one-piece-divergence
constraint needs no quadrature.

The weak-gradient space of a cell is the nullspace of the constraint system
(normal-jump moments on fan chords; divergence-coefficient mismatch between
sub-triangles), extracted by a complete QR factorization, with a hard
expected-dimension check on the constraint singular values.

Everything is built for a stack of cells with one vertex count at once
(OperatorStack): each array carries the cell of the stack on its leading
axis, and the Cholesky, QR, singular-value and linear solves run batched.
Each triangle's RT fields are orthonormalized (CholeskyQR2) and the nullspace
basis is orthonormal, so the weak-gradient mass matrix is the identity and
is never formed.  A single cell is a stack of one.  OperatorCache builds the
operators once per shape class (cells equal up to translation), in stacks of
at most BATCH_CELLS classes, and evaluates data for batches of cells that may
mix the classes of one stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .polymesh import (
    PolyMesh,
    fan_triangles,
    first_appearance_labels,
    polygon_area,
    polygon_centroid,
    polygon_diameter,
)
from .quadrature import (
    assembly_degree,
    data_degree,
    segment_rule,
    triangle_points,
)

MAX_DEGREE = 4
NULLSPACE_RTOL = 1e-10
# Cells whose raw RT Gram condition is at least this (by a lower bound) warn.
CONDITION_WARN = 1e12
# Shape-class keys round the vertex offsets, in units of the cell diameter,
# and the log of the diameter to this many decimals.
KEY_DECIMALS = 12
# Shape classes per stacked build, and cells per batch of
# OperatorCache.batches.
BATCH_CELLS = 256


class DegreeError(ValueError):
    """Polynomial degree outside the validated range 0..MAX_DEGREE."""


class GeometryError(ValueError):
    """Degenerate geometry (zero-area triangle)."""


class LambdaDimensionError(RuntimeError):
    """Numerical nullspace dimension disagrees with the closed-form count."""


class DataError(ValueError):
    """Non-finite samples in user-supplied field data."""


def _check_degree(k: int) -> None:
    if not 0 <= k <= MAX_DEGREE:
        raise DegreeError(f"degree k={k} outside the supported range 0..{MAX_DEGREE}")


def dim_pk(k: int) -> int:
    """Dimension of the 2D polynomial space P_k."""
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k: int) -> list[tuple[int, int]]:
    """Graded-lexicographic exponent pairs for P_k; degree-k pairs come last."""
    return [(d - j, j) for d in range(k + 1) for j in range(d + 1)]


def expected_lambda_dim(n_v: int, k: int) -> int:
    """Closed-form dimension of the weak-gradient space on an n_v-gon."""
    return (n_v - 2) * (k + 1) * (k + 3) - (n_v - 3) * ((k + 1) + dim_pk(k))


def _frame_powers(pts: np.ndarray, center: np.ndarray, scale: np.ndarray, k: int
                  ) -> list[np.ndarray]:
    """Powers 0..k of the centered, scaled coordinates xi and eta of points
    (..., npts, 2) in frames with centers (..., 2) and scales (...), each of
    shape (k + 1, ..., npts): the power leads, so that every step and every
    gather of monomials runs over whole contiguous blocks."""
    pts = np.asarray(pts, dtype=float)
    out = []
    for d in range(2):
        local = (pts[..., d] - center[..., None, d]) / scale[..., None]
        powers = np.empty((k + 1,) + local.shape)
        powers[0] = 1.0
        for m in range(1, k + 1):
            powers[m] = powers[m - 1] * local
        out.append(powers)
    return out


def _monomials(px: np.ndarray, py: np.ndarray, ax, ay, coeff=None) -> np.ndarray:
    """coeff * xi^ax * eta^ay from _frame_powers, shape (..., npts, len(ax))."""
    mono = px[ax] * py[ay] if coeff is None else coeff * px[ax] * py[ay]
    return np.moveaxis(mono, 0, -1)


class CellScalarBasis:
    """Centered, scaled monomial basis of P_k in one frame or a stack of them.

    center (..., 2) and scale (...) give one frame per leading index; points
    come as (..., npts, 2) with the same leading axes.
    """

    def __init__(self, k: int, center: np.ndarray, scale):
        _check_degree(k)
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        exps = monomial_exponents(k)
        self.exponents = exps
        self._ax = np.array([a for a, _ in exps])
        self._ay = np.array([b for _, b in exps])

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape (..., npts, dim)."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k)
        return _monomials(px, py, self._ax, self._ay)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Physical gradients, shape (..., npts, dim, 2)."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k)
        ax, ay = self._ax, self._ay
        lead = (-1,) + (1,) * (px.ndim - 1)
        scale = self.scale[..., None, None]
        gx = _monomials(px, py, np.maximum(ax - 1, 0), ay, ax.reshape(lead)) / scale
        gy = _monomials(px, py, ax, np.maximum(ay - 1, 0), ay.reshape(lead)) / scale
        return np.stack([gx, gy], axis=-1)


def edge_basis(k: int, degree: int) -> np.ndarray:
    """The P_k edge basis s^m, s = 2t - 1, at the points t of the segment rule
    of the given degree, shape (npts, k + 1).  On segment_points(a, b, degree)
    s runs from -1 at a to 1 at b."""
    s = 2.0 * segment_rule(degree).points - 1.0
    return s[:, None] ** np.arange(k + 1)


class RTFrame:
    """Vector monomial fields spanning RT_k in one centered, scaled frame or a
    stack of them (center and scale as in CellScalarBasis).

    Fields: (m, 0) and (0, m) for all P_k monomials m, then (xi, eta) * m_h
    for the k+1 homogeneous degree-k monomials m_h.  Count: (k+1)(k+3).
    """

    def __init__(self, k: int, center: np.ndarray, scale):
        _check_degree(k)
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.exponents = monomial_exponents(k)
        self.n_scalar = len(self.exponents)
        self.homo = [(a, b) for a, b in self.exponents if a + b == k]
        self.n_fields = 2 * self.n_scalar + len(self.homo)
        self._index = {e: i for i, e in enumerate(self.exponents)}
        self._ax = np.array([a for a, _ in self.exponents])
        self._ay = np.array([b for _, b in self.exponents])

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Field values, shape (..., npts, n_fields, 2)."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k + 1)
        mono = _monomials(px, py, self._ax, self._ay)
        n0 = self.n_scalar
        V = np.zeros(mono.shape[:-1] + (self.n_fields, 2))
        V[..., :n0, 0] = mono
        V[..., n0 : 2 * n0, 1] = mono
        homo = mono[..., n0 - len(self.homo) :]
        V[..., 2 * n0 :, 0] = px[1][..., None] * homo
        V[..., 2 * n0 :, 1] = py[1][..., None] * homo
        return V

    def moments(self, pts: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Moments sum_q g[..., i, q] . field_j(pts[..., q]) of n_g weighted
        vector samples per frame: pts (..., npts, 2), g (..., n_g, npts, 2)
        -> (..., n_g, n_fields); leading axes broadcast.

        The fields are (m, 0), (0, m) and (xi, eta) * m_h, so the moments
        are the rows g_x, g_y and g_x xi + g_y eta times the scalar
        monomials, one small matmul.
        """
        px, py = _frame_powers(pts, self.center, self.scale, self.k + 1)
        mono = _monomials(px, py, self._ax, self._ay)
        gx, gy = g[..., 0], g[..., 1]
        rows = np.stack([gx, gy, gx * px[1][..., None, :] + gy * py[1][..., None, :]], axis=-2)
        r = rows @ mono[..., None, :, :]
        n0, nh = self.n_scalar, len(self.homo)
        return np.concatenate([r[..., 0, :], r[..., 1, :], r[..., 2, n0 - nh :]], axis=-1)

    def div_coeff_matrix(self) -> np.ndarray:
        """Exact divergence expansion over each frame's scalar monomials.

        Returns D, shape (..., dim P_k, n_fields), with div(field_j) =
        sum_c D[c, j] * m_c; entries carry the 1/scale chain factor.
        """
        n0 = self.n_scalar
        D = np.zeros((n0, self.n_fields))
        for j, (a, b) in enumerate(self.exponents):
            if a > 0:
                D[self._index[(a - 1, b)], j] = a
            if b > 0:
                D[self._index[(a, b - 1)], n0 + j] = b
        for j, (a, b) in enumerate(self.homo):
            D[self._index[(a, b)], 2 * n0 + j] = a + b + 2
        return D / self.scale[..., None, None]


def monomial_change_of_frame(k: int, source_center: np.ndarray, source_scale,
                             target_center: np.ndarray, target_scale) -> np.ndarray:
    """Exact coefficient map between centered-scaled monomial bases of P_k,
    for one pair of frames or stacks of them (centers (..., 2), scales (...)).

    Returns T, shape (..., dim, dim), with  m_src_j = sum_i T[i, j] * m_tgt_i,
    from the binomial expansion of the affine substitution
    xi_src = alpha*xi_tgt + beta.
    """
    exps = monomial_exponents(k)
    # Row i = target exponent (p, q), column j = source exponent (a, b).
    p = np.array([e[0] for e in exps])[:, None]
    q = np.array([e[1] for e in exps])[:, None]
    a, b = p.T, q.T
    comb_a = np.array([[comb(aj, pi) for aj in a[0]] for pi in p[:, 0]], dtype=float)
    comb_b = np.array([[comb(bj, qi) for bj in b[0]] for qi in q[:, 0]], dtype=float)
    source_center = np.asarray(source_center, dtype=float)
    target_center = np.asarray(target_center, dtype=float)
    source_scale = np.asarray(source_scale, dtype=float)[..., None, None]
    alpha = np.asarray(target_scale, dtype=float)[..., None, None] / source_scale
    bx = (target_center[..., 0] - source_center[..., 0])[..., None, None] / source_scale
    by = (target_center[..., 1] - source_center[..., 1])[..., None, None] / source_scale
    # comb is zero where p > a or q > b; the clipped powers keep those finite.
    return (comb_a * alpha**p * bx ** np.maximum(a - p, 0)
            * comb_b * alpha**q * by ** np.maximum(b - q, 0))


def _weighted_gram(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_q w_q f[q, i] . g[q, j] for stacks: w (..., npts), f (..., npts,
    m, d), g (..., npts, n, d) -> (..., m, n)."""
    lead = w.shape[:-1]
    fw = (w[..., None, None] * f).swapaxes(-3, -2).reshape(*lead, f.shape[-2], -1)
    gt = g.swapaxes(-3, -2).reshape(*lead, g.shape[-2], -1)
    return fw @ gt.swapaxes(-1, -2)


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

    tri_coords: (S, n_triangles, 3, 2) fan triangle vertices.
    frames: one centered, scaled RT frame per fan triangle, stack shape
        (S, n_triangles).
    orth: (S, n_triangles, n_fields, n_fields); triangle t's frame fields
        times orth[:, t] are L2-orthonormal on it.
    coeffs: (S, n_triangles * n_fields, n_lambda); each column is one basis
        field over the per-triangle blocks of orthonormalized RT fields.
    constraint_residual: (S,) Frobenius norm of the constraint matrix times
        coeffs.
    center, diameter: (S, 2) and (S,), the cell frames of the scalar bases.
    div_cell_frame: (S, n_triangles, dim P_k, n_fields); the divergence of
        each triangle's orthonormalized RT fields over the cell-frame
        monomials.
    """

    cells: np.ndarray
    k: int
    tri_coords: np.ndarray
    frames: RTFrame
    orth: np.ndarray
    coeffs: np.ndarray
    constraint_residual: np.ndarray
    center: np.ndarray
    diameter: np.ndarray
    div_cell_frame: np.ndarray

    @property
    def n_lambda(self) -> int:
        return self.coeffs.shape[-1]


def build_lambda_basis(mesh: PolyMesh, cells, k: int) -> LambdaBasis:
    """Assemble the constraint systems of a stack of cells with one vertex
    count (one cell index or an array of them) and return orthonormal
    nullspace bases.

    Constraints: (a) on each fan chord, the normal-component jump tested
    against the k+1 edge-parameter moments; (b) for each sub-triangle beyond
    the first, the divergence coefficient mismatch in a shared cell-frame
    monomial basis.  Parent polygon sides coincide with single sub-triangle
    edges, so boundary traces are single-piece automatically.  Geometry and
    dimension errors name the offending cell.

    A RuntimeWarning names each cell where (max L_ii / min L_ii)^2 of a fan
    triangle's Gram factor L exceeds CONDITION_WARN.  That is a lower bound
    on the raw RT Gram's condition number, which may be larger.
    """
    _check_degree(k)
    cells = np.atleast_1d(np.asarray(cells))
    tris = fan_triangles(mesh, cells)
    coords = mesh.vertices[tris]
    n_cells, nt = tris.shape[:2]

    area = polygon_area(coords)
    bad = np.argwhere(area < 1e-14)
    if bad.size:
        s, t = bad[0]
        raise GeometryError(
            f"sub-triangle {tuple(tris[s, t].tolist())} of cell {cells[s]} is "
            f"degenerate (area {area[s, t]:.3e})"
        )
    frames = RTFrame(k, coords.mean(axis=-2), polygon_diameter(coords))
    nf = frames.n_fields

    def cholesky(fields: np.ndarray) -> np.ndarray:
        """Lower Cholesky factors of the Grams of weighted field samples
        (S, n_triangles, samples, n_fields), naming the cell of a singular
        one."""
        gram = fields.swapaxes(-1, -2) @ fields
        try:
            return np.linalg.cholesky(gram)
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

    # CholeskyQR2: orthonormalize each triangle's frame fields against their
    # Gram, G = L L^T and orth = L^-T, in two passes.  The second, on the
    # Gram of the once-orthonormalized fields, removes the error that the
    # raw Gram's condition (up to 1e10 at k = 4) leaves in the first.
    pts, w = triangle_points(coords, 2 * k + 2)
    A = (np.sqrt(w)[..., None, None] * frames.eval(pts)).swapaxes(-1, -2)
    A = A.reshape(n_cells, nt, -1, nf)
    L = cholesky(A)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    cond = np.max(diag.max(axis=-1) / diag.min(axis=-1), axis=1) ** 2
    for s in np.flatnonzero(cond > CONDITION_WARN):
        warnings.warn(
            f"cell {cells[s]}: RT frame mass matrix condition {cond[s]:.2e} (lower bound)",
            RuntimeWarning,
            stacklevel=4,
        )
    orth = _inverse_lower(L).swapaxes(-1, -2)
    orth = orth @ _inverse_lower(cholesky(A @ orth)).swapaxes(-1, -2)

    X = mesh.vertices[mesh.cell_cycles(cells)]
    center = polygon_centroid(X)
    diameter = polygon_diameter(X)
    div = monomial_change_of_frame(
        k, frames.center, frames.scale, center[:, None], diameter[:, None]
    ) @ (frames.div_coeff_matrix() @ orth)

    def basis(coeffs: np.ndarray, residual: np.ndarray) -> LambdaBasis:
        return LambdaBasis(cells, k, coords, frames, orth, coeffs, residual,
                           center, diameter, div)

    if nt == 1:
        return basis(np.broadcast_to(np.eye(nf), (n_cells, nf, nf)), np.zeros(n_cells))

    # Chord j joins the anchor to cycle vertex j + 2 and separates fan
    # triangles j and j + 1.
    degree = 2 * k + 2
    rule = segment_rule(degree)
    w_phi = rule.weights[:, None] * edge_basis(k, degree)
    a, b = X[:, :1], X[:, 2:-1]
    t = b - a
    normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
    chord_pts = a[:, :, None] + rule.points[:, None] * t[:, :, None]

    def chord_moments(tri: slice) -> np.ndarray:
        side = RTFrame(k, frames.center[:, tri], frames.scale[:, tri])
        g = w_phi.T[:, :, None] * normal[:, :, None, None, :]
        return side.moments(chord_pts, g) @ orth[:, tri]

    left, right = chord_moments(slice(0, -1)), chord_moments(slice(1, None))
    jumps = np.zeros((n_cells, nt - 1, k + 1, nt, nf))
    matches = np.zeros((n_cells, nt - 1, div.shape[2], nt, nf))
    matches[:, :, :, 0] = -diameter[:, None, None, None] * div[:, :1]
    for j in range(nt - 1):
        jumps[:, j, :, j] = left[:, j]
        jumps[:, j, :, j + 1] = -right[:, j]
        matches[:, j, :, j + 1] = diameter[:, None, None] * div[:, j + 1]

    C = np.concatenate([jumps.reshape(n_cells, -1, nt * nf),
                        matches.reshape(n_cells, -1, nt * nf)], axis=1)
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
        raise LambdaDimensionError(
            f"cell {cells[check[s]]} (k={k}): nullspace dimension {n_null[s]} != "
            f"expected {n_expected}; constraint singular values {sv[s]}"
        )
    null = Q[:, :, n_rows:]
    return basis(null, np.linalg.norm(C @ null, axis=(-2, -1)))


def _rowwise(x: np.ndarray, A: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x[i] @ A[inv[i]] for every row i: x (n, ..., p), A (u, ..., p, m) ->
    (n, ..., m)."""
    B = A[0] if len(A) == 1 else A[inv]
    return (x[..., None, :] @ B)[..., 0, :]


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
    """

    def __init__(self, mesh: PolyMesh, cells, k: int):
        lam = self.lambda_basis = build_lambda_basis(mesh, cells, k)
        self.k = k
        self.cells = lam.cells
        self.tri_coords = lam.tri_coords
        self.center, self.diameter = lam.center, lam.diameter
        n_cells, nt = self.tri_coords.shape[:2]
        nf = lam.frames.n_fields
        nl = lam.n_lambda
        V = lam.coeffs.reshape(n_cells, nt, nf, nl)
        # Lambda basis fields over each triangle's raw frame fields.
        self.frame_coeffs = lam.orth @ V

        deg = assembly_degree(k)
        pts, w = triangle_points(self.tri_coords, deg)
        scalar = CellScalarBasis(k, self.center[:, None], self.diameter[:, None])
        mono = scalar.eval(pts)[..., None]
        gm = scalar.grad(pts)
        s_tri = _weighted_gram(w, mono, mono)
        self.mass_scalar = s_tri.sum(axis=1)
        self.grad_mass = _weighted_gram(w, gm, gm).sum(axis=1)
        b_int = -(V.swapaxes(-1, -2) @ (s_tri @ lam.div_cell_frame).swapaxes(-1, -2)).sum(axis=1)

        # Side s lies on fan triangle 0, s - 1 or n_triangles - 1 (first,
        # middle, last side).
        cyc = mesh.cell_cycles(self.cells)
        n_sides = cyc.shape[1]
        nxt = (np.arange(n_sides) + 1) % n_sides
        a, b = mesh.vertices[cyc], mesh.vertices[cyc[:, nxt]]
        t = b - a
        length = np.linalg.norm(t, axis=-1)
        normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / length[..., None]
        rule = segment_rule(deg)
        side_pts = a[:, :, None] + rule.points[:, None] * t[:, :, None]
        # A side run against canonical order sees s -> -s.
        sign = np.where((cyc < cyc[:, nxt])[..., None], 1.0, (-1.0) ** np.arange(k + 1))
        self._side_w = rule.weights * length[..., None]
        self._side_phi0 = scalar.eval(side_pts)
        self._side_phib = edge_basis(k, deg) * sign[:, :, None, :]
        tri = np.clip(np.arange(n_sides) - 1, 0, nt - 1)
        w_phi = (self._side_w[..., None] * self._side_phib).swapaxes(-1, -2)
        side = RTFrame(k, lam.frames.center[:, tri], lam.frames.scale[:, tri])
        cols = side.moments(side_pts, w_phi[..., None] * normal[:, :, None, None, :]) @ (
            self.frame_coeffs[:, tri])
        self.moments = np.concatenate(
            [b_int, cols.transpose(0, 3, 1, 2).reshape(n_cells, nl, -1)], axis=-1
        )
        self._mass_scalar_inv = np.linalg.inv(self.mass_scalar)
        # The Lambda basis is L2-orthonormal, so its mass matrix is the
        # identity: the weak gradient's coefficients are its moments, and
        # the stiffness is their Gram, exactly symmetric.
        self.weak_gradient = self.moments
        self.stiffness = self.moments.swapaxes(-1, -2) @ self.moments

    @property
    def n_sides(self) -> int:
        return self._side_w.shape[1]

    @cached_property
    def condensed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Static condensation of the interior unknowns of every row: the
        inverse of the SPD interior block K_00, the map X = K_00^-1 K_0b from
        side values to interior values, and the Schur complement
        S = K_bb - K_0b^T X on the side unknowns (made exactly symmetric)."""
        n0 = dim_pk(self.k)
        K = self.stiffness
        # X by a solve, not by the inverse: the inverse's error grows with
        # the condition of K_00 (4e3 on hex cells at k = 2) and would show in
        # the full-system residual.
        X = np.linalg.solve(K[:, :n0, :n0], K[:, :n0, n0:])
        K00_inv = np.linalg.inv(K[:, :n0, :n0])
        S = K[:, n0:, n0:] - K[:, :n0, n0:].swapaxes(-1, -2) @ X
        return K00_inv, X, 0.5 * (S + S.swapaxes(-1, -2))

    def apply_weak_gradient(self, local: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weak-gradient coefficients of local functions, shape (n, n_lambda, ...)."""
        return _matvec(self.weak_gradient[rows], local)

    def lambda_norm_sq(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Squared L2 norms over the cells of weak-gradient-space fields; the
        basis is orthonormal."""
        return np.sum(coeffs * coeffs, axis=1)

    def scalar_norm_sq(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.sum(coeffs * _matvec(self.mass_scalar[rows], coeffs), axis=1)

    def grad_seminorm_sq(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.sum(coeffs * _matvec(self.grad_mass[rows], coeffs), axis=1)

    def side_mismatch_sq(self, side: int, u0: np.ndarray, ub: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
        """Integral over one side of (interior trace - edge value)^2."""
        diff = _matvec(self._side_phi0[rows, side], u0) - _matvec(self._side_phib[rows, side], ub)
        w = self._side_w[rows, side]
        return np.sum(w.reshape(w.shape + (1,) * (diff.ndim - 2)) * diff * diff, axis=1)

    def data_points(self, rows: np.ndarray, degree: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of a rule on the whole cells of the given rows
        (data degree by default), stacked over the fan triangles, which get
        equally many: shapes (n, npts, 2) and (n, npts)."""
        if degree is None:
            degree = data_degree(self.k)
        pts, w = triangle_points(self.tri_coords[rows], degree)
        return pts.reshape(len(rows), -1, 2), w.reshape(len(rows), -1)

    def _weighted_samples(self, func, uniq, inv, offsets, degree):
        """The data points of the distinct rows, and func at each cell's
        points times the weights, shape (n, npts) + the shape of one value."""
        pts, w = self.data_points(uniq, degree)
        # Each coordinate gathered and shifted on its own: numpy loops over
        # an innermost axis of length 2 several times slower.
        x, y = (pts[inv, :, d] + offsets[:, d, None] for d in range(2))
        vals = np.asarray(func(x.ravel(), y.ravel()), dtype=float)
        vals = vals.reshape(x.shape + vals.shape[1:])
        return pts, vals * w[inv].reshape(w[inv].shape + (1,) * (vals.ndim - 2))

    def interior_moments(self, func, rows: np.ndarray, offsets: np.ndarray,
                         degree: int | None = None) -> np.ndarray:
        """(func, m_j) for the interior basis on each cell, shape (n, dim P_k)."""
        uniq, inv = np.unique(rows, return_inverse=True)
        pts, vals = self._weighted_samples(func, uniq, inv, offsets, degree)
        basis = CellScalarBasis(self.k, self.center[uniq], self.diameter[uniq])
        return _rowwise(vals, basis.eval(pts), inv)

    def project_interior(self, func, rows: np.ndarray, offsets: np.ndarray,
                         degree: int | None = None) -> np.ndarray:
        """L2 projections onto the interior P_k basis, shape (n, dim P_k)."""
        uniq, inv = np.unique(rows, return_inverse=True)
        mom = self.interior_moments(func, rows, offsets, degree)
        return _rowwise(mom, self._mass_scalar_inv[uniq].swapaxes(-1, -2), inv)

    def project_lambda_field(self, func, rows: np.ndarray, offsets: np.ndarray,
                             degree: int | None = None) -> np.ndarray:
        """L2 projections of a vector field onto the weak-gradient spaces,
        shape (n, n_lambda).  func(x, y) must return shape (npts, 2)."""
        uniq, inv = np.unique(rows, return_inverse=True)
        pts, vals = self._weighted_samples(func, uniq, inv, offsets, degree)
        n, nu, nt = len(rows), len(uniq), self.tri_coords.shape[1]
        # Moments against each triangle's raw frame fields, in the frames of
        # each cell's row (of the one row, if all share it), shape
        # (n, n_triangles, 1, n_fields); the basis is orthonormal, so
        # contracting them with frame_coeffs gives the projection.
        sel = uniq if nu == 1 else rows
        frames = RTFrame(self.k, self.lambda_basis.frames.center[sel],
                         self.lambda_basis.frames.scale[sel])
        raw = frames.moments((pts if nu == 1 else pts[inv]).reshape(len(sel), nt, -1, 2),
                             vals.reshape(n, nt, 1, -1, 2))
        return _rowwise(raw.reshape(n, -1),
                        self.frame_coeffs[uniq].reshape(nu, -1, self.lambda_basis.n_lambda), inv)


def _stack_row(name: str, doc: str) -> property:
    return property(lambda self: getattr(self.stack, name)[self.index], doc=doc)


class LocalCellOperators:
    """The discrete operators of one cell: row ``index`` of an OperatorStack,
    acting on ``cell``, the translate of the row's cell by ``offset``.

    ``LocalCellOperators(mesh, cell, k)`` builds a stack of one (offset
    zero); OperatorCache.get hands out rows of shared stacks.  Local DOF
    order as in OperatorStack.
    """

    stiffness = _stack_row("stiffness", "Local stiffness matrix (n_local, n_local).")
    weak_gradient = _stack_row("weak_gradient", "Weak-gradient matrix (n_lambda, n_local).")
    moments = _stack_row("moments", "Weak-gradient moments (n_lambda, n_local).")
    mass_scalar = _stack_row("mass_scalar", "Interior P_k mass matrix.")

    def __init__(self, mesh: PolyMesh, cell: int, k: int):
        self._bind(mesh, OperatorStack(mesh, [cell], k), 0, cell, np.zeros(2))

    @classmethod
    def _row(cls, mesh: PolyMesh, stack: OperatorStack, index: int, cell: int,
             offset: np.ndarray) -> LocalCellOperators:
        ops = cls.__new__(cls)
        ops._bind(mesh, stack, index, cell, offset)
        return ops

    def _bind(self, mesh, stack, index, cell, offset) -> None:
        self.mesh, self.k = mesh, stack.k
        self.stack, self.index = stack, index
        self.cell, self.offset = cell, offset

    @property
    def n_local(self) -> int:
        return self.moments.shape[1]

    @property
    def n_lambda(self) -> int:
        return self.stack.lambda_basis.n_lambda

    def apply_weak_gradient(self, local_dofs: np.ndarray) -> np.ndarray:
        """Weak-gradient coefficients of a local function, shape (n_lambda, ...)."""
        return self.weak_gradient @ local_dofs

    def lambda_norm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        """Squared L2 norm over the cell of a weak-gradient-space field."""
        return np.sum(coeffs * coeffs, axis=0)

    def project_interior(self, func, degree: int | None = None) -> np.ndarray:
        """L2 projection onto the interior P_k basis."""
        return self.stack.project_interior(func, [self.index], self.offset[None], degree)[0]

    def project_lambda_field(self, func, degree: int | None = None) -> np.ndarray:
        """L2 projection of a vector field onto the weak-gradient space.

        func(x, y) must return shape (npts, 2).
        """
        return self.stack.project_lambda_field(func, [self.index], self.offset[None], degree)[0]


class OperatorCache:
    """Local operators of a mesh, built once per shape class.

    Two cells share a class when one is a translate of the other: the same
    vertex count, the same vertex offsets from cycle vertex 0 and the same
    diameter (both to KEY_DECIMALS), and the same side orientations (whether
    each side runs canonical low -> high, which fixes the sign of the odd
    edge basis functions).  Every operator matrix depends only on these, so
    one stack row, built from the class's first cell, serves all its
    members.  Classes are built lazily, in OperatorStacks of at most
    BATCH_CELLS classes of one vertex count.  ``dofmap`` is the mesh's global
    DOF layout at degree k.
    """

    def __init__(self, mesh: PolyMesh, k: int):
        _check_degree(k)
        self.mesh = mesh
        self.k = k
        origin = mesh.vertices[mesh.cycles[mesh.offsets[:-1]]]
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
        # Members of each class are contiguous in _order, classes of one
        # vertex count are numbered contiguously.
        self._order = np.argsort(class_of, kind="stable")
        self._starts = np.concatenate([[0], np.cumsum(np.bincount(class_of))])
        self._first = self._order[self._starts[:-1]]
        self._class_of = class_of
        self._offset = origin - origin[self._first][class_of]
        n_v = sizes[self._first]
        groups = [0, *(np.flatnonzero(np.diff(n_v)) + 1).tolist(), n_v.size]
        self._ranges = [(lo, min(lo + BATCH_CELLS, end))
                        for start, end in zip(groups, groups[1:])
                        for lo in range(start, end, BATCH_CELLS)]
        self._stack_of = np.repeat(np.arange(len(self._ranges)),
                                   [hi - lo for lo, hi in self._ranges])
        self._stacks: list[OperatorStack | None] = [None] * len(self._ranges)

    @property
    def n_classes(self) -> int:
        return self._first.size

    @cached_property
    def dofmap(self):
        from .wgsolve import build_dof_map  # wgsolve imports this module

        return build_dof_map(self.mesh, self.k)

    def _stack(self, j: int) -> OperatorStack:
        stack = self._stacks[j]
        if stack is None:
            lo, hi = self._ranges[j]
            stack = self._stacks[j] = OperatorStack(self.mesh, self._first[lo:hi], self.k)
        return stack

    def get(self, cell: int) -> LocalCellOperators:
        """The operators of ``cell``: its class's stack row, moved by its
        offset from the class's first cell."""
        i = self._class_of[cell]
        j = self._stack_of[i]
        return LocalCellOperators._row(self.mesh, self._stack(j), int(i - self._ranges[j][0]),
                                       cell, self._offset[cell])

    def _members(self, j: int) -> np.ndarray:
        """The cells of stack j's classes, each class's members together."""
        lo, hi = self._ranges[j]
        return self._order[self._starts[lo] : self._starts[hi]]

    def batches(self):
        """Yield (stack, rows, cells, offsets): at most BATCH_CELLS cells,
        whose classes may differ but share one OperatorStack, with each
        cell's stack row and its offset from that row's cell."""
        for j, (lo, _) in enumerate(self._ranges):
            stack, members = self._stack(j), self._members(j)
            for start in range(0, members.size, BATCH_CELLS):
                cells = members[start : start + BATCH_CELLS]
                yield stack, self._class_of[cells] - lo, cells, self._offset[cells]

    @cached_property
    def batch_dofs(self) -> list[np.ndarray]:
        """The global DOF indices of the cells of each batch, in the order
        of batches(): DofMap.cell_dof_array of its cells, as views of one
        array per stack."""
        out = []
        for j in range(len(self._ranges)):
            dofs = self.dofmap.cell_dof_array(self.mesh, self._members(j))
            out += [dofs[start : start + BATCH_CELLS] for start in range(0, len(dofs), BATCH_CELLS)]
        return out


def project_qb(mesh: PolyMesh, edge, k: int, func, degree: int | None = None
               ) -> np.ndarray:
    """L2 projection onto the P_k edge basis of one edge, shape (k + 1,), or
    of every edge in an index array, shape (n, k + 1), in one pass."""
    _check_degree(k)
    if degree is None:
        degree = data_degree(k)
    degree = max(degree, 2 * k + 2)
    edges = np.atleast_1d(edge)
    rule = segment_rule(degree)
    a, b = mesh.vertices[mesh.edges[edges]].transpose(1, 0, 2)
    pts = a[:, None] + rule.points[:, None] * (b - a)[:, None]
    vals = np.asarray(func(pts[..., 0].ravel(), pts[..., 1].ravel()), dtype=float)
    vals = vals.reshape(edges.size, -1)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        i, q = bad[0]
        raise DataError(
            f"edge data non-finite at quadrature point ({pts[i, q, 0]}, {pts[i, q, 1]}) "
            f"on edge {edges[i]}"
        )
    # Each edge's mass matrix and moments are its length times those on the
    # reference segment, so the length cancels.  The sum runs edge by edge,
    # so an edge's coefficients do not depend on the batch it comes in.
    phi = edge_basis(k, degree)
    w_phi = rule.weights[:, None] * phi
    coeffs = (vals[:, None, :] * np.linalg.solve(phi.T @ w_phi, w_phi.T)).sum(axis=-1)
    return coeffs if np.ndim(edge) else coeffs[0]
