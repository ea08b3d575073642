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
sub-triangles), extracted by SVD with a hard expected-dimension check.

OperatorCache builds these operators once per shape class (cells equal up
to translation), hands each cell a copy of them moved to its position, and
evaluates data for all cells of a class in one batch.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .polymesh import PolyMesh, SubTriangulation, triangulate_cell
from .quadrature import (
    assembly_degree,
    data_degree,
    segment_points,
    segment_rule,
    triangle_points,
)

MAX_DEGREE = 4
NULLSPACE_RTOL = 1e-10
CONDITION_WARN = 1e12
# Shape-class keys round the vertex offsets, in units of the cell diameter,
# and the log of the diameter to this many decimals.
KEY_DECIMALS = 12
# Cells per batch of OperatorCache.batches.
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


class CellScalarBasis:
    """Centered, scaled monomial basis of P_k on a cell or sub-triangle."""

    def __init__(self, cell: int, k: int, center: np.ndarray, scale: float):
        _check_degree(k)
        self.cell = cell
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        exps = monomial_exponents(k)
        self.exponents = exps
        self._ax = np.array([a for a, _ in exps])
        self._ay = np.array([b for _, b in exps])

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def _local(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(pts, dtype=float)
        xi = (pts[:, 0] - self.center[0]) / self.scale
        eta = (pts[:, 1] - self.center[1]) / self.scale
        return xi, eta

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape (npts, dim)."""
        xi, eta = self._local(pts)
        return xi[:, None] ** self._ax[None, :] * eta[:, None] ** self._ay[None, :]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Physical gradients, shape (npts, dim, 2)."""
        xi, eta = self._local(pts)
        ax, ay = self._ax, self._ay
        xpow = xi[:, None] ** np.maximum(ax - 1, 0)[None, :]
        ypow = eta[:, None] ** np.maximum(ay - 1, 0)[None, :]
        xfull = xi[:, None] ** ax[None, :]
        yfull = eta[:, None] ** ay[None, :]
        gx = ax[None, :] * xpow * yfull / self.scale
        gy = ay[None, :] * xfull * ypow / self.scale
        return np.stack([gx, gy], axis=-1)


def edge_basis(k: int, degree: int) -> np.ndarray:
    """The P_k edge basis s^m, s = 2t - 1, at the points t of the segment rule
    of the given degree, shape (npts, k + 1).  On segment_points(a, b, degree)
    s runs from -1 at a to 1 at b."""
    s = 2.0 * segment_rule(degree).points - 1.0
    return s[:, None] ** np.arange(k + 1)


class RTFrame:
    """Vector monomial fields spanning RT_k in one centered, scaled frame.

    Fields: (m, 0) and (0, m) for all P_k monomials m, then (xi, eta) * m_h
    for the k+1 homogeneous degree-k monomials m_h.  Count: (k+1)(k+3).
    """

    def __init__(self, k: int, center: np.ndarray, scale: float):
        _check_degree(k)
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.exponents = monomial_exponents(k)
        self.n_scalar = len(self.exponents)
        self.homo = [(a, b) for a, b in self.exponents if a + b == k]
        self.n_fields = 2 * self.n_scalar + len(self.homo)
        self._index = {e: i for i, e in enumerate(self.exponents)}
        self._ax = np.array([a for a, _ in self.exponents])
        self._ay = np.array([b for _, b in self.exponents])

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Field values, shape (npts, n_fields, 2)."""
        pts = np.asarray(pts, dtype=float)
        xi = (pts[:, 0] - self.center[0]) / self.scale
        eta = (pts[:, 1] - self.center[1]) / self.scale
        mono = xi[:, None] ** self._ax[None, :] * eta[:, None] ** self._ay[None, :]
        n0 = self.n_scalar
        V = np.zeros((pts.shape[0], self.n_fields, 2))
        V[:, :n0, 0] = mono
        V[:, n0 : 2 * n0, 1] = mono
        homo = mono[:, n0 - len(self.homo) :]
        V[:, 2 * n0 :, 0] = xi[:, None] * homo
        V[:, 2 * n0 :, 1] = eta[:, None] * homo
        return V

    def div_coeff_matrix(self) -> np.ndarray:
        """Exact divergence expansion over this frame's scalar monomials.

        Returns D with div(field_j) = sum_c D[c, j] * m_c; entries carry the
        1/scale chain factor of the frame.
        """
        n0 = self.n_scalar
        D = np.zeros((n0, self.n_fields))
        for j, (a, b) in enumerate(self.exponents):
            if a > 0:
                D[self._index[(a - 1, b)], j] = a / self.scale
            if b > 0:
                D[self._index[(a, b - 1)], n0 + j] = b / self.scale
        for j, (a, b) in enumerate(self.homo):
            D[self._index[(a, b)], 2 * n0 + j] = (a + b + 2) / self.scale
        return D


def monomial_change_of_frame(k: int, source_center: np.ndarray, source_scale: float,
                             target_center: np.ndarray, target_scale: float
                             ) -> np.ndarray:
    """Exact coefficient map between centered-scaled monomial bases of P_k.

    Returns T with  m_src_j = sum_i T[i, j] * m_tgt_i, from the binomial
    expansion of the affine substitution xi_src = alpha*xi_tgt + beta.
    """
    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    alpha = target_scale / source_scale
    bx = (target_center[0] - source_center[0]) / source_scale
    by = (target_center[1] - source_center[1]) / source_scale
    T = np.zeros((len(exps), len(exps)))
    for j, (a, b) in enumerate(exps):
        for p in range(a + 1):
            for q in range(b + 1):
                coeff = (
                    comb(a, p) * alpha**p * bx ** (a - p)
                    * comb(b, q) * alpha**q * by ** (b - q)
                )
                T[index[(p, q)], j] += coeff
    return T


class TriangleRTBasis:
    """One sub-triangle's RT_k basis: L2-orthonormalized combinations of the
    frame's vector monomials.

    The raw monomial generating set has Gram condition up to 1e9 at k = 3-4;
    symmetric orthonormalization against the triangle's own Gram keeps every
    downstream solve well conditioned while spanning the same space.
    """

    def __init__(self, mesh: PolyMesh, subtri: SubTriangulation, tri_index: int, k: int):
        _check_degree(k)
        tri = subtri.triangles[tri_index]
        coords = mesh.vertices[list(tri)]
        e1, e2 = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        if area < 1e-14:
            raise GeometryError(
                f"sub-triangle {tri} of cell {subtri.cell} is degenerate "
                f"(area {area:.3e})"
            )
        center = coords.mean(axis=0)
        diff = coords[:, None, :] - coords[None, :, :]
        scale = float(np.sqrt((diff**2).sum(axis=2).max()))
        self.frame = RTFrame(k, center, scale)
        self.k = k

        pts, w = triangle_points(coords, 2 * k + 2)
        F = self.frame.eval(pts)
        gram = np.einsum("q,qid,qjd->ij", w, F, F)
        lam, Q = np.linalg.eigh(gram)
        if lam[0] <= 0.0:
            raise GeometryError(
                f"sub-triangle {tri} of cell {subtri.cell}: singular RT Gram "
                f"(eigenvalue {lam[0]:.3e})"
            )
        self._orth = (Q / np.sqrt(lam)) @ Q.T

    @property
    def n_fields(self) -> int:
        return self.frame.n_fields

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Field values, shape (npts, n_fields, 2)."""
        return np.einsum("qfd,fg->qgd", self.frame.eval(pts), self._orth)

    def div_coeff_matrix(self) -> np.ndarray:
        """Divergence expansion over the frame's scalar monomials."""
        return self.frame.div_coeff_matrix() @ self._orth

    def normal_trace(self, pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """Normal component of each field at points on a line, shape (npts, n_fields)."""
        F = self.eval(pts)
        return F[:, :, 0] * normal[0] + F[:, :, 1] * normal[1]


@dataclass(frozen=True)
class LambdaBasis:
    """Orthonormal coefficient basis of the weak-gradient space of one cell,
    with the cell frame it was built in.

    coeffs: (n_triangles * n_fields, n_lambda); each column is one basis
    field over the per-sub-triangle RT blocks (one TriangleRTBasis each).
    center, diameter: the cell frame of the scalar bases.
    div_cell_frame: (n_triangles, dim P_k, n_fields); the divergence of each
    sub-triangle's RT fields expanded over the cell-frame monomials.
    """

    cell: int
    k: int
    subtri: SubTriangulation
    rt_bases: tuple[TriangleRTBasis, ...]
    coeffs: np.ndarray
    n_lambda: int
    constraint_residual: float
    center: np.ndarray
    diameter: float
    div_cell_frame: np.ndarray


def build_lambda_basis(mesh: PolyMesh, cell: int, k: int) -> LambdaBasis:
    """Assemble the constraint system over stacked RT coefficients and return
    an orthonormal nullspace basis.

    Constraints: (a) on each fan chord, the normal-component jump tested
    against the k+1 edge-parameter moments; (b) for each sub-triangle beyond
    the first, the divergence coefficient mismatch in a shared cell-frame
    monomial basis.  Parent polygon sides coincide with single sub-triangle
    edges, so boundary traces are single-piece automatically.
    """
    _check_degree(k)
    subtri = triangulate_cell(mesh, cell)
    rt_bases = tuple(TriangleRTBasis(mesh, subtri, i, k) for i in range(subtri.n_triangles))
    center = mesh.cell_centroid(cell)
    diameter = mesh.cell_diameter(cell)
    div = np.array([
        monomial_change_of_frame(k, rt.frame.center, rt.frame.scale, center, diameter)
        @ rt.div_coeff_matrix()
        for rt in rt_bases
    ])

    nt = subtri.n_triangles
    nf = rt_bases[0].n_fields
    n_expected = expected_lambda_dim(nt + 2, k)

    def basis(coeffs: np.ndarray, residual: float) -> LambdaBasis:
        return LambdaBasis(cell, k, subtri, rt_bases, coeffs, coeffs.shape[1], residual,
                           center, diameter, div)

    if nt == 1:
        return basis(np.eye(nf), 0.0)

    degree = 2 * k + 2
    w_phi = segment_rule(degree).weights[:, None] * edge_basis(k, degree)
    jumps = np.zeros((nt - 1, k + 1, nt, nf))
    for j, ((va, vb), (ta, tb)) in enumerate(
        zip(subtri.internal_edges, subtri.internal_adjacency)
    ):
        a, b = mesh.vertices[va], mesh.vertices[vb]
        t = b - a
        normal = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        pts, _ = segment_points(a, b, degree)
        jumps[j, :, ta] = w_phi.T @ rt_bases[ta].normal_trace(pts, normal)
        jumps[j, :, tb] = -(w_phi.T @ rt_bases[tb].normal_trace(pts, normal))
    matches = np.zeros((nt - 1, div.shape[1], nt, nf))
    matches[:, :, 0] = -diameter * div[0]
    later = np.arange(1, nt)
    matches[later - 1, :, later] = diameter * div[1:]

    C = np.concatenate([jumps.reshape(-1, nt * nf), matches.reshape(-1, nt * nf)])
    _, sv, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(sv > NULLSPACE_RTOL * sv[0]))
    null = Vh[rank:].T
    if null.shape[1] != n_expected:
        raise LambdaDimensionError(
            f"cell {cell} (k={k}): nullspace dimension {null.shape[1]} != "
            f"expected {n_expected}; constraint singular values {sv}"
        )
    return basis(null, float(np.linalg.norm(C @ null, ord=2)))


class LocalCellOperators:
    """All discrete operators of one cell, built once and reused.

    Local DOF order: interior P_k coefficients first, then the k+1 edge
    coefficients of each cell side in cycle order.

    The operators serve every translate of the cell they were built on.
    ``cell`` and ``offset`` name the translate that the data methods act on
    by default: the built cell itself, offset zero, unless OperatorCache.get
    moved a copy.  Given ``offsets`` of shape (n, 2) instead, the data
    methods act on n copies of the built cell translated by those offsets,
    in one batch, and return one row per copy.
    """

    def __init__(self, mesh: PolyMesh, cell: int, k: int):
        _check_degree(k)
        self.mesh = mesh
        self.cell = cell
        self.offset = np.zeros(2)
        self.k = k
        lam = self.lambda_basis = build_lambda_basis(mesh, cell, k)
        self.rt_bases = lam.rt_bases
        self.diameter = lam.diameter
        self.scalar_basis = CellScalarBasis(cell, k, lam.center, lam.diameter)

        nt = lam.subtri.n_triangles
        nf = self.rt_bases[0].n_fields
        n0 = self.scalar_basis.dim
        nl = lam.n_lambda
        V = lam.coeffs.reshape(nt, nf, nl)
        self._blocks = V

        deg = assembly_degree(k)
        self._tri_coords = mesh.vertices[np.array(lam.subtri.triangles)]

        mass_lambda = np.zeros((nl, nl))
        mass_scalar = np.zeros((n0, n0))
        grad_mass = np.zeros((n0, n0))
        b_int = np.zeros((nl, n0))
        for i, coords in enumerate(self._tri_coords):
            pts, w = triangle_points(coords, deg)
            F = self.rt_bases[i].eval(pts)
            mono = self.scalar_basis.eval(pts)
            gm = self.scalar_basis.grad(pts)
            m_tri = np.einsum("q,qid,qjd->ij", w, F, F)
            s_tri = np.einsum("q,qi,qj->ij", w, mono, mono)
            Vi = V[i]
            mass_lambda += Vi.T @ m_tri @ Vi
            mass_scalar += s_tri
            grad_mass += np.einsum("q,qid,qjd->ij", w, gm, gm)
            b_int -= Vi.T @ (s_tri @ lam.div_cell_frame[i]).T
        self.mass_lambda = mass_lambda
        self.mass_scalar = mass_scalar
        self.grad_mass = grad_mass

        cond = np.linalg.cond(mass_lambda)
        if cond > CONDITION_WARN:
            warnings.warn(
                f"cell {cell}: weak-gradient mass matrix condition {cond:.2e}",
                RuntimeWarning,
                stacklevel=2,
            )

        cyc = mesh.cells[cell]
        n_sides = len(cyc)
        phi = edge_basis(k, deg)
        self._side_trace = []
        cols = [b_int]
        for s in range(n_sides):
            va, vb = cyc[s], cyc[(s + 1) % n_sides]
            pts, w = segment_points(mesh.vertices[va], mesh.vertices[vb], deg)
            # A side run against canonical order sees s -> -s.
            phi_b = phi if va < vb else phi * (-1.0) ** np.arange(k + 1)
            tri_i, _ = lam.subtri.boundary_edge_map[s]
            trace = self.rt_bases[tri_i].normal_trace(pts, mesh.side_normal(cell, s))
            cols.append(V[tri_i].T @ np.einsum("q,qa,qm->am", w, trace, phi_b))
            self._side_trace.append((w, self.scalar_basis.eval(pts), phi_b))
        self.moments = np.hstack(cols)

        self._cho_lambda = cho_factor(mass_lambda)
        self._cho_scalar = cho_factor(mass_scalar)
        self.weak_gradient = cho_solve(self._cho_lambda, self.moments)
        K = self.weak_gradient.T @ self.moments
        self.stiffness = 0.5 * (K + K.T)

    @property
    def subtri(self) -> SubTriangulation:
        """Fan triangulation of ``cell``; the built cell's is lambda_basis.subtri."""
        return triangulate_cell(self.mesh, self.cell)

    @property
    def n_local(self) -> int:
        return self.moments.shape[1]

    @property
    def n_lambda(self) -> int:
        return self.lambda_basis.n_lambda

    def apply_weak_gradient(self, local_dofs: np.ndarray) -> np.ndarray:
        """Weak-gradient coefficients of a local function, shape (n_lambda, ...)."""
        return self.weak_gradient @ local_dofs

    def lambda_norm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        """Squared L2 norm over the cell of a weak-gradient-space field."""
        return np.sum(coeffs * (self.mass_lambda @ coeffs), axis=0)

    def scalar_norm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        return np.sum(coeffs * (self.mass_scalar @ coeffs), axis=0)

    def grad_seminorm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        return np.sum(coeffs * (self.grad_mass @ coeffs), axis=0)

    def side_mismatch_sq(self, side: int, u0: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """Integral over one side of (interior trace - edge value)^2."""
        w, phi_0, phi_b = self._side_trace[side]
        diff = phi_0 @ u0 - phi_b @ ub
        return w @ (diff * diff)

    def data_points(self, degree: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of a rule on the whole cell (data degree by
        default), stacked over the fan sub-triangles, which get equally many."""
        if degree is None:
            degree = data_degree(self.k)
        pts, w = triangle_points(self._tri_coords, degree)
        return pts.reshape(-1, 2), w.ravel()

    @staticmethod
    def _sample(func, pts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """func at pts moved by each offset, shape (n_offsets, npts, ...)."""
        moved = offsets[:, None, :] + pts[None, :, :]
        vals = np.asarray(func(moved[..., 0].ravel(), moved[..., 1].ravel()), dtype=float)
        return vals.reshape(moved.shape[:2] + vals.shape[1:])

    def interior_moments(self, func, offsets: np.ndarray, degree: int | None = None
                         ) -> np.ndarray:
        """(func, m_j) for the interior basis on each translated copy, shape
        (n, dim)."""
        pts, w = self.data_points(degree)
        return self._sample(func, pts, offsets) @ (w[:, None] * self.scalar_basis.eval(pts))

    def project_interior(self, func, degree: int | None = None,
                         offsets: np.ndarray | None = None) -> np.ndarray:
        """L2 projection onto the interior P_k basis."""
        batch = self.offset[None] if offsets is None else offsets
        coeffs = cho_solve(self._cho_scalar, self.interior_moments(func, batch, degree).T).T
        return coeffs[0] if offsets is None else coeffs

    def project_lambda_field(self, func, degree: int | None = None,
                             offsets: np.ndarray | None = None) -> np.ndarray:
        """L2 projection of a vector field onto the weak-gradient space.

        func(x, y) must return shape (npts, 2).
        """
        pts, w = self.data_points(degree)
        nt = len(self.rt_bases)
        vals = self._sample(func, pts, self.offset[None] if offsets is None else offsets)
        vals = vals.reshape(vals.shape[0], nt, -1)
        pts, w = pts.reshape(nt, -1, 2), w.reshape(nt, -1)
        mom = 0.0
        for i, (rt, V) in enumerate(zip(self.rt_bases, self._blocks)):
            # Weighted frame fields, shape (npts * 2, n_fields); the frame's
            # orthonormalization is applied after the contraction.
            F = (w[i, :, None, None] * rt.frame.eval(pts[i])).transpose(0, 2, 1)
            mom = mom + (vals[:, i] @ F.reshape(-1, V.shape[0])) @ (rt._orth @ V)
        coeffs = cho_solve(self._cho_lambda, mom.T).T
        return coeffs[0] if offsets is None else coeffs

    def interior_values(self, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Point values of an interior polynomial on ``cell``."""
        return self.scalar_basis.eval(np.asarray(pts) - self.offset) @ coeffs

    def lambda_values(self, coeffs: np.ndarray, pts: np.ndarray, tri_index: int
                      ) -> np.ndarray:
        """Point values of a weak-gradient-space field on one sub-triangle of
        ``cell``."""
        F = self.rt_bases[tri_index].eval(np.asarray(pts) - self.offset)
        rt = self._blocks[tri_index] @ coeffs
        return np.einsum("qad,a->qd", F, rt)


class OperatorCache:
    """Local operators of a mesh, built once per shape class.

    Two cells share a class when one is a translate of the other: the same
    vertex count, the same vertex offsets from cycle vertex 0 and the same
    diameter (both to KEY_DECIMALS), and the same side orientations (whether
    each side runs canonical low -> high, which fixes the sign of the odd
    edge basis functions).  Every operator matrix depends only on these, so
    one LocalCellOperators, built lazily from the class's first cell, serves
    all its members.  ``dofmap`` is the mesh's global DOF layout at degree k.
    """

    def __init__(self, mesh: PolyMesh, k: int):
        _check_degree(k)
        self.mesh = mesh
        self.k = k
        origin = mesh.vertices[[cyc[0] for cyc in mesh.cells]]
        class_of = np.empty(mesh.n_cells, dtype=int)
        keys: dict[tuple, int] = {}
        for n_v in sorted({len(cyc) for cyc in mesh.cells}):
            cells = [c for c, cyc in enumerate(mesh.cells) if len(cyc) == n_v]
            cyc = np.array([mesh.cells[c] for c in cells])
            coords = mesh.vertices[cyc]
            diff = coords[:, :, None, :] - coords[:, None, :, :]
            diam = np.sqrt((diff**2).sum(axis=3).max(axis=(1, 2)))
            rel = (coords - coords[:, :1]).reshape(len(cells), -1) / diam[:, None]
            # + 0.0 folds -0.0 into 0.0
            shape = np.round(np.column_stack([rel, np.log(diam)]), KEY_DECIMALS) + 0.0
            forward = cyc < np.roll(cyc, -1, axis=1)
            for c, s, f in zip(cells, shape.tolist(), forward.tolist()):
                class_of[c] = keys.setdefault((tuple(s), tuple(f)), len(keys))
        order = np.argsort(class_of, kind="stable")
        self._members = np.split(order, np.cumsum(np.bincount(class_of))[:-1])
        self._class_of = class_of
        self._offset = origin - origin[[m[0] for m in self._members]][class_of]
        self._ops: list[LocalCellOperators | None] = [None] * len(self._members)

    @property
    def n_classes(self) -> int:
        return len(self._members)

    @cached_property
    def dofmap(self):
        from .wgsolve import build_dof_map  # wgsolve imports this module

        return build_dof_map(self.mesh, self.k)

    def _class_ops(self, i: int) -> LocalCellOperators:
        ops = self._ops[i]
        if ops is None:
            ops = LocalCellOperators(self.mesh, int(self._members[i][0]), self.k)
            self._ops[i] = ops
        return ops

    def get(self, cell: int) -> LocalCellOperators:
        """The operators of ``cell``: a shallow copy of its class's, moved by
        its offset from the class's first cell.  The class's stay unchanged."""
        ops = copy.copy(self._class_ops(self._class_of[cell]))
        ops.cell, ops.offset = cell, self._offset[cell]
        return ops

    def batches(self):
        """Yield (class operators, member cells, their offsets) per shape
        class, at most BATCH_CELLS cells at a time so that data sampled over
        a batch stays small."""
        for i, members in enumerate(self._members):
            ops = self._class_ops(i)
            for start in range(0, members.size, BATCH_CELLS):
                cells = members[start : start + BATCH_CELLS]
                yield ops, cells, self._offset[cells]


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
