"""Per-cell polynomial machinery for the stabilizer-free discretization.

Scalar bases on cells are centroid-centered, diameter-scaled monomials
((x-x_T)/h_T)^a ((y-y_T)/h_T)^b; edge bases are midpoint-centered powers of
the half-length-scaled arc parameter.  The vector basis on each sub-triangle
spans [P_k]^2 plus the radial fields (xi, eta) * (homogeneous degree-k
monomials) in the sub-triangle's own centered frame, which keeps Gram
matrices well conditioned through k = 4; divergences are re-expanded into
the shared cell frame by exact binomial shifts, so the one-piece-divergence
constraint needs no quadrature.

The weak-gradient space of a cell is the nullspace of the constraint system
(normal-jump moments on fan chords; divergence-coefficient mismatch between
sub-triangles), extracted by SVD with a hard expected-dimension check.

OperatorCache builds these operators once per shape class (cells equal up
to translation) and evaluates data for all cells of a class in one batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .polymesh import PolyMesh, SubTriangulation, triangulate_cell
from .quadrature import assembly_degree, data_degree, segment_points, triangle_points

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


class EdgeScalarBasis:
    """Midpoint-centered scaled monomials in the arc parameter of one edge.

    The parameter runs along the edge's canonical (low -> high vertex index)
    direction and is scaled by the half-length, so both adjacent cells see
    the same single-valued basis.
    """

    def __init__(self, mesh: PolyMesh, edge: int, k: int):
        _check_degree(k)
        self.edge = edge
        self.k = k
        self.midpoint = mesh.edge_midpoint(edge)
        self.half_length = 0.5 * mesh.edge_length(edge)
        self.tangent = mesh.edge_tangent(edge)

    @property
    def dim(self) -> int:
        return self.k + 1

    def param(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return (pts - self.midpoint) @ self.tangent / self.half_length

    def eval(self, pts: np.ndarray) -> np.ndarray:
        s = self.param(pts)
        return s[:, None] ** np.arange(self.k + 1)[None, :]


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
        self.tri_index = tri_index
        self.vertex_coords = coords
        self.area = area

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

    def mass(self, degree: int | None = None) -> np.ndarray:
        """Gram matrix of the fields over this triangle (close to identity)."""
        if degree is None:
            degree = assembly_degree(self.k)
        pts, w = triangle_points(self.vertex_coords, degree)
        F = self.eval(pts)
        return np.einsum("q,qid,qjd->ij", w, F, F)

    def normal_trace(self, pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """Normal component of each field at points on a line, shape (npts, n_fields)."""
        F = self.eval(pts)
        return F[:, :, 0] * normal[0] + F[:, :, 1] * normal[1]


@dataclass(frozen=True)
class LambdaBasis:
    """Orthonormal coefficient basis of the weak-gradient space of one cell.

    coeffs: (n_triangles * n_fields, n_lambda); each column is one basis
    field over the per-sub-triangle RT blocks (one TriangleRTBasis each).
    """

    cell: int
    k: int
    subtri: SubTriangulation
    rt_bases: tuple[TriangleRTBasis, ...]
    coeffs: np.ndarray
    n_lambda: int
    constraint_residual: float


def build_lambda_basis(mesh: PolyMesh, cell: int, k: int,
                       subtri: SubTriangulation | None = None,
                       rt_bases: tuple[TriangleRTBasis, ...] | None = None
                       ) -> LambdaBasis:
    """Assemble the constraint system over stacked RT coefficients and return
    an orthonormal nullspace basis.

    Constraints: (a) on each fan chord, the normal-component jump tested
    against the k+1 edge-parameter moments; (b) for each sub-triangle beyond
    the first, the divergence coefficient mismatch in a shared cell-frame
    monomial basis.  Parent polygon sides coincide with single sub-triangle
    edges, so boundary traces are single-piece automatically.
    """
    _check_degree(k)
    if subtri is None:
        subtri = triangulate_cell(mesh, cell)
    if rt_bases is None:
        rt_bases = tuple(
            TriangleRTBasis(mesh, subtri, i, k) for i in range(subtri.n_triangles)
        )

    nt = subtri.n_triangles
    nf = rt_bases[0].n_fields
    n_rt = nt * nf
    n_expected = expected_lambda_dim(nt + 2, k)

    if nt == 1:
        return LambdaBasis(cell, k, subtri, rt_bases, np.eye(nf), nf, 0.0)

    rows = []
    for (va, vb), (ta, tb) in zip(subtri.internal_edges, subtri.internal_adjacency):
        a, b = mesh.vertices[va], mesh.vertices[vb]
        length = float(np.linalg.norm(b - a))
        tang = (b - a) / length
        normal = np.array([tang[1], -tang[0]])
        pts, w = segment_points(a, b, 2 * k + 2)
        s = (pts - 0.5 * (a + b)) @ tang / (0.5 * length)
        trace_a = rt_bases[ta].normal_trace(pts, normal)
        trace_b = rt_bases[tb].normal_trace(pts, normal)
        for m in range(k + 1):
            wm = w * s**m / length
            row = np.zeros(n_rt)
            row[ta * nf : (ta + 1) * nf] = wm @ trace_a
            row[tb * nf : (tb + 1) * nf] = -(wm @ trace_b)
            rows.append(row)

    cell_center = mesh.cell_centroid(cell)
    cell_scale = mesh.cell_diameter(cell)
    div_in_cell_frame = []
    for rt in rt_bases:
        T = monomial_change_of_frame(
            k, rt.frame.center, rt.frame.scale, cell_center, cell_scale
        )
        div_in_cell_frame.append(cell_scale * (T @ rt.div_coeff_matrix()))
    for i in range(1, nt):
        for r in range(div_in_cell_frame[0].shape[0]):
            row = np.zeros(n_rt)
            row[i * nf : (i + 1) * nf] = div_in_cell_frame[i][r]
            row[:nf] -= div_in_cell_frame[0][r]
            rows.append(row)

    C = np.array(rows)
    _, sv, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(sv > NULLSPACE_RTOL * sv[0]))
    null = Vh[rank:].T
    if null.shape[1] != n_expected:
        raise LambdaDimensionError(
            f"cell {cell} (k={k}): nullspace dimension {null.shape[1]} != "
            f"expected {n_expected}; constraint singular values {sv}"
        )
    residual = float(np.linalg.norm(C @ null, ord=2))
    return LambdaBasis(cell, k, subtri, rt_bases, null, n_expected, residual)


class LocalCellOperators:
    """All discrete operators of one cell, built once and reused.

    Local DOF order: interior P_k coefficients first, then the k+1 edge
    coefficients of each cell side in cycle order.

    The data methods take optional ``offsets`` of shape (n, 2): they then act
    on n copies of the cell translated by those offsets, in one batch, and
    return one row per copy.  Every matrix is the same for all the copies.
    """

    def __init__(self, mesh: PolyMesh, cell: int, k: int):
        _check_degree(k)
        self.mesh = mesh
        self.cell = cell
        self.k = k
        self.subtri = triangulate_cell(mesh, cell)
        center = mesh.cell_centroid(cell)
        scale = mesh.cell_diameter(cell)
        self.diameter = scale
        self.scalar_basis = CellScalarBasis(cell, k, center, scale)
        self.rt_bases = tuple(
            TriangleRTBasis(mesh, self.subtri, i, k)
            for i in range(self.subtri.n_triangles)
        )
        self.lambda_basis = build_lambda_basis(
            mesh, cell, k, subtri=self.subtri, rt_bases=self.rt_bases
        )

        nt = self.subtri.n_triangles
        nf = self.rt_bases[0].n_fields
        n0 = self.scalar_basis.dim
        nl = self.lambda_basis.n_lambda
        V = self.lambda_basis.coeffs.reshape(nt, nf, nl)
        self._blocks = V

        deg = assembly_degree(k)
        self._tri_coords = mesh.vertices[np.array(self.subtri.triangles)]

        mass_lambda = np.zeros((nl, nl))
        mass_scalar = np.zeros((n0, n0))
        grad_mass = np.zeros((n0, n0))
        b_int = np.zeros((nl, n0))
        for i, coords in enumerate(self._tri_coords):
            rt = self.rt_bases[i]
            pts, w = triangle_points(coords, deg)
            F = rt.eval(pts)
            mono = self.scalar_basis.eval(pts)
            gm = self.scalar_basis.grad(pts)
            m_tri = np.einsum("q,qid,qjd->ij", w, F, F)
            s_tri = np.einsum("q,qi,qj->ij", w, mono, mono)
            Vi = V[i]
            mass_lambda += Vi.T @ m_tri @ Vi
            mass_scalar += s_tri
            grad_mass += np.einsum("q,qid,qjd->ij", w, gm, gm)
            T = monomial_change_of_frame(
                k, rt.frame.center, rt.frame.scale, center, scale
            )
            b_int -= Vi.T @ (s_tri @ (T @ rt.div_coeff_matrix())).T
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
        self._side_trace = []
        cols = [b_int]
        for s in range(n_sides):
            eb = EdgeScalarBasis(mesh, mesh.cell_edges[cell][s], k)
            a = mesh.vertices[cyc[s]]
            b = mesh.vertices[cyc[(s + 1) % n_sides]]
            pts, w = segment_points(a, b, deg)
            n_out = mesh.side_normal(cell, s)
            tri_i, _ = self.subtri.boundary_edge_map[s]
            trace = self.rt_bases[tri_i].normal_trace(pts, n_out)
            phi_b = eb.eval(pts)
            cols.append(V[tri_i].T @ np.einsum("q,qa,qm->am", w, trace, phi_b))
            phi_0 = self.scalar_basis.eval(pts)
            self._side_trace.append((w, phi_0, phi_b))
        self.moments = np.hstack(cols)

        self._cho_lambda = cho_factor(mass_lambda)
        self._cho_scalar = cho_factor(mass_scalar)
        self.weak_gradient = cho_solve(self._cho_lambda, self.moments)
        K = self.weak_gradient.T @ self.moments
        self.stiffness = 0.5 * (K + K.T)

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
        mom = self.interior_moments(func, _as_offsets(offsets), degree)
        coeffs = cho_solve(self._cho_scalar, mom.T).T
        return coeffs[0] if offsets is None else coeffs

    def project_lambda_field(self, func, degree: int | None = None,
                             offsets: np.ndarray | None = None) -> np.ndarray:
        """L2 projection of a vector field onto the weak-gradient space.

        func(x, y) must return shape (npts, 2).
        """
        pts, w = self.data_points(degree)
        nt = len(self.rt_bases)
        vals = self._sample(func, pts, _as_offsets(offsets))
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
        return self.scalar_basis.eval(pts) @ coeffs

    def lambda_values(self, coeffs: np.ndarray, pts: np.ndarray, tri_index: int
                      ) -> np.ndarray:
        """Point values of a weak-gradient-space field on one sub-triangle."""
        F = self.rt_bases[tri_index].eval(pts)
        rt = self._blocks[tri_index] @ coeffs
        return np.einsum("qad,a->qd", F, rt)


def _as_offsets(offsets: np.ndarray | None) -> np.ndarray:
    return np.zeros((1, 2)) if offsets is None else np.asarray(offsets, dtype=float)


class CellOperators:
    """The operators of one cell: those of its shape class, moved by offset.

    Matrices and norms are the class's own; every function of position is
    evaluated at the class's points shifted by the offset.
    """

    __slots__ = ("ops", "cell", "offset")
    _SHARED = frozenset({
        "k", "diameter", "n_local", "n_lambda", "stiffness", "weak_gradient",
        "moments", "mass_lambda", "mass_scalar", "grad_mass",
        "apply_weak_gradient", "lambda_norm_sq", "scalar_norm_sq",
        "grad_seminorm_sq", "side_mismatch_sq",
    })

    def __init__(self, ops: LocalCellOperators, cell: int, offset: np.ndarray):
        self.ops = ops
        self.cell = cell
        self.offset = offset

    def __getattr__(self, name):
        if name in CellOperators._SHARED:
            return getattr(self.ops, name)
        raise AttributeError(f"'CellOperators' has no attribute '{name}'")

    @property
    def subtri(self) -> SubTriangulation:
        return triangulate_cell(self.ops.mesh, self.cell)

    def project_interior(self, func, degree: int | None = None) -> np.ndarray:
        return self.ops.project_interior(func, degree, self.offset[None])[0]

    def project_lambda_field(self, func, degree: int | None = None) -> np.ndarray:
        return self.ops.project_lambda_field(func, degree, self.offset[None])[0]

    def interior_values(self, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.ops.interior_values(coeffs, np.asarray(pts) - self.offset)

    def lambda_values(self, coeffs: np.ndarray, pts: np.ndarray, tri_index: int
                      ) -> np.ndarray:
        return self.ops.lambda_values(coeffs, np.asarray(pts) - self.offset, tri_index)


class OperatorCache:
    """Local operators of a mesh, built once per shape class.

    Two cells share a class when one is a translate of the other: the same
    vertex count, the same vertex offsets from cycle vertex 0 and the same
    diameter (both to KEY_DECIMALS), and the same side orientations (whether
    each side runs canonical low -> high, which fixes the sign of the odd
    edge basis functions).  Every operator matrix depends only on these, so
    one LocalCellOperators, built lazily from the class's first cell, serves
    all its members.
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

    def _class_ops(self, i: int) -> LocalCellOperators:
        ops = self._ops[i]
        if ops is None:
            ops = LocalCellOperators(self.mesh, int(self._members[i][0]), self.k)
            self._ops[i] = ops
        return ops

    def get(self, cell: int) -> CellOperators:
        return CellOperators(self._class_ops(self._class_of[cell]), cell, self._offset[cell])

    def batches(self):
        """Yield (class operators, member cells, their offsets) per shape
        class, at most BATCH_CELLS cells at a time so that data sampled over
        a batch stays small."""
        for i, members in enumerate(self._members):
            ops = self._class_ops(i)
            for start in range(0, members.size, BATCH_CELLS):
                cells = members[start : start + BATCH_CELLS]
                yield ops, cells, self._offset[cells]


def project_qb(mesh: PolyMesh, edge: int, k: int, func, degree: int | None = None
               ) -> np.ndarray:
    """L2 projection onto the P_k edge basis of one edge."""
    _check_degree(k)
    if degree is None:
        degree = data_degree(k)
    eb = EdgeScalarBasis(mesh, edge, k)
    va, vb = mesh.edges[edge]
    pts, w = segment_points(mesh.vertices[va], mesh.vertices[vb], max(degree, 2 * k + 2))
    phi = eb.eval(pts)
    mass = phi.T @ (w[:, None] * phi)
    vals = np.asarray(func(pts[:, 0], pts[:, 1]), dtype=float)
    return np.linalg.solve(mass, (w * vals) @ phi)
