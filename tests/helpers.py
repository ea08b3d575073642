"""Geometry and local-space evaluations that only the tests use, the slow
reference build of the local operators, and the loop oracles of the array
mesh topology.

The library works on stacks of cells; these answer per-cell questions
(areas, point values of local fields, the weak-gradient mass matrix) for
the assertions.
"""

from dataclasses import dataclass
from math import comb, sqrt
from types import SimpleNamespace

import numpy as np

from wg_sfem.localspaces import (
    KEY_DECIMALS,
    LocalCellOperators,
    OperatorStack,
    _inverse_lower,
    build_dof_map,
    dim_pk,
    edge_basis,
    expected_lambda_dim,
    monomial_exponents,
    reference_tables,
)
from wg_sfem.polymesh import (
    MeshFormatError,
    build_mesh,
    fan_triangles,
    generate_square_grid,
    polygon_area,
    polygon_diameter,
)
from wg_sfem.quadrature import data_degree, segment_rule, symmetric_rule, triangle_rule


@dataclass(frozen=True)
class SubTriangulation:
    """Fan triangulation of one cell from its first cycle vertex.

    triangles: (n_v - 2) vertex triples (anchor, v_i, v_{i+1}).
    internal_edges: vertex pairs of the n_v - 3 fan chords.
    internal_adjacency: (left tri, right tri) sharing each chord.
    boundary_edge_map: per parent polygon side, the (triangle, local side)
        that coincides with it; local sides are 0: anchor->v_i,
        1: v_i->v_{i+1}, 2: v_{i+1}->anchor.
    """

    cell: int
    triangles: tuple
    internal_edges: tuple
    internal_adjacency: tuple
    boundary_edge_map: tuple

    @property
    def n_triangles(self):
        return len(self.triangles)


def triangulate_cell(mesh, cell):
    """Fan-triangulate a cell from its first cycle vertex (no new vertices)."""
    cyc = mesh.cell_cycles([cell])[0].tolist()
    n = len(cyc)
    side_map = [(0, 0)] + [(s - 1, 1) for s in range(1, n - 1)] + [(n - 3, 2)]
    return SubTriangulation(
        cell=cell,
        triangles=tuple(map(tuple, fan_triangles(mesh, [cell])[0].tolist())),
        internal_edges=tuple((cyc[0], cyc[i]) for i in range(2, n - 1)),
        internal_adjacency=tuple((i - 2, i - 1) for i in range(2, n - 1)),
        boundary_edge_map=tuple(side_map),
    )


def triangle_points(tri: np.ndarray, degree: int,
                    rule_of=triangle_rule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points/weights of rule_of(degree) on a triangle;
    weights sum to its area.

    tri may also stack triangles, shape (..., 3, 2); points and weights then
    carry the same leading axes.
    """
    tri = np.asarray(tri, dtype=float)
    rule = rule_of(degree)
    e1 = tri[..., 1, :] - tri[..., 0, :]
    e2 = tri[..., 2, :] - tri[..., 0, :]
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    # Built coordinate-major, (..., 2, npts), and returned as a view: numpy
    # loops over an innermost axis of length 2 several times slower.
    pts = (tri[..., 0, :, None] + e1[..., None] * rule.points[:, 0]
           + e2[..., None] * rule.points[:, 1])
    return pts.swapaxes(-1, -2), rule.weights * np.abs(det)[..., None]


def segment_points(a, b, degree):
    """Physical quadrature points/weights on segment [a, b]; weights sum to |b - a|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rule = segment_rule(degree)
    pts = a + np.outer(rule.points, b - a)
    return pts, rule.weights * float(np.linalg.norm(b - a))


def polygon_centroid(coords):
    """Shoelace centroids of polygons given as vertex cycles, shape (..., n,
    2) -> (..., 2), on offsets from each cycle's first vertex: the oracle
    for the library's centroid, which sums fan triangles instead."""
    rel = coords - coords[..., :1, :]
    x, y = rel[..., 0], rel[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    six_area = 3.0 * np.sum(cross, axis=-1)
    return coords[..., 0, :] + np.stack([np.sum((x + xn) * cross, axis=-1) / six_area,
                                         np.sum((y + yn) * cross, axis=-1) / six_area], axis=-1)


def jittered_square_mesh(level=4, seed=5):
    """A square-grid level with every vertex moved by up to 0.2 h, so that
    no two cells are translates (64 classes at level 4)."""
    base = generate_square_grid(level)
    rng = np.random.default_rng(seed)
    h = 1.0 / 2 ** (level - 1)
    return build_mesh(base.vertices + rng.uniform(-0.2 * h, 0.2 * h, base.vertices.shape),
                      base.cells)


def cell_vertices(mesh, c):
    return mesh.vertices[mesh.cycles[mesh.offsets[c] : mesh.offsets[c + 1]]]


def cell_area(mesh, c):
    return polygon_area(cell_vertices(mesh, c))


def cell_centroid(mesh, c):
    return polygon_centroid(cell_vertices(mesh, c))


def loop_diameter(coords) -> float:
    """Largest vertex-to-vertex distance of one polygon, shape (n, 2), by a
    double loop over its vertices: the oracle of polygon_diameter, with the
    same squares and sums, so equal to it bit for bit."""
    pts = np.asarray(coords, dtype=float).tolist()
    return sqrt(max((px - qx) * (px - qx) + (py - qy) * (py - qy)
                    for px, py in pts for qx, qy in pts))


def cell_diameter(mesh, c):
    return float(polygon_diameter(cell_vertices(mesh, c)))


def edge_midpoint(mesh, e):
    a, b = mesh.vertices[mesh.edges[e]]
    return 0.5 * (a + b)


def side_normal(mesh, c, side):
    """Outward unit normal of cell c on its given side."""
    cyc = mesh.cell_cycles([c])[0]
    t = mesh.vertices[cyc[(side + 1) % cyc.size]] - mesh.vertices[cyc[side]]
    n = np.array([t[1], -t[0]])
    return n / np.linalg.norm(n)


def edge_normal(mesh, e):
    """Unit normal pointing from the lower- to the higher-index adjacent
    cell; outward on boundary edges."""
    c = int(mesh.edge_cells[e, 0])
    return side_normal(mesh, c, mesh.cell_sides([c])[0].tolist().index(e))


def hex_grid_cell_count(level):
    """Closed-form cell count of the brick pattern: rows alternate between
    2^level bricks and (2 quads + 2^level - 1 bricks)."""
    m = 2**level
    return (m // 2) * (2 * m + 1)


def consistency_residual(case, n=20, seed=1234, step=1e-5):
    """Max |f + Laplace(u)| over random interior points, by central
    differences, in extended precision: double-precision cancellation noise
    at step 1e-5 (~1e-5) would otherwise swamp the truncation error."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 0.8, size=(n, 2)).astype(np.longdouble)
    x, y = pts[:, 0], pts[:, 1]
    h = np.longdouble(step)
    lap = (case.u(x + h, y) + case.u(x - h, y) + case.u(x, y + h) + case.u(x, y - h)
           - 4.0 * case.u(x, y)) / h**2
    return float(np.max(np.abs(case.f(x, y) + lap)))


def assembly_degree(k):
    """Quadrature degree of the oracles' integrals of products of two local
    fields: exact for the RT_k mass (2k + 2) and the side traces (2k)."""
    return 2 * k + 4


def fresh_cell(mesh, c, k):
    """The operators of cell c built alone: row 0 of a stack of one."""
    return LocalCellOperators(OperatorStack(mesh, [c], k), 0, c, np.zeros(2))


def interior_values(ops, coeffs, pts):
    """Point values of an interior polynomial on ops.cell; coeffs
    (dim P_k, ...) give values (npts, ...)."""
    stack, s = ops.stack, ops.index
    center = stack.tri_coords[s, 0, 0] + stack._rel_center[s]
    basis = CellScalarBasis(stack.k, center, stack.diameter[s])
    return basis.eval(np.asarray(pts) - ops.offset) @ coeffs


def side_trace_h1_norm(mesh, k, vec):
    """The discrete H1 semi-norm of full DOF vectors (n_dofs,) or
    (n_dofs, m), cell by cell as a sum of squares: |grad v_0|^2 by
    quadrature on each fan triangle, and (v_0 - v_b)^2 / h_T by quadrature
    along each side; the slow reference of discrete_h1_norm."""
    cols = vec.reshape(vec.shape[0], -1)
    dofmap = build_dof_map(mesh, k)
    n0, nb, deg = dim_pk(k), k + 1, assembly_degree(k)
    acc = 0.0
    for c in range(mesh.n_cells):
        local = cols[dofmap.cell_dof_array(mesh, [c])[0]]
        h = cell_diameter(mesh, c)
        basis = CellScalarBasis(k, cell_centroid(mesh, c), h)
        for tri in triangulate_cell(mesh, c).triangles:
            pts, w = triangle_points(mesh.vertices[list(tri)], deg)
            grad = np.einsum("qid,im->qmd", basis.grad(pts), local[:n0])
            acc = acc + np.einsum("q,qmd->m", w, grad * grad)
        cyc = mesh.cells[c]
        for s, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
            pts, w = segment_points(mesh.vertices[a], mesh.vertices[b], deg)
            phib = edge_basis(k, deg) * (1.0 if a < b else (-1.0) ** np.arange(nb))
            diff = basis.eval(pts) @ local[:n0] - phib @ local[n0 + s * nb : n0 + (s + 1) * nb]
            acc = acc + w @ (diff * diff) / h
    return np.sqrt(acc.reshape(vec.shape[1:]))[()]


def _reference_points(lam, row, tri, pts):
    """Reference coordinates of physical points on fan triangle tri of a
    row of a LambdaBasis or an OperatorStack, and the triangle's Jacobian
    and its determinant."""
    B = lam.jacobian[row, tri]
    xi = np.linalg.solve(B, (np.asarray(pts, dtype=float) - lam.tri_coords[row, tri, 0]).T).T
    return xi, B, np.linalg.det(B)


def piola_fields(lam, row, tri, pts):
    """The fields of fan triangle tri of a row of a LambdaBasis or an
    OperatorStack (anything with k, jacobian and tri_coords) at physical
    points (npts, 2), shape (npts, n_fields, 2): the Piola images
    B phi(xi) / det B of the reference RT basis, whose raw fields are
    evaluated by RTFrame in the reference frame centered at (1/3, 1/3)."""
    xi, B, det = _reference_points(lam, row, tri, pts)
    raw = RTFrame(lam.k, np.full(2, 1 / 3), 1.0).eval(xi)
    phi = np.einsum("qfd,fg->qgd", raw, reference_tables(lam.k).rt_coeffs.astype(float))
    return np.einsum("de,qfe->qfd", B, phi) / det


def piola_divergence(lam, row, tri, pts):
    """Divergences of the fields of piola_fields, shape (npts, n_fields):
    (div phi)(xi) / det B, from the exact divergences of the raw fields."""
    xi, _, det = _reference_points(lam, row, tri, pts)
    frame = RTFrame(lam.k, np.full(2, 1 / 3), 1.0)
    div = frame.div_coeff_matrix() @ reference_tables(lam.k).rt_coeffs.astype(float)
    return CellScalarBasis(lam.k, frame.center, 1.0).eval(xi) @ div / det


def lambda_values(ops, coeffs, pts, tri_index):
    """Point values of a weak-gradient-space field on one fan triangle of
    ops.cell; coeffs (n_lambda, ...) give values (npts, ..., 2)."""
    s = ops.index
    fields = piola_fields(ops.stack, s, tri_index, np.asarray(pts) - ops.offset)
    rt = ops.stack.frame_coeffs[s, tri_index] @ coeffs
    return np.einsum("qfd,f...->q...d", fields, rt)


def lambda_mass(stack, rows=None):
    """Weak-gradient-space mass matrices of rows of an OperatorStack (all by
    default), shape (n, n_lambda, n_lambda), by quadrature of the basis
    fields built from the Piola fields, their orthonormalization and the
    nullspace coefficients."""
    rows = np.arange(len(stack.cells)) if rows is None else np.atleast_1d(rows)
    out = []
    for s in rows:
        mass = 0.0
        for t, coords in enumerate(stack.tri_coords[s]):
            pts, w = triangle_points(coords, assembly_degree(stack.k))
            F = np.einsum("qfd,fl->qld", piola_fields(stack, s, t, pts), stack.frame_coeffs[s, t])
            mass = mass + np.einsum("q,qid,qjd->ij", w, F, F)
        out.append(mass)
    return np.array(out)


def cell_lambda_mass(ops):
    """The weak-gradient-space mass matrix of one LocalCellOperators."""
    return lambda_mass(ops.stack, ops.index)[0]


# ------------------------------------------------------- isotropic frames
# The local operators as they were built before the Piola frames: each fan
# triangle's RT fields are monomials in its own centered frame, scaled by
# its diameter, orthonormalized by CholeskyQR2 on quadrature samples, and
# every integral is a quadrature of monomials evaluated point by point.
# The slow reference of OperatorStack.


def _frame_powers(pts, center, scale, k):
    """Powers 0..k of the centered, scaled coordinates xi and eta of points
    (..., npts, 2) in frames with centers (..., 2) and scales (...), each of
    shape (k + 1, ..., npts)."""
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


def _monomials(px, py, ax, ay, coeff=None):
    """coeff * xi^ax * eta^ay from _frame_powers, shape (..., npts, len(ax))."""
    mono = px[ax] * py[ay] if coeff is None else coeff * px[ax] * py[ay]
    return np.moveaxis(mono, 0, -1)


class CellScalarBasis:
    """Centered, scaled monomial basis of P_k in one frame or a stack of them.

    center (..., 2) and scale (...) give one frame per leading index; points
    come as (..., npts, 2) with the same leading axes.
    """

    def __init__(self, k, center, scale):
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        exps = monomial_exponents(k)
        self._ax = np.array([a for a, _ in exps])
        self._ay = np.array([b for _, b in exps])

    def eval(self, pts):
        """Basis values, shape (..., npts, dim)."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k)
        return _monomials(px, py, self._ax, self._ay)

    def grad(self, pts):
        """Physical gradients, shape (..., npts, dim, 2)."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k)
        ax, ay = self._ax, self._ay
        lead = (-1,) + (1,) * (px.ndim - 1)
        scale = self.scale[..., None, None]
        gx = _monomials(px, py, np.maximum(ax - 1, 0), ay, ax.reshape(lead)) / scale
        gy = _monomials(px, py, ax, np.maximum(ay - 1, 0), ay.reshape(lead)) / scale
        return np.stack([gx, gy], axis=-1)


class RTFrame:
    """Vector monomial fields spanning RT_k in one centered, scaled frame or a
    stack of them (center and scale as in CellScalarBasis).

    Fields: (m, 0) and (0, m) for all P_k monomials m, then (xi, eta) * m_h
    for the k+1 homogeneous degree-k monomials m_h.  Count: (k+1)(k+3).
    """

    def __init__(self, k, center, scale):
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

    def eval(self, pts):
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

    def moments(self, pts, g):
        """Moments sum_q g[..., i, q] . field_j(pts[..., q]) of n_g weighted
        vector samples per frame: pts (..., npts, 2), g (..., n_g, npts, 2)
        -> (..., n_g, n_fields); leading axes broadcast."""
        px, py = _frame_powers(pts, self.center, self.scale, self.k + 1)
        mono = _monomials(px, py, self._ax, self._ay)
        gx, gy = g[..., 0], g[..., 1]
        rows = np.stack([gx, gy, gx * px[1][..., None, :] + gy * py[1][..., None, :]], axis=-2)
        r = rows @ mono[..., None, :, :]
        n0, nh = self.n_scalar, len(self.homo)
        return np.concatenate([r[..., 0, :], r[..., 1, :], r[..., 2, n0 - nh :]], axis=-1)

    def div_coeff_matrix(self):
        """Exact divergence expansion over each frame's scalar monomials,
        shape (..., dim P_k, n_fields); entries carry the 1/scale factor."""
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


def isotropic_change_of_frame(k, source_center, source_scale, target_center, target_scale):
    """Exact coefficient map T (..., dim, dim) between centered-scaled
    monomial bases of P_k, m_src_j = sum_i T[i, j] m_tgt_i, from the
    binomial expansion of xi_src = alpha * xi_tgt + beta."""
    exps = monomial_exponents(k)
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
    return (comb_a * alpha**p * bx ** np.maximum(a - p, 0)
            * comb_b * alpha**q * by ** np.maximum(b - q, 0))


def _weighted_gram(w, f, g):
    """sum_q w_q f[q, i] . g[q, j] for stacks: w (..., npts), f (..., npts,
    m, d), g (..., npts, n, d) -> (..., m, n)."""
    lead = w.shape[:-1]
    fw = (w[..., None, None] * f).swapaxes(-3, -2).reshape(*lead, f.shape[-2], -1)
    gt = g.swapaxes(-3, -2).reshape(*lead, g.shape[-2], -1)
    return fw @ gt.swapaxes(-1, -2)


def isotropic_stack(mesh, cells, k):
    """The operators of cells with one vertex count, built with isotropic
    frames: a namespace with n_lambda, stiffness, mass_scalar, h1 (the
    matrix of the discrete H1 form, D^T D for D = OperatorStack.h1),
    weak_gradient and schur (the condensed side block) per cell, and
    project_interior(func) and project_lambda_field(func), which act on
    every cell at once."""
    cells = np.atleast_1d(np.asarray(cells))
    coords = mesh.vertices[fan_triangles(mesh, cells)]
    n_cells, nt = coords.shape[:2]
    frames = RTFrame(k, coords.mean(axis=-2), polygon_diameter(coords))
    nf = frames.n_fields

    pts, w = triangle_points(coords, 2 * k + 2)
    A = (np.sqrt(w)[..., None, None] * frames.eval(pts)).swapaxes(-1, -2)
    A = A.reshape(n_cells, nt, -1, nf)
    orth = _inverse_lower(np.linalg.cholesky(A.swapaxes(-1, -2) @ A)).swapaxes(-1, -2)
    Q = A @ orth
    orth = orth @ _inverse_lower(np.linalg.cholesky(Q.swapaxes(-1, -2) @ Q)).swapaxes(-1, -2)

    X = mesh.vertices[mesh.cell_cycles(cells)]
    center, diameter = polygon_centroid(X), polygon_diameter(X)
    div = isotropic_change_of_frame(
        k, frames.center, frames.scale, center[:, None], diameter[:, None]
    ) @ (frames.div_coeff_matrix() @ orth)
    if nt == 1:
        null = np.broadcast_to(np.eye(nf), (n_cells, nf, nf))
    else:
        degree = 2 * k + 2
        rule = segment_rule(degree)
        w_phi = rule.weights[:, None] * edge_basis(k, degree)
        a, b = X[:, :1], X[:, 2:-1]
        t = b - a
        normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
        chord_pts = a[:, :, None] + rule.points[:, None] * t[:, :, None]

        def chord_moments(tri):
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
        sv = np.linalg.svd(C, compute_uv=False)
        assert np.all(nt * nf - np.sum(sv > 1e-10 * sv[:, :1], axis=1)
                      == expected_lambda_dim(nt + 2, k))
        null = np.linalg.qr(C.swapaxes(-1, -2), mode="complete")[0][:, :, C.shape[1]:]
    nl = null.shape[-1]
    V = null.reshape(n_cells, nt, nf, nl)
    frame_coeffs = orth @ V

    deg = assembly_degree(k)
    pts, w = triangle_points(coords, deg)
    scalar = CellScalarBasis(k, center[:, None], diameter[:, None])
    mono = scalar.eval(pts)[..., None]
    gm = scalar.grad(pts)
    s_tri = _weighted_gram(w, mono, mono)
    mass_scalar = s_tri.sum(axis=1)
    b_int = -(V.swapaxes(-1, -2) @ (s_tri @ div).swapaxes(-1, -2)).sum(axis=1)

    cyc = mesh.cell_cycles(cells)
    n_sides = cyc.shape[1]
    nxt = (np.arange(n_sides) + 1) % n_sides
    a, b = mesh.vertices[cyc], mesh.vertices[cyc[:, nxt]]
    t = b - a
    length = np.linalg.norm(t, axis=-1)
    normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / length[..., None]
    rule = segment_rule(deg)
    side_pts = a[:, :, None] + rule.points[:, None] * t[:, :, None]
    sign = np.where((cyc < cyc[:, nxt])[..., None], 1.0, (-1.0) ** np.arange(k + 1))
    phib = edge_basis(k, deg) * sign[:, :, None, :]
    tri = np.clip(np.arange(n_sides) - 1, 0, nt - 1)
    w_phi = ((rule.weights * length[..., None])[..., None] * phib).swapaxes(-1, -2)
    side = RTFrame(k, frames.center[:, tri], frames.scale[:, tri])
    cols = side.moments(side_pts, w_phi[..., None] * normal[:, :, None, None, :]) @ (
        frame_coeffs[:, tri])
    moments = np.concatenate([b_int, cols.transpose(0, 3, 1, 2).reshape(n_cells, nl, -1)],
                             axis=-1)
    stiffness = moments.swapaxes(-1, -2) @ moments
    n0 = mass_scalar.shape[-1]
    schur = stiffness[:, n0:, n0:] - stiffness[:, :n0, n0:].swapaxes(-1, -2) @ np.linalg.solve(
        stiffness[:, :n0, :n0], stiffness[:, :n0, n0:])
    h1 = np.zeros_like(stiffness)
    h1[:, :n0, :n0] = _weighted_gram(w, gm, gm).sum(axis=1)
    phi0 = scalar.eval(side_pts)
    w_side = rule.weights * (length / diameter[:, None])[..., None]
    for s in range(n_sides):
        trace = np.concatenate([phi0[:, s]] + [-phib[:, s] * (r == s) for r in range(n_sides)],
                               axis=-1)
        h1 += (w_side[:, s, :, None] * trace).swapaxes(-1, -2) @ trace

    def samples(func):
        # The program's data rule: on cells as large as the unit square, two
        # exact rules of this degree differ by about 4e-10 on sin data.
        pts, w = triangle_points(coords, data_degree(k), symmetric_rule)
        vals = np.asarray(func(pts[..., 0].ravel(), pts[..., 1].ravel()), dtype=float)
        vals = vals.reshape(pts.shape[:3] + vals.shape[1:])
        return pts, vals * w.reshape(w.shape + (1,) * (vals.ndim - 3))

    def project_interior(func):
        pts, vals = samples(func)
        mom = np.einsum("stq,stqi->si", vals, scalar.eval(pts))
        return np.linalg.solve(mass_scalar, mom[..., None])[..., 0]

    def project_lambda_field(func):
        pts, vals = samples(func)
        raw = frames.moments(pts, vals[:, :, None])[:, :, 0]
        return np.einsum("stf,stfl->sl", raw, frame_coeffs)

    return SimpleNamespace(
        n_lambda=nl, stiffness=stiffness, mass_scalar=mass_scalar, h1=h1,
        weak_gradient=moments, schur=schur,
        project_interior=project_interior, project_lambda_field=project_lambda_field)


# ------------------------------------------------------------------ oracles
# The cell-by-cell loops that built meshes and shape classes before the
# array topology; the array code must reproduce them bit for bit.


def loop_build_mesh(vertices, cells):
    """Validate and derive the topology of a mesh cell by cell, side by
    side: a dict of the PolyMesh fields vertices, cells, offsets, edges,
    sides, edge_cells and boundary_edges.  Raises MeshFormatError as build_mesh
    does."""
    try:
        verts = np.array(vertices, dtype=float)
    except (TypeError, ValueError):
        raise MeshFormatError("vertices must be an (n, 2) array of numbers") from None
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshFormatError("vertices must be an (n, 2) array")
    for i, (row, (x, y)) in enumerate(zip(vertices, verts.tolist())):
        for v in row:
            if isinstance(v, (bool, np.bool_, str, np.str_)):
                raise MeshFormatError(
                    f"vertex {i} has a non-numeric coordinate {np.asarray(v).tolist()!r}")
        if not (np.isfinite(x) and np.isfinite(y)):
            raise MeshFormatError(f"vertex {i} has a non-finite coordinate {(x, y)}")
    nv = verts.shape[0]
    if not hasattr(cells, "__len__") or getattr(cells, "ndim", 1) == 0:
        raise MeshFormatError("cells must be a sequence of vertex cycles")
    if len(cells) == 0:
        raise MeshFormatError("mesh has no cells")

    cell_tuples = []
    for ci, cyc in enumerate(cells):
        if not hasattr(cyc, "__len__"):
            raise MeshFormatError(f"cell {ci} is not a sequence of vertex indices")
        for v in cyc:
            if not ((isinstance(v, (int, np.integer)) and not isinstance(v, bool))
                    or (isinstance(v, (float, np.floating)) and float(v).is_integer())):
                raise MeshFormatError(
                    f"cell {ci} has a non-integer vertex index {np.asarray(v).tolist()!r}")
        if len(cyc) < 3:
            raise MeshFormatError(f"cell {ci} has fewer than 3 vertices")
        for v in cyc:
            if not 0 <= v < nv:
                raise MeshFormatError(
                    f"cell {ci} references vertex {np.asarray(v).tolist()} outside 0..{nv - 1}"
                )
        cyc = tuple(int(v) for v in cyc)
        if len(set(cyc)) != len(cyc):
            raise MeshFormatError(f"cell {ci} repeats a vertex")
        cell_tuples.append(cyc)
    flipped = []
    for n_v in {len(cyc) for cyc in cell_tuples}:
        ids = np.array([ci for ci, cyc in enumerate(cell_tuples) if len(cyc) == n_v])
        area = polygon_area(verts[np.array([cell_tuples[ci] for ci in ids])])
        flipped.extend(ids[area <= 0.0].tolist())
    if flipped:
        raise MeshFormatError(
            f"cell {min(flipped)} has clockwise or degenerate orientation; "
            "cells must be counterclockwise"
        )

    edge_index = {}
    edge_list = []
    adjacency = []
    all_sides = []
    for ci, cyc in enumerate(cell_tuples):
        sides = []
        for s in range(len(cyc)):
            a, b = cyc[s], cyc[(s + 1) % len(cyc)]
            key = (a, b) if a < b else (b, a)
            e = edge_index.get(key)
            if e is None:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append(key)
                adjacency.append([ci])
            else:
                if len(adjacency[e]) == 2:
                    raise MeshFormatError(
                        f"edge {key} shared by more than two cells (cell {ci})"
                    )
                adjacency[e].append(ci)
            sides.append(e)
        all_sides += sides
    # A second scan: the two cells of an interior edge run it in opposite
    # directions unless they fold over it.
    first_run = {}
    for ci, cyc in enumerate(cell_tuples):
        for s in range(len(cyc)):
            a, b = cyc[s], cyc[(s + 1) % len(cyc)]
            key = (a, b) if a < b else (b, a)
            if key in first_run and first_run[key][1] == (a < b):
                raise MeshFormatError(f"cells {first_run[key][0]} and {ci} run edge {key} "
                                      "the same way, so they fold over it")
            first_run.setdefault(key, (ci, a < b))

    ne = len(edge_list)
    edge_cells = np.full((ne, 2), -1, dtype=int)
    boundary = np.zeros(ne, dtype=bool)
    for e, adj in enumerate(adjacency):
        adj_sorted = sorted(adj)
        edge_cells[e, : len(adj_sorted)] = adj_sorted
        boundary[e] = len(adj_sorted) == 1
    return {
        "vertices": verts,
        "cells": tuple(cell_tuples),
        "edges": np.array(edge_list, dtype=int),
        "offsets": np.cumsum([0] + [len(cyc) for cyc in cell_tuples]),
        "sides": np.array(all_sides, dtype=int),
        "edge_cells": edge_cells,
        "boundary_edges": boundary,
    }


def loop_generator_input(family, level):
    """The vertex list and cell tuples the loop generators passed to
    build_mesh for a family and level."""
    if family in ("square", "quad"):
        m = 2 ** (level - 1)
        h = 1.0 / m
        verts = []
        for j in range(m + 1):
            for i in range(m + 1):
                y = j * h
                if family == "quad" and j % 2 == 1 and 0 < j < m:
                    y += 0.2 * h if i % 2 == 0 else -0.2 * h
                verts.append((i * h, y))

        def vid(i, j):
            return j * (m + 1) + i

        cells = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
                 for j in range(m) for i in range(m)]
        return verts, cells
    m = 2**level
    w_cols = 2 * m
    h = 1.0 / m
    wx = 1.0 / w_cols
    verts = []
    for j in range(m + 1):
        for i in range(w_cols + 1):
            y = j * h
            if 0 < j < m and 0 < i < w_cols:
                y += 0.16 * h if i % 2 == j % 2 else -0.1 * h
            verts.append((i * wx, y))

    def vid(i, j):
        return j * (w_cols + 1) + i

    cells = []
    for j in range(m):
        offset = j % 2
        if offset == 1:
            cells.append((vid(0, j), vid(1, j), vid(1, j + 1), vid(0, j + 1)))
        for a in range(offset, w_cols - offset, 2):
            cells.append((vid(a + 1, j), vid(a + 2, j), vid(a + 2, j + 1),
                          vid(a + 1, j + 1), vid(a, j + 1), vid(a, j)))
        if offset == 1:
            cells.append((vid(w_cols - 1, j), vid(w_cols, j), vid(w_cols, j + 1),
                          vid(w_cols - 1, j + 1)))
    return verts, cells


def loop_shape_classes(mesh):
    """shape_classes(mesh), keyed cell by cell in a dict:
    classes numbered by first appearance, vertex counts ascending."""
    class_of = np.empty(mesh.n_cells, dtype=int)
    keys = {}
    for n_v in sorted({len(cyc) for cyc in mesh.cells}):
        cells = [c for c, cyc in enumerate(mesh.cells) if len(cyc) == n_v]
        cyc = np.array([mesh.cells[c] for c in cells], dtype=int)
        coords = mesh.vertices[cyc]
        diam = np.array([loop_diameter(xy) for xy in coords])
        rel = (coords - coords[:, :1]).reshape(len(cells), -1) / diam[:, None]
        shape = np.round(np.column_stack([rel, np.log(diam)]), KEY_DECIMALS) + 0.0
        forward = cyc < np.roll(cyc, -1, axis=1)
        for c, s, f in zip(cells, shape.tolist(), forward.tolist()):
            class_of[c] = keys.setdefault((tuple(s), tuple(f)), len(keys))
    return class_of


def mixed_input():
    """Vertices and cells of the level-3 square grid with every third square
    split into two triangles along alternating diagonals."""
    base = generate_square_grid(3)
    cells = []
    for c, (a, b, cc, d) in enumerate(base.cells):
        if c % 3:
            cells.append((a, b, cc, d))
        elif c % 2:
            cells += [(a, b, cc), (a, cc, d)]
        else:
            cells += [(a, b, d), (b, cc, d)]
    return base.vertices, cells


def renumbered(vertices, cells, rng):
    """The same mesh with vertices and cells in random order and each cycle
    started at a random vertex."""
    perm = rng.permutation(len(vertices))
    cells = [tuple(np.roll([int(perm[v]) for v in cyc], rng.integers(len(cyc))).tolist())
             for cyc in (cells[c] for c in rng.permutation(len(cells)))]
    return np.asarray(vertices)[np.argsort(perm)], cells
