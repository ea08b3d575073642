"""Geometry and local-space evaluations that only the tests use.

The library works on stacks of cells; these answer per-cell questions
(areas, point values of local fields, the weak-gradient mass matrix) for
the assertions.
"""

import numpy as np

from wg_sfem.localspaces import CellScalarBasis, RTFrame
from wg_sfem.polymesh import (
    polygon_area,
    polygon_centroid,
    polygon_diameter,
    triangulate_cell,
)
from wg_sfem.quadrature import assembly_degree, triangle_points


def cell_area(mesh, c):
    return polygon_area(mesh.cell_vertices(c))


def cell_centroid(mesh, c):
    return polygon_centroid(mesh.cell_vertices(c))


def cell_diameter(mesh, c):
    return float(polygon_diameter(mesh.cell_vertices(c)))


def edge_midpoint(mesh, e):
    a, b = mesh.edge_vertices(e)
    return 0.5 * (a + b)


def edge_normal(mesh, e):
    """Unit normal pointing from the lower- to the higher-index adjacent
    cell; outward on boundary edges."""
    c = int(mesh.edge_cells[e, 0])
    return mesh.side_normal(c, mesh.cell_edges[c].index(e))


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


def subtri(ops):
    """Fan triangulation of the cell of a LocalCellOperators."""
    return triangulate_cell(ops.mesh, ops.cell)


def interior_values(ops, coeffs, pts):
    """Point values of an interior polynomial on ops.cell; coeffs
    (dim P_k, ...) give values (npts, ...)."""
    s = ops.index
    basis = CellScalarBasis(ops.k, ops.stack.center[s], ops.stack.diameter[s])
    return basis.eval(np.asarray(pts) - ops.offset) @ coeffs


def lambda_values(ops, coeffs, pts, tri_index):
    """Point values of a weak-gradient-space field on one fan triangle of
    ops.cell; coeffs (n_lambda, ...) give values (npts, ..., 2)."""
    s, frames = ops.index, ops.stack.lambda_basis.frames
    F = RTFrame(ops.k, frames.center[s, tri_index], frames.scale[s, tri_index])
    rt = ops.stack.frame_coeffs[s, tri_index] @ coeffs
    return np.einsum("qfd,f...->q...d", F.eval(np.asarray(pts) - ops.offset), rt)


def lambda_mass(stack, rows=None):
    """Weak-gradient-space mass matrices of rows of an OperatorStack (all by
    default), shape (n, n_lambda, n_lambda), by quadrature of the basis
    fields built from the RT frames, their orthonormalization and the
    nullspace coefficients."""
    lam = stack.lambda_basis
    rows = np.arange(len(stack.cells)) if rows is None else np.atleast_1d(rows)
    nt, nf = stack.tri_coords.shape[1], lam.frames.n_fields
    V = lam.coeffs[rows].reshape(len(rows), nt, nf, lam.n_lambda)
    frames = RTFrame(stack.k, lam.frames.center[rows], lam.frames.scale[rows])
    pts, w = triangle_points(stack.tri_coords[rows], assembly_degree(stack.k))
    F = np.einsum("stqfd,stfl->stqld", frames.eval(pts), lam.orth[rows] @ V)
    return np.einsum("stq,stqid,stqjd->sij", w, F, F)


def cell_lambda_mass(ops):
    """The weak-gradient-space mass matrix of one LocalCellOperators."""
    return lambda_mass(ops.stack, ops.index)[0]
