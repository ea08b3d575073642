"""Geometry and local-space evaluations that only the tests use, and the
loop oracles of the array mesh topology.

The library works on stacks of cells; these answer per-cell questions
(areas, point values of local fields, the weak-gradient mass matrix) for
the assertions.
"""

import numpy as np

from wg_sfem.localspaces import KEY_DECIMALS, CellScalarBasis, RTFrame
from wg_sfem.polymesh import (
    MeshFormatError,
    generate_square_grid,
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


# ------------------------------------------------------------------ oracles
# The cell-by-cell loops that built meshes and shape classes before the
# array topology; the array code must reproduce them bit for bit.


def loop_build_mesh(vertices, cells):
    """Validate and derive the topology of a mesh cell by cell, side by
    side: a dict of the PolyMesh fields vertices, cells, edges, cell_edges,
    edge_cells and boundary_edges.  Raises MeshFormatError as build_mesh
    does."""
    verts = np.array(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshFormatError("vertices must be an (n, 2) array")
    nv = verts.shape[0]

    cell_tuples = []
    for ci, cyc in enumerate(cells):
        cyc = tuple(int(v) for v in cyc)
        if len(cyc) < 3:
            raise MeshFormatError(f"cell {ci} has fewer than 3 vertices")
        for v in cyc:
            if not 0 <= v < nv:
                raise MeshFormatError(
                    f"cell {ci} references vertex {v} outside 0..{nv - 1}"
                )
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
    cell_edges = []
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
        cell_edges.append(tuple(sides))

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
        "cell_edges": tuple(cell_edges),
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
    """OperatorCache's class of every cell, keyed cell by cell in a dict:
    classes numbered by first appearance, vertex counts ascending."""
    class_of = np.empty(mesh.n_cells, dtype=int)
    keys = {}
    for n_v in sorted({len(cyc) for cyc in mesh.cells}):
        cells = [c for c, cyc in enumerate(mesh.cells) if len(cyc) == n_v]
        cyc = np.array([mesh.cells[c] for c in cells], dtype=int)
        coords = mesh.vertices[cyc]
        diam = polygon_diameter(coords)
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
