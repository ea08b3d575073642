"""Polytopal mesh data model, generators, fan sub-triangulation and JSON I/O.

Meshes partition the unit square (0,1)^2 into counterclockwise polygonal
cells.  Three deterministic families are provided:

* square   -- uniform n x n squares, n = 2^(level-1);
* quad     -- congruent-up-to-reflection trapezoids obtained by shifting the
              vertices of odd interior rows of the square grid up/down by
              0.2*h in alternating columns.  Every cell at every level >= 2 is
              similar to the same trapezoid, so refinement never drifts toward
              parallelograms;
* hex      -- a brick pattern on the 2^level x 2^level grid: every second
              interior vertical edge is removed, merging cell pairs into
              six-vertex bricks (the removed edge's endpoints stay as polygon
              vertices), with leftover quadrilaterals at the staggered row
              ends.

All meshes are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 12


class MeshFormatError(ValueError):
    """Invalid mesh data (orientation, indexing, topology or file format)."""


class StarShapeError(ValueError):
    """Cell is not star-shaped with respect to its anchor vertex."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _next(n: int) -> np.ndarray:
    """Index of each vertex's successor on an n-vertex cycle."""
    return (np.arange(n) + 1) % n


def polygon_area(coords: np.ndarray) -> np.ndarray:
    """Signed shoelace areas of polygons given as vertex cycles, shape
    (..., n, 2) -> (...)."""
    x, y = coords[..., 0], coords[..., 1]
    nxt = _next(x.shape[-1])
    return 0.5 * np.sum(x * y[..., nxt] - x[..., nxt] * y, axis=-1)


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Centroids of polygons given as vertex cycles, shape (..., n, 2) -> (..., 2)."""
    x, y = coords[..., 0], coords[..., 1]
    nxt = _next(x.shape[-1])
    xn, yn = x[..., nxt], y[..., nxt]
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(coords: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of polygons given as vertex cycles,
    shape (..., n, 2) -> (...)."""
    diff = coords[..., :, None, :] - coords[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1).max(axis=(-2, -1)))


@dataclass(frozen=True)
class PolyMesh:
    """2D polytopal mesh with derived edge topology.

    vertices: (nv, 2) float coordinates.
    cells: per-cell counterclockwise vertex-index cycles.
    edges: (ne, 2) undirected vertex pairs, (min, max) order, in deterministic
        first-encounter order over cells.
    cell_edges: per cell, the edge index of each side (side i joins cycle
        vertices i and i+1).
    edge_cells: (ne, 2) adjacent cell indices sorted ascending, -1 for none.
    boundary_edges: (ne,) bool mask.
    """

    vertices: np.ndarray
    cells: tuple[tuple[int, ...], ...]
    edges: np.ndarray
    cell_edges: tuple[tuple[int, ...], ...]
    edge_cells: np.ndarray
    boundary_edges: np.ndarray
    dim: int = 2

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def cell_vertices(self, c: int) -> np.ndarray:
        return self.vertices[list(self.cells[c])]

    def cell_cycles(self, cells) -> np.ndarray:
        """Vertex cycles of cells with one vertex count, shape (n_cells, n_v)."""
        return np.array([self.cells[c] for c in cells], dtype=int)

    def edge_vertices(self, e: int) -> np.ndarray:
        return self.vertices[self.edges[e]]

    def side_normal(self, c: int, side: int) -> np.ndarray:
        """Outward unit normal of cell c on its given side."""
        cyc = self.cells[c]
        a = self.vertices[cyc[side]]
        b = self.vertices[cyc[(side + 1) % len(cyc)]]
        t = b - a
        n = np.array([t[1], -t[0]])
        return n / np.linalg.norm(n)


def build_mesh(vertices, cells) -> PolyMesh:
    """Assemble and validate a PolyMesh from raw vertices and cell cycles."""
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
    # Orientation, checked for all cells of one vertex count at once.
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

    edge_index: dict[tuple[int, int], int] = {}
    edge_list: list[tuple[int, int]] = []
    adjacency: list[list[int]] = []
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

    return PolyMesh(
        vertices=_readonly(verts),
        cells=tuple(cell_tuples),
        edges=_readonly(np.array(edge_list, dtype=int)),
        cell_edges=tuple(cell_edges),
        edge_cells=_readonly(edge_cells),
        boundary_edges=_readonly(boundary),
    )


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the resource guard ({MAX_LEVEL})")


def generate_square_grid(level: int) -> PolyMesh:
    """Uniform grid of 2^(level-1) x 2^(level-1) square cells on (0,1)^2."""
    _check_level(level)
    m = 2 ** (level - 1)
    h = 1.0 / m
    verts = [(i * h, j * h) for j in range(m + 1) for i in range(m + 1)]

    def vid(i, j):
        return j * (m + 1) + i

    cells = [
        (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
        for j in range(m)
        for i in range(m)
    ]
    return build_mesh(verts, cells)


def generate_quad_grid(level: int) -> PolyMesh:
    """Shape-fixed trapezoid grid: the square grid with the vertices of odd
    interior rows moved by +0.2*h (even columns) / -0.2*h (odd columns) in y.

    Vertices on the left/right boundary slide along x=0 / x=1, keeping every
    cell congruent (up to reflection) to one trapezoid with vertical parallel
    sides 0.8*h and 1.2*h; level 1 stays a single square.
    """
    _check_level(level)
    m = 2 ** (level - 1)
    h = 1.0 / m
    verts = []
    for j in range(m + 1):
        for i in range(m + 1):
            y = j * h
            if j % 2 == 1 and 0 < j < m:
                y += 0.2 * h if i % 2 == 0 else -0.2 * h
            verts.append((i * h, y))

    def vid(i, j):
        return j * (m + 1) + i

    cells = [
        (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
        for j in range(m)
        for i in range(m)
    ]
    return build_mesh(verts, cells)


def generate_hex_grid(level: int) -> PolyMesh:
    """Brick-pattern quad/hexagon mix with 2^level rows on (0,1)^2.

    Start from a grid of 2^(level+1) x 2^level rectangles (each h/2 wide and
    h tall, h = 2^-level).  In row j, horizontally adjacent cell pairs
    starting at column (j mod 2) are merged by deleting their shared
    vertical edge; the edge endpoints remain polygon vertices, so each brick
    is a six-vertex cell of roughly unit aspect.  Staggered rows keep a
    single quadrilateral at each end.  Interior junction vertices are moved
    vertically (bases of interior vertical edges up by 0.16*h, tips down by
    0.1*h), which makes the hexagons genuine and non-point-symmetric; fully
    symmetric bricks sit in the supercancellation regime of uniform meshes
    and would distort observed convergence rates.  Brick cycles start at the
    bottom mid-edge vertex so the fan anchor never sits between collinear
    neighbors.
    """
    _check_level(level)
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
            cells.append(
                (
                    vid(a + 1, j),
                    vid(a + 2, j),
                    vid(a + 2, j + 1),
                    vid(a + 1, j + 1),
                    vid(a, j + 1),
                    vid(a, j),
                )
            )
        if offset == 1:
            cells.append(
                (vid(w_cols - 1, j), vid(w_cols, j), vid(w_cols, j + 1), vid(w_cols - 1, j + 1))
            )
    return build_mesh(verts, cells)


GENERATORS = {
    "square": generate_square_grid,
    "quad": generate_quad_grid,
    "hex": generate_hex_grid,
}


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
    triangles: tuple[tuple[int, int, int], ...]
    internal_edges: tuple[tuple[int, int], ...]
    internal_adjacency: tuple[tuple[int, int], ...]
    boundary_edge_map: tuple[tuple[int, int], ...]

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def fan_triangles(mesh: PolyMesh, cells) -> np.ndarray:
    """Vertex indices of the fan triangles (anchor, v_i, v_{i+1}) of cells
    with one vertex count, shape (n_cells, n_v - 2, 3).

    Raises StarShapeError naming the first of the cells that is not
    star-shaped with respect to its first cycle vertex.
    """
    cells = np.asarray(cells)
    cyc = mesh.cell_cycles(cells)
    i = np.arange(1, cyc.shape[1] - 1)
    tris = cyc[:, np.stack([np.zeros_like(i), i, i + 1], axis=1)]
    area = polygon_area(mesh.vertices[tris])
    bad = np.argwhere(area <= 1e-12 * polygon_area(mesh.vertices[cyc])[:, None])
    if bad.size:
        s, t = bad[0]
        raise StarShapeError(
            f"cell {cells[s]} is not star-shaped with respect to its first "
            f"vertex (fan triangle {tuple(tris[s, t].tolist())} has area "
            f"{area[s, t]:.3e}); re-anchor the cell cycle at a different vertex"
        )
    return tris


def triangulate_cell(mesh: PolyMesh, cell: int) -> SubTriangulation:
    """Fan-triangulate a cell from its first cycle vertex (no new vertices)."""
    cyc = mesh.cells[cell]
    n = len(cyc)
    triangles = tuple(map(tuple, fan_triangles(mesh, [cell])[0].tolist()))
    internal_edges = tuple((cyc[0], cyc[i]) for i in range(2, n - 1))
    internal_adjacency = tuple((i - 2, i - 1) for i in range(2, n - 1))

    side_map = []
    for s in range(n):
        if s == 0:
            side_map.append((0, 0))
        elif s == n - 1:
            side_map.append((n - 3, 2))
        else:
            side_map.append((s - 1, 1))

    return SubTriangulation(
        cell=cell,
        triangles=triangles,
        internal_edges=internal_edges,
        internal_adjacency=internal_adjacency,
        boundary_edge_map=tuple(side_map),
    )


def write_mesh(mesh: PolyMesh, path) -> None:
    """Write the mesh JSON: {"dim", "vertices", "cells"}."""
    payload = {
        "dim": mesh.dim,
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [list(cyc) for cyc in mesh.cells],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_mesh(path) -> PolyMesh:
    """Read and validate a mesh JSON file; unknown keys are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"malformed mesh JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MeshFormatError(f"mesh JSON in {path} must be an object")
    for key in ("vertices", "cells"):
        if key not in payload:
            raise MeshFormatError(f"mesh JSON in {path} is missing '{key}'")
    if payload.get("dim", 2) != 2:
        raise MeshFormatError(f"mesh JSON in {path} has unsupported dim {payload['dim']}")
    return build_mesh(payload["vertices"], payload["cells"])
