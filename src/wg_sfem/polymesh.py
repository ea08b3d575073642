"""Polytopal mesh data model, generators, fan sub-triangulation and JSON I/O.

Meshes are counterclockwise polygonal cells.  A JSON mesh may sit anywhere
in the plane: the checks here and the local operators work on offsets
within each cell, so where it sits changes only the rounding of its
coordinates.  The three deterministic generated families partition the
unit square (0,1)^2:

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
from functools import cached_property
from itertools import chain, combinations

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
    (..., n, 2) -> (...).  The sums run on offsets from each cycle's first
    vertex, so their cross terms are of the cell's size wherever it sits."""
    rel = coords - coords[..., :1, :]
    x, y = rel[..., 0], rel[..., 1]
    nxt = _next(x.shape[-1])
    return 0.5 * np.sum(x * y[..., nxt] - x[..., nxt] * y, axis=-1)


def polygon_diameter(coords: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of polygons given as vertex cycles,
    shape (..., n, 2) -> (...), over the n (n - 1) / 2 vertex pairs one
    pair at a time: no (..., n, n, 2) array of differences."""
    sq = [((coords[..., i, :] - coords[..., j, :]) ** 2).sum(axis=-1)
          for i, j in combinations(range(coords.shape[-2]), 2)]
    return np.sqrt(np.max(sq, axis=0))


def _gather(flat: np.ndarray, offsets: np.ndarray, cells) -> np.ndarray:
    """Rows of a per-side array for cells with one vertex count, shape
    (n_cells, n_v)."""
    cells = np.asarray(cells, dtype=int)
    start = offsets[cells]
    n_v = int(offsets[cells[0] + 1] - start[0]) if cells.size else 0
    return flat[start[:, None] + np.arange(n_v)]


def first_appearance_labels(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of keys (n, m) 0, 1, ... in order of first
    appearance, as a dict filled row by row would.  Returns each row's
    number and how many earlier rows share it."""
    order = np.lexsort(keys.T)
    sorted_keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    # lexsort is stable: each group lists its rows in order of appearance.
    rank = np.argsort(np.argsort(order[start]))
    labels, use = np.empty((2, len(keys)), dtype=int)
    labels[order] = rank[group]
    use[order] = np.arange(len(keys)) - start[group]
    return labels, use


@dataclass(frozen=True)
class PolyMesh:
    """2D polytopal mesh with derived edge topology, held as arrays.

    vertices: (nv, 2) float coordinates.
    cycles: all cells' counterclockwise vertex-index cycles, concatenated.
    offsets: (n_cells + 1,) start of each cell's cycle in ``cycles``.
    edges: (ne, 2) undirected vertex pairs, (min, max) order, in deterministic
        first-encounter order over cells.
    sides: the edge index of each cell side, aligned with ``cycles`` (side i
        of a cell joins its cycle vertices i and i+1).
    edge_cells: (ne, 2) adjacent cell indices sorted ascending, -1 for none.
    boundary_edges: (ne,) bool mask.
    """

    vertices: np.ndarray
    cycles: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray
    sides: np.ndarray
    edge_cells: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.offsets.size - 1

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Per-cell vertex cycles as tuples, built on first access."""
        items, bounds = self.cycles.tolist(), self.offsets.tolist()
        return tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))

    def cell_cycles(self, cells) -> np.ndarray:
        """Vertex cycles of cells with one vertex count, shape (n_cells, n_v)."""
        return _gather(self.cycles, self.offsets, cells)

    def cell_sides(self, cells) -> np.ndarray:
        """Side edge indices of cells with one vertex count, shape (n_cells, n_v)."""
        return _gather(self.sides, self.offsets, cells)


def _is_number(v) -> bool:
    """Whether a coordinate is a number, not a bool or a string, which float() also reads."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_index(v) -> bool:
    """Whether a cell entry is an integer: an integral float counts, a bool not."""
    return _is_number(v) and (isinstance(v, (int, np.integer)) or float(v).is_integer())


def _cycle_array(flat, nv: int) -> np.ndarray:
    """Cell entries as an int array.  Entries that are not integers read as
    -1, and integers outside 0..nv-1 are clipped to -1 or nv, so that all
    of them fail the range check."""
    if isinstance(flat, np.ndarray) or (
            set(map(type, flat)) <= {int}
            and -(2**63) <= min(flat, default=0) and max(flat, default=0) < 2**63):
        return np.array(flat, dtype=int)
    return np.array([min(max(int(v), -1), nv) if _is_index(v) else -1 for v in flat], dtype=int)


def build_mesh(vertices, cells) -> PolyMesh:
    """Assemble and validate a PolyMesh from raw vertices and cell cycles
    (an (n_cells, n_v) array or a sequence of sequences).  Coordinates must
    be finite numbers, not bools or strings, and vertex indices integers.
    The checks run on whole arrays; an error names what a scan vertex by
    vertex, then cell by cell and side by side, would meet first, and edges
    are numbered by first encounter in it."""
    try:
        verts = np.array(vertices, dtype=float)
    except (TypeError, ValueError):
        raise MeshFormatError("vertices must be an (n, 2) array of numbers") from None
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshFormatError("vertices must be an (n, 2) array")
    bad = ~np.isfinite(verts).all(axis=1)
    if not (vertices.dtype.kind in "fiu" if isinstance(vertices, np.ndarray)
            else set(map(type, chain.from_iterable(vertices))) <= {int, float}):
        bad |= [not all(map(_is_number, row)) for row in vertices]
    if bad.any():
        i = np.argmax(bad)
        odd = [np.asarray(v).tolist() for v in vertices[i] if not _is_number(v)]
        raise MeshFormatError(f"vertex {i} has a non-numeric coordinate {odd[0]!r}" if odd else
                              f"vertex {i} has a non-finite coordinate {tuple(verts[i].tolist())}")
    nv = verts.shape[0]
    try:
        n_cells = len(cells)
    except TypeError:
        raise MeshFormatError("cells must be a sequence of vertex cycles") from None
    if not n_cells:
        raise MeshFormatError("mesh has no cells")
    if isinstance(cells, np.ndarray) and cells.ndim == 2:
        sizes = np.full(n_cells, cells.shape[1])
        flat = cells.ravel() if cells.dtype.kind in "iu" else cells.ravel().tolist()
    else:
        try:
            sizes = np.fromiter(map(len, cells), dtype=int)
        except TypeError:  # a cell that is not a sequence: size -1, no entries
            sizes = np.array([len(c) if hasattr(c, "__len__") else -1 for c in cells])
            cells = [c if hasattr(c, "__len__") else () for c in cells]
        flat = list(chain.from_iterable(cells))
    offsets = np.concatenate([[0], np.cumsum(np.maximum(sizes, 0))])
    cell_of = np.repeat(np.arange(sizes.size), np.maximum(sizes, 0))
    cycles = _cycle_array(flat, nv)

    # Cells that are not sequences, are short, leave 0..nv-1 (non-integers
    # included) or repeat a vertex (a repeat shows as equal neighbours among
    # the sorted (cell, clipped vertex) keys).
    outside = (cycles < 0) | (cycles >= nv)
    key = np.sort(cell_of * (nv + 2) + np.clip(cycles, -1, nv) + 1)
    repeats = key[1:][key[1:] == key[:-1]] // (nv + 2)
    suspects = np.concatenate([np.flatnonzero(sizes < 3), cell_of[outside], repeats])
    if suspects.size:
        ci = int(suspects.min())
        entries = flat[offsets[ci] : offsets[ci + 1]]
        wrong = [v for v in entries if not _is_index(v)]
        out = [v for v in entries if _is_index(v) and not 0 <= v < nv]
        if sizes[ci] < 0:
            raise MeshFormatError(f"cell {ci} is not a sequence of vertex indices")
        if wrong:
            raise MeshFormatError(
                f"cell {ci} has a non-integer vertex index {np.asarray(wrong[0]).tolist()!r}")
        if sizes[ci] < 3:
            raise MeshFormatError(f"cell {ci} has fewer than 3 vertices")
        if out:
            raise MeshFormatError(
                f"cell {ci} references vertex {np.asarray(out[0]).tolist()} outside 0..{nv - 1}")
        raise MeshFormatError(f"cell {ci} repeats a vertex")
    area = np.empty(sizes.size)
    for n_v in np.unique(sizes):
        ids = np.flatnonzero(sizes == n_v)
        area[ids] = polygon_area(verts[_gather(cycles, offsets, ids)])
    if np.any(area <= 0.0):
        raise MeshFormatError(
            f"cell {np.argmax(area <= 0.0)} has clockwise or degenerate orientation; "
            "cells must be counterclockwise"
        )

    nxt = np.arange(cycles.size) + 1
    nxt[offsets[1:] - 1] = offsets[:-1]
    pairs = np.sort(np.column_stack([cycles, cycles[nxt]]), axis=1)
    sides, use = first_appearance_labels(pairs)
    third = np.flatnonzero(use == 2)
    if third.size:
        p = third[0]
        raise MeshFormatError(
            f"edge {tuple(pairs[p].tolist())} shared by more than two cells (cell {cell_of[p]})"
        )
    # The scan meets an edge's cells in ascending order.
    edge_cells = np.full((np.count_nonzero(use == 0), 2), -1, dtype=int)
    edge_cells[sides, use] = cell_of
    # The two cells of an interior edge run it in opposite directions
    # unless they fold over it; fwd[use == 0] is each edge's first side's.
    fwd = cycles < cycles[nxt]
    folded = np.flatnonzero((use == 1) & (fwd == fwd[use == 0][sides]))
    if folded.size:
        p = folded[0]
        raise MeshFormatError(f"cells {edge_cells[sides[p], 0]} and {cell_of[p]} run edge "
                              f"{tuple(pairs[p].tolist())} the same way, so they fold over it")

    return PolyMesh(
        vertices=_readonly(verts),
        cycles=_readonly(cycles),
        offsets=_readonly(offsets),
        edges=_readonly(pairs[use == 0]),
        sides=_readonly(sides),
        edge_cells=_readonly(edge_cells),
        boundary_edges=_readonly(edge_cells[:, 1] < 0),
    )


def _check_level(level: int) -> None:
    """Only an int or numpy integer, not a bool, in 1..MAX_LEVEL passes."""
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 1:
        raise ValueError(f"level must be an integer >= 1, got {level!r}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the resource guard ({MAX_LEVEL})")


def _grid(level: int, dy: float) -> PolyMesh:
    """The 2^(level-1) x 2^(level-1) grid of squares on (0,1)^2 with the
    vertices of odd interior rows moved by +dy*h (even columns) and -dy*h
    (odd columns) in y."""
    _check_level(level)
    m = 2 ** (level - 1)
    h = 1.0 / m
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1))
    shift = np.where((j % 2 == 1) & (0 < j) & (j < m), np.where(i % 2 == 0, dy * h, -dy * h), 0.0)
    verts = np.stack([i * h, j * h + shift], axis=-1).reshape(-1, 2)
    corner = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).reshape(-1, 1)
    return build_mesh(verts, corner + [0, 1, m + 2, m + 1])


def generate_square_grid(level: int) -> PolyMesh:
    """Uniform grid of 2^(level-1) x 2^(level-1) square cells on (0,1)^2."""
    return _grid(level, 0.0)


def generate_quad_grid(level: int) -> PolyMesh:
    """Shape-fixed trapezoid grid: the square grid with the vertices of odd
    interior rows moved by +0.2*h (even columns) / -0.2*h (odd columns) in y.

    Vertices on the left/right boundary slide along x=0 / x=1, keeping every
    cell congruent (up to reflection) to one trapezoid with vertical parallel
    sides 0.8*h and 1.2*h; level 1 stays a single square.
    """
    return _grid(level, 0.2)


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
    i, j = np.meshgrid(np.arange(w_cols + 1), np.arange(m + 1))
    inner = (0 < j) & (j < m) & (0 < i) & (i < w_cols)
    y = j * h + np.where(inner, np.where(i % 2 == j % 2, 0.16 * h, -0.1 * h), 0.0)
    verts = np.stack([i * (1.0 / w_cols), y], axis=-1).reshape(-1, 2)

    # Vertex (i, j) is j * r + i; cells are offsets from their lower left.
    r = w_cols + 1
    quad = np.array([0, 1, r + 1, r])
    cells = []
    for j in range(m):
        bricks = (j * r + np.arange(j % 2, w_cols - j % 2, 2)[:, None]
                  + [1, 2, r + 2, r + 1, r, 0]).tolist()
        if j % 2:
            bricks = [(j * r + quad).tolist(), *bricks, (j * r + w_cols - 1 + quad).tolist()]
        cells += bricks
    return build_mesh(verts, cells)


GENERATORS = {
    "square": generate_square_grid,
    "quad": generate_quad_grid,
    "hex": generate_hex_grid,
}


def fan_triangles(mesh: PolyMesh, cells) -> np.ndarray:
    """Vertex indices of the fan triangles (anchor, v_i, v_{i+1}) of cells
    with one vertex count, shape (n_cells, n_v - 2, 3), anchored at each
    cell's first cycle vertex (build_lambda_basis checks the anchor)."""
    cyc = mesh.cell_cycles(cells)
    i = np.arange(1, cyc.shape[1] - 1)
    return cyc[:, np.stack([np.zeros_like(i), i, i + 1], axis=1)]


def write_mesh(mesh: PolyMesh, path) -> None:
    """Write the mesh JSON: {"dim", "vertices", "cells"}."""
    payload = {
        "dim": 2,
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MeshFormatError(f"malformed mesh JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MeshFormatError(f"mesh JSON in {path} must be an object")
    for key in ("vertices", "cells"):
        if key not in payload:
            raise MeshFormatError(f"mesh JSON in {path} is missing '{key}'")
    if payload.get("dim", 2) != 2:
        raise MeshFormatError(f"mesh JSON in {path} has unsupported dim {payload['dim']!r}")
    return build_mesh(payload["vertices"], payload["cells"])
