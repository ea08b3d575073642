import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wg_sfem.localspaces import build_lambda_basis
from wg_sfem.polymesh import (
    GENERATORS,
    MeshFormatError,
    StarShapeError,
    build_mesh,
    generate_hex_grid,
    generate_quad_grid,
    generate_square_grid,
    polygon_area,
    polygon_diameter,
    read_mesh,
    write_mesh,
)

from helpers import (
    cell_area,
    cell_centroid,
    cell_vertices,
    edge_midpoint,
    edge_normal,
    hex_grid_cell_count,
    loop_build_mesh,
    loop_diameter,
    loop_generator_input,
    mixed_input,
    renumbered,
    triangulate_cell,
)


def interior_angles(coords):
    """Interior angles of a CCW polygon, in radians."""
    n = len(coords)
    angles = []
    for i in range(n):
        prev_v = coords[i - 1] - coords[i]
        next_v = coords[(i + 1) % n] - coords[i]
        a = math.atan2(
            next_v[0] * prev_v[1] - next_v[1] * prev_v[0], prev_v @ next_v
        )
        angles.append(a % (2 * math.pi))
    return sorted(angles)


# ---------------------------------------------------------------- square


def test_square_level_1_counts():
    mesh = generate_square_grid(1)
    assert mesh.n_cells == 1
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 4
    assert mesh.boundary_edges.all()


def test_square_level_2_counts():
    mesh = generate_square_grid(2)
    assert mesh.n_cells == 4
    assert mesh.n_vertices == 9
    assert mesh.n_edges == 12
    assert int((~mesh.boundary_edges).sum()) == 4


def test_square_level_6_is_32_by_32():
    mesh = generate_square_grid(6)
    assert mesh.n_cells == 32 * 32
    assert all(cell_area(mesh, c) == pytest.approx(1 / 1024, rel=1e-14)
               for c in (0, 500, 1023))


def test_level_guards():
    for gen in GENERATORS.values():
        with pytest.raises(ValueError):
            gen(0)
        with pytest.raises(ValueError):
            gen(13)
        for level in (1.0, 2.5, True, "2"):
            with pytest.raises(ValueError, match="level must be an integer"):
                gen(level)
        assert gen(np.int64(2)).n_cells == gen(2).n_cells


# ---------------------------------------------------------------- quad


def test_quad_level_1_is_single_square():
    mesh = generate_quad_grid(1)
    assert mesh.n_cells == 1
    assert np.allclose(
        sorted(map(tuple, mesh.vertices)), [(0, 0), (0, 1), (1, 0), (1, 1)]
    )


def test_quad_level_2_congruent_trapezoids_quarter_area():
    mesh = generate_quad_grid(2)
    assert mesh.n_cells == 4
    base = interior_angles(cell_vertices(mesh, 0))
    for c in range(4):
        assert cell_area(mesh, c) == pytest.approx(0.25, abs=1e-14)
        angles = interior_angles(cell_vertices(mesh, c))
        # congruent up to reflection: same sorted angle multiset
        assert np.allclose(angles, base, atol=1e-12)
    # genuinely a trapezoid, not a parallelogram: two right angles only
    right = sum(1 for a in base if abs(a - math.pi / 2) < 1e-12)
    assert right == 2


def test_quad_shape_fixed_across_levels():
    prev_min = None
    for level in (2, 3, 4):
        mesh = generate_quad_grid(level)
        mins = [min(interior_angles(cell_vertices(mesh, c)))
                for c in range(mesh.n_cells)]
        level_min = min(mins)
        assert max(mins) - level_min < 1e-12
        if prev_min is not None:
            assert level_min == pytest.approx(prev_min, abs=1e-12)
        prev_min = level_min


def test_quad_angle_multiset_invariant_between_levels():
    a3 = interior_angles(cell_vertices(generate_quad_grid(3), 5))
    a4 = interior_angles(cell_vertices(generate_quad_grid(4), 21))
    assert np.allclose(a3, a4, atol=1e-12)


# ---------------------------------------------------------------- hex


def test_hex_level_1_has_hexagon_and_quad():
    mesh = generate_hex_grid(1)
    arity = {len(c) for c in mesh.cells}
    assert 6 in arity
    assert 4 in arity


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_hex_cell_count_formula(level):
    mesh = generate_hex_grid(level)
    assert mesh.n_cells == hex_grid_cell_count(level)


def test_hex_level_3_area_audit_by_point_location():
    """Independent audit: random points each land in exactly one cell."""
    mesh = generate_hex_grid(3)
    assert sum(cell_area(mesh, c) for c in range(mesh.n_cells)) == pytest.approx(
        1.0, abs=1e-12
    )

    def winding_contains(coords, p):
        n = len(coords)
        sign = 0
        for i in range(n):
            a, b = coords[i], coords[(i + 1) % n]
            cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cr < -1e-12:
                return False
        return True

    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))
    for p in pts:
        owners = [
            c for c in range(mesh.n_cells)
            if winding_contains(cell_vertices(mesh, c), p)
        ]
        assert len(owners) == 1


# ---------------------------------------------------------------- shared invariants


@pytest.mark.parametrize("family,levels", [
    ("square", range(1, 9)),
    ("quad", range(1, 9)),
    ("hex", range(1, 9)),
])
def test_partition_and_euler(family, levels):
    for level in levels:
        mesh = GENERATORS[family](level)
        total = sum(cell_area(mesh, c) for c in range(mesh.n_cells))
        assert total == pytest.approx(1.0, abs=1e-12), (family, level)
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1, (family, level)
        counts = (mesh.edge_cells >= 0).sum(axis=1)
        assert np.all(counts[mesh.boundary_edges] == 1)
        assert np.all(counts[~mesh.boundary_edges] == 2)


def test_generators_deterministic(tmp_path):
    for family, gen in GENERATORS.items():
        p1, p2 = tmp_path / f"{family}1.json", tmp_path / f"{family}2.json"
        write_mesh(gen(3), p1)
        write_mesh(gen(3), p2)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- fan triangulation


def test_fan_unit_square():
    mesh = generate_square_grid(1)
    sub = triangulate_cell(mesh, 0)
    cyc = mesh.cells[0]
    assert sub.triangles == ((cyc[0], cyc[1], cyc[2]), (cyc[0], cyc[2], cyc[3]))
    assert sub.internal_edges == ((cyc[0], cyc[2]),)
    assert sub.internal_adjacency == ((0, 1),)


def test_fan_triangle_cell_is_itself():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    sub = triangulate_cell(mesh, 0)
    assert sub.triangles == ((0, 1, 2),)
    assert sub.internal_edges == ()


def test_fan_regular_hexagon():
    pts = [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]]
    mesh = build_mesh(pts, [tuple(range(6))])
    sub = triangulate_cell(mesh, 0)
    assert len(sub.triangles) == 4
    assert len(sub.internal_edges) == 3
    tri_area = sum(
        polygon_area(mesh.vertices[list(t)]) for t in sub.triangles
    )
    assert tri_area == pytest.approx(cell_area(mesh, 0), abs=1e-14)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_fan_counts_and_area_conservation(family):
    mesh = GENERATORS[family](3)
    for c in range(mesh.n_cells):
        sub = triangulate_cell(mesh, c)
        n_v = len(mesh.cells[c])
        assert len(sub.triangles) == n_v - 2
        assert len(sub.internal_edges) == n_v - 3
        tri_area = sum(polygon_area(mesh.vertices[list(t)]) for t in sub.triangles)
        assert abs(tri_area - cell_area(mesh, c)) < 1e-13
        # every parent side coincides with one sub-triangle side
        assert len(sub.boundary_edge_map) == n_v


def test_fan_rejects_non_star_anchor():
    mesh = build_mesh(
        [(0, 0), (2, 1), (4, 0), (2, 3)], [(0, 1, 2, 3)]
    )
    with pytest.raises(StarShapeError, match=r"fan triangle \(0, 1, 2\) has area "
                                             r"-2\.000e\+00\); re-anchor"):
        build_lambda_basis(mesh, 0, 1)


# ---------------------------------------------------------------- mesh I/O


def test_roundtrip_bit_exact(tmp_path):
    mesh = generate_quad_grid(3)
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert back.cells == mesh.cells


def test_read_rejects_clockwise_cell(tmp_path):
    path = tmp_path / "cw.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cells": [[0, 3, 2, 1]],
    }))
    with pytest.raises(MeshFormatError, match="orientation"):
        read_mesh(path)


@pytest.mark.parametrize("scale, shift", [(1e-2, 1e6), (1e-3, 1e5)])
def test_far_off_small_cells_keep_their_orientation(scale, shift):
    """Square level 5 cells 6.25e-4 and 6.25e-5 wide, far from the origin: the
    shoelace sums run from each cycle's first vertex, so their cross terms
    are of the cell's size, not of |x|^2, and every area is right."""
    base = generate_square_grid(5)
    mesh = build_mesh(scale * base.vertices + shift, base.cells)
    area = polygon_area(mesh.vertices[mesh.cell_cycles(np.arange(mesh.n_cells))])
    assert np.allclose(area, (scale / 16) ** 2, rtol=1e-6)
    # A clockwise cell is still told apart.
    with pytest.raises(MeshFormatError, match="cell 3 has clockwise"):
        build_mesh(mesh.vertices, [*base.cells[:3], base.cells[3][::-1], *base.cells[4:]])


def test_read_rejects_dangling_vertex_index(tmp_path):
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": [[0, 0], [1, 0], [1, 1]],
        "cells": [[0, 1, 7]],
    }))
    with pytest.raises(MeshFormatError, match="cell 0"):
        read_mesh(path)


@pytest.mark.parametrize("cells,vertex,message", [
    ("5", "[0, 0]", "cells must be a sequence of vertex cycles"),
    ("[]", "[0, 0]", "mesh has no cells"),
    ("[[0, 1, 2.7, 3]]", "[0, 0]", "cell 0 has a non-integer vertex index 2.7"),
    ("[[0, 1, 2, 3], 5]", "[0, 0]", "cell 1 is not a sequence of vertex indices"),
    ("[[0, 1, null, 3]]", "[0, 0]", "cell 0 has a non-integer vertex index None"),
    ("[[0, \"a\", 2, 3]]", "[0, 0]", "cell 0 has a non-integer vertex index 'a'"),
    ("[[0, true, 2, 3]]", "[0, 0]", "cell 0 has a non-integer vertex index True"),
    ("[[0, 1, 2, 3]]", "[NaN, 0]", "vertex 0 has a non-finite coordinate (nan, 0.0)"),
    ("[[0, 1, 2, 3]]", "[0, Infinity]", "vertex 0 has a non-finite coordinate (0.0, inf)"),
    ("[[0, 1, 2, 3]]", "[0, false]", "vertex 0 has a non-numeric coordinate False"),
    ("[[0, 1, 2, 3]]", '["0", 0]', "vertex 0 has a non-numeric coordinate '0'"),
])
def test_read_names_non_integer_indices_and_non_finite_coordinates(tmp_path, cells, vertex,
                                                                   message):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"vertices": [{vertex}, [1, 0], [1, 1], [0, 1]], "cells": {cells}}}')
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
        read_mesh(path)


def test_read_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MeshFormatError, match="malformed"):
        read_mesh(path)


def test_read_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vertices": [[0, 0]], "cells": [], "note": "\xff"}')
    with pytest.raises(MeshFormatError,
                       match=f"^malformed mesh JSON in {re.escape(str(path))}: 'utf-8' codec"):
        read_mesh(path)


def test_read_rejects_json_nested_too_deeply_to_decode(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[" * 100_000)
    with pytest.raises(MeshFormatError,
                       match=f"^malformed mesh JSON in {re.escape(str(path))}: maximum recursion"):
        read_mesh(path)


@pytest.mark.parametrize("payload,message", [
    ("[[0, 0], [1, 0], [0, 1]]", "must be an object"),
    ('{"vertices": [[0, 0], [1, 0], [0, 1]]}', "is missing 'cells'"),
    ('{"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 2]]}',
     "has unsupported dim 3"),
    ('{"dim": "2", "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 2]]}',
     "has unsupported dim '2'"),
], ids=["not-an-object", "no-cells-key", "dim-3", "dim-string"])
def test_read_rejects_a_payload_that_is_not_a_2d_mesh_object(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(MeshFormatError, match=f"^mesh JSON in {re.escape(str(path))} {message}$"):
        read_mesh(path)


def test_read_ignores_unknown_keys(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": [[0, 0], [1, 0], [0, 1]],
        "cells": [[0, 1, 2]],
        "comment": "extra keys are fine",
    }))
    mesh = read_mesh(path)
    assert mesh.n_cells == 1


def test_edge_normal_points_low_to_high_cell():
    mesh = generate_square_grid(2)
    for e in range(mesh.n_edges):
        n = edge_normal(mesh, e)
        lo = mesh.edge_cells[e, 0]
        mid = edge_midpoint(mesh, e)
        if mesh.boundary_edges[e]:
            # outward: stepping along n leaves the domain
            p = mid + 1e-3 * n
            assert not (0 <= p[0] <= 1 and 0 <= p[1] <= 1)
        else:
            hi = mesh.edge_cells[e, 1]
            assert np.dot(n, cell_centroid(mesh, hi) - cell_centroid(mesh, lo)) > 0


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(sorted(GENERATORS)),
    level=st.integers(min_value=1, max_value=4),
)
def test_generator_invariants_property(family, level):
    mesh = GENERATORS[family](level)
    assert sum(cell_area(mesh, c) for c in range(mesh.n_cells)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
    for c in range(mesh.n_cells):
        assert cell_area(mesh, c) > 0


# ---------------------------------------------------------------- array topology


MESH_FIELDS = ("vertices", "cells", "offsets", "edges", "sides", "edge_cells", "boundary_edges")


def assert_matches_oracle(mesh, vertices, cells):
    """Every topology field of mesh is bit for bit what the cell-by-cell
    loop derives from the same input, tuples of Python ints included."""
    ref = loop_build_mesh(vertices, cells)
    for name in MESH_FIELDS:
        got, want = getattr(mesh, name), ref[name]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name
            assert all(type(v) is int for cyc in got for v in cyc), name


@pytest.mark.parametrize("level", range(1, 8))
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_generators_match_the_loop_oracle(family, level):
    """The meshgrid generators give the loop generators' vertices, and the
    array topology the loop topology, bit for bit."""
    vertices, cells = loop_generator_input(family, level)
    assert_matches_oracle(GENERATORS[family](level), vertices, cells)


@settings(max_examples=15, deadline=None)
@given(level=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1),
       renumber=st.booleans())
def test_jittered_and_renumbered_meshes_match_the_loop_oracle(level, seed, renumber):
    """Jittered square grids, optionally with cells, vertices and cycle
    starts renumbered at random."""
    base = generate_square_grid(level)
    rng = np.random.default_rng(seed)
    h = 1.0 / 2 ** (level - 1)
    verts = base.vertices + rng.uniform(-0.2 * h, 0.2 * h, base.vertices.shape)
    cells = base.cells
    if renumber:
        verts, cells = renumbered(verts, cells, rng)
    assert_matches_oracle(build_mesh(verts, cells), verts, cells)


def test_mixed_vertex_counts_match_the_loop_oracle():
    vertices, cells = mixed_input()
    mesh = build_mesh(vertices, cells)
    assert {len(cyc) for cyc in mesh.cells} == {3, 4}
    assert_matches_oracle(mesh, vertices, cells)
    assert_matches_oracle(build_mesh(vertices, cells[::-1]), vertices, cells[::-1])


def test_array_input_matches_list_input_and_is_not_frozen():
    vertices, cells = loop_generator_input("quad", 3)
    table = np.array(cells)
    mesh = build_mesh(np.array(vertices), table)
    assert_matches_oracle(mesh, vertices, cells)
    table[0, 0] = 1  # the caller's array stays writeable and unshared
    assert mesh.cells[0][0] == cells[0][0]


# Three triangles on each of the edges (0, 1) and (5, 6): every one is
# counterclockwise, so only the edge check fails.
FANS = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0),
        (3.0, 0.0), (4.0, 0.0), (3.5, 1.0), (3.5, -1.0), (3.5, 2.0)]
SQUARES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
           (2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)]
# Two counterclockwise triangles on the same side of their shared edge (0, 1).
FOLDED = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.3, 0.5)]

MALFORMED = {
    "bare-number-cells": (SQUARES, 5),
    "zero-dim-array-cells": (SQUARES, np.array(5)),
    "no-cells": (SQUARES, []),
    "no-cells-array": (SQUARES, np.zeros((0, 4), dtype=int)),
    "short-cell": (SQUARES, [(0, 1, 2, 3), (4, 5)]),
    "empty-cell": (SQUARES, [(0, 1, 2, 3), ()]),
    "index-too-large": (SQUARES, [(0, 1, 2, 3), (4, 5, 9, 7)]),
    "negative-index": (SQUARES, [(0, 1, 2, 3), (4, 5, -1, 7)]),
    "first-of-two-bad-indices": (SQUARES, [(0, 1, 2, 3), (4, 12, -3, 7)]),
    "repeated-vertex": (SQUARES, [(0, 1, 2, 3), (4, 5, 5, 7)]),
    "repeated-bad-index": (SQUARES, [(0, 1, 2, 3), (4, -2, -2, 7)]),
    "clockwise": (SQUARES, [(0, 1, 2, 3), (4, 7, 6, 5)]),
    "degenerate": ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)]),
    "three-cell-edge": (FANS, [(0, 1, 2), (1, 0, 3), (0, 1, 4)]),
    "first-third-use-in-scan-order": (FANS, [(0, 1, 2), (5, 6, 7), (6, 5, 8), (5, 6, 9),
                                             (1, 0, 3), (0, 1, 4)]),
    "earlier-cell-wins": (SQUARES, [(0, 1, 2, 3), (4, 5, 9, 7), (0, 1)]),
    "short-before-bad-index": (SQUARES, [(0, 9)]),
    "bad-index-before-repeat": (SQUARES, [(4, 4, 9, 7)]),
    "format-before-orientation": (SQUARES, [(0, 3, 2, 1), (4, 5, 6, 6)]),
    "orientation-before-edges": (FANS, [(0, 1, 2), (1, 0, 3), (0, 1, 4), (7, 6, 5)]),
    "bad-vertex-array": ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)]),
    "non-integer-index": (SQUARES, [(0, 1, 2, 3), (4, 5, 6.5, 7)]),
    "truncated-index": (SQUARES, [(0, 1, 2.7, 3)]),
    "float-array-cell": (SQUARES, np.array([(0, 1, 2, 3), (4, 5, 2.5, 7)])),
    "bare-number-cell": (SQUARES, [(0, 1, 2, 3), 5]),
    "null-index": (SQUARES, [(0, 1, 2, 3), (4, None, 6, 7)]),
    "string-index": (SQUARES, [(0, 1, 2, 3), (4, "a", 6, 7)]),
    "bool-index": (SQUARES, [(0, 1, 2, 3), (4, True, 6, 7)]),
    "bool-array-cells": (SQUARES, np.array([(0, 1, 1, 1), (1, 1, 0, 1)], dtype=bool)),
    "huge-index": (SQUARES, [(0, 1, 2, 3), (4, 5, 2**70, 7)]),
    "short-before-non-integer": (SQUARES, [(0, 1), (4, 5.5, 6, 7)]),
    "non-integer-before-short": (SQUARES, [(0, 1.5)]),
    "bare-number-before-bad-index": (SQUARES, [7, (4, 5, 9, 7)]),
    "nan-vertex": ([(0.0, 0.0), (1.0, float("nan")), (1.0, 1.0)], [(0, 1, 2)]),
    "inf-vertex": ([(0.0, 0.0), (1.0, 0.0), (float("inf"), 1.0)], [(0, 1, 2)]),
    "vertex-before-cell": ([(0.0, 0.0), (1.0, 0.0), (1.0, float("-inf"))], [(0, 1)]),
    "non-number-vertex": ([(0.0, "a"), (1.0, 0.0), (1.0, 1.0)], [(0, 1, 2)]),
    "bool-vertex": ([(0, 0), (True, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)]),
    "bool-vertex-array": (np.array([(0, 1), (1, 1), (1, 0), (0, 0)], dtype=bool), [(0, 1, 2)]),
    "non-finite-before-bool": ([(0, float("nan")), (True, 0), (1, 1)], [(0, 1, 2)]),
    "numeric-string-vertex": ([(0, 0), (1, 0), (1, "1.5"), (0, 1)], [(0, 1, 2, 3)]),
    "string-array-vertex": (np.array([("0", "0"), ("1", "0"), ("0", "1")]), [(0, 1, 2)]),
    "folded-pair": (FOLDED, [(0, 1, 2), (0, 1, 3)]),
    "first-fold-in-scan-order": (FANS, [(0, 1, 2), (5, 6, 7), (5, 6, 9), (0, 1, 4)]),
    "third-use-before-fold": (FANS, [(0, 1, 2), (0, 1, 4), (5, 6, 7), (6, 5, 8), (5, 6, 9)]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_the_loop_oracle_error(name):
    vertices, cells = MALFORMED[name]
    with pytest.raises(MeshFormatError) as want:
        loop_build_mesh(vertices, cells)
    with pytest.raises(MeshFormatError) as got:
        build_mesh(vertices, cells)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,message", [
    ("bare-number-cells", "cells must be a sequence of vertex cycles"),
    ("zero-dim-array-cells", "cells must be a sequence of vertex cycles"),
    ("no-cells", "mesh has no cells"),
    ("no-cells-array", "mesh has no cells"),
    ("truncated-index", "cell 0 has a non-integer vertex index 2.7"),
    ("float-array-cell", "cell 1 has a non-integer vertex index 2.5"),
    ("bare-number-cell", "cell 1 is not a sequence of vertex indices"),
    ("null-index", "cell 1 has a non-integer vertex index None"),
    ("string-index", "cell 1 has a non-integer vertex index 'a'"),
    ("bool-index", "cell 1 has a non-integer vertex index True"),
    ("nan-vertex", "vertex 1 has a non-finite coordinate (1.0, nan)"),
    ("inf-vertex", "vertex 2 has a non-finite coordinate (inf, 1.0)"),
    ("bool-vertex", "vertex 1 has a non-numeric coordinate True"),
    ("bool-vertex-array", "vertex 0 has a non-numeric coordinate False"),
    ("non-finite-before-bool", "vertex 0 has a non-finite coordinate (0.0, nan)"),
    ("numeric-string-vertex", "vertex 2 has a non-numeric coordinate '1.5'"),
    ("string-array-vertex", "vertex 0 has a non-numeric coordinate '0'"),
])
def test_non_integer_indices_and_non_finite_coordinates_are_named(name, message):
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
        build_mesh(*MALFORMED[name])


def test_integral_float_indices_are_accepted():
    cells = [(0, 1, 2, 3), (4, 5, 6, 7)]
    want = build_mesh(SQUARES, cells)
    for floats in ([tuple(map(float, c)) for c in cells], np.array(cells, dtype=float)):
        got = build_mesh(SQUARES, floats)
        assert got.cells == want.cells and np.array_equal(got.edges, want.edges)


def test_three_cell_edge_names_the_first_third_use():
    with pytest.raises(MeshFormatError, match=r"^edge \(5, 6\) shared by more than two "
                                              r"cells \(cell 3\)$"):
        build_mesh(*MALFORMED["first-third-use-in-scan-order"])


@pytest.mark.parametrize("name,message", [
    ("folded-pair", "cells 0 and 1 run edge (0, 1) the same way, so they fold over it"),
    ("first-fold-in-scan-order",
     "cells 1 and 2 run edge (5, 6) the same way, so they fold over it"),
])
def test_folded_cells_name_the_edge_and_both_cells(name, message):
    """Each cell is counterclockwise, and no edge has more than two cells;
    unchecked, the folded pair solves patch-linear with an L2 error of 0.233."""
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
        build_mesh(*MALFORMED[name])


def test_diameter_matches_the_double_loop_on_random_polygons():
    rng = np.random.default_rng(7)
    for n_v in range(3, 15):
        coords = rng.normal(size=(20, n_v, 2)) * 10.0 ** rng.integers(-4, 4, size=(20, 1, 1))
        want = [loop_diameter(xy) for xy in coords]
        assert polygon_diameter(coords).tolist() == want
        assert float(polygon_diameter(coords[0])) == want[0]


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_diameter_matches_the_double_loop_on_every_family(family):
    mesh = GENERATORS[family](4)
    for n_v in {len(cyc) for cyc in mesh.cells}:
        coords = mesh.vertices[np.array([cyc for cyc in mesh.cells if len(cyc) == n_v])]
        assert polygon_diameter(coords).tolist() == [loop_diameter(xy) for xy in coords]
