import importlib.util
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wg_sfem.polymesh import generate_square_grid
from wg_sfem.quadrature import (
    MAX_SEGMENT_DEGREE,
    MAX_TRIANGLE_DEGREE,
    SYMMETRIC_ORBITS,
    UnsupportedDegreeError,
    data_degree,
    reference_triangle_monomial_integral,
    segment_rule,
    symmetric_rule,
    triangle_rule,
)

from helpers import segment_points, triangle_points, triangulate_cell


def test_segment_degree_one_is_midpoint_rule():
    rule = segment_rule(1)
    assert rule.points.shape == (1,)
    assert rule.points[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_segment_quadratic_and_ninth_power():
    r2 = segment_rule(2)
    assert np.sum(r2.weights * r2.points**2) == pytest.approx(1 / 3, abs=1e-15)
    r9 = segment_rule(9)
    assert np.sum(r9.weights * r9.points**9) == pytest.approx(1 / 10, abs=1e-14)


def test_segment_exactness_sweep():
    for degree in range(MAX_SEGMENT_DEGREE + 1):
        rule = segment_rule(degree)
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-14)
        for p in range(degree + 1):
            exact = 1.0 / (p + 1)
            val = float(np.sum(rule.weights * rule.points**p))
            assert abs(val - exact) <= 1e-13 * exact


def test_triangle_constant_and_xy():
    r0 = triangle_rule(0)
    assert np.sum(r0.weights) == pytest.approx(0.5, abs=1e-15)
    r2 = triangle_rule(2)
    val = float(np.sum(r2.weights * r2.points[:, 0] * r2.points[:, 1]))
    assert val == pytest.approx(1 / 24, abs=1e-15)


def test_triangle_exactness_sweep():
    for degree in range(MAX_TRIANGLE_DEGREE + 1):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = reference_triangle_monomial_integral(a, b)
                val = float(np.sum(rule.weights * x**a * y**b))
                assert abs(val - exact) <= 1e-13 * exact, (degree, a, b)


@pytest.mark.parametrize("degree", sorted(SYMMETRIC_ORBITS))
def test_symmetric_rule_exactness_sweep(degree):
    rule = symmetric_rule(degree)
    x, y = rule.points.T
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = reference_triangle_monomial_integral(a, b)
            val = float(np.sum(rule.weights * x**a * y**b))
            assert abs(val - exact) <= 1e-13 * exact, (a, b)


@pytest.mark.parametrize("degree", sorted(SYMMETRIC_ORBITS))
def test_symmetric_rule_has_positive_weights_and_interior_points(degree):
    rule = symmetric_rule(degree)
    x, y = rule.points.T
    assert (rule.weights > 0).all()
    assert (x > 0).all() and (y > 0).all() and (1 - x - y > 0).all()


@pytest.mark.parametrize("degree", sorted(SYMMETRIC_ORBITS))
def test_symmetric_rule_is_invariant_under_barycentric_permutations(degree):
    rule = symmetric_rule(degree)
    bary = np.column_stack([rule.points, 1 - rule.points.sum(axis=1)])
    for perm in permutations(range(3)):
        moved = bary[:, perm][:, :2]
        dist = np.abs(moved[:, None] - rule.points[None]).max(axis=-1)
        match = dist.argmin(axis=1)
        assert dist.min(axis=1).max() < 1e-15
        assert sorted(match) == list(range(len(match)))
        assert np.array_equal(rule.weights[match], rule.weights)


@pytest.mark.parametrize("degree", sorted(SYMMETRIC_ORBITS))
def test_symmetric_rule_has_fewer_points_than_the_collapsed_rule(degree):
    assert symmetric_rule(degree).weights.size < triangle_rule(degree).weights.size


def test_symmetric_rule_covers_the_data_degrees_and_falls_back_below():
    assert {data_degree(k) for k in range(5)} == set(SYMMETRIC_ORBITS)
    assert symmetric_rule(10) is triangle_rule(10)
    rule = symmetric_rule(data_degree(1))
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


def test_symmetric_rules_script_check_passes(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "symmetric_rules.py"
    spec = importlib.util.spec_from_file_location("symmetric_rules", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == len(SYMMETRIC_ORBITS)


def test_degree_guards():
    with pytest.raises(UnsupportedDegreeError):
        segment_rule(MAX_SEGMENT_DEGREE + 1)
    with pytest.raises(UnsupportedDegreeError):
        triangle_rule(MAX_TRIANGLE_DEGREE + 1)
    with pytest.raises(UnsupportedDegreeError):
        segment_rule(-1)
    with pytest.raises(UnsupportedDegreeError):
        triangle_rule(-1)


def integrate_cell(mesh, cell, f, degree):
    """Sum of the rule over the fan sub-triangles of one cell."""
    tris = mesh.vertices[np.array(triangulate_cell(mesh, cell).triangles)]
    pts, w = triangle_points(tris, degree)
    vals = np.asarray(f(pts[..., 0].ravel(), pts[..., 1].ravel()), dtype=float)
    return w.ravel() @ vals


def integrate_edge(mesh, edge, f, degree):
    pts, w = segment_points(*mesh.vertices[mesh.edges[edge]], degree)
    return w @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)


def test_integrate_cell_on_unit_square():
    mesh = generate_square_grid(1)
    one = integrate_cell(mesh, 0, lambda x, y: np.ones_like(x), 2)
    assert one == pytest.approx(1.0, abs=1e-15)
    xint = integrate_cell(mesh, 0, lambda x, y: x, 2)
    assert xint == pytest.approx(0.5, abs=1e-15)
    sins = integrate_cell(
        mesh, 0, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), 20
    )
    assert sins == pytest.approx(4 / np.pi**2, abs=1e-12)


def test_integrate_cell_vector_field():
    mesh = generate_square_grid(1)
    val = integrate_cell(
        mesh, 0, lambda x, y: np.stack([x, np.ones_like(y)], axis=-1), 2
    )
    assert val == pytest.approx([0.5, 1.0], abs=1e-15)


def test_integrate_edge_arclength_examples():
    mesh = generate_square_grid(1)
    bottom = next(
        e for e in range(mesh.n_edges)
        if np.allclose(mesh.vertices[mesh.edges[e]][:, 1], 0.0)
    )
    assert integrate_edge(mesh, bottom, lambda x, y: np.ones_like(x), 1) == (
        pytest.approx(1.0, abs=1e-15)
    )
    # t is the arclength parameter along the canonical direction = x here
    assert integrate_edge(mesh, bottom, lambda x, y: x, 3) == pytest.approx(
        0.5, abs=1e-15
    )
    assert integrate_edge(mesh, bottom, lambda x, y: x**3, 3) == pytest.approx(
        0.25, abs=1e-15
    )


@settings(max_examples=25, deadline=None)
@given(
    deg=st.integers(min_value=0, max_value=8),
    coeffs=st.lists(st.floats(-5, 5), min_size=9, max_size=9),
)
def test_segment_rule_integrates_random_polynomials(deg, coeffs):
    rule = segment_rule(deg)
    cs = np.array(coeffs[: deg + 1])
    val = float(np.sum(rule.weights * np.polyval(cs[::-1], rule.points)))
    exact = float(np.sum(cs / np.arange(1, deg + 2)))
    assert val == pytest.approx(exact, rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    ax=st.floats(-1, 1), ay=st.floats(-1, 1),
    bx=st.floats(1.5, 3), by=st.floats(-1, 1),
    cx=st.floats(-1, 1), cy=st.floats(1.5, 3),
    a=st.integers(0, 3), b=st.integers(0, 3),
)
def test_affine_map_consistency(ax, ay, bx, by, cx, cy, a, b):
    """Integrating x^a y^b over a physical triangle agrees with the pulled-back
    reference integrand weighted by the Jacobian."""
    tri = np.array([[ax, ay], [bx, by], [cx, cy]])
    deg = a + b
    pts, w = triangle_points(tri, deg)
    direct = float(np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b))

    rule = triangle_rule(deg)
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    mapped = tri[0] + np.outer(rule.points[:, 0], e1) + np.outer(rule.points[:, 1], e2)
    pulled = float(np.sum(rule.weights * jac * mapped[:, 0] ** a * mapped[:, 1] ** b))
    assert direct == pytest.approx(pulled, rel=1e-13, abs=1e-13)


def test_segment_points_weights_sum_to_length():
    a, b = np.array([0.2, 0.1]), np.array([0.9, 0.6])
    pts, w = segment_points(a, b, 7)
    assert np.sum(w) == pytest.approx(np.linalg.norm(b - a), rel=1e-14)
    assert np.allclose(pts[0], a + (b - a) * segment_rule(7).points[0])
