import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wg_sfem.localspaces as localspaces
from wg_sfem.analysis import get_case
from wg_sfem.localspaces import (
    CONDITION_WARN,
    DegreeError,
    GeometryError,
    LambdaDimensionError,
    MAX_DEGREE,
    OperatorCache,
    OperatorStack,
    build_lambda_basis,
    dim_pk,
    expected_lambda_dim,
    monomial_exponents,
    project_qb,
    shape_classes,
)
from wg_sfem.polymesh import (
    GENERATORS,
    StarShapeError,
    build_mesh,
    fan_triangles,
    generate_hex_grid,
    generate_quad_grid,
)
from wg_sfem.quadrature import data_degree, segment_rule
from wg_sfem.wgsolve import assemble, solve

from helpers import (
    CellScalarBasis,
    cell_centroid,
    cell_lambda_mass,
    cell_vertices,
    fresh_cell,
    interior_values,
    isotropic_stack,
    jittered_square_mesh,
    lambda_mass,
    lambda_values,
    loop_shape_classes,
    mixed_input,
    piola_divergence,
    piola_fields,
    renumbered,
    segment_points,
    side_normal,
    triangle_points,
    triangulate_cell,
)

UNIT_SQUARE = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)])
# A quad whose first fan triangle is 1e-8 high.
SLIVER = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-8), (0.0, 1.0)])


def rt_fields(lam, tri, pts):
    """Orthonormalized RT fields of fan triangle ``tri`` of the first cell of
    a stacked lambda basis, shape (npts, n_fields, 2)."""
    return np.einsum("qfd,fg->qgd", piola_fields(lam, 0, tri, pts), lam.orth[0, tri])


def normal_trace(lam, tri, pts, normal):
    F = rt_fields(lam, tri, pts)
    return F[:, :, 0] * normal[0] + F[:, :, 1] * normal[1]


def basis_values(ops, pts, tri):
    """Values of every weak-gradient basis field on one fan triangle, shape
    (npts, n_lambda, 2)."""
    return lambda_values(ops, np.eye(ops.weak_gradient.shape[0]), pts, tri)


def random_polynomial(k, seed):
    """Random polynomial of total degree k as a vectorized closure."""
    exps = monomial_exponents(k)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, len(exps))

    def p(x, y):
        return sum(c * x**a * y**b for c, (a, b) in zip(coeffs, exps))

    def grad(x, y):
        gx = sum(c * a * x ** max(a - 1, 0) * y**b for c, (a, b) in zip(coeffs, exps))
        gy = sum(c * b * x**a * y ** max(b - 1, 0) for c, (a, b) in zip(coeffs, exps))
        return np.stack([gx + 0 * x, gy + 0 * x], axis=-1)

    return p, grad


# ---------------------------------------------------------------- RT bases


def test_rt0_has_three_fields_with_constant_edge_traces():
    sub = triangulate_cell(UNIT_SQUARE, 0)
    lam = build_lambda_basis(UNIT_SQUARE, 0, 0)
    assert lam.orth.shape[-1] == 3
    tri = UNIT_SQUARE.vertices[list(sub.triangles[0])]
    for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
        t = (b - a) / np.linalg.norm(b - a)
        normal = np.array([t[1], -t[0]])
        pts, _ = segment_points(a, b, 4)
        trace = normal_trace(lam, 0, pts, normal)
        assert np.allclose(trace, trace[0], atol=1e-13)


@pytest.mark.parametrize("k", range(5))
def test_rt_dimension_formula(k):
    lam = build_lambda_basis(UNIT_SQUARE, 0, k)
    assert lam.orth.shape[-1] == (k + 1) * (k + 3)


def test_rt2_gram_matrix_full_rank():
    sub = triangulate_cell(UNIT_SQUARE, 0)
    lam = build_lambda_basis(UNIT_SQUARE, 0, 2)
    pts, w = triangle_points(UNIT_SQUARE.vertices[list(sub.triangles[1])], 8)
    F = rt_fields(lam, 1, pts)
    gram = np.einsum("q,qid,qjd->ij", w, F, F)
    assert gram.shape == (15, 15)
    sv = np.linalg.svd(gram, compute_uv=False)
    assert sv[-1] > 0
    assert sv[0] / sv[-1] < 1e8


def test_rt_degenerate_triangle_rejected():
    # Star-shaped, but the first fan triangle is a sliver 1e-8 high: its RT
    # Gram is not positive definite in double precision.
    mesh = build_mesh(SLIVER, [(0, 1, 2, 3)])
    for k in (0, 1, MAX_DEGREE):
        with pytest.raises(GeometryError, match=r"^sub-triangle \(0, 1, 2\) of cell 0: singular"):
            build_lambda_basis(mesh, 0, k)


@pytest.mark.parametrize("scale", [1e-7, 1e-9])
@pytest.mark.parametrize("family", ["quad", "hex"])
def test_small_meshes_build_with_the_unit_mesh_stiffness(family, scale):
    """No absolute size limit: the stiffness is scale-free in 2D, so a
    mesh scaled down builds the unit mesh's to rounding (5e-14 measured)."""
    mesh = GENERATORS[family](3)
    small = build_mesh(scale * mesh.vertices, mesh.cells)
    for k in range(MAX_DEGREE + 1):
        unit, scaled = OperatorCache(mesh, k), OperatorCache(small, k)
        for c in range(mesh.n_cells):
            want, got = (ops.stack.stiffness[ops.index] for ops in (unit.get(c), scaled.get(c)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_degree_cap():
    with pytest.raises(DegreeError):
        build_lambda_basis(UNIT_SQUARE, 0, 5)


# ---------------------------------------------------------------- Lambda space


def test_lambda_triangle_cell_is_full_rt():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    for k in range(3):
        lam = build_lambda_basis(mesh, 0, k)
        assert lam.n_lambda == (k + 1) * (k + 3)
        assert np.allclose(lam.coeffs, np.eye((k + 1) * (k + 3)))


def test_lambda_unit_square_k0_brute_force_oracle():
    """The 2x6 constraint matrix assembled explicitly has rank 2 -> dim 4."""
    lam = build_lambda_basis(UNIT_SQUARE, 0, 0)
    assert lam.n_lambda == 4

    sub = triangulate_cell(UNIT_SQUARE, 0)
    # jump row across the diagonal, tested against the constant moment
    va, vb = sub.internal_edges[0]
    a, b = UNIT_SQUARE.vertices[va], UNIT_SQUARE.vertices[vb]
    length = np.linalg.norm(b - a)
    tang = (b - a) / length
    normal = np.array([tang[1], -tang[0]])
    pts, w = segment_points(a, b, 4)
    mom_a = (w @ normal_trace(lam, 0, pts, normal)) / length
    mom_b = (w @ normal_trace(lam, 1, pts, normal)) / length
    row_jump = np.concatenate([mom_a, -mom_b])
    # divergence match row: the constant divergences of the fields
    center = cell_centroid(UNIT_SQUARE, 0)[None]
    divs = [(piola_divergence(lam, 0, t, center) @ lam.orth[0, t])[0] for t in range(2)]
    row_div = np.concatenate([divs[0], -divs[1]])
    C = np.vstack([row_jump, row_div])
    assert C.shape == (2, 6)
    assert np.linalg.matrix_rank(C, tol=1e-12) == 2
    null_dim = 6 - np.linalg.matrix_rank(C, tol=1e-12)
    assert null_dim == lam.n_lambda
    assert np.max(np.abs(C @ lam.coeffs[0])) < 1e-12


def test_lambda_regular_hexagon_k1_dimension():
    pts = [(np.cos(a), np.sin(a)) for a in np.linspace(0, 2 * np.pi, 7)[:-1]]
    mesh = build_mesh(pts, [tuple(range(6))])
    lam = build_lambda_basis(mesh, 0, 1)
    assert expected_lambda_dim(6, 1) == 4 * 2 * 4 - 3 * (2 + 3)
    assert lam.n_lambda == 17


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("k", range(5))
def test_lambda_dimension_law_on_generated_cells(family, k):
    mesh = GENERATORS[family](2)
    for c in range(mesh.n_cells):
        lam = build_lambda_basis(mesh, c, k)
        assert lam.n_lambda == expected_lambda_dim(len(mesh.cells[c]), k)


def test_lambda_columns_orthonormal():
    lam = build_lambda_basis(generate_hex_grid(1), 0, 2)
    gram = lam.coeffs[0].T @ lam.coeffs[0]
    assert np.allclose(gram, np.eye(lam.n_lambda), atol=1e-12)


@pytest.mark.parametrize("k", range(4))
def test_lambda_membership_residuals(k):
    """Independent recheck: normal continuity across chords and one-piece
    divergence, via fresh quadrature and pointwise divergence evaluation."""
    mesh = generate_hex_grid(1)
    cell = next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 6)
    ops = fresh_cell(mesh, cell, k)
    lam = build_lambda_basis(mesh, [cell], k)
    sub = triangulate_cell(mesh, cell)
    scale_ref = np.max(np.abs(lam.coeffs))

    for (va, vb), (ta, tb) in zip(sub.internal_edges, sub.internal_adjacency):
        a, b = mesh.vertices[va], mesh.vertices[vb]
        tang = (b - a) / np.linalg.norm(b - a)
        normal = np.array([tang[1], -tang[0]])
        pts, w = segment_points(a, b, 2 * k + 6)
        jump = (basis_values(ops, pts, ta) - basis_values(ops, pts, tb)) @ normal
        assert np.max(np.abs(jump)) < 1e-10 * scale_ref

    # divergence of each column identical across triangles: each piece's
    # polynomial evaluated at points spread over the whole cell
    pts = np.concatenate([triangle_points(mesh.vertices[list(tri)], k + 2)[0]
                          for tri in sub.triangles])
    divs = [piola_divergence(lam, 0, i, pts) @ ops.stack.frame_coeffs[0, i]
            for i in range(sub.n_triangles)]
    for i in range(1, len(divs)):
        assert np.max(np.abs(divs[i] - divs[0])) < 1e-10 * (np.max(np.abs(divs[0])) + 1.0)


@pytest.mark.parametrize("k", range(3))
def test_lambda_contains_vector_polynomials(k):
    """Each [P_k]^2 monomial field is reproduced by its Lambda projection."""
    mesh = generate_quad_grid(2)
    ops = fresh_cell(mesh, 1, k)
    sub = triangulate_cell(mesh, 1)
    for a, b in monomial_exponents(k):
        for comp in (0, 1):

            def field(x, y, a=a, b=b, comp=comp):
                v = np.zeros((x.size, 2))
                v[:, comp] = x**a * y**b
                return v

            coeffs = ops.project_lambda_field(field)
            # compare pointwise on each sub-triangle
            err = 0.0
            ref = 0.0
            for i, tri in enumerate(sub.triangles):
                pts, w = triangle_points(mesh.vertices[list(tri)], 2 * k + 4)
                vals = lambda_values(ops, coeffs, pts, i)
                exact = field(pts[:, 0], pts[:, 1])
                err += w @ np.sum((vals - exact) ** 2, axis=1)
                ref += w @ np.sum(exact**2, axis=1)
            assert err < 1e-20 * max(ref, 1e-30) + 1e-24


# ---------------------------------------------------------------- weak gradient


def test_weak_gradient_of_constant_vanishes():
    for family in GENERATORS:
        mesh = GENERATORS[family](1)
        for c in range(mesh.n_cells):
            ops = fresh_cell(mesh, c, 1)
            n_sides = len(mesh.cells[c])
            local = np.zeros(ops.weak_gradient.shape[1])
            local[0] = 1.0
            for s in range(n_sides):
                local[dim_pk(1) + s * 2] = 1.0
            gw = ops.apply_weak_gradient(local)
            assert float(gw @ cell_lambda_mass(ops) @ gw) < 1e-24
            assert np.linalg.norm(gw) < 1e-11


@pytest.mark.parametrize("k", range(3))
def test_weak_gradient_reproduces_linear_gradient(k):
    mesh = generate_hex_grid(1)
    for c in range(mesh.n_cells):
        ops = fresh_cell(mesh, c, k)
        u0 = ops.project_interior(lambda x, y: x)
        ubs = [project_qb(mesh, e, k, lambda x, y: x) for e in mesh.cell_sides([c])[0]]
        gw = ops.apply_weak_gradient(np.concatenate([u0] + ubs))
        target = ops.project_lambda_field(
            lambda x, y: np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)
        )
        assert np.linalg.norm(gw - target) < 1e-12 * max(np.linalg.norm(target), 1)


def test_weak_gradient_single_edge_k0_dense_oracle():
    """v = 1 on one edge only: coefficients solve M g = b with
    b_j = integral over the edge of (basis field . outward normal)."""
    ops = fresh_cell(UNIT_SQUARE, 0, 0)
    side = 2
    local = np.zeros(ops.weak_gradient.shape[1])
    local[1 + side] = 1.0
    gw = ops.apply_weak_gradient(local)

    cyc = UNIT_SQUARE.cells[0]
    a = UNIT_SQUARE.vertices[cyc[side]]
    b = UNIT_SQUARE.vertices[cyc[(side + 1) % 4]]
    n_out = side_normal(UNIT_SQUARE, 0, side)
    pts, w = segment_points(a, b, 6)
    tri_i, _ = triangulate_cell(UNIT_SQUARE, 0).boundary_edge_map[side]
    fields = basis_values(ops, pts, tri_i)
    rhs = np.einsum("q,qld,d->l", w, fields, n_out)
    dense = np.linalg.solve(cell_lambda_mass(ops), rhs)
    assert np.allclose(gw, dense, atol=1e-13)


def test_weak_gradient_operator_consistency():
    """The weak gradient solves M g = moments with the lambda mass matrix M,
    the identity: the weak-gradient matrix is its own moment matrix."""
    op = fresh_cell(generate_quad_grid(2), 2, 1)
    lhs = cell_lambda_mass(op) @ op.weak_gradient
    scale = np.max(np.abs(op.weak_gradient))
    assert np.max(np.abs(lhs - op.weak_gradient)) < 1e-11 * scale


def test_local_stiffness_kernel_is_constants():
    for family in GENERATORS:
        mesh = GENERATORS[family](2)
        for c in (0, mesh.n_cells - 1):
            for k in (0, 1, 2):
                ops = fresh_cell(mesh, c, k)
                K = ops.stack.stiffness[ops.index]
                assert np.array_equal(K, K.T)
                vals, vecs = np.linalg.eigh(K)
                lam_max = vals[-1]
                n_null = int(np.sum(vals < 1e-11 * lam_max))
                assert n_null == 1, (family, c, k)
                const = np.zeros(ops.weak_gradient.shape[1])
                const[0] = 1.0
                for s in range(len(mesh.cells[c])):
                    const[dim_pk(k) + s * (k + 1)] = 1.0
                const /= np.linalg.norm(const)
                assert abs(abs(vecs[:, 0] @ const) - 1.0) < 1e-10


# ---------------------------------------------------------------- projections


@pytest.mark.parametrize("k", range(4))
def test_q0_idempotent_on_pk(k):
    mesh = generate_quad_grid(2)
    p, _ = random_polynomial(k, seed=k + 10)
    ops = fresh_cell(mesh, 2, k)
    coeffs = ops.project_interior(p)
    pts = cell_centroid(mesh, 2)[None, :] + np.array(
        [[0.01, 0.02], [-0.07, 0.05], [0.06, -0.04]]
    )
    assert np.allclose(interior_values(ops, coeffs, pts), p(pts[:, 0], pts[:, 1]),
                       atol=1e-12)


def test_q0_cell_average_analytic():
    mesh = build_mesh(
        [(0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5)], [(0, 1, 2, 3)]
    )
    ops = fresh_cell(mesh, 0, 0)
    avg_sin = ops.project_interior(lambda x, y: np.sin(np.pi * x))[0]
    assert avg_sin == pytest.approx(2 / np.pi, abs=1e-12)
    avg_sinsin = ops.project_interior(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[0]
    assert avg_sinsin == pytest.approx(4 / np.pi**2, abs=1e-12)


def test_qb_constant_projection():
    mesh = generate_hex_grid(1)
    for e in (0, mesh.n_edges - 1):
        for k in (0, 1, 2):
            coeffs = project_qb(mesh, e, k, lambda x, y: 3.25 * np.ones_like(x))
            expected = np.zeros(k + 1)
            expected[0] = 3.25
            assert np.allclose(coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("family", ["quad", "hex"])
@pytest.mark.parametrize("k", range(4))
def test_batched_qb_reproduces_polynomials_on_every_edge(family, k):
    mesh = GENERATORS[family](3)
    p, _ = random_polynomial(k, seed=50 + k)
    coeffs = project_qb(mesh, np.arange(mesh.n_edges), k, p)
    assert coeffs.shape == (mesh.n_edges, k + 1)
    # Evaluate each edge's expansion at its ends and an interior point,
    # s = -1, 1 and 0.3 along the canonical direction.
    a, b = mesh.vertices[mesh.edges].transpose(1, 0, 2)
    for s in (-1.0, 1.0, 0.3):
        pts = a + 0.5 * (s + 1.0) * (b - a)
        got = coeffs @ s ** np.arange(k + 1)
        assert np.max(np.abs(got - p(pts[:, 0], pts[:, 1]))) < 1e-12


def test_qb_of_sine_matches_dense_least_squares_fit():
    mesh = generate_hex_grid(2)
    k = 3
    coeffs = project_qb(mesh, np.arange(mesh.n_edges), k, _sin_sin)
    for e in range(mesh.n_edges):
        a, b = mesh.vertices[mesh.edges[e]]
        pts, w = segment_points(a, b, 30)
        s = 2.0 * np.linalg.norm(pts - a, axis=1) / np.linalg.norm(b - a) - 1.0
        sw = np.sqrt(w)
        basis = sw[:, None] * s[:, None] ** np.arange(k + 1)
        dense, *_ = np.linalg.lstsq(basis, sw * _sin_sin(pts[:, 0], pts[:, 1]), rcond=None)
        assert np.max(np.abs(coeffs[e] - dense)) < 1e-12
        assert np.array_equal(project_qb(mesh, e, k, _sin_sin), coeffs[e])


def test_project_lambda_constant_and_gradient_fields():
    mesh = generate_quad_grid(2)
    ops = fresh_cell(mesh, 0, 1)
    const = ops.project_lambda_field(
        lambda x, y: np.stack([np.full_like(x, 2.0), np.full_like(y, -1.0)], axis=-1)
    )
    pts = cell_centroid(mesh, 0)[None, :] + np.array([[0.03, -0.02], [-0.05, 0.04]])
    for i in range(triangulate_cell(mesh, 0).n_triangles):
        vals = lambda_values(ops, const, pts, i)
        assert np.allclose(vals, [2.0, -1.0], atol=1e-12)
    # gradient of a P_{k+1} polynomial is reproduced ([P_k]^2 containment)
    p, grad = random_polynomial(2, seed=3)
    coeffs = ops.project_lambda_field(grad)
    for i, tri in enumerate(triangulate_cell(mesh, 0).triangles):
        tpts, w = triangle_points(mesh.vertices[list(tri)], 8)
        vals = lambda_values(ops, coeffs, tpts, i)
        assert np.allclose(vals, grad(tpts[:, 0], tpts[:, 1]), atol=1e-11)


def test_project_lambda_dense_least_squares_oracle():
    """Coefficients match a dense weighted least-squares fit of the field."""
    ops = fresh_cell(UNIT_SQUARE, 0, 0)

    def field(x, y):
        return np.stack([y**2, -(x**2)], axis=-1)

    coeffs = ops.project_lambda_field(field)

    rows, rhs = [], []
    for i, tri in enumerate(triangulate_cell(UNIT_SQUARE, 0).triangles):
        pts, w = triangle_points(UNIT_SQUARE.vertices[list(tri)], 10)
        basis_vals = basis_values(ops, pts, i)
        sw = np.sqrt(w)
        exact = field(pts[:, 0], pts[:, 1])
        for d in (0, 1):
            rows.append(sw[:, None] * basis_vals[:, :, d])
            rhs.append(sw * exact[:, d])
    dense, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    assert np.allclose(coeffs, dense, atol=1e-11)


# ---------------------------------------------------------------- commuting identity


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("k", range(3))
def test_commuting_identity_random_polynomial(family, k):
    mesh = GENERATORS[family](2)
    p, grad = random_polynomial(k + 2, seed=17 * (k + 1))
    cache = OperatorCache(mesh, k)
    for c in range(mesh.n_cells):
        ops = cache.get(c)
        u0 = ops.project_interior(p)
        ubs = [project_qb(mesh, e, k, p) for e in mesh.cell_sides([c])[0]]
        lhs = ops.apply_weak_gradient(np.concatenate([u0] + ubs))
        rhs = ops.project_lambda_field(grad)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-12)


def test_commuting_identity_sine_field():
    mesh = generate_quad_grid(3)
    k = 1
    cache = OperatorCache(mesh, k)

    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad(x, y):
        return np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            ],
            axis=-1,
        )

    for c in range(0, mesh.n_cells, 3):
        ops = cache.get(c)
        u0 = ops.project_interior(u)
        ubs = [project_qb(mesh, e, k, u) for e in mesh.cell_sides([c])[0]]
        lhs = ops.apply_weak_gradient(np.concatenate([u0] + ubs))
        rhs = ops.project_lambda_field(grad)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_projection_orthogonality_residuals():
    """Projection residuals are orthogonal to their bases."""
    mesh = generate_quad_grid(2)
    k = 1
    ops = fresh_cell(mesh, 0, k)

    def u(x, y):
        return np.sin(x) * np.cosh(y)

    coeffs = ops.project_interior(u)
    n0 = dim_pk(k)
    tri_coords = ops.stack.tri_coords[ops.index]
    mom = np.zeros(n0)
    for coords in tri_coords:
        pts, w = triangle_points(coords, 20)
        resid = u(pts[:, 0], pts[:, 1]) - interior_values(ops, coeffs, pts)
        mom += (w * resid) @ interior_values(ops, np.eye(n0), pts)
    scale = np.linalg.norm(ops.stack.mass_scalar[ops.index] @ coeffs)
    assert np.linalg.norm(mom) <= 1e-12 * scale

    def field(x, y):
        return np.stack([np.sin(x + y), np.cos(x - y)], axis=-1)

    lam_coeffs = ops.project_lambda_field(field)
    lmom = np.zeros(ops.weak_gradient.shape[0])
    for i, coords in enumerate(tri_coords):
        pts, w = triangle_points(coords, 20)
        resid = field(pts[:, 0], pts[:, 1]) - lambda_values(ops, lam_coeffs, pts, i)
        lmom += np.einsum("q,qad,qd->a", w, basis_values(ops, pts, i), resid)
    lscale = np.linalg.norm(cell_lambda_mass(ops) @ lam_coeffs)
    assert np.linalg.norm(lmom) <= 1e-11 * lscale


@pytest.mark.parametrize("k", range(3))
def test_weak_gradient_exact_for_degree_kp1_polynomials(k):
    """For p in P_{k+1}, the weak gradient of its projection IS grad p:
    the projected gradient lies in the local space, so commuting plus
    containment give pointwise equality."""
    mesh = generate_hex_grid(2)
    p, grad = random_polynomial(k + 1, seed=31 + k)
    cache = OperatorCache(mesh, k)
    for c in (0, 5, mesh.n_cells - 1):
        ops = cache.get(c)
        u0 = ops.project_interior(p)
        ubs = [project_qb(mesh, e, k, p) for e in mesh.cell_sides([c])[0]]
        gw = ops.apply_weak_gradient(np.concatenate([u0] + ubs))
        for i, tri in enumerate(triangulate_cell(mesh, c).triangles):
            pts, _ = triangle_points(mesh.vertices[list(tri)], 6)
            vals = lambda_values(ops, gw, pts, i)
            exact = grad(pts[:, 0], pts[:, 1])
            assert np.max(np.abs(vals - exact)) < 1e-10 * (np.max(np.abs(exact)) + 1)


# ---------------------------------------------------------------- shape-class reuse


def _sin_sin(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _sin_sin_grad(x, y):
    return np.pi * np.stack(
        [np.cos(np.pi * x) * np.sin(np.pi * y), np.sin(np.pi * x) * np.cos(np.pi * y)],
        axis=-1,
    )


# The weak-gradient basis (Cholesky-orthonormalized RT frames, QR nullspace)
# depends on a cell's position only through rounding: two builds of
# congruent cells at different positions differ by up to 1.4e-13
# (weak_gradient) and 3.4e-14 (mass_lambda) for k <= 3 on these meshes once
# rotated onto one basis, so everything is held to 1e-12.


def _assert_rel_close(got, want, what, rtol=1e-12):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale, what


def _stack_coeffs(mesh, cache):
    """The nullspace coefficients of the rows of every stack of a cache, by
    the stack's id, from build_lambda_basis on the stack's cells: the call
    the stack was built with, so the same bases."""
    return {id(stack): build_lambda_basis(mesh, stack.cells, cache.k).coeffs
            for stack, *_ in cache.batches()}


def _assert_view_matches_fresh(mesh, cache, c, coeffs):
    """Returns the fresh build and the rotation onto the view's basis;
    coeffs is _stack_coeffs(mesh, cache)."""
    view = cache.get(c)
    fresh = fresh_cell(mesh, c, cache.k)
    # Rotate the fresh build's weak-gradient basis onto the view's.
    R = (coeffs[id(view.stack)][view.index].T
         @ build_lambda_basis(mesh, [c], cache.k).coeffs[0])
    _assert_rel_close(view.stack.stiffness[view.index], fresh.stack.stiffness[0],
                      (c, "stiffness"))
    _assert_rel_close(view.project_interior(_sin_sin), fresh.project_interior(_sin_sin),
                      (c, "project_interior"))
    _assert_rel_close(view.project_lambda_field(_sin_sin_grad),
                      R @ fresh.project_lambda_field(_sin_sin_grad), (c, "project_lambda_field"))
    _assert_rel_close(view.weak_gradient, R @ fresh.weak_gradient, (c, "weak_gradient"))
    _assert_rel_close(cell_lambda_mass(view), R @ cell_lambda_mass(fresh) @ R.T,
                      (c, "mass_lambda"))
    return fresh, R


def test_cached_operators_expose_the_fresh_attributes_and_own_triangulation():
    mesh = generate_hex_grid(3)
    cache = OperatorCache(mesh, 1)
    for c in (0, 7, mesh.n_cells - 1):
        view, fresh = cache.get(c), fresh_cell(mesh, c, 1)
        public = {name for name in dir(fresh) if not name.startswith("_")}
        assert public <= set(dir(view))
        assert view.cell == c
        fan = mesh.vertices[fan_triangles(mesh, [c])[0]]
        assert np.allclose(view.stack.tri_coords[view.index] + view.offset, fan,
                           rtol=0.0, atol=1e-14)


def test_interleaved_gets_do_not_alias_the_class_operators():
    mesh = generate_quad_grid(4)
    cache = OperatorCache(mesh, 2)
    stack, rows, cells, offsets, _ = next(cache.batches())
    a, b = int(cells[1]), int(cells[2])
    v1 = cache.get(a)
    v2 = cache.get(b)
    assert (v1.cell, v2.cell) == (a, b)
    fresh = fresh_cell(mesh, a, 2)
    _assert_rel_close(v1.project_interior(_sin_sin), fresh.project_interior(_sin_sin),
                      "project_interior")
    assert stack.cells[rows[0]] == cells[0] and not offsets[0].any()


@pytest.mark.parametrize("family,level", [("hex", 4), ("quad", 5)])
@pytest.mark.parametrize("k", range(4))
def test_reused_operators_match_fresh_build_on_every_cell(family, level, k):
    mesh = GENERATORS[family](level)
    cache = OperatorCache(mesh, k)
    assert shape_classes(mesh).max() + 1 < mesh.n_cells
    coeffs = _stack_coeffs(mesh, cache)
    for c in range(mesh.n_cells):
        _assert_view_matches_fresh(mesh, cache, c, coeffs)


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's workload module, whose census is the reference count."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("family,n_classes", [("square", 1), ("quad", 4), ("hex", 11)])
def test_shape_class_census_on_generated_meshes(family, n_classes, bench_workloads):
    mesh = GENERATORS[family](5)
    cache = OperatorCache(mesh, 1)
    n_found = shape_classes(mesh).max() + 1
    assert n_found == n_classes
    assert n_found == bench_workloads.count_shape_classes(mesh.vertices, mesh.cells)
    cells = np.concatenate([cells for _, _, cells, _, _ in cache.batches()])
    assert sorted(cells.tolist()) == list(range(mesh.n_cells))


@pytest.mark.parametrize("family,level", [("square", 6), ("hex", 3)])
def test_batch_dofs_are_the_dof_map_arrays_of_each_batch(family, level):
    """Square level 6 has one stack cut into four batches, hex level 3 two
    stacks of one batch each."""
    mesh = GENERATORS[family](level)
    cache = OperatorCache(mesh, 2)
    batches = list(cache.batches())
    assert len(batches) == {"square": 4, "hex": 2}[family]
    for _, _, cells, _, dofs in batches:
        assert np.array_equal(dofs, cache.dofmap.cell_dof_array(mesh, cells))


def test_walk_sums_and_scatters_as_a_serial_loop_over_the_batches(monkeypatch):
    """Hex level 3 in batches of at most 4 cells, over several stacks, with
    DOFs whose two cells lie in different batches.  The summed terms and
    each scattered vector are bit for bit those of adding every batch's
    results, value by value, in batch order."""
    monkeypatch.setattr(localspaces, "BATCH_CELLS", 4)
    monkeypatch.setattr(localspaces, "STACK_BYTES", 0)
    cache = OperatorCache(generate_hex_grid(3), 1)
    dofmap = cache.dofmap
    n0, sizes = dofmap.n_interior_per_cell, (dofmap.n_dofs, dofmap.edge_base)
    x = np.sin(np.arange(dofmap.n_dofs))

    def local(ops, rows, cells, offsets, dofs):
        Kx = (ops.stiffness[rows] @ x[dofs][..., None])[..., 0]
        return np.array([Kx.sum(), np.abs(Kx).sum()]), (dofs, Kx), (dofs[:, :n0], -Kx[:, :n0])

    batches = list(cache.batches())
    assert len(dict.fromkeys(ops for ops, *_ in batches)) > 1
    batches_per_dof = sum(np.bincount(dofs.ravel(), minlength=dofmap.n_dofs) > 0
                          for *_, dofs in batches)
    assert batches_per_dof.max() == 2

    term, vectors = 0.0, [np.zeros(size) for size in sizes]
    for batch in batches:
        t, *pairs = local(*batch)
        term = term + t
        for vector, (index, values) in zip(vectors, pairs):
            for i, v in zip(index.ravel(), values.ravel()):
                vector[i] += v
    walked = cache.walk(local, *sizes)
    assert len(walked) == 3
    for got, expected in zip(walked, [term, *vectors]):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_jittered_cells_are_never_merged():
    mesh = jittered_square_mesh()
    cache = OperatorCache(mesh, 1)
    assert shape_classes(mesh).max() + 1 == mesh.n_cells
    coeffs = _stack_coeffs(mesh, cache)
    for c in (0, 17, mesh.n_cells - 1):
        _assert_view_matches_fresh(mesh, cache, c, coeffs)


@pytest.mark.parametrize("k", (1, 2))
def test_translated_quads_with_other_side_orientations_get_own_class(k):
    """The second quad is the first moved by (2, 0.5), but its vertices are
    numbered so that three of its sides run against canonical order."""
    quad = np.array([(0.0, 0.0), (1.0, 0.0), (1.1, 0.8), (-0.1, 1.2)])
    moved = quad + (2.0, 0.5)
    verts = np.vstack([quad, moved[[0, 3, 2, 1]]])
    mesh = build_mesh(verts, [(0, 1, 2, 3), (4, 7, 6, 5)])
    assert np.allclose(cell_vertices(mesh, 1) - cell_vertices(mesh, 0), (2.0, 0.5))
    cache = OperatorCache(mesh, k)
    assert shape_classes(mesh).max() + 1 == 2
    v0, v1 = cache.get(0), cache.get(1)
    assert not np.allclose(v0.stack.stiffness[v0.index], v1.stack.stiffness[v1.index])
    coeffs = _stack_coeffs(mesh, cache)
    for c in (0, 1):
        _assert_view_matches_fresh(mesh, cache, c, coeffs)


def test_condition_warning_fires_once_per_class_naming_its_first_cell(monkeypatch):
    import wg_sfem.localspaces as localspaces

    monkeypatch.setattr(localspaces, "CONDITION_WARN", 0.0)
    mesh = generate_quad_grid(3)
    with pytest.warns(RuntimeWarning) as caught:
        cache = OperatorCache(mesh, 1)
    assert all("RT frame mass matrix condition" in str(w.message) for w in caught)
    named = sorted(int(str(w.message).split(":")[0].split()[1]) for w in caught)
    firsts = {}
    for stack, rows, cells, _, _ in cache.batches():
        for row, c in zip(rows.tolist(), cells.tolist()):
            key = (id(stack), row)
            firsts[key] = min(firsts.get(key, c), c)
    assert shape_classes(mesh).max() + 1 == 4
    assert named == sorted(firsts.values())


def test_condition_warning_reads_a_lower_bound_of_the_raw_gram_condition(monkeypatch):
    monkeypatch.setattr(localspaces, "CONDITION_WARN", 0.0)
    mesh, k = generate_hex_grid(2), 4
    with pytest.warns(RuntimeWarning) as caught:
        cache = OperatorCache(mesh, k)
    for w in caught:
        c = int(str(w.message).split(":")[0].split()[1])
        bound = float(str(w.message).split("condition ")[1].split()[0])
        ops = cache.get(c)
        s = ops.index
        cond = 0.0
        for t, coords in enumerate(ops.stack.tri_coords[s]):
            pts, wts = triangle_points(coords, 2 * k + 2)
            F = piola_fields(ops.stack, s, t, pts)
            cond = max(cond, np.linalg.cond(np.einsum("q,qid,qjd->ij", wts, F, F)))
        assert 1.0 <= bound <= 1.01 * cond, (c, bound, cond)


@pytest.mark.parametrize("k", range(5))
def test_project_lambda_field_matches_a_dense_fit_of_the_basis_fields(k):
    """On every cell of a jittered level-3 mesh, and on a hex level-3 batch
    whose rows repeat, the moment kernel gives the weighted least-squares
    fit of the weak-gradient basis fields, evaluated as Piola fields at the
    same points."""
    hex_batch = next(OperatorCache(generate_hex_grid(3), k).batches())
    assert np.unique(hex_batch[1]).size < hex_batch[1].size
    for stack, rows, cells, offsets, _ in [*OperatorCache(jittered_square_mesh(3), k).batches(),
                                           hex_batch]:
        got = stack.project_lambda_field(_sin_sin_grad, rows, offsets)
        for i, (row, off) in enumerate(zip(rows, offsets)):
            A, b = [], []
            for t, coords in enumerate(stack.tri_coords[row]):
                pts, w = triangle_points(coords + off, data_degree(k))
                basis = np.einsum("qfd,fl->qdl", piola_fields(stack, row, t, pts - off),
                                  stack.frame_coeffs[row, t])
                sw = np.sqrt(w)[:, None]
                A.append((sw[..., None] * basis).reshape(-1, basis.shape[-1]))
                b.append((sw * _sin_sin_grad(pts[:, 0], pts[:, 1])).ravel())
            dense = np.linalg.lstsq(np.vstack(A), np.concatenate(b), rcond=None)[0]
            _assert_rel_close(got[i], dense, (cells[i], "project_lambda_field"))


@pytest.mark.parametrize("k", range(4))
def test_operators_do_not_depend_on_the_stack(k):
    """Each cell of a jittered mesh gets the same operators built alone as in
    a stack of 64 classes, and the batched data terms of a mixed-class batch
    match the single-cell ones."""
    mesh = jittered_square_mesh()
    cache = OperatorCache(mesh, k)
    coeffs = _stack_coeffs(mesh, cache)
    for stack, rows, cells, offsets, _ in cache.batches():
        assert np.unique(rows).size == cells.size > 1
        interior = stack.project_interior(_sin_sin, rows, offsets)
        field = stack.project_lambda_field(_sin_sin_grad, rows, offsets)
        for i, c in enumerate(cells):
            fresh, R = _assert_view_matches_fresh(mesh, cache, c, coeffs)
            _assert_rel_close(interior[i], fresh.project_interior(_sin_sin),
                              (c, "batched project_interior"))
            _assert_rel_close(field[i], R @ fresh.project_lambda_field(_sin_sin_grad),
                              (c, "batched project_lambda_field"))


def _stack_rows(cache) -> dict:
    """Every array of the cache's stacks, ``condensed`` part by part and the
    ``h1`` memo included, with the rows of the stacks of one vertex count
    concatenated in class order."""
    arrays = {}
    for stack in dict.fromkeys(stack for stack, *_ in cache.batches()):
        parts = {**vars(stack), "h1": stack.h1,
                 **{f"condensed{i}": a for i, a in enumerate(stack.condensed)}}
        for name, a in parts.items():
            if isinstance(a, np.ndarray):
                arrays.setdefault((stack.jacobian.shape[1], name), []).append(a)
    return {key: np.concatenate(rows) for key, rows in arrays.items()}


@pytest.mark.parametrize("k", range(5))
def test_rows_and_results_do_not_depend_on_the_stack_partition(k, monkeypatch):
    """One class per cell, in batches of 8: stacks of 8 classes, the budget's
    floor, and one stack of all 64 give the same bits in every stack row
    and in every output of assemble and solve."""
    mesh, case = jittered_square_mesh(), get_case("sin2d")
    monkeypatch.setattr(localspaces, "BATCH_CELLS", 8)
    runs = []
    for budget in (0, 1 << 40):
        monkeypatch.setattr(localspaces, "STACK_BYTES", budget)
        system = assemble(mesh, k, case.f, case.g)
        sol = solve(system)
        stacks = dict.fromkeys(stack for stack, *_ in system.cache.batches())
        runs.append((len(stacks), _stack_rows(system.cache),
                     [system.rhs, system.edge_rhs, system.load, system.edge_matrix.data,
                      sol.u0, sol.ub, sol.residual, sol.iterations]))
    (n_floor, rows_floor, out_floor), (n_one, rows_one, out_one) = runs
    assert (n_floor, n_one) == (8, 1)
    assert rows_floor.keys() == rows_one.keys()
    for key, a in rows_floor.items():
        assert a.dtype == rows_one[key].dtype and np.array_equal(a, rows_one[key]), key
    for a, b in zip(out_floor, out_one):
        assert np.array_equal(a, b)


def test_one_stack_build_keeps_its_transients_near_its_arrays():
    """The traced peak, deterministic for fixed inputs, of one stack build
    of 1 024 jittered cells at k = 1, as a multiple of the bytes of the
    arrays the stack keeps.  Holding the complete Q, the Cholesky factors,
    the constraint blocks and the Grams to the end of the build peaked at
    2.03 times; freeing each after its last read peaks at 1.38."""
    mesh = jittered_square_mesh(6, 0)
    cells = np.arange(mesh.n_cells)
    OperatorStack(mesh, cells, 1)  # the reference and data tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stack = OperatorStack(mesh, cells, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in [*vars(stack).values(), *stack.condensed]
               if isinstance(a, np.ndarray))
    assert peak < 1.7 * kept


def test_cached_arrays_are_read_only():
    """A write through a cached view would change the operators of every
    cell of its class: doubling cache.get(0).weak_gradient in place once
    moved the energy error of square L4 at k = 1 from 6.2e-3 to 2.2."""
    cache = OperatorCache(GENERATORS["square"](4), 1)
    W, o = cache.get(0).weak_gradient, cache.get(5).offset
    with pytest.raises(ValueError, match="read-only"):
        W *= 2
    with pytest.raises(ValueError, match="read-only"):
        o += 0.25
    stack = cache.get(5).stack
    for a in [*vars(stack).values(), *stack.condensed, stack.h1]:
        if isinstance(a, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0
    for batch in cache.batches():
        for a in batch[1:]:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0


@pytest.mark.parametrize("k", range(5))
def test_mass_lambda_is_the_identity(k):
    """Orthonormal RT frames and an orthonormal nullspace basis make the
    weak-gradient mass matrix the identity, up to rounding: 1.2e-14 at
    worst on these meshes, since the Piola frames' Grams have condition at
    most cond(B^T B)."""
    meshes = [GENERATORS["square"](2), GENERATORS["quad"](3), GENERATORS["hex"](3),
              jittered_square_mesh()]
    for mesh in meshes:
        for stack, *_ in OperatorCache(mesh, k).batches():
            eye = np.eye(stack.weak_gradient.shape[1])
            assert np.max(np.abs(lambda_mass(stack) - eye)) < 1e-13


def test_thin_triangle_gets_the_second_orthonormalization_pass():
    """A triangle 1000 times longer than high: its Gram's condition is
    about 1e6, beyond what one Cholesky pass handles to 1e-12 (9.4e-12
    measured), so the second pass runs and brings it to 5e-14."""
    mesh = build_mesh([(0.0, 0.0), (1.0, 0.0), (0.3, 1e-3)], [(0, 1, 2)])
    for k in range(MAX_DEGREE + 1):
        stack = OperatorCache(mesh, k).get(0).stack
        eye = np.eye(stack.weak_gradient.shape[1])
        assert np.max(np.abs(lambda_mass(stack) - eye)) < 1e-12


SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
# A quad whose second fan triangle, 30 times longer than the first and half
# its area, reaches far along the chord: matched against the first, its
# divergence rows have relative singular values down to 3e-2 at k = 1.
NEEDLE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (30.0, 30.5)]) / 30.0


@pytest.mark.parametrize("middle,error,rtol,singular", [
    # A dart anchored next to its reflex vertex.
    ([(1.0, 0.0), (0.2, 0.2), (0.0, 1.0), (0.0, 0.0)], StarShapeError, None, False),
    # Star-shaped, but the first fan triangle's RT Gram is singular.
    (SLIVER, GeometryError, None, False),
    # A needle: at this rtol the squares still pass the dimension law.
    (NEEDLE, LambdaDimensionError, 0.1, False),
    # A sound square whose first fan triangle's RT Gram reads zero, so the
    # batched Cholesky fails for the whole stack.
    (1.15 * SQUARE, GeometryError, None, True),
], ids=["non-star", "degenerate-triangle", "dimension-law", "singular-Gram"])
def test_stacked_build_names_the_offending_cell(middle, error, rtol, singular, monkeypatch):
    """Cell 2 of five disjoint quads of different sizes is bad; all five
    classes are built in one stack when the cache is, and the error names
    cell 2."""
    if rtol is not None:
        monkeypatch.setattr(localspaces, "NULLSPACE_RTOL", rtol)
    if singular:
        gram = localspaces._gram

        def gram_zeroing_cell_2(ref, B):
            G = gram(ref, B)
            if len(G) == 5:
                G[2, 0] = 0.0
            return G

        monkeypatch.setattr(localspaces, "_gram", gram_zeroing_cell_2)
    quads = [1.0 * SQUARE, 1.1 * SQUARE, np.asarray(middle), 1.2 * SQUARE, 1.3 * SQUARE]
    verts = np.vstack([q + (3.0 * i, 0.0) for i, q in enumerate(quads)])
    mesh = build_mesh(verts, [tuple(range(4 * i, 4 * i + 4)) for i in range(5)])
    assert shape_classes(mesh).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(error, match=r"\bcell 2\b"):
        OperatorCache(mesh, 1)


# ---------------------------------------------------------------- shape classes, rank test


def _assert_classes_match_the_loop_oracle(mesh):
    got, want = shape_classes(mesh), loop_shape_classes(mesh)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", range(1, 8))
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_shape_classes_match_the_loop_oracle(family, level):
    _assert_classes_match_the_loop_oracle(GENERATORS[family](level))


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(sorted(GENERATORS)), level=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), renumber=st.booleans())
def test_shape_classes_of_jittered_renumbered_meshes_match_the_loop_oracle(family, level,
                                                                           seed, renumber):
    """A random subset of the vertices jittered, and optionally the cells,
    vertices and cycle starts renumbered: classes merge and split in ways
    the generated grids never show."""
    base = GENERATORS[family](level)
    rng = np.random.default_rng(seed)
    step = 0.1 / 2 ** (level + 1)  # a tenth of the shortest edge of any family
    verts = base.vertices + (rng.uniform(-step, step, base.vertices.shape)
                             * (rng.random((base.n_vertices, 1)) < 0.3))
    cells = base.cells
    if renumber:
        verts, cells = renumbered(verts, cells, rng)
    _assert_classes_match_the_loop_oracle(build_mesh(verts, cells))


def test_shape_classes_of_mixed_vertex_counts_match_the_loop_oracle():
    vertices, cells = mixed_input()
    _assert_classes_match_the_loop_oracle(build_mesh(vertices, cells))
    _assert_classes_match_the_loop_oracle(build_mesh(vertices, cells[::-1]))


def _spy_on_svd(monkeypatch) -> list:
    """The number of matrices in each np.linalg.svd call from now on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(len(a)) or svd(a, *args, **kw))
    return calls


def test_rank_test_of_generated_cells_needs_no_singular_values(monkeypatch):
    """The Frobenius bound on cond(R) certifies every generated cell, so
    the singular values are never computed."""
    calls = _spy_on_svd(monkeypatch)
    mesh = generate_hex_grid(2)
    for k in range(MAX_DEGREE + 1):
        for n_v in (4, 6):
            build_lambda_basis(mesh, [c for c in range(mesh.n_cells)
                                      if len(mesh.cells[c]) == n_v], k)
    assert len(calls) == 2 * (MAX_DEGREE + 1) and not any(calls)


def test_rank_deficient_cell_takes_the_svd_route_and_raises(monkeypatch):
    """At rtol 0.1 the needle quad fails the rank test; it alone gets
    singular values, and the error names it and lists the few on each side
    of the rank cut, over the largest."""
    monkeypatch.setattr(localspaces, "NULLSPACE_RTOL", 0.1)
    quads = [SQUARE, 1.1 * SQUARE, NEEDLE, 1.2 * SQUARE, 1.3 * SQUARE]
    verts = np.vstack([q + (3.0 * i, 0.0) for i, q in enumerate(quads)])
    mesh = build_mesh(verts, [tuple(range(4 * i, 4 * i + 4)) for i in range(5)])
    calls = _spy_on_svd(monkeypatch)
    with pytest.raises(LambdaDimensionError,
                       match=r"^cell 2 \(k=1\): nullspace dimension 12 != expected 11; "
                             r"constraint singular values over the largest, the last 3 "
                             r"above the rank cut 1e-01 and the next: "
                             r"7\.43e-01 6\.32e-01 2\.13e-01 2\.98e-02$"):
        build_lambda_basis(mesh, range(5), 1)
    assert calls == [1]


# ---------------------------------------------------------------- Piola frames


def _poly_field(x, y):
    return np.stack([x**2 - 3.0 * x * y + 1.0, y**3 + x], axis=-1)


def _mass_norm(c, M):
    return np.sqrt(np.einsum("...i,...ij,...j->...", c, M, c))


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_piola_build_matches_the_isotropic_oracle_cell_by_cell(k):
    """Every cell of the generated families at levels 1-4 and of a seed-3
    jittered mesh: the quantities that do not depend on the choice of the
    weak-gradient basis agree with the isotropic-frame build to 1e-12
    (2e-12 at k = 4), project_interior in the L2 norm of the projected
    function (its
    monomial coefficients carry the condition of the interior mass matrix,
    up to 1e5 at k = 4, in both builds)."""
    meshes = [GENERATORS[f](level) for f in sorted(GENERATORS) for level in range(1, 5)]
    for mesh in meshes + [jittered_square_mesh(4, seed=3)]:
        new = {}
        for stack, rows, cells, offsets, _ in OperatorCache(mesh, k).batches():
            K = stack.stiffness[rows]
            assert np.array_equal(K, K.swapaxes(-1, -2))
            W = stack.weak_gradient[rows]
            for name, value in (
                    ("stiffness", K), ("mass_scalar", stack.mass_scalar[rows]),
                    ("h1", stack.h1[rows].swapaxes(-1, -2) @ stack.h1[rows]),
                    ("schur", stack.condensed[2][rows]),
                    ("project_interior", stack.project_interior(_sin_sin, rows, offsets)),
                    ("W^T Q grad u", np.einsum("nlj,nl->nj", W, stack.project_lambda_field(
                        _sin_sin_grad, rows, offsets))),
                    ("W^T Q g", np.einsum("nlj,nl->nj", W, stack.project_lambda_field(
                        _poly_field, rows, offsets))),
                    ("n_lambda", np.full(len(cells), stack.weak_gradient.shape[1]))):
                new.setdefault(name, {}).update(zip(cells.tolist(), value))
        sizes = np.array([len(c) for c in mesh.cells])
        for n_v in np.unique(sizes):
            cells = np.flatnonzero(sizes == n_v)
            old = isotropic_stack(mesh, cells, k)
            want = {"stiffness": old.stiffness, "mass_scalar": old.mass_scalar,
                    "h1": old.h1, "schur": old.schur,
                    "project_interior": old.project_interior(_sin_sin),
                    "W^T Q grad u": np.einsum("nlj,nl->nj", old.weak_gradient,
                                              old.project_lambda_field(_sin_sin_grad)),
                    "W^T Q g": np.einsum("nlj,nl->nj", old.weak_gradient,
                                         old.project_lambda_field(_poly_field)),
                    "n_lambda": np.full(len(cells), old.n_lambda)}
            for i, c in enumerate(cells):
                for name, values in want.items():
                    got, what = new[name][c], (mesh.n_cells, c, name)
                    if name == "project_interior":
                        M = new["mass_scalar"][c]
                        assert _mass_norm(got - values[i], M) <= 1e-12 * _mass_norm(values[i], M)
                    elif name == "n_lambda":
                        assert got == values[i], what
                    else:
                        # At k = 4 the oracle's weak-gradient moments of
                        # hex cells are 6e-13 off their exact values (the
                        # Piola build's 7e-14; see the next test), so the
                        # two differ by up to 1.5e-12 there.
                        _assert_rel_close(got, values[i], what, 1e-12 if k < 4 else 2e-12)


def _inscribed_polygon(n, seed=None):
    """A one-cell mesh of a convex n-gon inscribed in the unit circle:
    regular, or at sorted angles drawn from default_rng(seed)."""
    if seed is None:
        angles = 2 * np.pi * np.arange(n) / n
    else:
        angles = np.sort(np.random.default_rng(seed).uniform(0, 2 * np.pi, n))
    return build_mesh(np.column_stack([np.cos(angles), np.sin(angles)]), [tuple(range(n))])


# The largest diam^2 / area of a fan triangle is 12 and 15 for the regular
# polygons; 5.5, 219, 33, 692 and 115 for the random 3- to 14-gons, and 249
# for the 14-gon of seed 0, which passes the dimension law at k = 4 only with
# divergence rows against the largest fan triangle.
POLYGONS = {"regular-10": (10, None), "regular-12": (12, None),
            **{f"random-{n}": (n, n) for n in (3, 5, 7, 10, 14)}, "seed-0-14": (14, 0)}


@pytest.mark.parametrize("name", sorted(POLYGONS))
@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_dimension_law_on_inscribed_polygons(name, k):
    """Thin fan triangles: with isotropic frames, the regular 10- and
    12-gons failed the dimension law at k = 4, the random 5-, 7-, 10- and
    14-gons from k = 2 or 3, and the 5-, 10- and 14-gons had singular RT
    Grams at k = 4."""
    n, seed = POLYGONS[name]
    lam = build_lambda_basis(_inscribed_polygon(n, seed), 0, k)
    assert lam.n_lambda == expected_lambda_dim(n, k)
    assert lam.condition.max() <= CONDITION_WARN


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_weak_gradient_moments_of_polynomial_gradients_match_their_definition(k):
    """For p in P_k+1, grad p lies in every weak-gradient space, so
    W^T Q(grad p) lists (grad_w v, grad p) = -(v_0, Laplace p) + <v_b, grad p . n>
    over the local basis functions v; here by quadrature on the cell,
    without any RT basis."""
    exps = monomial_exponents(k + 1)
    coef = np.random.default_rng(40 + k).uniform(-1, 1, len(exps))

    def grad(x, y):
        return np.stack([sum(c * a * x ** max(a - 1, 0) * y**b for c, (a, b) in zip(coef, exps)),
                         sum(c * b * x**a * y ** max(b - 1, 0) for c, (a, b) in zip(coef, exps))],
                        axis=-1) + 0 * x[:, None]

    def laplacian(x, y):
        return sum(c * (a * (a - 1) * x ** max(a - 2, 0) * y**b
                        + b * (b - 1) * x**a * y ** max(b - 2, 0))
                   for c, (a, b) in zip(coef, exps)) + 0 * x

    degree = 2 * k + 4
    s = 2.0 * segment_rule(degree).points - 1.0
    meshes = [GENERATORS[f](2) for f in sorted(GENERATORS)] + [jittered_square_mesh(3, seed=3)]
    for mesh in meshes + [_inscribed_polygon(*POLYGONS[name]) for name in sorted(POLYGONS)]:
        cache = OperatorCache(mesh, k)
        for c in range(mesh.n_cells):
            ops = cache.get(c)
            got = ops.weak_gradient.T @ ops.project_lambda_field(grad)
            want = np.zeros(dim_pk(k))
            for tri in triangulate_cell(mesh, c).triangles:
                pts, w = triangle_points(mesh.vertices[list(tri)], degree)
                want -= (w * laplacian(pts[:, 0], pts[:, 1])) @ interior_values(
                    ops, np.eye(dim_pk(k)), pts)
            cyc = mesh.cells[c]
            for side, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
                pts, w = segment_points(mesh.vertices[a], mesh.vertices[b], degree)
                flux = w * (grad(pts[:, 0], pts[:, 1]) @ side_normal(mesh, c, side))
                want = np.concatenate([want, flux @ (s if a < b else -s)[:, None] ** np.arange(k + 1)])
            _assert_rel_close(got, want, (mesh.n_cells, c))


def _random_triangles(n, seed):
    """Counterclockwise triangles with vertices in the unit square, shape
    (n, 3, 2), and their Jacobians [v1 - v0, v2 - v0]."""
    tri = np.random.default_rng(seed).uniform(0, 1, (n, 3, 2))
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return tri, (tri[:, 1:] - tri[:, :1]).swapaxes(-1, -2)


def _piola_frame(tri, B, k):
    """A stand-in LambdaBasis of one cell whose one fan triangle is tri."""
    return SimpleNamespace(k=k, jacobian=B[None, None], tri_coords=tri[None, None])


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_reference_gram_tensor_matches_quadrature_on_random_triangles(k):
    tri, B = _random_triangles(20, seed=k)
    grams = localspaces._gram(localspaces.reference_tables(k), B)
    for t in range(len(tri)):
        pts, w = triangle_points(tri[t], 2 * k + 2)
        F = piola_fields(_piola_frame(tri[t], B[t], k), 0, 0, pts)
        _assert_rel_close(grams[t], np.einsum("q,qid,qjd->ij", w, F, F), t, 1e-11)


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_reference_flux_constants_match_segment_quadrature(k):
    """The Piola map keeps normal fluxes: on every side of a random
    triangle, int (field . n) s^m ds equals the reference constant."""
    tri, B = _random_triangles(10, seed=10 + k)
    flux = localspaces.reference_tables(k).flux
    s = 2.0 * segment_rule(2 * k + 2).points - 1.0
    for t in range(len(tri)):
        for e, (a, b) in enumerate([(0, 1), (1, 2), (2, 0), (0, 2)]):
            pts, w = segment_points(tri[t, a], tri[t, b], 2 * k + 2)
            v = tri[t, b] - tri[t, a]
            F = piola_fields(_piola_frame(tri[t], B[t], k), 0, 0, pts)
            normal = np.array([v[1], -v[0]]) / np.linalg.norm(v)
            _assert_rel_close((w * s ** np.arange(k + 1)[:, None]) @ (F @ normal),
                              flux[e], (t, e), 1e-11)


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_change_of_frame_matches_direct_evaluation_of_the_monomials(k):
    """m_src(A xi + shift) = m_tgt(xi) @ T for random affine maps, as used
    between the cell frame and the reference frames."""
    rng = np.random.default_rng(20 + k)
    A, shift = rng.uniform(-2, 2, (6, 2, 2)), rng.uniform(-1, 1, (6, 2))
    T = localspaces.monomial_change_of_frame(k, A, shift)
    mono = CellScalarBasis(k, np.zeros(2), 1.0)
    xi = rng.uniform(-1, 1, (12, 2))
    for i in range(len(A)):
        _assert_rel_close(mono.eval(xi) @ T[i], mono.eval(xi @ A[i].T + shift[i]), i)
