import ast
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import wg_sfem.wgsolve as wgsolve
from wg_sfem.analysis import energy_error, get_case, l2_projection_error
from wg_sfem.localspaces import DataError, DegreeError, OperatorCache, project_qb
from wg_sfem.polymesh import (GENERATORS, build_mesh, generate_hex_grid,
                              generate_square_grid)
from wg_sfem.wgsolve import (
    SolverStructureError,
    _block_matrix,
    _pcg,
    assemble,
    build_dof_map,
    constant_function_vector,
    discrete_h1_norm,
    solve,
    triple_bar_norm,
)

from helpers import jittered_square_mesh, side_trace_h1_norm, triangle_points, triangulate_cell


def zero(x, y):
    return np.zeros_like(x)


# ---------------------------------------------------------------- DOF map


def test_dof_counts_level_1_k0():
    dofmap = build_dof_map(generate_square_grid(1), 0)
    assert dofmap.n_dofs == 1 + 4
    assert dofmap.n_free == 1


def test_dof_counts_level_2_k0():
    dofmap = build_dof_map(generate_square_grid(2), 0)
    assert dofmap.n_dofs == 4 + 12
    assert dofmap.n_free == 4 + 4


def test_dof_counts_level_2_k1():
    dofmap = build_dof_map(generate_square_grid(2), 1)
    assert dofmap.n_dofs == 4 * 3 + 12 * 2
    assert dofmap.n_free == 12 + 8


def test_cell_dofs_are_disjoint_and_cover():
    mesh = generate_hex_grid(1)
    dofmap = build_dof_map(mesh, 1)
    seen = set()
    for c in range(mesh.n_cells):
        gdofs = dofmap.cell_dof_array(mesh, [c])[0]
        assert len(set(gdofs.tolist())) == gdofs.size
        seen.update(gdofs.tolist())
    assert seen == set(range(dofmap.n_dofs))


# ---------------------------------------------------------------- assembly


def test_homogeneous_problem_gives_zero():
    mesh = generate_square_grid(3)
    system = assemble(mesh, 0, zero, None)
    assert np.all(system.rhs == 0)
    sol = solve(system)
    assert sol.iterations == 0
    assert np.all(sol.u0 == 0) and np.all(sol.ub == 0)


def test_assembled_matrix_exactly_symmetric():
    mesh = GENERATORS["quad"](3)
    system = assemble(mesh, 1, lambda x, y: np.sin(x), None)
    A = system.full_matrix
    assert (A != A.T).nnz == 0


def test_spd_on_random_free_vectors():
    mesh = GENERATORS["hex"](2)
    system = assemble(mesh, 1, zero, None)
    A = system.matrix
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal(A.shape[0])
        assert x @ (A @ x) > 0


def test_full_matrix_annihilates_constant_function():
    for family in GENERATORS:
        mesh = GENERATORS[family](3)
        for k in (0, 1, 2):
            system = assemble(mesh, k, zero, None)
            vec = constant_function_vector(system.dofmap)
            norm_a = sp.linalg.norm(system.full_matrix)
            assert np.linalg.norm(system.full_matrix @ vec) <= 1e-11 * norm_a


def test_nonfinite_source_rejected_with_point():
    mesh = generate_square_grid(2)

    def bad(x, y):
        vals = np.ones_like(x)
        vals[x > 0.5] = np.nan
        return vals

    with pytest.raises(DataError, match="quadrature point"):
        assemble(mesh, 0, bad, None)


def _point_of(exc):
    """The quadrature point a DataError names."""
    return tuple(float(v) for v in str(exc.value).split("(")[1].split(")")[0].split(","))


def test_nonfinite_error_data_rejected_with_point():
    """The error passes sample u and grad u through the sampler that
    assembly uses for f: a NaN value of u or an inf component of grad u is
    named by its quadrature point."""
    mesh = generate_square_grid(2)
    case = get_case("sin2d")
    cache = OperatorCache(mesh, 1)
    sol = solve(assemble(mesh, 1, case.f, case.g, cache=cache))

    def bad_u(x, y):
        return np.where(x > 0.5, np.nan, case.u(x, y))

    def bad_grad(x, y):
        vals = case.grad_u(x, y)
        vals[y > 0.5, 1] = np.inf
        return vals

    with pytest.raises(DataError, match="quadrature point") as exc:
        l2_projection_error(mesh, 1, bad_u, sol, cache)
    x, y = _point_of(exc)
    assert x > 0.5 and np.isnan(bad_u(np.array([x]), np.array([y])))[0]
    with pytest.raises(DataError, match="quadrature point") as exc:
        energy_error(mesh, 1, case.u, bad_grad, sol, cache)
    x, y = _point_of(exc)
    assert y > 0.5 and np.isinf(bad_grad(np.array([x]), np.array([y]))).any()


def test_nonfinite_boundary_data_rejected_with_edge_and_point():
    mesh = generate_square_grid(2)

    def bad(x, y):
        vals = np.ones_like(x)
        vals[x > 0.5] = np.inf
        return vals

    with pytest.raises(DataError, match="quadrature point") as exc:
        assemble(mesh, 0, zero, bad)
    e = int(str(exc.value).rsplit("edge ", 1)[1])
    x, y = _point_of(exc)
    assert mesh.boundary_edges[e]
    a, b = mesh.vertices[mesh.edges[e]]
    assert x > 0.5
    assert abs((b - a)[0] * (y - a[1]) - (b - a)[1] * (x - a[0])) < 1e-14


@pytest.mark.parametrize("family,level,g", [("square", 5, None), ("quad", 4, 0.5)])
def test_constant_data_solve_bit_identically_to_their_arrays(family, level, g):
    """A constant f or g is every point's value: the same samples, systems
    and solutions as the arrays of that value."""
    mesh = GENERATORS[family](level)
    cache = OperatorCache(mesh, 1)
    a = assemble(mesh, 1, lambda x, y: 1.0, g and (lambda x, y: g), cache=cache)
    b = assemble(mesh, 1, lambda x, y: np.ones_like(x), g and (lambda x, y: np.full_like(x, g)),
                 cache=cache)
    assert np.array_equal(a.rhs, b.rhs) and np.array_equal(a.edge_rhs, b.edge_rhs)
    sa, sb = solve(a), solve(b)
    assert np.array_equal(sa.u0, sb.u0) and np.array_equal(sa.ub, sb.ub)
    assert sa.residual == sb.residual


@pytest.mark.parametrize("f,g", [
    (lambda x, y: np.stack([x, y], axis=-1), None),
    (lambda x, y: x[:-1], None),
    (zero, lambda x, y: np.stack([x, y])),
    (zero, lambda x, y: np.ones((1, 1))),
], ids=["f-per-point-pairs", "f-one-short", "g-transposed", "g-1x1"])
def test_misshaped_cell_and_edge_data_rejected_naming_both_shapes(f, g):
    mesh = generate_square_grid(2)
    with pytest.raises(DataError, match=r"shape \(.*\); expected shape \(\) or \(\d+,\)"):
        assemble(mesh, 1, f, g)


@pytest.mark.parametrize("value", [
    np.complex128(1 + 1e-3j), "1.0", np.array(1.0, dtype=object), None,
], ids=["complex", "string", "object", "none"])
@pytest.mark.parametrize("role", ["f", "g"])
def test_data_that_are_not_real_numbers_rejected_naming_the_dtype(role, value):
    """A complex f was once solved as its real part, with only numpy's
    ComplexWarning; a string, an object array and None raised numpy's own
    errors or read as non-finite."""
    mesh = generate_square_grid(2)
    data = lambda x, y: value
    message = f"data of dtype {np.asarray(value).dtype}; expected real numbers"
    with pytest.raises(DataError, match=re.escape(message)):
        if role == "f":
            assemble(mesh, 1, data, None)
        else:
            project_qb(mesh, np.flatnonzero(mesh.boundary_edges), 1, data)


@pytest.mark.parametrize("role", ["f", "g"])
def test_ragged_data_rejected_naming_the_expected_shapes(role):
    """numpy's own ValueError on a ragged list used to escape as is, past a
    caller that catches DataError."""
    mesh = generate_square_grid(2)
    data = lambda x, y: [x, y[:-1]]
    with pytest.raises(DataError, match=r"ragged data; expected shape \(\) or \(\d+,\)"):
        if role == "f":
            assemble(mesh, 1, data, None)
        else:
            project_qb(mesh, np.flatnonzero(mesh.boundary_edges), 1, data)


def test_a_value_error_raised_by_the_data_propagates_unchanged():
    def f(x, y):
        raise ValueError("f's own error")

    with pytest.raises(ValueError, match="f's own error") as exc:
        assemble(generate_square_grid(2), 1, f, None)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("k", [0, 2])
def test_project_qb_of_no_edges_is_empty(k):
    mesh = generate_square_grid(2)
    none = np.flatnonzero(np.zeros(mesh.n_edges, dtype=bool))
    for edges in (none, []):
        for func in (lambda x, y: x + y, lambda x, y: 1.0):
            assert project_qb(mesh, edges, k, func).shape == (0, k + 1)
    # Only the empty list is read as integers: a float index still fails.
    with pytest.raises(IndexError):
        project_qb(mesh, [1.0], k, lambda x, y: x + y)


@pytest.mark.parametrize("k", [1.0, 2.5, True, -1, 5])
def test_degree_gate_takes_only_integers(k):
    mesh = generate_square_grid(2)
    with pytest.raises(DegreeError, match="not an integer in the supported range"):
        OperatorCache(mesh, k)
    with pytest.raises(DegreeError):
        assemble(mesh, k, zero)
    # A cache of degree 1 equals True and 1.0 under ==, so its check gates too.
    with pytest.raises(DegreeError):
        assemble(mesh, k, zero, cache=OperatorCache(mesh, 1))


def test_degree_gate_accepts_a_numpy_integer():
    mesh = GENERATORS["quad"](3)
    case = get_case("sin2d")
    a = solve(assemble(mesh, np.int64(1), case.f, case.g))
    b = solve(assemble(mesh, 1, case.f, case.g))
    assert a.k == 1 and np.array_equal(a.u0, b.u0) and np.array_equal(a.ub, b.ub)


def test_boundary_values_are_edge_projections():
    mesh = GENERATORS["quad"](2)
    k = 1
    g = lambda x, y: 2 * x + 3 * y - 1
    system = assemble(mesh, k, zero, g)
    sol = solve(system)
    for e in range(mesh.n_edges):
        if mesh.boundary_edges[e]:
            expected = project_qb(mesh, e, k, g)
            assert np.array_equal(sol.ub[e], expected)


# ---------------------------------------------------------------- patch tests


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_patch_linear_k0(family):
    mesh = GENERATORS[family](2)
    case = get_case("patch-linear")
    k = 0
    cache = OperatorCache(mesh, k)
    system = assemble(mesh, k, case.f, case.g, cache=cache)
    sol = solve(system)
    for c in range(mesh.n_cells):
        expected = cache.get(c).project_interior(case.u)
        assert np.allclose(sol.u0[c], expected, atol=1e-10)
    for e in range(mesh.n_edges):
        expected = project_qb(mesh, e, k, case.u)
        assert np.allclose(sol.ub[e], expected, atol=1e-10)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_patch_quadratic_k1(family):
    mesh = GENERATORS[family](2)
    case = get_case("patch-quadratic")
    k = 1
    cache = OperatorCache(mesh, k)
    system = assemble(mesh, k, case.f, case.g, cache=cache)
    sol = solve(system)
    for c in range(mesh.n_cells):
        expected = cache.get(c).project_interior(case.u)
        assert np.allclose(sol.u0[c], expected, atol=1e-9)


# ---------------------------------------------------------------- solve


def test_single_cell_dense_oracle():
    """1x1 grid, k=0, f=1: the one free unknown is (f, phi_0) / K_00."""
    mesh = generate_square_grid(1)
    cache = OperatorCache(mesh, 0)
    system = assemble(mesh, 0, lambda x, y: np.ones_like(x), None, cache=cache)
    sol = solve(system)
    ops = cache.get(0)
    _, w = triangle_points(mesh.vertices[np.array(triangulate_cell(mesh, 0).triangles)], 4)
    load = w.sum()
    K = ops.stack.stiffness[ops.index]
    assert sol.u0[0, 0] == pytest.approx(load / K[0, 0], rel=1e-13)


def test_pcg_contract_on_random_spd_system():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x, iters = _pcg(A, b, 1e-12 * np.linalg.norm(b))
    assert 0 < iters <= 20 * int(np.ceil(np.sqrt(50)))
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b) * (1 + 1e-9)


def test_pcg_detects_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(SolverStructureError):
        _pcg(A, np.array([0.0, 0.0, 1.0]), 1e-12)


def test_pcg_detects_negative_curvature_behind_a_positive_diagonal():
    """Jacobi keeps b = (1, -1) as the first direction, where p'Ap = -2."""
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolverStructureError, match=r"p'Ap = -2\.000e\+00"):
        _pcg(A, np.array([1.0, -1.0]), 1e-12)


def _reference_jacobi_cg(A, b, atol):
    """Jacobi-preconditioned CG from zero, written out plainly: x and the
    number of iterations until the recurrence residual is at most atol."""
    inv_diag = 1.0 / A.diagonal()
    x, r = np.zeros(b.size), b.copy()
    z = inv_diag * r
    p, rz, iterations = z.copy(), r @ z, 0
    while np.linalg.norm(r) > atol:
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x, r = x + alpha * p, r - alpha * Ap
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + rz / rz_old * p
        iterations += 1
    return x, iterations


def test_jacobi_pcg_above_numpys_temporary_elision_size():
    """40 000 unknowns, above the 32 768 doubles from which numpy reuses an
    operand that nothing else holds for an arithmetic result: a 1D
    tridiagonal SPD system with a varying diagonal, against the plain
    reference."""
    n = 40_000
    i = np.arange(n)
    A = sp.diags([-np.ones(n - 1), 3.0 + np.cos(i), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    b = 1.0 + np.sin(0.01 * i)
    atol = 1e-10 * np.linalg.norm(b)
    x, iterations = _pcg(A, b, atol)
    x_ref, ref_iterations = _reference_jacobi_cg(A, b, atol)
    assert 0 < iterations == ref_iterations
    assert np.linalg.norm(b - A @ x) <= atol
    assert np.allclose(x, x_ref, rtol=0, atol=1e-12)


def test_pcg_with_a_nan_residual_runs_to_the_cap_and_raises():
    from wg_sfem.wgsolve import SolverConvergenceError

    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(SolverConvergenceError) as exc:
        _pcg(A, np.array([1.0, np.nan, 1.0, 1.0]), 1e-12)
    assert exc.value.history.size == 20 * 2 + 1


def test_zero_data_on_the_pcg_path_is_zero_without_building_the_cycle(monkeypatch):
    """Zero data reach _pcg as b = 0, which it answers at once."""
    def refuse(*args):
        raise AssertionError("multilevel cycle built")

    monkeypatch.setattr(wgsolve, "_multilevel", refuse)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    sol = solve(assemble(generate_square_grid(4), 1, zero, None))
    assert (sol.method, sol.iterations, sol.residual) == ("pcg", 0, 0.0)
    assert not sol.u0.any() and not sol.ub.any()


def test_direct_and_pcg_paths_agree():
    mesh = generate_square_grid(4)
    system = assemble(mesh, 1, get_case("sin2d").f, None)
    direct = solve(system)
    x_pcg, _ = _pcg(system.matrix, system.rhs, 1e-13 * np.linalg.norm(system.rhs))
    full = np.zeros(system.dofmap.n_dofs)
    full[system.dofmap.free_dofs] = x_pcg
    res = np.linalg.norm(system.rhs - system.matrix @ x_pcg) / np.linalg.norm(system.rhs)
    assert res <= 1e-13
    assert np.allclose(direct.full_vector(system.dofmap), full, atol=1e-9)


def test_solver_residual_contract():
    mesh = generate_square_grid(5)
    system = assemble(mesh, 0, get_case("sin2d").f, None)
    sol = solve(system, tol=1e-12)
    assert sol.residual <= 1e-12
    assert sol.method in ("direct", "direct+cg", "pcg")


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-12, np.inf])
def test_solve_rejects_a_non_positive_or_non_finite_tol(tol):
    """With tol = nan, PCG used to stop at once and return an unconverged
    solution (residual 0.71 on square level 6 at k = 1)."""
    system = assemble(generate_square_grid(2), 1, get_case("sin2d").f, None)
    with pytest.raises(ValueError, match="tol"):
        solve(system, tol=tol)


# ---------------------------------------------------------------- norms


def test_triple_bar_norm_of_constant_is_zero():
    mesh = generate_square_grid(2)
    cache = OperatorCache(mesh, 1)
    vec = constant_function_vector(cache.dofmap)
    assert triple_bar_norm(mesh, 1, vec, cache) < 1e-11


def test_h1_norm_of_interpolated_linear():
    """For v = Q_h(2x), grad v_0 = (2, 0) and traces match: norm = 2."""
    mesh = GENERATORS["quad"](2)
    k = 1
    dofmap = build_dof_map(mesh, k)
    cache = OperatorCache(mesh, k)
    vec = np.zeros(dofmap.n_dofs)
    g = lambda x, y: 2 * x
    for c in range(mesh.n_cells):
        vec[dofmap.cell_dof_array(mesh, [c])[0]] = np.concatenate(
            [cache.get(c).project_interior(g)]
            + [project_qb(mesh, e, k, g) for e in mesh.cell_sides([c])[0]]
        )
    assert discrete_h1_norm(mesh, k, vec, cache) == pytest.approx(2.0, rel=1e-12)
    assert triple_bar_norm(mesh, k, vec, cache) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("family", ["square", "quad", "hex"])
@pytest.mark.parametrize("k", range(5))
def test_h1_norm_matches_the_side_trace_oracle(family, k):
    """The per-row H1 matrix gives the norm that quadrature cell by cell and
    side by side gives, for random vectors on level 3, to 1e-13."""
    mesh = GENERATORS[family](3)
    cache = OperatorCache(mesh, k)
    vecs = np.random.default_rng(60 + k).standard_normal((cache.dofmap.n_dofs, 4))
    got, want = discrete_h1_norm(mesh, k, vecs, cache), side_trace_h1_norm(mesh, k, vecs)
    assert np.max(np.abs(got - want) / want) < 1e-13


@pytest.mark.parametrize("family", ["square", "quad", "hex"])
def test_h1_norm_of_constant_is_exactly_zero(family):
    """Its rows hold gradients and trace mismatches, each exactly zero for
    the constant function."""
    mesh = GENERATORS[family](3)
    for k in range(5):
        cache = OperatorCache(mesh, k)
        assert discrete_h1_norm(mesh, k, constant_function_vector(cache.dofmap), cache) == 0.0


@pytest.mark.parametrize("rows", [125, 135, 256, "degree-2"])
@pytest.mark.parametrize("norm", [triple_bar_norm, discrete_h1_norm])
def test_norms_reject_a_vector_that_does_not_fit_the_cache(norm, rows):
    """The quad L3 k = 1 cache has 128 DOFs.  A longer vector, one of
    degree 2 (216 DOFs) among them, once read as its first 128 entries,
    and a shorter one raised a bare IndexError."""
    mesh = GENERATORS["quad"](3)
    cache = OperatorCache(mesh, 1)
    assert cache.dofmap.n_dofs == 128
    n = build_dof_map(mesh, 2).n_dofs if rows == "degree-2" else rows
    vec = np.random.default_rng(5).standard_normal(n)
    with pytest.raises(ValueError, match=rf"vector of shape \({n},\) does not fit the degree-1"):
        norm(mesh, 1, vec, cache)


def test_solve_and_error_passes_never_build_the_h1_matrix():
    mesh = GENERATORS["quad"](4)
    case = get_case("sin2d")
    system = assemble(mesh, 1, case.f, case.g)
    sol = solve(system)
    l2_projection_error(mesh, 1, case.u, sol, system.cache)
    energy_error(mesh, 1, case.u, case.grad_u, sol, system.cache)
    stacks = [stack for stack, *_ in system.cache.batches()]
    assert stacks and all("h1" not in vars(stack) for stack in stacks)
    discrete_h1_norm(mesh, 1, sol.full_vector(system.cache.dofmap), system.cache)
    assert all("h1" in vars(stack) for stack in stacks)


def test_norm_equivalence_window_small_levels():
    """Ratio |||v||| / ||v||_1h stays within the doubled level-2 window."""
    k = 0
    ratios_by_level = {}
    rng = np.random.default_rng(2024)
    for level in (2, 3, 4):
        mesh = generate_square_grid(level)
        dofmap = build_dof_map(mesh, k)
        cache = OperatorCache(mesh, k)
        vals = []
        for _ in range(40):
            vec = np.zeros(dofmap.n_dofs)
            vec[dofmap.free_dofs] = rng.standard_normal(dofmap.n_free)
            num = float(triple_bar_norm(mesh, k, vec, cache))
            den = float(discrete_h1_norm(mesh, k, vec, cache))
            vals.append(num / den)
        ratios_by_level[level] = (min(vals), max(vals))
    r_min, r_max = ratios_by_level[2]
    for level in (3, 4):
        lo, hi = ratios_by_level[level]
        assert lo >= r_min / 2
        assert hi <= 2 * r_max


def test_pcg_iteration_cap_raises_with_history():
    """A 1D Laplacian too large for the 20*sqrt(N) cap at tol 1e-12."""
    from wg_sfem.wgsolve import SolverConvergenceError

    n = 10000
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 offsets=[-1, 0, 1], format="csr")
    b = np.ones(n)
    target = 1e-12 * np.linalg.norm(b)
    with pytest.raises(SolverConvergenceError) as exc:
        _pcg(A, b, target)
    cap = 20 * int(np.ceil(np.sqrt(n)))
    assert exc.value.history.size == cap + 1
    assert exc.value.history[-1] > target


@pytest.mark.parametrize("family,level", [("quad", 4), ("hex", 3)])
@pytest.mark.parametrize("k", range(3))
def test_assembled_matrix_symmetric_without_symmetrizing(family, level, k):
    system = assemble(GENERATORS[family](level), k, zero, None)
    A = system.full_matrix
    assert abs(A - A.T).max() == 0


def _dense_block_sum(blocks, n):
    """Oracle of _block_matrix: every kept entry of every block added into
    a dense array, one at a time, in block order."""
    dense = np.zeros((n, n))
    for M, rows, idx in blocks:
        B = M[rows]
        r, c = np.broadcast_to(idx[:, :, None], B.shape), np.broadcast_to(idx[:, None, :], B.shape)
        keep = (r >= 0) & (c >= 0)
        np.add.at(dense, (r[keep], c[keep]), B[keep])
    return dense


def _assert_block_matrix_is_the_dense_sum(blocks, n):
    A = _block_matrix(blocks, n)
    assert A.shape == (n, n) and A.has_canonical_format and A.has_sorted_indices
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.array_equal(A.toarray(), _dense_block_sum(blocks, n))
    # Every kept (row, column) pair is one stored entry.
    pairs = {(i, j) for _, _, idx in blocks for cell in idx.tolist()
             for i in cell if i >= 0 for j in cell if j >= 0}
    assert A.nnz == len(pairs)
    return A


def test_block_matrix_sums_duplicates_within_and_across_batches():
    """Blocks of 3 to 12 local DOFs with dropped (negative) indices, one
    batch of no cells, and rows 5 and n - 1 in no block.  Indices repeat
    within a cell, a batch and across batches, so some entries have many
    contributions: the values are small integers, whose sum is exact in any
    order."""
    rng = np.random.default_rng(3)
    n = 40
    targets = np.setdiff1d(np.arange(-3, n - 1), [5])
    blocks = []
    for m, n_cells in [(3, 7), (12, 5), (5, 0), (8, 9), (4, 1)]:
        M = rng.integers(-9, 10, size=(3, m, m)).astype(float)
        blocks.append((M, rng.integers(0, 3, n_cells), rng.choice(targets, (n_cells, m))))
    A = _assert_block_matrix_is_the_dense_sum(blocks, n)
    assert A.indptr[6] == A.indptr[5] and A.indptr[n] == A.indptr[n - 1]


def test_block_matrix_of_at_most_two_cells_per_dof_is_bit_exact():
    """Each index lies on at most two cells, as a DOF does, so every entry
    is the sum of at most two real contributions, in any order."""
    rng = np.random.default_rng(4)
    m, n_cells = 6, 30
    n = n_cells * m
    idx = np.concatenate([rng.permutation(n).reshape(n_cells, m) for _ in range(2)])
    idx[rng.random(idx.shape) < 0.2] = -1
    M = rng.normal(size=(2 * n_cells, m, m))
    cuts = [0, 25, 25, 40, 2 * n_cells]
    blocks = [(M, np.arange(lo, hi), idx[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
    _assert_block_matrix_is_the_dense_sum(blocks, n)


def test_csr_arrays_hold_exactly_the_stored_entries():
    """sum_duplicates leaves views of the arrays as long as the entries
    before duplicates were summed; on square L4, k = 1, the edge matrix
    held 3 233 slots for its 2 784 entries."""
    mesh, case = generate_square_grid(4), get_case("sin2d")
    system = assemble(mesh, 1, case.f, case.g)
    for A in (system.edge_matrix, system.matrix, system.full_matrix):
        for array in (A.data, A.indices):
            assert (array if array.base is None else array.base).size == A.nnz


def test_assembly_transients_stay_near_the_csr_they_build():
    """Traced peaks, which are deterministic for fixed inputs, of the first
    system.edge_matrix and system.matrix on square L6, k = 1, as multiples
    of the bytes of the CSR arrays each builds.  Building through
    whole-matrix COO triplets peaked at 4.6 (traced over all of assemble,
    which then built the edge matrix) and 3.7 times; the two-pass build
    peaks at 2.4 and 2.0."""
    mesh, case = generate_square_grid(6), get_case("sin2d")
    system = assemble(mesh, 1, case.f, case.g)

    def traced_peak(build):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def csr_bytes(A):
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes

    S, edge_peak = traced_peak(lambda: system.edge_matrix)
    A, matrix_peak = traced_peak(lambda: system.matrix)
    assert edge_peak < 3.5 * csr_bytes(S)
    assert matrix_peak < 2.5 * csr_bytes(A)


def test_the_matrices_are_built_on_first_access_and_kept():
    """assemble computes only the data; solve builds the edge matrix alone,
    and every matrix is built once."""
    mesh, case = generate_square_grid(3), get_case("sin2d")
    system = assemble(mesh, 1, case.f, case.g)
    names = {"edge_matrix", "matrix", "full_matrix"}
    assert names.isdisjoint(vars(system))
    solve(system)
    assert names & vars(system).keys() == {"edge_matrix"}
    for name in names:
        assert getattr(system, name) is getattr(system, name)


# ---------------------------------------------------------------- condensed solve


ORACLE_MESHES = {
    "square": lambda: GENERATORS["square"](3),
    "quad": lambda: GENERATORS["quad"](3),
    "hex": lambda: GENERATORS["hex"](2),
    "jitter": lambda: jittered_square_mesh(4, seed=7),
}


def _uncondensed_solve(system):
    """Oracle: the uncondensed eliminated system, solved directly; returns
    the full DOF vector."""
    dofmap = system.dofmap
    x = np.zeros(dofmap.n_dofs)
    x[dofmap.free_dofs] = spsolve(system.matrix.tocsc(), system.rhs)
    x[dofmap.constrained_dofs] = system.constrained_values
    return x


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_condensed_solve_matches_uncondensed_oracle(name, k, monkeypatch):
    """Both solver paths, with nonzero boundary data, against a direct solve
    of the uncondensed system."""
    mesh = ORACLE_MESHES[name]()
    system = assemble(mesh, k, get_case("sin2d").f, lambda x, y: np.exp(x) * np.cos(2 * y))
    x = _uncondensed_solve(system)
    base = system.dofmap.edge_base
    direct = solve(system)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    iterative = solve(system)
    assert (direct.method, iterative.method) == ("direct", "pcg")
    for sol in (direct, iterative):
        assert sol.residual <= 1e-12
        assert _rel(sol.u0.ravel(), x[:base]) <= 1e-10
        assert _rel(sol.ub.ravel(), x[base:]) <= 1e-10


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("label,k", [("patch-linear", 0), ("patch-linear", 2),
                                     ("patch-quadratic", 1), ("patch-quadratic", 3)])
def test_condensed_pcg_keeps_patch_cases_exact(family, label, k, monkeypatch):
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    mesh = GENERATORS[family](3)
    case = get_case(label)
    cache = OperatorCache(mesh, k)
    sol = solve(assemble(mesh, k, case.f, case.g, cache=cache))
    assert sol.method == "pcg"
    assert l2_projection_error(mesh, k, case.u, sol, cache) <= 1e-8
    assert energy_error(mesh, k, case.u, case.grad_u, sol, cache) <= 1e-8


@pytest.mark.parametrize("k", range(4))
def test_condensation_maps_constants_to_constants(k):
    """K annihilates the constant function, so X sends the constant edge
    values to minus the constant interior values, and S annihilates them."""
    for family in ("quad", "hex"):
        for stack, *_ in OperatorCache(GENERATORS[family](3), k).batches():
            K00_inv, X, S = stack.condensed
            n0 = K00_inv.shape[-1]
            ones_b = np.tile(np.eye(k + 1)[0], S.shape[-1] // (k + 1))
            assert np.allclose(X @ ones_b, -np.eye(n0)[0], atol=1e-10)
            assert np.abs(S @ ones_b).max() <= 1e-11 * np.abs(S).max()
            assert np.array_equal(S, S.swapaxes(-1, -2))


def test_timed_path_reports_the_true_residual_and_builds_no_full_matrix():
    """Quad level 6, k = 1 has 7 040 free DOFs, so solve takes the PCG
    path; neither assemble nor solve may build the uncondensed matrices.

    Near 1e-12 the residual of this problem is at its rounding floor, where
    evaluations in different orders differ by up to a third; at tol 1e-8 the
    reported value must match the recomputed one to rounding."""
    mesh = GENERATORS["quad"](6)
    case = get_case("sin2d")
    system = assemble(mesh, 1, case.f, case.g)
    assert system.dofmap.n_free > wgsolve.DIRECT_LIMIT
    sols = [solve(system, tol=tol) for tol in (1e-12, 1e-8)]
    assert "matrix" not in system.__dict__
    assert "full_matrix" not in system.__dict__
    A, b = system.matrix, system.rhs
    bnorm = np.linalg.norm(b)
    for sol, tol in zip(sols, (1e-12, 1e-8)):
        assert sol.method == "pcg"
        assert sol.residual <= tol
        x = sol.full_vector(system.dofmap)[system.dofmap.free_dofs]
        recomputed = np.linalg.norm(b - A @ x) / bnorm
        rounding = np.finfo(float).eps * np.linalg.norm(abs(A) @ abs(x) + abs(b)) / bnorm
        assert abs(sol.residual - recomputed) <= rounding
    assert sols[1].residual > 1e3 * rounding


def test_lazy_matrices_match_each_other():
    system = assemble(GENERATORS["hex"](2), 2, zero, None)
    free = system.dofmap.free_dofs
    assert (system.matrix != system.full_matrix[free][:, free]).nnz == 0


def test_full_vector_rejects_a_dof_map_of_another_degree_or_mesh():
    mesh = GENERATORS["quad"](2)
    system = assemble(mesh, 1, get_case("sin2d").f, None)
    sol = solve(system)
    assert sol.full_vector(system.dofmap).shape == (system.dofmap.n_dofs,)
    for other in (build_dof_map(mesh, 2), build_dof_map(GENERATORS["quad"](3), 1)):
        with pytest.raises(ValueError, match="does not fit"):
            sol.full_vector(other)


def test_direct_solve_below_tol_falls_back_to_cg(monkeypatch):
    """A direct edge solve that leaves the full residual above tol is
    refined by PCG from its solution, and reported as direct+cg."""
    real = wgsolve.spsolve
    monkeypatch.setattr(wgsolve, "spsolve", lambda A, b: real(A, b) * (1 + 1e-6))
    system = assemble(generate_square_grid(4), 1, get_case("sin2d").f, None)
    sol = solve(system)
    assert sol.method == "direct+cg"
    assert 0 < sol.iterations
    assert sol.residual <= 1e-12
    assert _rel(sol.full_vector(system.dofmap), _uncondensed_solve(system)) <= 1e-10


def test_loose_edge_solve_is_continued_to_the_same_target(monkeypatch):
    """Both PCG passes get the one absolute target 0.5 tol ||rhs||; a first
    pass that stops 1e6 times above it is continued once, to tol."""
    real = wgsolve._pcg
    targets = []

    def loose_first(A, b, atol, **kw):
        targets.append(atol)
        return real(A, b, atol if len(targets) > 1 else 1e6 * atol, **kw)

    monkeypatch.setattr(wgsolve, "_pcg", loose_first)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    system = assemble(jittered_square_mesh(4, seed=7), 1, get_case("sin2d").f, None)
    sol = solve(system)
    assert sol.method == "pcg"
    assert targets == [0.5 * 1e-12 * np.linalg.norm(system.rhs)] * 2
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("limit,method", [(wgsolve.DIRECT_LIMIT, "direct+cg"), (0, "pcg")])
def test_tolerance_below_the_rounding_floor_reports_the_true_residual(limit, method,
                                                                      monkeypatch):
    """No double-precision x has a relative residual of 1e-17: solve runs
    its one continuation, stops above tol, and reports the value reached."""
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", limit)
    system = assemble(generate_square_grid(4), 1, get_case("sin2d").f, None)
    sol = solve(system, tol=1e-17)
    assert sol.method == method
    assert 1e-17 < sol.residual < 1e-13
    assert _rel(sol.full_vector(system.dofmap), _uncondensed_solve(system)) <= 1e-10


def test_solve_reports_the_recomputed_full_residual_and_corrects_x(monkeypatch):
    """A PCG pass stops on its recurrence residual, which may drift from the
    true one.  solve judges each pass by the full residual recomputed from
    the recovered solution, reports that value, and while it is above tol
    solves S dx = g - S x from zero, the true edge residual of the pass's x,
    and returns x + dx.  The first pass here is cut short by a loose
    target."""
    real_pcg, real_recover = wgsolve._pcg, wgsolve._recover
    passes, recovered = [], []

    def pcg(A, b, atol, **kw):
        x, iters = real_pcg(A, b, atol if passes else 1e4 * atol, **kw)
        passes.append((b, atol, x))
        return x, iters

    def recover(system, x_edge):
        x, rnorm = real_recover(system, x_edge)
        recovered.append(rnorm)
        return x, rnorm

    monkeypatch.setattr(wgsolve, "_pcg", pcg)
    monkeypatch.setattr(wgsolve, "_recover", recover)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    case = get_case("sin2d")
    system = assemble(GENERATORS["quad"](5), 1, case.f, case.g)
    sol = solve(system, tol=1e-8)
    A, b = system.matrix, system.rhs
    bnorm = np.linalg.norm(b)
    (g, target, x_first), (residual, target_next, dx) = passes
    assert np.array_equal(g, system.edge_rhs)
    assert np.array_equal(residual, g - system.edge_matrix @ x_first)
    assert target_next == target
    dofmap = system.dofmap
    x_edge = sol.full_vector(dofmap)[dofmap.free_dofs[dofmap.edge_base:]]
    assert np.array_equal(x_edge, x_first + dx)
    assert recovered[0] / bnorm > 1e-8 >= sol.residual == recovered[1] / bnorm
    x = sol.full_vector(system.dofmap)[system.dofmap.free_dofs]
    recomputed = np.linalg.norm(b - A @ x) / bnorm
    rounding = np.finfo(float).eps * np.linalg.norm(abs(A) @ abs(x) + abs(b)) / bnorm
    assert abs(sol.residual - recomputed) <= rounding


def test_solve_at_the_rounding_floor_keeps_its_best_iterate(monkeypatch):
    """No double-precision x has a relative residual of 1e-17.  On both
    solver paths, solve recovers the first pass and one continuation, no
    more, and returns the iterate with the lower recomputed residual."""
    real = wgsolve._recover
    recovered = []

    def recover(system, x_edge):
        x, rnorm = real(system, x_edge)
        recovered.append(rnorm / np.linalg.norm(system.rhs))
        return x, rnorm

    monkeypatch.setattr(wgsolve, "_recover", recover)
    system = assemble(generate_square_grid(4), 1, get_case("sin2d").f, None)
    for limit in (wgsolve.DIRECT_LIMIT, 0):
        monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", limit)
        recovered.clear()
        sol = solve(system, tol=1e-17)
        assert len(recovered) == 2
        assert sol.residual == min(recovered)
        assert 1e-17 < sol.residual


def _off_eigenfunction(mesh, k):
    """sin2d's source with boundary data that is not its solution: PCG
    needs hundreds of Jacobi iterations, on square meshes too."""
    return assemble(mesh, k, get_case("sin2d").f, lambda x, y: np.exp(x) * np.cos(2 * y))


def _cycle_levels(cycle):
    """The (A, d, P, R) levels that a _multilevel cycle closes over."""
    return dict(zip(cycle.__code__.co_freevars, (c.cell_contents for c in cycle.__closure__)))["levels"]


def _strip(n):
    """A 1 x n strip of squares of side 1/n: every vertex lies on the
    boundary, and the free edges are the n - 1 inner vertical ones."""
    x = np.arange(n + 1) / n
    verts = np.concatenate([np.column_stack([x, 0.0 * x]),
                            np.column_stack([x, 0.0 * x + 1.0 / n])])
    return build_mesh(verts, np.arange(n)[:, None] + [0, 1, n + 2, n + 1])


def _two_squares():
    """Jittered level 4 and a copy moved by (1.5, 0): a disconnected domain,
    whose aggregation boxes span both components."""
    mesh = jittered_square_mesh(4, seed=7)
    cells = np.array(mesh.cells)
    return build_mesh(np.concatenate([mesh.vertices, mesh.vertices + [1.5, 0.0]]),
                      np.concatenate([cells, cells + mesh.n_vertices]))


@pytest.mark.parametrize("k", [1, 2])
def test_vertex_level_is_the_trace_of_continuous_p1(k):
    """Level 1's prolongation takes the values of a global linear function
    at the vertices of the free edges to its edge projection, and leaves
    the modes m >= 2 at zero."""
    mesh = jittered_square_mesh(4, seed=7)
    S = assemble(mesh, k, zero, None).edge_matrix
    _, _, P, _ = _cycle_levels(wgsolve._multilevel(S, mesh, k))[0]
    free = np.flatnonzero(~mesh.boundary_edges)
    verts = np.unique(mesh.edges[free])
    assert P.shape == (free.size * (k + 1), verts.size)

    def linear(x, y):
        return 0.3 - 1.7 * x + 2.9 * y

    want = project_qb(mesh, free, k, linear)
    got = (P @ linear(*mesh.vertices[verts].T)).reshape(free.size, k + 1)
    assert np.abs(got - want).max() <= 1e-14
    assert P[np.arange(P.shape[0]) % (k + 1) >= 2].nnz == 0


@pytest.mark.parametrize("k,make_mesh", [
    pytest.param(k, make, id=f"{name}{k}") for name, make in
    [("", lambda: jittered_square_mesh(4, seed=7)), ("strip-1x40-", lambda: _strip(40)),
     ("two-squares-", _two_squares)]
    for k in (1, 2)])
def test_multilevel_cycle_is_symmetric_positive_definite(k, make_mesh, monkeypatch):
    """With COARSEST lowered so that smoothed-aggregation levels lie
    between the vertex level and the dense bottom; at the default the
    vertex level would be the bottom.  Jittered level 4 has 112 free edges
    and 77 vertices on them.  On the strip every vertex is on the boundary,
    and the levels are 39 (k + 1) -> 78 vertices -> 10.  The two squares
    are two such level-4 meshes: 224 (k + 1) -> 154 vertices -> 18 -> 3."""
    monkeypatch.setattr(wgsolve, "COARSEST", 8)
    mesh = make_mesh()
    S = assemble(mesh, k, zero, None).edge_matrix
    cycle = wgsolve._multilevel(S, mesh, k)
    assert len(_cycle_levels(cycle)) >= 3
    B = np.column_stack([cycle(e) for e in np.eye(S.shape[0])])
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
    assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_two_phase_pcg_on_a_disconnected_domain_matches_the_direct_solve(k, monkeypatch):
    """The cycle's aggregation boxes span both squares; PCG through it
    reaches the direct solve's solution (32 iterations at k = 1, 57 at
    k = 2)."""
    system = assemble(_two_squares(), k, lambda x, y: np.exp(x + 2 * y) * (1 + x * y),
                      lambda x, y: np.sin(x) * y)
    direct = solve(system)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    pcg = solve(system)
    assert direct.method == "direct" and pcg.method == "pcg"
    assert pcg.iterations > wgsolve.JACOBI_BUDGET and pcg.residual <= 1e-12
    assert _rel(pcg.full_vector(system.dofmap), direct.full_vector(system.dofmap)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_multilevel_restricts_through_a_view_of_each_prolongation(k, monkeypatch):
    """Every level keeps one transfer: its restriction is the transpose
    view of its P, over P's own arrays, not a copy."""
    monkeypatch.setattr(wgsolve, "COARSEST", 8)
    mesh = jittered_square_mesh(4, seed=7)
    S = assemble(mesh, k, zero, None).edge_matrix
    levels = _cycle_levels(wgsolve._multilevel(S, mesh, k))
    assert len(levels) >= 2
    for _, _, P, R in levels:
        assert R.shape == P.shape[::-1]
        assert np.shares_memory(R.data, P.data)


def _kept_bytes_of_the_cycle():
    """Traced bytes that a _multilevel cycle keeps alive (its levels'
    matrices, weights and prolongations, and the dense bottom) on jittered
    level 6, k = 1, as a multiple of the bytes of the CSR arrays of the
    edge matrix it is built for."""
    mesh = jittered_square_mesh(6, seed=7)
    S = assemble(mesh, 1, zero, None).edge_matrix
    # A first build keeps scipy's one-off allocations out of the trace.
    wgsolve._multilevel(S, mesh, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cycle = wgsolve._multilevel(S, mesh, 1)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert callable(cycle)
    return kept / (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)


def test_multilevel_cycle_keeps_fewer_bytes_than_the_edge_matrix():
    """The budget that a further coarse level must also meet.  Each level
    restricts through the transpose view of its P, and the CSR copies of
    P^T that the Galerkin products multiply are transient; the cycle keeps
    0.75 times."""
    assert _kept_bytes_of_the_cycle() < 1.0


def test_multilevel_cycle_stores_no_restriction_copy():
    """A stored CSR copy of each level's P^T would keep 0.95 times."""
    assert _kept_bytes_of_the_cycle() < 0.8


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("family", ["square", "quad", "hex"])
def test_two_phase_pcg_matches_jacobi_pcg(family, k, monkeypatch):
    """Past JACOBI_BUDGET iterations PCG restarts with the multilevel cycle,
    which is built once; the solution is Jacobi-PCG's to rounding."""
    real, built = wgsolve._multilevel, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(wgsolve, "_multilevel", counted)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    system = _off_eigenfunction(GENERATORS[family](5), k)
    two_phase = solve(system)
    monkeypatch.setattr(wgsolve, "JACOBI_BUDGET", 10**9)
    jacobi = solve(system)
    assert len(built) == 1
    assert two_phase.method == jacobi.method == "pcg"
    assert two_phase.residual <= 1e-12 and jacobi.residual <= 1e-12
    # 20 Jacobi and 15-38 V-cycle iterations here, against Jacobi alone 98-287.
    assert two_phase.iterations <= 65 < jacobi.iterations
    assert _rel(two_phase.full_vector(system.dofmap), jacobi.full_vector(system.dofmap)) <= 1e-10


@pytest.mark.parametrize("family,level,k,off", [("square", 6, 1, False), ("quad", 5, 0, True),
                                                 ("quad", 5, 3, True)])
def test_multilevel_cycle_is_built_only_where_it_pays(family, level, k, off, monkeypatch):
    """square-sin2d converges inside the Jacobi budget; at k = 0 the vertex
    level has a kernel, and at k >= 3 the modes m >= 2 are left to the
    smoother: forced on, the cycle saved time at k = 3 but not at k = 4
    (wgsolve._pcg)."""
    def refuse(*args):
        raise AssertionError("multilevel cycle built")

    monkeypatch.setattr(wgsolve, "_multilevel", refuse)
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    mesh = GENERATORS[family](level)
    case = get_case("sin2d")
    system = _off_eigenfunction(mesh, k) if off else assemble(mesh, k, case.f, case.g)
    sol = solve(system)
    assert sol.method == "pcg" and sol.residual <= 1e-12
    assert (sol.iterations > wgsolve.JACOBI_BUDGET) == off


def test_no_function_imports_a_package_module():
    """Package modules import each other at module level only, so the import
    graph has no cycle hidden in a function body."""
    src = Path(__file__).resolve().parent.parent / "src" / "wg_sfem"
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["wg_sfem"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n.split(".")[0] == "wg_sfem" for n in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_and_pcg_solve_leave_the_linalg_modules_unloaded():
    """scipy.sparse.linalg, and the scipy.linalg it imports, load on the
    first direct solve and not before."""
    script = """
import sys
import wg_sfem
from wg_sfem import wgsolve
def loaded():
    return [m for m in ("scipy.sparse.linalg", "scipy.linalg") if m in sys.modules]
print(loaded())
mesh, case = wg_sfem.generate_square_grid(3), wg_sfem.get_case("sin2d")
wgsolve.DIRECT_LIMIT = 0
print(wgsolve.solve(wgsolve.assemble(mesh, 1, case.f, case.g)).method, loaded())
wgsolve.DIRECT_LIMIT = 5000
print(wgsolve.solve(wgsolve.assemble(mesh, 1, case.f, case.g)).method, loaded())
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == [
        "[]", "pcg []", "direct ['scipy.sparse.linalg', 'scipy.linalg']"]


def test_import_and_local_work_leave_scipy_unloaded():
    """import wg_sfem loads numpy and the package, not scipy: meshes, the
    operator cache, the edge projection and the norms are dense per-cell
    work, and so is assemble.  scipy.sparse loads at the first access to
    a matrix, scipy.sparse.linalg still not, and the CLI's mesh command
    and a usage error load none."""
    script = """
import contextlib, io, os, sys, tempfile
import wg_sfem
from wg_sfem import cli, wgsolve
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded())
mesh, case = wg_sfem.generate_quad_grid(3), wg_sfem.get_case("sin2d")
cache = wg_sfem.OperatorCache(mesh, 1)
wg_sfem.project_qb(mesh, range(mesh.n_edges), 1, case.u)
vec = wgsolve.constant_function_vector(cache.dofmap)
wgsolve.triple_bar_norm(mesh, 1, vec, cache), wgsolve.discrete_h1_norm(mesh, 1, vec, cache)
print(loaded())
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["mesh", "--family", "hex", "--level", "2",
                     "--out", os.path.join(tmp, "m.json")])
print(code, loaded())
try:
    cli.main(["solve", "--family", "square", "--level", "2"])
except SystemExit as exc:
    print(exc.code, loaded())
system = wgsolve.assemble(mesh, 1, case.f, case.g, cache=cache)
print(loaded())
system.edge_matrix
print("scipy.sparse" in sys.modules, "scipy.sparse.linalg" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == ["[]", "[]", "0 []", "2 []", "[]", "True False"]


def test_two_phase_pcg_leaves_the_linalg_modules_unloaded():
    """The multilevel cycle is built from numpy and scipy.sparse alone:
    scipy.sparse.linalg would map a second BLAS and stay resident."""
    script = """
import sys
import numpy as np
import wg_sfem
from wg_sfem import wgsolve
wgsolve.DIRECT_LIMIT = 0
mesh = wg_sfem.generate_quad_grid(4)
system = wgsolve.assemble(mesh, 1, wg_sfem.get_case("sin2d").f, lambda x, y: np.exp(x) * y)
sol = wgsolve.solve(system)
print(sol.method, sol.iterations > wgsolve.JACOBI_BUDGET,
      [m for m in ("scipy.sparse.linalg", "scipy.linalg") if m in sys.modules])
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == ["pcg True []"]
