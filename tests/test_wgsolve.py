import numpy as np
import pytest
import scipy.sparse as sp

from wg_sfem.analysis import get_case
from wg_sfem.localspaces import OperatorCache, project_qb
from wg_sfem.polymesh import GENERATORS, generate_hex_grid, generate_square_grid
from wg_sfem.polymesh import triangulate_cell
from wg_sfem.quadrature import triangle_points
from wg_sfem.wgsolve import (
    DataError,
    SolverStructureError,
    _pcg,
    assemble,
    build_dof_map,
    constant_function_vector,
    discrete_h1_norm,
    solve,
    triple_bar_norm,
)


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


def test_nonfinite_boundary_data_rejected_with_edge_and_point():
    mesh = generate_square_grid(2)

    def bad(x, y):
        vals = np.ones_like(x)
        vals[x > 0.5] = np.inf
        return vals

    with pytest.raises(DataError, match="quadrature point") as exc:
        assemble(mesh, 0, zero, bad)
    msg = str(exc.value)
    e = int(msg.rsplit("edge ", 1)[1])
    x, y = (float(v) for v in msg.split("(")[1].split(")")[0].split(","))
    assert mesh.boundary_edges[e]
    a, b = mesh.vertices[mesh.edges[e]]
    assert x > 0.5
    assert abs((b - a)[0] * (y - a[1]) - (b - a)[1] * (x - a[0])) < 1e-14


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
    assert sol.u0[0, 0] == pytest.approx(load / ops.stiffness[0, 0], rel=1e-13)


def test_pcg_contract_on_random_spd_system():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x, iters, res = _pcg(A, b, 1e-12)
    assert res <= 1e-12
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b) * (1 + 1e-9)


def test_pcg_detects_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(SolverStructureError):
        _pcg(A, np.array([0.0, 0.0, 1.0]), 1e-12)


def test_direct_and_pcg_paths_agree():
    mesh = generate_square_grid(4)
    system = assemble(mesh, 1, get_case("sin2d").f, None)
    direct = solve(system)
    x_pcg, _, res = _pcg(system.matrix, system.rhs, 1e-13)
    full = np.zeros(system.dofmap.n_dofs)
    full[system.dofmap.free_dofs] = x_pcg
    assert res <= 1e-13
    assert np.allclose(direct.full_vector(system.dofmap), full, atol=1e-9)


def test_solver_residual_contract():
    mesh = generate_square_grid(5)
    system = assemble(mesh, 0, get_case("sin2d").f, None)
    sol = solve(system, tol=1e-12)
    assert sol.residual <= 1e-12
    assert sol.method in ("direct", "direct+cg", "pcg")


# ---------------------------------------------------------------- norms


def test_triple_bar_norm_of_constant_is_zero():
    mesh = generate_square_grid(2)
    dofmap = build_dof_map(mesh, 1)
    vec = constant_function_vector(dofmap)
    assert triple_bar_norm(mesh, 1, vec) < 1e-11


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
            + [project_qb(mesh, e, k, g) for e in mesh.cell_edges[c]]
        )
    assert discrete_h1_norm(mesh, k, vec, cache) == pytest.approx(2.0, rel=1e-12)
    assert triple_bar_norm(mesh, k, vec, cache) == pytest.approx(2.0, rel=1e-12)


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
    with pytest.raises(SolverConvergenceError) as exc:
        _pcg(A, b, 1e-12)
    cap = 20 * int(np.ceil(np.sqrt(n)))
    assert exc.value.history.size == cap + 1
    assert exc.value.history[-1] > 1e-12


@pytest.mark.parametrize("family,level", [("quad", 4), ("hex", 3)])
@pytest.mark.parametrize("k", range(3))
def test_assembled_matrix_symmetric_without_symmetrizing(family, level, k):
    system = assemble(GENERATORS[family](level), k, zero, None)
    A = system.full_matrix
    assert abs(A - A.T).max() == 0
