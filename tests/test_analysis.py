import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wg_sfem.analysis as analysis
from wg_sfem.analysis import (
    CASES,
    NOISE_FLOOR,
    ConvergenceTable,
    ErrorReport,
    energy_error,
    energy_error_via_projection,
    get_case,
    l2_projection_error,
    rate,
    run_convergence,
    run_level,
    solve_case,
)
from wg_sfem.localspaces import DataError, OperatorCache, project_qb
from wg_sfem.polymesh import GENERATORS, generate_quad_grid
from wg_sfem.wgsolve import (
    SolverError,
    WGSolution,
    assemble,
    build_dof_map,
    discrete_h1_norm,
    triple_bar_norm,
)

from helpers import consistency_residual


# ---------------------------------------------------------------- cases


@pytest.mark.parametrize("label", sorted(CASES))
def test_manufactured_cases_satisfy_their_pde(label):
    case = get_case(label)
    assert consistency_residual(case) <= 1e-8


def test_unknown_case_rejected():
    with pytest.raises(KeyError, match="unknown case"):
        get_case("vortex")


# ---------------------------------------------------------------- rates


def test_rate_examples():
    assert rate(0.4, 0.1) == pytest.approx(2.0, abs=1e-14)
    assert rate(0.2756e-3, 0.6892e-4) == pytest.approx(2.00, abs=0.005)
    assert rate(0.2, 0.2) == 0.0
    assert math.isnan(rate(0.0, 0.1))
    assert math.isnan(rate(0.1, -1.0))


@pytest.mark.parametrize("e_prev,e_curr", [(1e-13, 1e-14), (1e-3, NOISE_FLOOR)])
def test_rate_is_undefined_when_either_error_is_at_the_noise_floor(e_prev, e_curr):
    assert math.isnan(rate(e_prev, e_curr))


@settings(max_examples=30, deadline=None)
@given(
    e=st.floats(min_value=1e-10, max_value=1e3),
    r=st.floats(min_value=-4, max_value=6),
)
def test_rate_recovers_exponent(e, r):
    assert rate(e, e / 2**r) == pytest.approx(r, abs=1e-7)


# ---------------------------------------------------------------- error norms


def fabricated_projection_solution(mesh, k, case, cache):
    dofmap = build_dof_map(mesh, k)
    u0 = np.array([cache.get(c).project_interior(case.u)
                   for c in range(mesh.n_cells)])
    ub = np.array([project_qb(mesh, e, k, case.u) for e in range(mesh.n_edges)])
    return WGSolution(k=k, u0=u0, ub=ub, iterations=0, residual=0.0,
                      method="fabricated")


def test_errors_vanish_for_projected_exact_solution():
    mesh = generate_quad_grid(2)
    k = 1
    case = get_case("sin2d")
    cache = OperatorCache(mesh, k)
    sol = fabricated_projection_solution(mesh, k, case, cache)
    assert l2_projection_error(mesh, k, case.u, sol, cache) <= 1e-13
    # key0 + containment: weak gradient of Q_h u equals the projected
    # gradient, so the energy error of the fabricated solution is zero
    assert energy_error(mesh, k, case.u, case.grad_u, sol, cache) <= 1e-10


def test_patch_solution_errors_below_floor():
    for family in GENERATORS:
        mesh = GENERATORS[family](2)
        case = get_case("patch-linear")
        sol, cache = solve_case(mesh, 0, case)
        assert l2_projection_error(mesh, 0, case.u, sol, cache) <= 1e-9
        assert energy_error(mesh, 0, case.u, case.grad_u, sol, cache) <= 1e-8


def test_energy_error_routes_agree():
    """Projected-gradient route equals the projected-solution route."""
    mesh = GENERATORS["hex"](2)
    k = 1
    case = get_case("sin2d")
    sol, cache = solve_case(mesh, k, case)
    via_gradient = energy_error(mesh, k, case.u, case.grad_u, sol, cache)
    via_projection = energy_error_via_projection(mesh, k, case.u, sol, cache)
    assert via_gradient == pytest.approx(via_projection, rel=1e-9)


# ---------------------------------------------------------------- cache checks

SIN2D = get_case("sin2d")
# Each pass as (mesh, k, cache, solution) -> result.
PASSES = {
    "assemble": lambda mesh, k, cache, sol: assemble(mesh, k, SIN2D.f, SIN2D.g, cache=cache),
    "l2_projection_error": lambda mesh, k, cache, sol:
        l2_projection_error(mesh, k, SIN2D.u, sol, cache),
    "energy_error": lambda mesh, k, cache, sol:
        energy_error(mesh, k, SIN2D.u, SIN2D.grad_u, sol, cache),
    "energy_error_via_projection": lambda mesh, k, cache, sol:
        energy_error_via_projection(mesh, k, SIN2D.u, sol, cache),
    "triple_bar_norm": lambda mesh, k, cache, sol:
        triple_bar_norm(mesh, k, sol.full_vector(cache.dofmap), cache),
    "discrete_h1_norm": lambda mesh, k, cache, sol:
        discrete_h1_norm(mesh, k, sol.full_vector(cache.dofmap), cache),
}


@pytest.fixture(scope="module")
def quad_and_square_l4():
    """A quad-L4 k = 1 solution with its cache, and a k = 1 cache of the
    square L4 mesh, which has the same topology (64 cells, 144 edges)."""
    quad = GENERATORS["quad"](4)
    sol, cache = solve_case(quad, 1, SIN2D)
    return quad, sol, cache, OperatorCache(GENERATORS["square"](4), 1)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_every_pass_rejects_a_cache_of_another_mesh_or_degree(name, quad_and_square_l4):
    """The square cache fits every array of the quad solution, so only the
    check tells the meshes apart."""
    quad, sol, quad_cache, square_cache = quad_and_square_l4
    run = PASSES[name]
    with pytest.raises(ValueError, match="degree 1 was built for another mesh"):
        run(quad, 1, square_cache, sol)
    with pytest.raises(ValueError, match="degree 1 was built for this mesh.*degree 2"):
        run(quad, 2, quad_cache, sol)
    run(quad, 1, quad_cache, sol)


@pytest.fixture(scope="module")
def quad_l3_misfits():
    """A k = 1 cache of the quad L3 mesh, and sin2d solutions that do not
    fit it: of quad L4 and L2 at k = 1, and of quad L3 at k = 2."""
    solutions = {label: solve_case(GENERATORS["quad"](level), k, SIN2D)[0]
                 for label, level, k in (("finer", 4, 1), ("coarser", 2, 1), ("degree-2", 3, 2))}
    mesh = GENERATORS["quad"](3)
    return mesh, OperatorCache(mesh, 1), solutions


@pytest.mark.parametrize("misfit", ["finer", "coarser", "degree-2"])
@pytest.mark.parametrize("name", ["l2_projection_error", "energy_error",
                                  "energy_error_via_projection"])
def test_error_norms_reject_a_solution_that_does_not_fit_the_cache(name, misfit,
                                                                   quad_l3_misfits):
    """Each error norm raises the DOF map's error for a solution of another
    mesh or degree: not an IndexError, a broadcast error or a wrong norm
    (the quad L4 solution once read 0.372 in L2)."""
    mesh, cache, solutions = quad_l3_misfits
    with pytest.raises(ValueError, match="does not fit the degree-1 DOF map"):
        PASSES[name](mesh, 1, cache, solutions[misfit])


def test_assemble_and_solve_case_build_their_own_cache(quad_and_square_l4):
    quad, sol, _, _ = quad_and_square_l4
    system = assemble(quad, 1, SIN2D.f, SIN2D.g)
    assert system.cache.mesh is quad and system.cache.k == 1
    assert system.dofmap is system.cache.dofmap
    again, cache = solve_case(quad, 1, SIN2D)
    assert cache.mesh is quad and cache.k == 1
    assert np.array_equal(again.u0, sol.u0) and np.array_equal(again.ub, sol.ub)


def test_constant_u_and_grad_u_give_the_errors_of_their_arrays(quad_and_square_l4):
    """A constant u or grad u is every point's value: the same samples and
    errors as the arrays of that value."""
    quad, sol, cache, _ = quad_and_square_l4
    const_u, array_u = (lambda x, y: 2.0), (lambda x, y: np.full_like(x, 2.0))
    assert (l2_projection_error(quad, 1, const_u, sol, cache)
            == l2_projection_error(quad, 1, array_u, sol, cache))
    assert (energy_error_via_projection(quad, 1, const_u, sol, cache)
            == energy_error_via_projection(quad, 1, array_u, sol, cache))
    for const in ((0.0, 1.0), np.array([0.5, -2.0])):
        stacked = lambda x, y: np.stack([np.full_like(x, v) for v in const], axis=-1)
        assert (energy_error(quad, 1, array_u, lambda x, y: const, sol, cache)
                == energy_error(quad, 1, array_u, stacked, sol, cache))


@pytest.mark.parametrize("grad_u,got", [
    (lambda x, y: x, r"\(\d+,\)"),
    (lambda x, y: np.stack([x, y]), r"\(2, \d+\)"),
    (lambda x, y: (0.0, 1.0, 2.0), r"\(3,\)"),
], ids=["per-point-scalar", "transposed", "three-components"])
def test_misshaped_grad_u_rejected_naming_both_shapes(grad_u, got, quad_and_square_l4):
    quad, sol, cache, _ = quad_and_square_l4
    with pytest.raises(DataError, match=rf"shape {got}; expected shape \(2,\) or \(\d+, 2\)"):
        energy_error(quad, 1, SIN2D.u, grad_u, sol, cache)


def test_misshaped_u_rejected_naming_both_shapes(quad_and_square_l4):
    quad, sol, cache, _ = quad_and_square_l4
    with pytest.raises(DataError, match=r"shape \(\d+, 2\); expected shape \(\) or \(\d+,\)"):
        l2_projection_error(quad, 1, lambda x, y: np.stack([x, y], axis=-1), sol, cache)


# ---------------------------------------------------------------- driver


def test_run_level_report_fields():
    rep = run_level("square", 3, 1, get_case("sin2d"))
    assert rep.level == 3
    assert rep.dofs == build_dof_map(GENERATORS["square"](3), 1).n_dofs
    assert rep.l2_err > 0 and rep.energy_err > 0
    assert rep.residual <= 1e-12


def test_run_convergence_monotone_and_rates():
    table = run_convergence("quad", 0, range(3, 6), get_case("sin2d"))
    assert len(table.rows) == 3
    assert not table.partial
    errs = [r.l2_err for r in table.rows]
    assert errs[0] > errs[1] > errs[2]
    assert math.isnan(table.rows[0].l2_rate)
    assert table.rows[-1].l2_rate == pytest.approx(2.0, abs=0.25)
    assert table.rows[-1].energy_rate == pytest.approx(1.0, abs=0.2)


def test_run_convergence_patch_marks_rates_undefined():
    table = run_convergence("square", 1, range(2, 4), get_case("patch-quadratic"))
    for row in table.rows:
        assert row.l2_err <= 1e-8
        assert row.energy_err <= 1e-8
    assert math.isnan(table.rows[-1].l2_rate)
    assert math.isnan(table.rows[-1].energy_rate)


def test_numpy_integer_degree_and_levels_render_as_ints():
    """Every format prints the same bytes as for a range of ints."""
    case = get_case("sin2d")
    plain = run_convergence("square", 1, range(2, 4), case)
    typed = run_convergence("square", np.int64(1), np.arange(2, 4), case)
    assert all(type(row.level) is int and type(row.dofs) is int for row in typed.rows)
    for fmt in ("csv", "md", "json"):
        assert typed.render(fmt) == plain.render(fmt)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown mesh family"):
        run_convergence("voronoi", 0, range(2, 4), get_case("sin2d"))


# ---------------------------------------------------------------- rendering


@pytest.fixture(scope="module")
def small_table():
    return run_convergence("square", 0, range(2, 5), get_case("sin2d"))


def test_csv_layout(small_table):
    lines = small_table.to_csv().splitlines()
    assert lines[0] == "level,l2_err,l2_rate,energy_err,energy_rate"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[2] == "" and first[4] == ""
    # full-precision floats round-trip
    assert float(first[1]) == small_table.rows[0].l2_err


def test_markdown_layout(small_table):
    md = small_table.to_markdown()
    assert md.splitlines()[0].startswith("| level |")
    assert len(md.splitlines()) == 2 + 3


def test_json_layout(small_table):
    payload = json.loads(small_table.to_json())
    assert payload["family"] == "square"
    assert payload["k"] == 0
    assert payload["rows"][0]["l2_rate"] is None
    assert payload["rows"][2]["l2_rate"] == small_table.rows[2].l2_rate
    assert not payload["partial"]


def test_partial_study_names_its_failure_in_json(monkeypatch):
    real_run_level = analysis.run_level

    def failing(family, level, k, case, tol=1e-12):
        if level >= 3:
            raise SolverError("injected failure")
        return real_run_level(family, level, k, case, tol=tol)

    monkeypatch.setattr(analysis, "run_level", failing)
    table = run_convergence("square", 0, range(2, 5), get_case("sin2d"))
    assert table.partial and table.failure == "level 3: injected failure"
    assert [row.level for row in table.rows] == [2]
    payload = json.loads(table.to_json())
    assert payload["partial"] is True
    assert payload["failure"] == "level 3: injected failure"
    assert len(payload["rows"]) == 1


def test_render_dispatch(small_table):
    assert small_table.render("csv") == small_table.to_csv()
    assert small_table.render("md") == small_table.to_markdown()
    assert small_table.render("json") == small_table.to_json()
    with pytest.raises(ValueError):
        small_table.render("yaml")


# Hand-built tables, with no solve, pin every byte of the three formats.
COMPLETE = ConvergenceTable("square", 1, "sin2d", rows=[
    ErrorReport(level=2, dofs=40, l2_err=0.1, energy_err=2.5, residual=3e-16),
    ErrorReport(level=3, dofs=144, l2_err=0.0125, energy_err=0.7, residual=1.5e-15,
                l2_rate=3.0, energy_rate=math.log2(2.5 / 0.7)),
    ErrorReport(level=4, dofs=544, l2_err=0.025, energy_err=0.35, residual=2e-15,
                l2_rate=-1.0, energy_rate=1.0),
])
PARTIAL = ConvergenceTable("hex", 2, "patch-quadratic", rows=[
    ErrorReport(level=2, dofs=97, l2_err=NOISE_FLOOR, energy_err=4.2e-12, residual=0.0),
    ErrorReport(level=3, dofs=361, l2_err=2.0e-14, energy_err=1.05e-12, residual=1e-13,
                energy_rate=2.0),
], failure="level 4: injected failure")
# A study whose first level fails: every format is its header alone.
EMPTY = ConvergenceTable("quad", 0, "sin2d", failure="level 2: injected failure")

PINNED = {
    ("complete", "csv"): """\
level,l2_err,l2_rate,energy_err,energy_rate
2,0.1,,2.5,
3,0.0125,3.0,0.7,1.8365012677171206
4,0.025,-1.0,0.35,1.0
""",
    ("complete", "md"): """\
| level | l2_err | rate | energy_err | rate |
|------:|----------:|-----:|----------:|-----:|
|     2 | 1.000E-01 |   --  | 2.500E+00 |   --  |
|     3 | 1.250E-02 |  3.00 | 7.000E-01 |  1.84 |
|     4 | 2.500E-02 | -1.00 | 3.500E-01 |  1.00 |
""",
    ("complete", "json"): """\
{
  "family": "square",
  "k": 1,
  "case": "sin2d",
  "partial": false,
  "rows": [
    {
      "level": 2,
      "l2_err": 0.1,
      "l2_rate": null,
      "energy_err": 2.5,
      "energy_rate": null,
      "dofs": 40,
      "residual": 3e-16
    },
    {
      "level": 3,
      "l2_err": 0.0125,
      "l2_rate": 3.0,
      "energy_err": 0.7,
      "energy_rate": 1.8365012677171206,
      "dofs": 144,
      "residual": 1.5e-15
    },
    {
      "level": 4,
      "l2_err": 0.025,
      "l2_rate": -1.0,
      "energy_err": 0.35,
      "energy_rate": 1.0,
      "dofs": 544,
      "residual": 2e-15
    }
  ]
}
""",
    ("partial", "csv"): """\
level,l2_err,l2_rate,energy_err,energy_rate
2,1e-13,,4.2e-12,
3,2e-14,,1.05e-12,2.0
""",
    ("partial", "md"): """\
| level | l2_err | rate | energy_err | rate |
|------:|----------:|-----:|----------:|-----:|
|     2 | 1.000E-13 |   --  | 4.200E-12 |   --  |
|     3 | 2.000E-14 |   --  | 1.050E-12 |  2.00 |
""",
    ("partial", "json"): """\
{
  "family": "hex",
  "k": 2,
  "case": "patch-quadratic",
  "partial": true,
  "rows": [
    {
      "level": 2,
      "l2_err": 1e-13,
      "l2_rate": null,
      "energy_err": 4.2e-12,
      "energy_rate": null,
      "dofs": 97,
      "residual": 0.0
    },
    {
      "level": 3,
      "l2_err": 2e-14,
      "l2_rate": null,
      "energy_err": 1.05e-12,
      "energy_rate": 2.0,
      "dofs": 361,
      "residual": 1e-13
    }
  ],
  "failure": "level 4: injected failure"
}
""",
    ("empty", "csv"): """\
level,l2_err,l2_rate,energy_err,energy_rate
""",
    ("empty", "md"): """\
| level | l2_err | rate | energy_err | rate |
|------:|----------:|-----:|----------:|-----:|
""",
    ("empty", "json"): """\
{
  "family": "quad",
  "k": 0,
  "case": "sin2d",
  "partial": true,
  "rows": [],
  "failure": "level 2: injected failure"
}
""",
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED))
def test_hand_built_tables_render_pinned_bytes(name, fmt):
    table = {"complete": COMPLETE, "partial": PARTIAL, "empty": EMPTY}[name]
    to_text = {"csv": table.to_csv, "md": table.to_markdown, "json": table.to_json}[fmt]
    assert to_text() == PINNED[name, fmt]
    assert table.render(fmt) == PINNED[name, fmt]


def test_tables_deterministic():
    t1 = run_convergence("hex", 0, range(2, 4), get_case("sin2d"))
    t2 = run_convergence("hex", 0, range(2, 4), get_case("sin2d"))
    assert t1.to_csv() == t2.to_csv()
