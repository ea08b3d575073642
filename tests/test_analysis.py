import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wg_sfem.analysis import (
    CASES,
    energy_error,
    energy_error_via_projection,
    get_case,
    l2_projection_error,
    rate,
    run_convergence,
    run_level,
    solve_case,
)
from wg_sfem.localspaces import OperatorCache, project_qb
from wg_sfem.polymesh import GENERATORS, generate_quad_grid
from wg_sfem.wgsolve import WGSolution, build_dof_map

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


def test_render_dispatch(small_table):
    assert small_table.render("csv") == small_table.to_csv()
    assert small_table.render("md") == small_table.to_markdown()
    assert small_table.render("json") == small_table.to_json()
    with pytest.raises(ValueError):
        small_table.render("yaml")


def test_tables_deterministic():
    t1 = run_convergence("hex", 0, range(2, 4), get_case("sin2d"))
    t2 = run_convergence("hex", 0, range(2, 4), get_case("sin2d"))
    assert t1.to_csv() == t2.to_csv()
