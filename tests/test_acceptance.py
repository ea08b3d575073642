"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.

Two checks are expected to fail and are kept at their stated tolerances
rather than loosened: on exactly uniform square grids this discretization
superconverges one order beyond the k+1 energy rate at k=0 (a symmetry
cancellation; criterion 1) and produces uniformly smaller raw errors than
the frozen square-family reference values (criterion 2).  The asymmetric
quad/hex families show exactly the expected rates.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from wg_sfem.analysis import get_case, run_convergence, solve_case
from wg_sfem.analysis import energy_error, l2_projection_error
from wg_sfem.localspaces import (
    OperatorCache,
    build_lambda_basis,
    expected_lambda_dim,
    project_qb,
)
from wg_sfem.polymesh import GENERATORS
from wg_sfem.quadrature import (
    reference_triangle_monomial_integral,
    segment_rule,
    triangle_rule,
)
from wg_sfem.wgsolve import (
    assemble,
    build_dof_map,
    constant_function_vector,
    discrete_h1_norm,
    triple_bar_norm,
)

STUDY_LEVELS = {
    ("square", 0): (4, 5, 6),
    ("square", 1): (4, 5, 6),
    ("square", 2): (4, 5, 6),
    ("square", 3): (3, 4, 5),
    ("quad", 0): (4, 5, 6),
    ("quad", 1): (4, 5, 6),
    ("quad", 2): (4, 5, 6),
    ("hex", 0): (3, 4, 5),
    ("hex", 1): (3, 4, 5),
    ("hex", 2): (3, 4, 5),
}

SQUARE_REFERENCE = {
    # (k, level) -> (l2_err, energy_err), 10% reproduction windows
    (0, 6): (1.101e-3, 1.988e-1),
    (1, 6): (2.722e-5, 6.952e-3),
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def studies():
    case = get_case("sin2d")
    return {
        key: run_convergence(key[0], key[1], levels, case)
        for key, levels in STUDY_LEVELS.items()
    }


def test_criterion_1_superconvergence_rate_windows(studies):
    """Final-row energy rate in [k+0.9, k+1.2] and L2 rate in
    [k+1.85, k+2.25] for every configured (family, k) study."""
    failures, summary = [], []
    for (family, k), table in studies.items():
        last = table.rows[-1]
        en_ok = k + 0.9 <= last.energy_rate <= k + 1.2
        l2_ok = k + 1.85 <= last.l2_rate <= k + 2.25
        summary.append(f"{family}/k{k}: L2 {last.l2_rate:.2f}, energy "
                       f"{last.energy_rate:.2f}")
        if not en_ok:
            failures.append(
                f"{family} k={k}: energy rate {last.energy_rate:.3f} outside "
                f"[{k + 0.9}, {k + 1.2}]"
            )
        if not l2_ok:
            failures.append(
                f"{family} k={k}: L2 rate {last.l2_rate:.3f} outside "
                f"[{k + 1.85}, {k + 2.25}]"
            )
    report("1 (superconvergence rates)", not failures, "; ".join(summary))
    assert not failures, "\n".join(failures)


def test_criterion_2_square_raw_error_reproduction(studies):
    """Square-family level-6 errors within 10% of the frozen reference
    values for k=0 and k=1."""
    failures, summary = [], []
    for (k, level), (ref_l2, ref_en) in SQUARE_REFERENCE.items():
        table = studies[("square", k)]
        rep = next(r for r in table.reports if r.level == level)
        summary.append(
            f"k{k} L{level}: l2 {rep.l2_err:.4E} (ref {ref_l2:.4E}), "
            f"energy {rep.energy_err:.4E} (ref {ref_en:.4E})"
        )
        if not ref_l2 * 0.9 <= rep.l2_err <= ref_l2 * 1.1:
            failures.append(
                f"k={k} level {level}: l2 {rep.l2_err:.4E} outside 10% of "
                f"{ref_l2:.4E}"
            )
        if not ref_en * 0.9 <= rep.energy_err <= ref_en * 1.1:
            failures.append(
                f"k={k} level {level}: energy {rep.energy_err:.4E} outside "
                f"10% of {ref_en:.4E}"
            )
    report("2 (square raw-error reproduction)", not failures, "; ".join(summary))
    assert not failures, "\n".join(failures)


def test_criterion_3_quad_hex_rates_only(studies):
    """Quad/hex families accepted on rates alone; their reference grids are
    not recoverable, so raw errors carry no contract."""
    failures, summary = [], []
    for family in ("quad", "hex"):
        for k in (0, 1, 2):
            last = studies[(family, k)].rows[-1]
            summary.append(f"{family}/k{k}: {last.l2_rate:.2f}/{last.energy_rate:.2f}")
            if not (k + 0.9 <= last.energy_rate <= k + 1.2
                    and k + 1.85 <= last.l2_rate <= k + 2.25):
                failures.append(f"{family} k={k} rates out of window")
    report("3 (quad/hex rates-only)", not failures, "; ".join(summary))
    assert not failures, "\n".join(failures)


def test_criterion_4_commuting_identity_suite():
    """Weak gradient of the projected function equals the projected gradient
    to 1e-10 relative, on every cell of level-3 meshes of all families, for
    k <= 3, for a random degree-(k+2) polynomial and the sine product."""
    from wg_sfem.localspaces import monomial_exponents

    case = get_case("sin2d")
    worst = 0.0
    failures = []
    for family in sorted(GENERATORS):
        mesh = GENERATORS[family](3)
        for k in range(4):
            exps = monomial_exponents(k + 2)
            rng = np.random.default_rng(1000 + k)
            coeffs = rng.uniform(-1, 1, len(exps))

            def poly(x, y):
                return sum(c * x**a * y**b for c, (a, b) in zip(coeffs, exps))

            def poly_grad(x, y):
                gx = sum(c * a * x ** max(a - 1, 0) * y**b
                         for c, (a, b) in zip(coeffs, exps))
                gy = sum(c * b * x**a * y ** max(b - 1, 0)
                         for c, (a, b) in zip(coeffs, exps))
                return np.stack([gx + 0 * x, gy + 0 * x], axis=-1)

            cache = OperatorCache(mesh, k)
            for c in range(mesh.n_cells):
                ops = cache.get(c)
                for u, grad_u in ((poly, poly_grad), (case.u, case.grad_u)):
                    u0 = ops.project_interior(u)
                    ubs = [project_qb(mesh, e, k, u) for e in mesh.cell_sides([c])[0]]
                    lhs = ops.apply_weak_gradient(np.concatenate([u0] + ubs))
                    rhs = ops.project_lambda_field(grad_u)
                    rel = float(
                        np.linalg.norm(lhs - rhs)
                        / max(np.linalg.norm(rhs), 1e-12)
                    )
                    worst = max(worst, rel)
                    if rel > 1e-10:
                        failures.append(f"{family} k={k} cell {c}: {rel:.2E}")
    report("4 (commuting identity)", not failures,
           f"worst relative residual {worst:.2E} (bound 1e-10)")
    assert not failures, "\n".join(failures[:10])


def test_criterion_5_patch_test_exactness():
    """Zero-source polynomial boundary data reproduced to 1e-8 in both error
    norms on all families at level 3."""
    configs = [("patch-linear", 0), ("patch-linear", 1), ("patch-quadratic", 1)]
    failures, worst = [], 0.0
    for family in sorted(GENERATORS):
        mesh = GENERATORS[family](3)
        for label, k in configs:
            case = get_case(label)
            sol, cache = solve_case(mesh, k, case)
            l2 = l2_projection_error(mesh, k, case.u, sol, cache)
            en = energy_error(mesh, k, case.u, case.grad_u, sol, cache)
            worst = max(worst, l2, en)
            if l2 > 1e-8 or en > 1e-8:
                failures.append(
                    f"{family} {label} k={k}: l2={l2:.2E} energy={en:.2E}"
                )
    report("5 (patch-test exactness)", not failures,
           f"worst error {worst:.2E} (bound 1e-8)")
    assert not failures, "\n".join(failures)


def test_criterion_6_structural_suite():
    """Dimension law (k <= 4, all generated shapes), exact stiffness
    symmetry, PSD on random vectors, constant annihilation, and the
    quadrature exactness sweep."""
    failures = []

    for family in sorted(GENERATORS):
        for level in (1, 2):
            mesh = GENERATORS[family](level)
            for k in range(5):
                for c in range(mesh.n_cells):
                    lam = build_lambda_basis(mesh, c, k)
                    want = expected_lambda_dim(len(mesh.cells[c]), k)
                    if lam.n_lambda != want:
                        failures.append(
                            f"dim law {family} L{level} k={k} cell {c}: "
                            f"{lam.n_lambda} != {want}"
                        )

    rng = np.random.default_rng(99)
    for family in sorted(GENERATORS):
        level = max(STUDY_LEVELS[(family, 1)])
        mesh = GENERATORS[family](level)
        for k in (0, 1, 2):
            system = assemble(mesh, k, lambda x, y: np.zeros_like(x), None)
            if (system.full_matrix != system.full_matrix.T).nnz != 0:
                failures.append(f"symmetry {family} k={k}")
            A = system.matrix
            X = rng.standard_normal((A.shape[0], 100))
            quad_forms = np.sum(X * (A @ X), axis=0)
            if not np.all(quad_forms > 0):
                failures.append(f"PSD {family} k={k}")
            vec = constant_function_vector(system.dofmap)
            drift = np.linalg.norm(system.full_matrix @ vec)
            if drift > 1e-11 * sp.linalg.norm(system.full_matrix):
                failures.append(f"constant annihilation {family} k={k}: {drift:.2E}")

    for degree in range(0, 41, 4):
        rule = segment_rule(degree)
        for p in range(degree + 1):
            err = abs(float(np.sum(rule.weights * rule.points**p)) - 1 / (p + 1))
            if err > 1e-13 / (p + 1):
                failures.append(f"segment sweep degree {degree} power {p}")
    for degree in range(0, 26, 5):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = reference_triangle_monomial_integral(a, b)
                if abs(float(np.sum(rule.weights * x**a * y**b)) - exact) > 1e-13 * exact:
                    failures.append(f"triangle sweep degree {degree} ({a},{b})")

    report("6 (structural suite)", not failures,
           "dimension law k<=4, symmetry, PSD, annihilation, quadrature sweep")
    assert not failures, "\n".join(failures[:10])


def test_criterion_7_norm_equivalence_window():
    """Energy/discrete-H1 ratios of random functions on square levels 2-6
    stay within [r_min/2, 2*r_max] of the level-2 extremes."""
    failures, summary = [], []
    for k in (0, 1, 2):
        rng = np.random.default_rng(7000 + k)
        window = None
        for level in (2, 3, 4, 5, 6):
            mesh = GENERATORS["square"](level)
            dofmap = build_dof_map(mesh, k)
            cache = OperatorCache(mesh, k)
            vecs = np.zeros((dofmap.n_dofs, 100))
            vecs[dofmap.free_dofs] = rng.standard_normal((dofmap.n_free, 100))
            num = triple_bar_norm(mesh, k, vecs, cache)
            den = discrete_h1_norm(mesh, k, vecs, cache)
            ratios = num / den
            lo, hi = float(ratios.min()), float(ratios.max())
            if window is None:
                window = (lo / 2, 2 * hi)
                summary.append(f"k{k}: level-2 ratios [{lo:.3f}, {hi:.3f}]")
            else:
                if lo < window[0] or hi > window[1]:
                    failures.append(
                        f"k={k} level {level}: ratios [{lo:.3f}, {hi:.3f}] "
                        f"outside window [{window[0]:.3f}, {window[1]:.3f}]"
                    )
    report("7 (norm equivalence window)", not failures, "; ".join(summary))
    assert not failures, "\n".join(failures)
