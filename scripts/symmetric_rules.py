#!/usr/bin/env python3
"""Fully symmetric quadrature rules on the reference triangle.

A rule is fully symmetric (S3-symmetric) when its point set and weights are
invariant under the six permutations of the barycentric coordinates.  Its
points then come in orbits: the centroid, S21 orbits of the three points
with barycentric coordinates (a, a, 1 - 2a), and S111 orbits of the six with
(a, b, 1 - a - b).  Such a rule is exact for P_d as soon as it is exact for
the S3-invariant polynomials of degree <= d, so it needs far fewer points
than a collapsed Gauss product rule of the same degree (Dunavant, IJNME 21,
1985; Witherden & Vincent, Comput. Math. Appl. 69, 2015).

    PYTHONPATH=src python3 scripts/symmetric_rules.py --degree 14 --orbits 0 6 4

searches for a rule of degree 14 with no centroid, six S21 and four S111
orbits: from seeded random starts it solves the moment equations against
the products P_i(2x - 1) P_j(2y - 1) of Legendre polynomials, i + j <= d,
by a short bounded trust-region least-squares fit (scipy's ``trf``) and,
near a solution, Gauss-Newton steps, polishes the solution in 40-digit
arithmetic (mpmath) against the exact rational moments, and prints it as
orbit lines for ``SYMMETRIC_ORBITS`` in ``src/wg_sfem/quadrature.py``.  A
rule is accepted only with every weight positive, every barycentric
coordinate of every point at least 1e-4 and a polished residual below
1e-30.  Without ``--orbits`` and ``--seed`` the orbit counts of the
committed table and the seeds of ``SEEDS`` are used, and

    PYTHONPATH=src python3 scripts/symmetric_rules.py

prints the committed table.

    PYTHONPATH=src python3 scripts/symmetric_rules.py --check

re-verifies every rule of the committed table and exits 1 if one fails:
positive weights, barycentric coordinates of at least 1e-4, fewer points than
``triangle_rule`` of the same degree, every monomial x^a y^b, a + b <= d,
integrated to 1e-14 relative (evaluated in 40-digit arithmetic at the
table's double values), and a 40-digit rule within 1e-14 of the table.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np
from scipy.optimize import least_squares

from wg_sfem.quadrature import SYMMETRIC_ORBITS, symmetric_rule, triangle_rule

DIGITS = 40
POLISHED_RESIDUAL = mpmath.mpf("1e-30")
MONOMIAL_RTOL = 1e-14
# Searched rules keep their points this far inside: a solution that drifts
# onto an edge (a = 1/2 - 2e-10 turned up at degree 16) is rejected.
MIN_BARYCENTRIC = 1e-4

# The seed that found the committed rule of each degree; its orbit counts
# (centroid, S21, S111) are read back from SYMMETRIC_ORBITS.  The unknowns
# (one weight per orbit, one coordinate per S21 and two per S111) must be at
# least the number of S3-invariant polynomials of degree <= d (19, 24, 30,
# 37, 44); a few more make a rule with positive weights and interior points
# much easier to find.
SEEDS = {12: 0, 14: 0, 16: 0, 18: 0, 20: 2}

# Each orbit type: constant barycentric part, d(barycentric)/d(parameters)
# and the (x, y) = (barycentric[i], barycentric[j]) index pairs of its points.
CENTROID = (np.full(3, 1 / 3), np.zeros((3, 0)), ((0, 1),))
S21 = (np.array([0.0, 0.0, 1.0]), np.array([[1.0], [1.0], [-2.0]]), ((0, 1), (0, 2), (2, 0)))
S111 = (np.array([0.0, 0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)))


def shifted_legendre(n: int) -> list[int]:
    """Integer coefficients c_m of P_n(2x - 1) = sum c_m x^m."""
    return [(-1) ** (n + m) * comb(n, m) * comb(n + m, m) for m in range(n + 1)]


def basis_pairs(degree: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def exact_moments(degree: int) -> list[Fraction]:
    """Exact integrals of P_i(2x - 1) P_j(2y - 1) over the reference triangle."""
    coeffs = [shifted_legendre(n) for n in range(degree + 1)]
    return [sum(Fraction(ca * cb * factorial(a) * factorial(b), factorial(a + b + 2))
                for a, ca in enumerate(coeffs[i]) for b, cb in enumerate(coeffs[j]))
            for i, j in basis_pairs(degree)]


class Layout:
    """The linear maps from the unknowns z (per orbit: weight, then its
    coordinates) to the expanded points and weights: x = cx + Dx z,
    y = cy + Dy z, w = Mw z."""

    def __init__(self, counts: tuple[int, int, int]):
        kinds = [CENTROID] * counts[0] + [S21] * counts[1] + [S111] * counts[2]
        self.kinds = kinds
        self.n = sum(1 + kind[1].shape[1] for kind in kinds)
        cx, cy, Dx, Dy, Mw = [], [], [], [], []
        col = 0
        for const, D, pairs in kinds:
            npar = D.shape[1]
            for i, j in pairs:
                for c, Drow, out in ((cx, Dx, i), (cy, Dy, j)):
                    c.append(const[out])
                    row = np.zeros(self.n)
                    row[col + 1: col + 1 + npar] = D[out]
                    Drow.append(row)
                row = np.zeros(self.n)
                row[col] = 1.0
                Mw.append(row)
            col += 1 + npar
        self.cx, self.cy = np.array(cx), np.array(cy)
        # Weights >= 0, S21 coordinates in [0, 1/2], S111 ones in [0, 1].
        hi = np.concatenate([[np.inf] + [0.5 if D.shape[1] == 1 else 1.0] * D.shape[1]
                             for _, D, _ in kinds])
        self.bounds = (np.zeros(self.n), hi)
        self.Dx, self.Dy, self.Mw = np.array(Dx), np.array(Dy), np.array(Mw)

    def expand(self, z):
        return self.cx + self.Dx @ z, self.cy + self.Dy @ z, self.Mw @ z


class Moments:
    """Residual and Jacobian of the moment equations of one degree, each row
    scaled by sqrt((2i + 1)(2j + 1)).  For a symmetric rule the residual lies
    in the span of the S3-invariant functionals, so the search fits its
    coordinates in an orthonormal basis Q of that span: the same norm from
    as many equations as there are invariant polynomials."""

    def __init__(self, degree: int):
        self.degree = degree
        pairs = np.array(basis_pairs(degree))
        self.i, self.j = pairs.T
        self.scale = np.sqrt((2 * self.i + 1) * (2 * self.j + 1.0))
        self.exact = exact_moments(degree)
        self.target = np.array([float(m) for m in self.exact]) * self.scale
        # The moments of single orbits at random places span the invariant
        # functionals.
        lay = Layout((1, degree, 3 * degree))
        z = random_start(lay, np.random.default_rng(0))
        orbit_moments = self._jacobian(z, lay)[:, lay.Mw.any(axis=0)]
        U, sv, _ = np.linalg.svd(orbit_moments, full_matrices=False)
        self.Q = U[:, sv > 1e-10 * sv[0]]

    def _legendre(self, t):
        """P_n(2t - 1) and its t-derivative, n <= degree, shape (len(t), degree + 1)."""
        s = 2 * t - 1
        P, dP = [np.ones_like(s), s], [np.zeros_like(s), np.full_like(s, 2.0)]
        for n in range(1, self.degree):
            P.append(((2 * n + 1) * s * P[n] - n * P[n - 1]) / (n + 1))
            dP.append(dP[n - 1] + 2 * (2 * n + 1) * P[n])
        return np.stack(P[: self.degree + 1], axis=1), np.stack(dP[: self.degree + 1], axis=1)

    def _full_residual(self, z, lay):
        x, y, w = lay.expand(z)
        P, _ = self._legendre(np.concatenate([x, y]))
        return (P[: x.size, self.i] * P[x.size:, self.j]).T @ w * self.scale - self.target

    def _jacobian(self, z, lay):
        x, y, w = lay.expand(z)
        P, dP = self._legendre(np.concatenate([x, y]))
        Px, Py, dPx, dPy = P[: x.size], P[x.size:], dP[: x.size], dP[x.size:]
        V = Px[:, self.i] * Py[:, self.j]
        Vx, Vy = dPx[:, self.i] * Py[:, self.j], Px[:, self.i] * dPy[:, self.j]
        J = V.T @ lay.Mw + Vx.T @ (w[:, None] * lay.Dx) + Vy.T @ (w[:, None] * lay.Dy)
        return J * self.scale[:, None]

    def residual(self, z, lay):
        return self.Q.T @ self._full_residual(z, lay)

    def jacobian(self, z, lay):
        return self.Q.T @ self._jacobian(z, lay)

    def residual_mp(self, z, lay):
        """The unscaled residual in mpmath arithmetic at mpf unknowns z."""
        def linear(const, D):
            # The constants are 0, 1 and 1/3; limit_denominator makes 1/3 exact.
            exact = (Fraction(c).limit_denominator(3) for c in const)
            return [mpmath.mpf(q.numerator) / q.denominator
                    + sum(float(d) * zz for d, zz in zip(row, z) if d)
                    for q, row in zip(exact, D)]

        x, y, w = linear(lay.cx, lay.Dx), linear(lay.cy, lay.Dy), linear(0 * lay.cx, lay.Mw)
        Px, Py = ([legendre_mp(2 * t - 1, self.degree) for t in ts] for ts in (x, y))
        return [sum(wq * px[i] * py[j] for wq, px, py in zip(w, Px, Py)) - exact
                for i, j, exact in zip(self.i, self.j,
                                       (mpmath.mpf(m.numerator) / m.denominator
                                        for m in self.exact))]

    def polish(self, z, lay, steps=8):
        """Refine z in mpmath: residual in 40 digits, Gauss-Newton step from
        the double Jacobian (minimum norm).  Returns (z, max |residual|)."""
        z = [mpmath.mpf(float(v)) if not isinstance(v, mpmath.mpf) else v for v in z]
        for _ in range(steps):
            r = self.residual_mp(z, lay)
            err = max(abs(v) for v in r)
            if err < POLISHED_RESIDUAL:
                break
            J = self._jacobian(np.array([float(v) for v in z]), lay) / self.scale[:, None]
            step = np.linalg.lstsq(J, np.array([float(v) for v in r]), rcond=1e-12)[0]
            z = [v - mpmath.mpf(float(s)) for v, s in zip(z, step)]
        return z, max(abs(v) for v in self.residual_mp(z, lay))


def legendre_mp(t, n):
    P = [mpmath.mpf(1), t]
    for m in range(1, n):
        P.append(((2 * m + 1) * t * P[m] - m * P[m - 1]) / (m + 1))
    return P[: n + 1]


def admissible(z, lay) -> bool:
    """Every weight positive and every barycentric coordinate of every point
    at least MIN_BARYCENTRIC."""
    x, y, w = lay.expand(np.array([float(v) for v in z]))
    return bool((w > 0).all() and min(x.min(), y.min(), (1 - x - y).min()) >= MIN_BARYCENTRIC)


def random_start(lay, rng):
    """Equal weights; S21 coordinates uniform in (0, 1/2), S111 generators
    uniform over the triangle."""
    x, _, _ = lay.expand(np.zeros(lay.n))
    z = np.zeros(lay.n)
    col = 0
    for _, D, _ in lay.kinds:
        npar = D.shape[1]
        z[col] = 0.5 / x.size
        if npar == 1:
            z[col + 1] = rng.uniform(0.0, 0.5)
        elif npar == 2:
            z[col + 1: col + 3] = rng.dirichlet(np.ones(3))[:2]
        col += 1 + npar
    return z


def search(degree, counts, seed, seconds):
    lay, moments = Layout(counts), Moments(degree)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    start = 0
    while time.perf_counter() - t0 < seconds:
        start += 1
        fit = least_squares(moments.residual, random_start(lay, rng), jac=moments.jacobian,
                            args=(lay,), bounds=lay.bounds, xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=100)
        if np.abs(fit.fun).max() > 1e-3:
            continue
        # Near a solution the bounded fit creeps; minimum-norm Gauss-Newton
        # steps converge in a few.
        z = fit.x
        for _ in range(40):
            r = moments.residual(z, lay)
            if np.abs(r).max() < 1e-13:
                break
            z = z - np.linalg.lstsq(moments.jacobian(z, lay), r, rcond=1e-12)[0]
        if np.abs(moments.residual(z, lay)).max() > 1e-12 or not admissible(z, lay):
            continue
        z, err = moments.polish(z, lay)
        if err < POLISHED_RESIDUAL and admissible(z, lay):
            print(f"# degree {degree}: start {start}, {time.perf_counter() - t0:.1f} s, "
                  f"residual {mpmath.nstr(err, 3)}", file=sys.stderr)
            return z, lay
    return None, lay


def orbit_lines(z, lay) -> list[str]:
    """One line per orbit: (weight,) for the centroid, (weight, a, a) for
    S21 and (weight, a, b) for S111, in 20 significant digits."""
    lines, col = [], 0
    for _, D, _ in lay.kinds:
        npar = D.shape[1]
        w, par = z[col], z[col + 1: col + 1 + npar]
        gen = [par[0], par[0]] if npar == 1 else list(par)
        lines.append("(" + ", ".join(mpmath.nstr(v, 20) for v in [w, *gen])
                     + ("," if npar == 0 else "") + "),")
        col += 1 + npar
    return lines


def table_unknowns(orbits):
    """The orbit counts and unknowns z of a committed table entry."""
    by_kind = {1: [], 2: [], 3: []}
    for orbit in orbits:
        kind = len(orbit) if len(orbit) != 3 or orbit[1] != orbit[2] else 2
        by_kind[kind].append(orbit[:2] if kind == 2 else orbit)
    counts = tuple(len(by_kind[kind]) for kind in (1, 2, 3))
    return counts, [v for kind in (1, 2, 3) for orbit in by_kind[kind] for v in orbit]


def check() -> int:
    failures = 0
    for degree, orbits in sorted(SYMMETRIC_ORBITS.items()):
        rule = symmetric_rule(degree)
        (x, y), w = rule.points.T, rule.weights
        xm, ym, wm = ([mpmath.mpf(float(v)) for v in col] for col in (x, y, w))
        worst = max(abs(sum(wq * xq**a * yq**b for wq, xq, yq in zip(wm, xm, ym))
                        * factorial(a + b + 2) / (factorial(a) * factorial(b)) - 1)
                    for a in range(degree + 1) for b in range(degree + 1 - a))
        counts, z = table_unknowns(orbits)
        polished, err = Moments(degree).polish(z, Layout(counts))
        shift = max(abs(p - v) for p, v in zip(polished, z))
        problems = [name for name, bad in (
            ("a weight is not positive", not (w > 0).all()),
            (f"a barycentric coordinate below {MIN_BARYCENTRIC}",
             min(x.min(), y.min(), (1 - x - y).min()) < MIN_BARYCENTRIC),
            ("not fewer points than triangle_rule", w.size >= triangle_rule(degree).weights.size),
            (f"monomial error above {MONOMIAL_RTOL}", worst > MONOMIAL_RTOL),
            (f"no exact rule within 1e-14 of the table (polished residual "
             f"{mpmath.nstr(err, 3)}, shift {mpmath.nstr(shift, 3)})",
             err > POLISHED_RESIDUAL or shift > 1e-14),
        ) if bad]
        print(f"degree {degree}: {w.size} points (orbits {counts}), worst monomial error "
              f"{mpmath.nstr(worst, 3)}, smallest weight {w.min():.2e}, smallest barycentric "
              f"coordinate {min(x.min(), y.min(), (1 - x - y).min()):.2e}: "
              + ("; ".join(problems) if problems else "ok"))
        failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="re-verify the committed table")
    parser.add_argument("--degree", type=int, nargs="+", default=sorted(SYMMETRIC_ORBITS))
    parser.add_argument("--orbits", type=int, nargs=3, metavar=("CENTROID", "S21", "S111"))
    parser.add_argument("--seed", type=int, help="default: the seed of SEEDS")
    parser.add_argument("--seconds", type=float, default=600.0,
                        help="time budget per degree")
    args = parser.parse_args(argv)
    if not args.check and args.orbits is None and not set(args.degree) <= set(SYMMETRIC_ORBITS):
        parser.error("a degree with no committed rule needs --orbits")
    with mpmath.workdps(DIGITS):
        return check() if args.check else search_all(args)


def search_all(args) -> int:
    status = 0
    for degree in args.degree:
        counts = tuple(args.orbits) if args.orbits else table_unknowns(SYMMETRIC_ORBITS[degree])[0]
        seed = SEEDS.get(degree, 0) if args.seed is None else args.seed
        z, lay = search(degree, counts, seed, args.seconds)
        if z is None:
            print(f"# degree {degree}: no rule with orbits {counts} found", file=sys.stderr)
            status = 1
            continue
        x, _, _ = lay.expand(np.array([float(v) for v in z]))
        print(f"    {degree}: (  # {x.size} points")
        print("\n".join("        " + line for line in orbit_lines(z, lay)))
        print("    ),")
    return status


if __name__ == "__main__":
    sys.exit(main())
