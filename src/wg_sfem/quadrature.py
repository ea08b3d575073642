"""Gauss quadrature on segments and triangles, composed over sub-triangulations.

Segment rules are Gauss-Legendre on [0, 1].  Triangle rules are collapsed
(Duffy-type) Gauss products on the reference triangle {x, y >= 0, x + y <= 1};
the extra (1 - x) Jacobian factor raises the x-direction degree by one, which
the point count accounts for.  Any rule construction is acceptable as long as
the monomial exactness sweep in the test suite passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

MAX_SEGMENT_DEGREE = 40
MAX_TRIANGLE_DEGREE = 25


class UnsupportedDegreeError(ValueError):
    """Polynomial exactness degree outside the supported range."""


def data_degree(k: int) -> int:
    """Quadrature degree for integrals against analytic data (f, u, grad u).

    Chosen so data-side quadrature error stays orders below both the finest
    discretization errors and the 1e-10 projection-commutation tolerance,
    even on coarse-level cells.
    """
    return 2 * k + 12


@dataclass(frozen=True)
class QuadRule:
    """Immutable points and weights of a Gauss rule."""

    points: np.ndarray
    weights: np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def segment_rule(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] exact for P_degree."""
    if degree < 0:
        raise UnsupportedDegreeError(f"negative quadrature degree {degree}")
    if degree > MAX_SEGMENT_DEGREE:
        raise UnsupportedDegreeError(
            f"segment rules support degree <= {MAX_SEGMENT_DEGREE}, got {degree}"
        )
    n = degree // 2 + 1
    t, w = np.polynomial.legendre.leggauss(n)
    return QuadRule(_readonly(0.5 * (t + 1.0)), _readonly(0.5 * w))


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Collapsed Gauss product rule on the reference triangle, exact for P_degree."""
    if degree < 0:
        raise UnsupportedDegreeError(f"negative quadrature degree {degree}")
    if degree > MAX_TRIANGLE_DEGREE:
        raise UnsupportedDegreeError(
            f"triangle rules support degree <= {MAX_TRIANGLE_DEGREE}, got {degree}"
        )
    nx = (degree + 3) // 2
    ny = (degree + 2) // 2
    tx, wx = np.polynomial.legendre.leggauss(nx)
    ty, wy = np.polynomial.legendre.leggauss(ny)
    gx, gy = 0.5 * (tx + 1.0), 0.5 * (ty + 1.0)
    wx, wy = 0.5 * wx, 0.5 * wy

    X = np.repeat(gx, ny)
    Y = np.tile(gy, nx) * (1.0 - X)
    W = np.repeat(wx * (1.0 - gx), ny) * np.tile(wy, nx)
    pts = np.column_stack([X, Y])
    return QuadRule(_readonly(pts), _readonly(W))


def reference_triangle_monomial_integral(a: int, b: int) -> float:
    """Exact value of the x^a y^b integral over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)
