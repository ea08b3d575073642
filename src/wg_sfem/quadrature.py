"""Gauss quadrature on segments and triangles, composed over sub-triangulations.

Segment rules are Gauss-Legendre on [0, 1].  Triangle rules are collapsed
(Duffy-type) Gauss products on the reference triangle {x, y >= 0, x + y <= 1};
the extra (1 - x) Jacobian factor raises the x-direction degree by one, which
the point count accounts for.  Any rule construction is acceptable as long as
the monomial exactness sweep in the test suite passes.

The data passes integrate analytic data at data_degree(k) with fully
symmetric rules (symmetric_rule): points in orbits under the six
permutations of the barycentric coordinates, with positive weights and
interior points, tabulated in SYMMETRIC_ORBITS (Dunavant, IJNME 21, 1985;
Witherden & Vincent, Comput. Math. Appl. 69, 2015).  They reach the same
degree with about two thirds of the collapsed rule's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .polymesh import _readonly

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
    """Collapsed Gauss product rule on the reference triangle, exact for
    P_degree: the segment rule of degree in y times, for the (1 - x)
    Jacobian factor, the one of degree + 1 in x."""
    if degree > MAX_TRIANGLE_DEGREE:
        raise UnsupportedDegreeError(
            f"triangle rules support degree <= {MAX_TRIANGLE_DEGREE}, got {degree}"
        )
    y, x = segment_rule(degree), segment_rule(degree + 1)
    X = np.repeat(x.points, y.points.size)
    Y = np.tile(y.points, x.points.size) * (1.0 - X)
    W = np.repeat(x.weights * (1.0 - x.points), y.points.size) * np.tile(y.weights, x.points.size)
    return QuadRule(_readonly(np.column_stack([X, Y])), _readonly(W))


# Fully symmetric rules by degree, computed and checked by
# scripts/symmetric_rules.py: one orbit per line, its weight (per point, on the
# reference triangle) and then its generator.  (w,) is the centroid,
# (w, a, a) the three points with barycentric coordinates (a, a, 1 - 2a),
# (w, a, b) the six with (a, b, 1 - a - b).
SYMMETRIC_ORBITS: dict[int, tuple[tuple[float, ...], ...]] = {
    12: (  # 33 points
        (0.02495916746403047106, 0.44011164865859311101, 0.44011164865859311101),
        (0.031270606597951380235, 0.27146250701492608488, 0.27146250701492608488),
        (0.0142430260344387725, 0.10925782765935429058, 0.10925782765935429058),
        (0.0039658212549868192297, 0.024646363436335594767, 0.024646363436335594767),
        (0.012133419040726016575, 0.48820375094554155178, 0.48820375094554155178),
        (0.0075418387882557192929, 0.021382490256170589594, 0.12727971723358936879),
        (0.021613681829707105275, 0.25545422863851734653, 0.11629601967792658663),
        (0.010891792519303778966, 0.68531016390639189998, 0.023034156355267139482),
    ),
    14: (  # 42 points
        (0.016394176772062675321, 0.41764471934045392251, 0.41764471934045392251),
        (0.021081294368496508769, 0.17720553241254343696, 0.17720553241254343696),
        (0.0024617018012000408409, 0.019390961248701048178, 0.019390961248701048178),
        (0.025887052253645793157, 0.27347752830883865975, 0.27347752830883865975),
        (0.0072168498348883338009, 0.061799883090872601267, 0.061799883090872601267),
        (0.01094179068471444532, 0.48896391036217863868, 0.48896391036217863868),
        (0.019285755393530341614, 0.33686145979634500174, 0.092916249356971824758),
        (0.0025051144192503358849, 0.0012683309328720250872, 0.1189744976969568454),
        (0.012332876606281836981, 0.057124757403647939036, 0.17226668782135557838),
        (0.007218154056766920248, 0.68698016780808783736, 0.29837288213625775297),
    ),
    16: (  # 55 points
        (0.022398874936754966726,),
        (0.0055755985856029729894, 0.49301111156864443863, 0.49301111156864443863),
        (0.0071800649094113393969, 0.25752050435068716025, 0.25752050435068716025),
        (0.0016632056382315217101, 0.015877351342902847292, 0.015877351342902847292),
        (0.016109766653413105239, 0.18046701272711406912, 0.18046701272711406912),
        (0.0056526369137984837653, 0.06736533397053875936, 0.06736533397053875936),
        (0.014068360261124240943, 0.46252316998273382898, 0.46252316998273382898),
        (0.0061356470723185144322, 0.33878967934384208145, 0.64510385794806049764),
        (0.0031091204469318611665, 0.012940819702335777685, 0.084257816484962962033),
        (0.013273883064687817242, 0.62134640694896498644, 0.080908080665554444465),
        (0.0048140544911331294739, 0.19766710418476565941, 0.014406604838998469405),
        (0.0097033142427714352043, 0.76312650330037400545, 0.073415946691134165863),
        (0.017439351711907249338, 0.48374259774564554752, 0.18025477325372526491),
    ),
    18: (  # 70 points
        (0.010554613150658963553,),
        (0.00023166235814335055969, 0.0028127536778752491945, 0.0028127536778752491945),
        (0.011077408594274095063, 0.16410661706344948659, 0.16410661706344948659),
        (0.011403574836359358303, 0.38654525574765144811, 0.38654525574765144811),
        (0.013729461698079899083, 0.25956323540289273364, 0.25956323540289273364),
        (0.0094474419407719996881, 0.47052623631208646767, 0.47052623631208646767),
        (0.0031534942166617250582, 0.11494564986741474554, 0.11494564986741474554),
        (0.01280882965730649881, 0.43177584559579903192, 0.43177584559579903192),
        (0.013386541721580140547, 0.14703671039323751205, 0.56789070327020777722),
        (0.0097134954775459418073, 0.062190285936410141509, 0.32371384857291209168),
        (0.0044904239084233891688, 0.72488732318391266316, 0.01250731523545880233),
        (0.0034991566586600936665, 0.13693649295914617331, 0.012606906235913987768),
        (0.0039247941263535434821, 0.055458025960682215536, 0.088337031866724418288),
        (0.0047435221530048078444, 0.57445105756885920295, 0.011707426131690539841),
        (0.0021006226464652940574, 0.012238572845779362491, 0.94107479068009692292),
        (0.0087897377987251655519, 0.065847377123964712131, 0.744115752942275214),
    ),
    20: (  # 82 points
        (0.012126488849595222835,),
        (0.012481056886771315789, 0.25974155508557895927, 0.25974155508557895927),
        (0.0098941588454742611103, 0.46171690096687768092, 0.46171690096687768092),
        (0.0061205219393071572002, 0.093392253643435917095, 0.093392253643435917095),
        (0.0095452075538173845808, 0.20337564196941726041, 0.20337564196941726041),
        (0.0031511917327508366223, 0.045953830117854949757, 0.045953830117854949757),
        (0.0081435394025462594152, 0.14623462861415585363, 0.14623462861415585363),
        (0.0050014137052851965178, 0.4917903576442665055, 0.4917903576442665055),
        (0.0116039286682974588, 0.38898383782752309341, 0.38898383782752309341),
        (0.00088960021285884298028, 0.011627409821598554343, 0.011627409821598554343),
        (0.011424507869499400936, 0.34998565890751439035, 0.50496581767076229501),
        (0.0040419315670856086816, 0.014372463149871983206, 0.2544504119262954236),
        (0.008087971693787940025, 0.046124757501349382315, 0.34977617016080434133),
        (0.0070769166092503908735, 0.7372388383611331915, 0.20061135168724664344),
        (0.0013773515880421276206, 0.0071767047068076746762, 0.93039519762835677732),
        (0.0010367065044244443259, 0.0019416970455854330222, 0.83832183456419903863),
        (0.0020453623658495818418, 0.3780631764237533948, 0.61734601628601934921),
        (0.0041006902333037834922, 0.028595937412322292364, 0.12632987655620304134),
        (0.0087055039536031618895, 0.11074062874123681765, 0.26512234235324195625),
    ),
}


@lru_cache(maxsize=None)
def symmetric_rule(degree: int) -> QuadRule:
    """The fully symmetric rule of SYMMETRIC_ORBITS exact for P_degree, or
    triangle_rule(degree) for a degree with none."""
    if degree not in SYMMETRIC_ORBITS:
        return triangle_rule(degree)
    pts, wts = [], []
    for w, *gen in SYMMETRIC_ORBITS[degree]:
        orbit = dict.fromkeys(permutations((*gen, 1.0 - sum(gen)) if gen else (1 / 3,) * 3))
        pts += [p[:2] for p in orbit]
        wts += [w] * len(orbit)
    return QuadRule(_readonly(np.array(pts)), _readonly(np.array(wts)))


def reference_triangle_monomial_integral(a: int, b: int) -> float:
    """Exact value of the x^a y^b integral over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)
