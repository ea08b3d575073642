"""The discretization does not depend on where the mesh sits, how it is
turned, how large it is or how its vertices are numbered.

Each check maps a mesh by x -> A x + b and compares only what is invariant
in exact arithmetic:

* under translation, every local operator (stiffness, weak_gradient,
  mass_scalar, h1): the cell frames, the fan and every basis move with the
  cell;
* under scaling, the stiffness: every basis is scale-free, and so is the
  2D Laplace form;
* under every map, the patch tests, at the 1e-8 of acceptance criterion 5,
  and the energy errors of sin2d, with the data composed with the map.

Reflection reverses each cycle to keep it counterclockwise, and it and the
renumbering keep each cycle's first vertex first: the fan is anchored
there, and another anchor is another discrete space.
"""

import numpy as np
import pytest

from wg_sfem.analysis import (
    ManufacturedCase,
    energy_error,
    get_case,
    l2_projection_error,
    solve_case,
)
from wg_sfem.localspaces import OperatorStack
from wg_sfem.polymesh import GENERATORS, build_mesh

from helpers import jittered_square_mesh

EPS = np.finfo(float).eps
DEGREES = range(5)
OPERATORS = ("stiffness", "weak_gradient", "mass_scalar", "h1")

MESHES = {
    "square": lambda: GENERATORS["square"](3),
    "quad": lambda: GENERATORS["quad"](3),
    "hex": lambda: GENERATORS["hex"](3),
    "jitter": lambda: jittered_square_mesh(3, seed=5),
}


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


# name: (A, b, reverse each cycle, renumber the vertices)
MAPS = {
    "shift 1e4": (np.eye(2), np.array([1e4, -3e4]), False, False),
    "shift 1e6": (np.eye(2), np.array([1e6, 1e6]), False, False),
    "rotation": (_rotation(0.7), np.zeros(2), False, False),
    "scale 1e-3": (1e-3 * np.eye(2), np.zeros(2), False, False),
    "scale 1e3": (1e3 * np.eye(2), np.zeros(2), False, False),
    "reflection": (np.diag([-1.0, 1.0]), np.array([1.0, 0.0]), True, False),
    "renumbering": (np.eye(2), np.zeros(2), False, True),
}


def mapped(mesh, A, b, reverse=False, renumber=False):
    """The mesh moved by x -> A x + b, with each cycle reversed after its
    first vertex, or the vertices renumbered at random, if asked."""
    verts = mesh.vertices @ A.T + b
    cells = [cyc[:1] + cyc[:0:-1] if reverse else cyc for cyc in mesh.cells]
    if renumber:
        perm = np.random.default_rng(11).permutation(len(verts))
        verts, cells = verts[np.argsort(perm)], [[int(perm[v]) for v in cyc] for cyc in cells]
    return build_mesh(verts, cells)


def composed(case, A, b):
    """The case moved with the mesh: u' = u o phi^-1 for phi(x) = A x + b,
    A = c Q with Q orthogonal, so grad u' = A^-T grad u o phi^-1 and
    f' = f o phi^-1 / c^2."""
    A_inv = np.linalg.inv(A)

    def back(x, y):
        p = np.stack([x - b[0], y - b[1]], axis=-1) @ A_inv.T
        return p[..., 0], p[..., 1]

    def grad_u(x, y):
        return np.broadcast_to(case.grad_u(*back(x, y)), np.shape(x) + (2,)) @ A_inv

    return ManufacturedCase(case.label, lambda x, y: case.u(*back(x, y)), grad_u,
                            lambda x, y: case.f(*back(x, y)) / abs(np.linalg.det(A)),
                            lambda x, y: case.g(*back(x, y)))


def _stacks(mesh, moved, k):
    """OperatorStacks of every cell of both meshes, one per vertex count,
    cell by cell in the same rows."""
    sizes = np.diff(mesh.offsets)
    for n_v in np.unique(sizes):
        cells = np.flatnonzero(sizes == n_v)
        yield OperatorStack(mesh, cells, k), OperatorStack(moved, cells, k)


def _errors(mesh, k, case):
    solution, cache = solve_case(mesh, k, case)
    return (l2_projection_error(mesh, k, case.u, solution, cache),
            energy_error(mesh, k, case.u, case.grad_u, solution, cache))


# Rounding the shifted input moves each vertex by up to eps |shift| / 2:
# 1.8e-12 at 3e4 and 5.8e-11 at 1e6, that is 6e-11 and 1.9e-9 of the
# narrowest cell checked (1/32 wide, hex level 4).  The operators moved by
# at most 1.1e-10 and 5.2e-10 of their largest entry.
SHIFT_RTOL = {(1e4, -3e4): 1e-9, (1e6, 1e6): 1e-8}


@pytest.mark.parametrize("shift", SHIFT_RTOL, ids=["shift 1e4", "shift 1e6"])
@pytest.mark.parametrize("name", [*MESHES, "hex L4"])
def test_translation_keeps_every_local_operator(name, shift):
    mesh = GENERATORS["hex"](4) if name == "hex L4" else MESHES[name]()
    moved = mapped(mesh, np.eye(2), np.array(shift))
    for k in DEGREES:
        for here, there in _stacks(mesh, moved, k):
            for op in OPERATORS:
                want, got = getattr(here, op), getattr(there, op)
                rel = np.abs(got - want).max() / np.abs(want).max()
                assert rel <= SHIFT_RTOL[shift], (name, k, op, rel)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("name", MESHES)
def test_scaling_keeps_the_stiffness(name, scale):
    """Scaling by a power of ten rounds each coordinate by eps / 2 of
    itself, at most 8 eps of a cell's size on these level-3 meshes; the
    stiffness moved by at most 1e-14 of its largest entry."""
    mesh = MESHES[name]()
    moved = mapped(mesh, scale * np.eye(2), np.zeros(2))
    for k in DEGREES:
        for here, there in _stacks(mesh, moved, k):
            rel = np.abs(there.stiffness - here.stiffness).max() / np.abs(here.stiffness).max()
            assert rel <= 1e-12, (name, k, rel)


@pytest.mark.parametrize("map_name", MAPS)
@pytest.mark.parametrize("name", MESHES)
def test_patch_tests_hold_after_each_map(name, map_name):
    """The linear case at every degree, the quadratic one from k = 1, with
    the data composed with the map, within criterion 5's 1e-8 in both
    norms.  The worst reading, 1.3e-9, is the energy error on hex at a
    shift of 1e6, where the data are evaluated at coordinates rounded to
    1e-10."""
    A, b, reverse, renumber = MAPS[map_name]
    moved = mapped(MESHES[name](), A, b, reverse, renumber)
    for k in DEGREES:
        for label in ("patch-linear", "patch-quadratic")[: 1 + (k > 0)]:
            l2, energy = _errors(moved, k, composed(get_case(label), A, b))
            assert l2 <= 1e-8 and energy <= 1e-8, (label, k, l2, energy)


@pytest.mark.parametrize("map_name", MAPS)
@pytest.mark.parametrize("name", MESHES)
def test_energy_errors_do_not_depend_on_the_map(name, map_name):
    """sin2d's energy error is the same on the mapped mesh, with the data
    composed with the map: the 2D energy norm is scale-free.

    The solves stop at a relative residual of 1e-12, so the two energy
    errors may differ by about 1e-12 |u|_1 (|u|_1 = pi / sqrt(2)); the
    readings without a shift differ by at most 4e-14.  A shift adds the
    rounding of the data points: u is evaluated at x - b, and x is rounded
    by up to eps |b| / 2, which moves the data's gradient by about
    pi^2 eps |b| and the error by up to that over h = 1/4.  The readings
    at a shift differ by at most 2e-10, at 1e6 against the bound's 8.8e-9.
    """
    A, b, reverse, renumber = MAPS[map_name]
    mesh = MESHES[name]()
    moved = mapped(mesh, A, b, reverse, renumber)
    case = get_case("sin2d")
    tol = 1e-12 * np.pi / np.sqrt(2) + np.pi**2 * EPS * np.abs(b).max() / 0.25
    for k in DEGREES:
        want = _errors(mesh, k, case)[1]
        got = _errors(moved, k, composed(case, A, b))[1]
        assert abs(got - want) <= tol, (k, got, want)


@pytest.mark.parametrize("k", [1, 3])
def test_far_off_hex_level_4_passes_the_linear_patch_test(k):
    """Hex level 4 at (1e6, 1e6), where the shoelace centroid of absolute
    coordinates missed by 9.4e4 cell diameters and the linear patch test
    read an energy error of 48 at k = 3; now at most 1.6e-9."""
    shift = np.array([1e6, 1e6])
    moved = mapped(GENERATORS["hex"](4), np.eye(2), shift)
    l2, energy = _errors(moved, k, composed(get_case("patch-linear"), np.eye(2), shift))
    assert l2 <= 1e-8 and energy <= 1e-8, (l2, energy)
