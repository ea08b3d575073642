"""The batch map that shares the per-cell work between threads: bit-identity
with one thread, errors in serial order, condition warnings from the calling
thread in stack order, and pool safety.

Tests set the usable CPU count the map reads to at most 2, so that the
calling thread and at most one pool thread share the items."""

import multiprocessing
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import wg_sfem.localspaces as localspaces
import wg_sfem.wgsolve as wgsolve
from wg_sfem.analysis import (
    energy_error,
    energy_error_via_projection,
    get_case,
    l2_projection_error,
)
from wg_sfem.localspaces import (
    DataError,
    OperatorCache,
    OperatorStack,
    _batch_map,
    build_lambda_basis,
    shape_classes,
)
from wg_sfem.polymesh import GENERATORS, StarShapeError, build_mesh
from wg_sfem.wgsolve import assemble, discrete_h1_norm, solve

from helpers import jittered_square_mesh

MESHES = {**{family: (lambda family=family: GENERATORS[family](3))
             for family in ("square", "quad", "hex")},
          "jitter": lambda: jittered_square_mesh(3, 0)}
TIMEOUT_S = 60


@pytest.fixture
def workers(monkeypatch):
    """Batches and stacks of at most 4 cells, and a setter of the usable
    CPU count the map reads."""
    monkeypatch.setattr(localspaces, "BATCH_CELLS", 4)
    monkeypatch.setattr(localspaces, "STACK_BYTES", 0)
    return lambda n: monkeypatch.setattr(localspaces, "_usable_cpus", lambda: n)


def _outputs(mesh, k) -> dict:
    case = get_case("sin2d")
    system = assemble(mesh, k, case.f, case.g)
    sol, cache = solve(system), system.cache
    stacks = dict.fromkeys(ops for ops, *_ in cache.batches())
    A = system.edge_matrix
    return {
        "stiffness": [ops.stiffness for ops in stacks],
        "condensed": [part for ops in stacks for part in ops.condensed],
        "edge_matrix": [A.data, A.indices, A.indptr],
        "vectors": [system.rhs, sol.u0, sol.ub],
        "solve": [sol.residual, sol.iterations],
        "norms": [l2_projection_error(mesh, k, case.u, sol, cache),
                  energy_error(mesh, k, case.u, case.grad_u, sol, cache),
                  energy_error_via_projection(mesh, k, case.u, sol, cache),
                  discrete_h1_norm(mesh, k, sol.full_vector(cache.dofmap), cache)],
    }


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("k", range(5))
def test_two_workers_give_the_bits_of_one(name, k, workers, monkeypatch):
    """Every stack build and data pass, on several batches, and on hex and
    jitter several stacks (square and quad have one or two shape classes);
    PCG takes the solve, so the interior recovery runs once per pass."""
    monkeypatch.setattr(wgsolve, "DIRECT_LIMIT", 0)
    mesh = MESHES[name]()
    workers(2)
    two = _outputs(mesh, k)
    workers(1)
    one = _outputs(mesh, k)
    assert len(two["stiffness"]) > 1 or name in ("square", "quad")
    for key, values in one.items():
        assert len(two[key]) == len(values), key
        for a, b in zip(two[key], values):
            assert np.asarray(a).dtype == np.asarray(b).dtype, key
            assert np.array_equal(a, b), key


def _meet_at_a_barrier() -> list:
    """Two items that wait for each other, so each runs on its own thread."""
    barrier = threading.Barrier(2, timeout=TIMEOUT_S)

    def task(i):
        barrier.wait()
        return i, threading.get_ident()

    return _batch_map(task, [(0,), (1,)])


def test_the_caller_and_one_pool_thread_share_the_items(workers):
    """One of the two threads is the caller's; the results keep item order."""
    workers(2)
    out = _meet_at_a_barrier()
    assert [i for i, _ in out] == [0, 1]
    assert len({t for _, t in out}) == 2 and threading.get_ident() in {t for _, t in out}


def test_every_item_runs_once_under_fast_thread_switches(workers):
    """Many tiny items, with the interpreter switching threads every
    microsecond: an item taken twice or lost, or a result stored in the
    wrong slot, breaks the counts or the order."""
    workers(2)
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _batch_map(lambda i: calls.append(i) or i * i, [(i,) for i in range(2000)])
    finally:
        sys.setswitchinterval(interval)
    assert out == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


def test_tasks_see_the_callers_errstate(workers):
    """Each thread runs a task under the caller's np.errstate, as one
    thread would: dividing by zero raises on both."""
    workers(2)
    barrier = threading.Barrier(2, timeout=TIMEOUT_S)

    def task(i):
        barrier.wait()
        try:
            np.divide(np.ones(1), np.zeros(1))
        except FloatingPointError:
            return "raised"
        return "warned"

    with np.errstate(divide="raise"):
        assert _batch_map(task, [(0,), (1,)]) == ["raised", "raised"]


def test_one_worker_runs_every_item_inline(workers):
    workers(1)
    assert _batch_map(lambda i: threading.get_ident(), [(i,) for i in range(5)]) == [
        threading.get_ident()] * 5


def test_the_first_failing_item_in_order_wins(workers):
    """Items 0 and 1 run at once and both fail, 1 first; item 2 is never
    taken.  Item 0's error is raised."""
    workers(2)
    barrier, second_failed, started = threading.Barrier(2, timeout=TIMEOUT_S), threading.Event(), []

    def task(i):
        started.append(i)
        barrier.wait()
        if i == 1:
            second_failed.set()
        else:
            assert second_failed.wait(TIMEOUT_S)
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="item 0"):
        _batch_map(task, [(0,), (1,), (2,)])
    assert sorted(started) == [0, 1]


def _star_failures():
    """The jittered level-3 mesh with the second vertex of cells 9 and 14
    moved to the midpoint of their anchor's diagonal: cells 9, 10 and 14
    are not star-shaped with respect to their first vertex."""
    mesh = jittered_square_mesh(3, 0)
    verts = mesh.vertices.copy()
    for c in (9, 14):
        a, b, d, _ = mesh.cells[c]
        verts[b] = (verts[a] + verts[d]) / 2
    return build_mesh(verts, mesh.cells)


def _caught(build):
    """The error message build raises and the messages of the warnings it
    issues before, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises((StarShapeError, DataError)) as exc:
            build()
    return str(exc.value), [str(w.message) for w in caught]


def test_stack_build_fails_and_warns_as_the_serial_loop(workers, monkeypatch):
    """Every cell's condition exceeds CONDITION_WARN; the stacks are cells
    0-3, 4-7, 8-11 and 12-15, and the third and fourth fail.  The serial
    loop over the stacks raises on cell 9, and so does the cache, without
    the warnings of cells 0-7: it warns only after a whole build."""
    monkeypatch.setattr(localspaces, "CONDITION_WARN", 0.0)
    mesh = _star_failures()
    assert np.array_equal(shape_classes(mesh), np.arange(16))

    def serial():
        for cells in np.arange(16).reshape(4, 4):
            OperatorStack(mesh, cells, 1)

    expected = _caught(serial)
    assert expected[0].startswith("cell 9 is not star-shaped") and expected[1] == []
    for n in (2, 1):
        workers(n)
        assert _caught(lambda: OperatorCache(mesh, 1)) == expected


def test_condition_warnings_come_from_the_caller_in_stack_order(workers, monkeypatch):
    """With CONDITION_WARN 0, the cache warns for exactly the cells whose
    condition bound exceeds 0, stack by stack, with 1 and with 2 workers,
    each warning naming this file; a direct build warns for none and
    carries the same bounds."""
    monkeypatch.setattr(localspaces, "CONDITION_WARN", 0.0)
    mesh = jittered_square_mesh(3, 0)
    runs = {}
    for n in (1, 2):
        workers(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = OperatorCache(mesh, 1)
        runs[n] = [str(w.message) for w in caught]
        assert {w.filename for w in caught} == {__file__}
    stacks = list(dict.fromkeys(ops for ops, *_ in cache.batches()))
    assert len(stacks) > 1
    expected = [f"cell {c}: RT frame mass matrix condition {b:.2e} (lower bound)"
                for ops in stacks for c, b in zip(ops.cells, ops.condition) if b > 0]
    assert len(expected) == mesh.n_cells
    assert runs[1] == runs[2] == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ops in stacks:
            lam = build_lambda_basis(mesh, ops.cells, 1)
            direct = OperatorStack(mesh, ops.cells, 1)
            assert np.array_equal(lam.condition, ops.condition)
            assert np.array_equal(direct.condition, ops.condition)


def test_data_pass_raises_the_error_of_the_first_failing_batch(workers):
    """f is not finite right of x = 0.4, which most batches reach; the error
    names the point the serial loop over the batches meets first."""
    mesh = jittered_square_mesh(3, 0)
    cache = OperatorCache(mesh, 2)

    def f(x, y):
        return np.where(x > 0.4, np.nan, 1.0)

    def serial():
        for ops, rows, _, offsets, _ in cache.batches():
            ops.interior_moments(f, rows, offsets)

    expected = _caught(serial)
    for n in (2, 1):
        workers(n)
        assert _caught(lambda: assemble(mesh, 2, f, cache=cache)) == expected


def _solve_small_mesh():
    case = get_case("sin2d")
    sol = solve(assemble(GENERATORS["quad"](3), 1, case.f, case.g))
    sys.exit(0 if sol.residual <= 1e-12 else 1)


def test_forked_child_solves_after_the_parent_used_the_pool(workers):
    """The child has none of the parent's pool threads; it makes its own pool."""
    workers(2)
    _meet_at_a_barrier()
    child = multiprocessing.get_context("fork").Process(target=_solve_small_mesh)
    child.start()
    child.join(TIMEOUT_S)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


def _run_script(script: str) -> list[str]:
    """The lines a fresh interpreter prints running script on this src/;
    one that does not finish in TIMEOUT_S is killed and fails the test."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return out.stdout.split()


def test_data_function_that_assembles_completes():
    """A call from inside a task, here on the pool's only thread, runs
    inline instead of waiting for that thread.  In a fresh interpreter, so
    that a deadlock ends with it."""
    script = """
import threading
import numpy as np
import wg_sfem.localspaces as localspaces
from wg_sfem import assemble, generate_quad_grid, generate_square_grid
localspaces.BATCH_CELLS, localspaces._usable_cpus = 4, lambda: 2
tiny, barrier, calls = generate_square_grid(3), threading.Barrier(2, timeout=30), []
def f(x, y):
    # The first two batches wait for each other, so one is on the pool's thread.
    calls.append(None)
    if len(calls) <= 2:
        barrier.wait()
    assemble(tiny, 0, lambda x, y: 1.0)
    return np.ones_like(x)
assemble(generate_quad_grid(3), 0, f)
print(len(calls))
"""
    assert _run_script(script) == ["4"]


def test_import_starts_no_thread_and_leaves_the_pool_module_unloaded():
    """The import loads neither concurrent.futures nor its thread pool
    module; both load on the first map that uses a pool."""
    script = """
import sys, threading
import wg_sfem
print(threading.active_count(), "concurrent.futures" in sys.modules,
      "concurrent.futures.thread" in sys.modules)
"""
    assert _run_script(script) == ["1", "False", "False"]
