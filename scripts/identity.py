#!/usr/bin/env python3
"""Print the fingerprint of a fixed set of solves, as sorted JSON on stdout.

A change meant to leave every number bit-identical is checked by running
this script in a checkout of the parent commit and in one of the change,
and comparing the two outputs:

    python3 ../parent/scripts/identity.py > parent.json
    python3 scripts/identity.py > change.json
    diff parent.json change.json

Each checkout imports its own ``src/``.  For every problem of PROBLEMS it
solves the ``sin2d`` case and prints sha256 prefixes of the STACK_ARRAYS
(``weak_gradient``, ``stiffness``, ``condensed``, ``mass_scalar``,
``frame_coeffs`` and ``h1``) of each vertex count's operator stacks, their
rows concatenated in class order, so that the output does not depend on
how the classes are cut into stacks; of the system's ``rhs``, ``edge_rhs`` and
``load``, of the CSR_ARRAYS of each of its CSR_MATRICES (all three are
built on first access, ``edge_matrix`` by the solve), of ``u0`` and ``ub``, and
of the per-cell path on the first cell of every batch (PER_CELL:
``OperatorCache.get(c)``'s ``project_interior`` of u and
``project_lambda_field`` of grad u, and the stack's ``interior_moments`` of f
on that cell's row alone); and, exactly, the solve's ``iterations``,
``method`` and ``residual`` and the three error norms.  The set takes a few
seconds; names of PROBLEMS as arguments, such as ``jitter-L7-k1``, restrict
the run to those problems.

Run as a script, it pins BLAS to one thread, as perfbench does: PCG's dot
products run in BLAS, and on the jitter edge systems their last bits follow
its thread count.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded without putting perfbench on sys.path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


if __name__ == "__main__":
    # Before numpy is imported, or BLAS has already started its threads.
    os.environ.update(perfbench_module("run").BLAS_ENV)

import numpy as np  # noqa: E402

from wg_sfem import GENERATORS, assemble, get_case, read_mesh, solve  # noqa: E402
from wg_sfem.analysis import (  # noqa: E402
    energy_error,
    energy_error_via_projection,
    l2_projection_error,
)

# (family, level, k); "jitter" is the benchmark's jittered level-7 square
# mesh of seed JITTER_SEED, read back from its JSON file.  On it the solve
# at k = 0 and k = 2 runs a continuation: at k = 0 it reaches tol, at k = 2
# it stops above.
PROBLEMS = ([(family, 3, k) for family in ("square", "quad", "hex") for k in range(5)]
            + [("square", 6, 1), ("quad", 5, 0), ("hex", 5, 2)]
            + [("jitter", 7, k) for k in range(3)])
JITTER_SEED = 1
STACK_ARRAYS = ("weak_gradient", "stiffness", "condensed", "mass_scalar", "frame_coeffs", "h1")
PER_CELL = ("project_interior", "project_lambda_field", "interior_moments")
CSR_MATRICES = ("edge_matrix", "matrix", "full_matrix")
CSR_ARRAYS = ("data", "indices", "indptr")
DIGITS = 16


def digest(*arrays) -> str:
    """A sha256 prefix of the shapes, dtypes and bytes of the arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:DIGITS]


def group_digests(stacks) -> dict:
    """The digest of each of STACK_ARRAYS over OperatorStacks of one vertex
    count, in class order, with their rows concatenated; ``condensed`` is a
    tuple of three arrays, concatenated part by part."""
    def rows(name):
        values = [getattr(ops, name) for ops in stacks]
        if isinstance(values[0], tuple):
            return [np.concatenate(parts) for parts in zip(*values)]
        return [np.concatenate(values)]
    return {name: digest(*rows(name)) for name in STACK_ARRAYS}


def per_cell_digests(cache, case) -> dict:
    """The digest of each of PER_CELL over the first cell of every batch."""
    firsts = [(ops, rows[0], cells[0], offsets[0])
              for ops, rows, cells, offsets, _ in cache.batches()]
    return {
        "project_interior": digest(*(cache.get(c).project_interior(case.u)
                                     for _, _, c, _ in firsts)),
        "project_lambda_field": digest(*(cache.get(c).project_lambda_field(case.grad_u)
                                         for _, _, c, _ in firsts)),
        "interior_moments": digest(*(ops.interior_moments(case.f, [row], offset[None])
                                     for ops, row, _, offset in firsts)),
    }


def jitter_mesh(seed: int):
    """perfbench's jitter mesh of the seed, written and read as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        perfbench_module("workloads").write_jitter_mesh(seed, Path(tmp) / "jitter.json")
        return read_mesh(Path(tmp) / "jitter.json")


def fingerprint(family: str, level: int, k: int) -> dict:
    mesh = jitter_mesh(JITTER_SEED) if family == "jitter" else GENERATORS[family](level)
    case = get_case("sin2d")
    system = assemble(mesh, k, case.f, case.g)
    cache = system.cache
    sol = solve(system)
    groups = {}
    # Stacks come in class order; a stack's fan has two triangles fewer
    # than its cells have vertices.
    for ops in dict.fromkeys(ops for ops, *_ in cache.batches()):
        groups.setdefault(str(ops.jacobian.shape[1] + 2), []).append(ops)
    return {
        "groups": {n_v: group_digests(stacks) for n_v, stacks in groups.items()},
        "system": {"rhs": digest(system.rhs), "edge_rhs": digest(system.edge_rhs),
                   "load": digest(system.load),
                   **{name: {array: digest(getattr(getattr(system, name), array))
                             for array in CSR_ARRAYS} for name in CSR_MATRICES}},
        "u0": digest(sol.u0), "ub": digest(sol.ub), "per_cell": per_cell_digests(cache, case),
        "iterations": sol.iterations, "method": sol.method, "residual": sol.residual,
        "l2_err": l2_projection_error(mesh, k, case.u, sol, cache),
        "energy_err": energy_error(mesh, k, case.u, case.grad_u, sol, cache),
        "energy_error_via_projection": energy_error_via_projection(mesh, k, case.u, sol, cache),
    }


def main(names=()) -> int:
    problems = {f"{family}-L{level}-k{k}": (family, level, k) for family, level, k in PROBLEMS}
    unknown = set(names) - set(problems)
    if unknown:
        print(f"unknown problems {sorted(unknown)}; known: {list(problems)}", file=sys.stderr)
        return 2
    payload = {name: fingerprint(*problem) for name, problem in problems.items()
               if not names or name in names}
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
