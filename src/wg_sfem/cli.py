"""Command-line entry point: mesh generation, single solves, convergence studies.

Exit codes: 0 success, 2 usage error, bad mesh input or an --out that cannot
be written, 3 solver failure, 4 partial study.
Stdout numbers use 4-significant-digit scientific notation; files carry full
precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    CASES,
    above_tol,
    energy_error,
    get_case,
    l2_projection_error,
    run_convergence,
    solve_case,
)
from .localspaces import MAX_DEGREE, GeometryError, LambdaDimensionError
from .polymesh import GENERATORS, MeshFormatError, StarShapeError, read_mesh, write_mesh
from .wgsolve import DEFAULT_TOL, SolverError

LEVEL_CAPS = {"square": 8, "quad": 8, "hex": 7}
FORMATS = ("csv", "md", "json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wg-sfem",
        description="Stabilizer-free weak Galerkin Poisson solver on polytopal meshes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a mesh family level and write JSON")
    p_mesh.add_argument("--family", required=True, choices=sorted(GENERATORS))
    p_mesh.add_argument("--level", required=True, type=int)
    p_mesh.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="solve one manufactured case on a mesh")
    p_solve.add_argument("--mesh", dest="mesh_path")
    p_solve.add_argument("--family", choices=sorted(GENERATORS))
    p_solve.add_argument("--level", type=int)
    p_solve.add_argument("--degree", required=True, type=int, choices=range(MAX_DEGREE + 1))
    p_solve.add_argument("--case", default="sin2d", choices=sorted(CASES))
    p_solve.add_argument("--out")
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_conv = sub.add_parser("convergence", help="run a convergence study over levels")
    p_conv.add_argument("--family", required=True, choices=sorted(GENERATORS))
    p_conv.add_argument("--degree", required=True, type=int, choices=range(MAX_DEGREE + 1))
    p_conv.add_argument("--levels", required=True, help="range A:B, inclusive")
    p_conv.add_argument("--case", default="sin2d", choices=sorted(CASES))
    p_conv.add_argument("--format", dest="fmt", default="csv", choices=FORMATS)
    p_conv.add_argument("--out")
    p_conv.add_argument("--tol", type=float, default=DEFAULT_TOL)
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Check the parsed options; turns ``args.levels`` into an (lo, hi) pair."""

    def check_level(family: str, level: int) -> None:
        cap = LEVEL_CAPS[family]
        if not 1 <= level <= cap:
            parser.error(f"level {level} outside [1, {cap}] for family '{family}'")

    try:
        if args.out is not None and (args.out.endswith("/") or Path(args.out).is_dir()):
            parser.error(f"--out {args.out} names a directory")
        # resolve() follows a symlink to where the file would be written.
        if args.out is not None and not Path(args.out).resolve().parent.is_dir():
            parser.error(f"no directory {Path(args.out).resolve().parent} for --out {args.out}")
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    if args.subcommand == "mesh":
        check_level(args.family, args.level)
        return

    if not 0.0 < args.tol < float("inf"):
        parser.error(f"tol {args.tol} must be positive and finite")

    if args.subcommand == "solve":
        if args.mesh_path is not None:
            if args.family is not None or args.level is not None:
                parser.error("give either --mesh or --family/--level, not both")
        else:
            if args.family is None or args.level is None:
                parser.error("either --mesh or both --family and --level are required")
            check_level(args.family, args.level)
        return

    try:
        a, b = args.levels.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        parser.error(f"levels must be 'A:B', got '{args.levels}'")
    if hi - lo + 1 < 2:
        parser.error(f"level range {args.levels} must contain at least 2 levels")
    check_level(args.family, lo)
    check_level(args.family, hi)
    args.levels = (lo, hi)


def _write_out(path: str, write) -> None:
    """Write ``--out`` by ``write(path)``; if that fails, exit 2 naming the path."""
    try:
        write(path)
    except OSError as exc:
        print(f"cannot write --out {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_mesh(args: argparse.Namespace) -> int:
    mesh = GENERATORS[args.family](args.level)
    _write_out(args.out, lambda path: write_mesh(mesh, path))
    print(
        f"family={args.family} level={args.level} vertices={mesh.n_vertices} "
        f"cells={mesh.n_cells} edges={mesh.n_edges} -> {args.out}"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    case = get_case(args.case)
    try:
        if args.mesh_path is not None:
            mesh = read_mesh(args.mesh_path)
        else:
            mesh = GENERATORS[args.family](args.level)
        solution, cache = solve_case(mesh, args.degree, case, tol=args.tol)
    except (OSError, MeshFormatError, StarShapeError, GeometryError, LambdaDimensionError) as exc:
        print(f"bad mesh: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    l2 = l2_projection_error(mesh, args.degree, case.u, solution, cache)
    energy = energy_error(mesh, args.degree, case.u, case.grad_u, solution, cache)
    print(
        f"dofs={cache.dofmap.n_dofs} residual={solution.residual:.3E} "
        f"l2_err={l2:.3E} energy_err={energy:.3E}"
    )
    if note := above_tol(solution.residual, args.tol):
        print(note, file=sys.stderr)
    if args.out:
        payload = {"k": args.degree, "u0": solution.u0.tolist(), "ub": solution.ub.tolist(),
                   "residual": solution.residual}
        _write_out(args.out, lambda path: Path(path).write_text(json.dumps(payload) + "\n",
                                                                encoding="utf-8"))
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    lo, hi = args.levels
    case = get_case(args.case)
    table = run_convergence(args.family, args.degree, range(lo, hi + 1), case,
                            tol=args.tol)
    rendered = table.render(args.fmt)
    print(rendered, end="")
    for note in filter(None, (above_tol(r.residual, args.tol, r.level) for r in table.rows)):
        print(note, file=sys.stderr)
    if args.out:
        _write_out(args.out, lambda path: Path(path).write_text(rendered, encoding="utf-8"))
    if table.partial:
        print(f"study incomplete: {table.failure}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return {"mesh": _cmd_mesh, "solve": _cmd_solve,
            "convergence": _cmd_convergence}[args.subcommand](args)


if __name__ == "__main__":
    sys.exit(main())
