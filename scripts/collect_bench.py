#!/usr/bin/env python3
"""Collect the parent and change benchmark records of a change into one file.

perfbench/run.py writes a run record per workload, seed and trace setting to
``.perfbench-runs/`` of the checkout it runs in.  Run it in a checkout of the
parent commit and in one of the change, for every workload listed in
BENCHMARK.json, with ``--trace 0`` and ``--trace 1``; then

    python3 scripts/collect_bench.py --parent ../parent --change . \\
        --seed 3 --out BENCH_6.json

keeps, of each record, the workload, seed, budget, trace setting,
environment, end-to-end metrics, per-layer metrics and failure fraction,
and drops the spans and the per-pass solve lists.  Each side also records
the line count of every ``src/wg_sfem/*.py`` file of its checkout
(``src_lines``), and the number of those lines that hold code, not blank,
comment-only or docstring lines (``src_code_lines``), so that the
program's size is measured like its timings.  A side's ``commit`` is read
from git only when its checkout is the top of a work tree, such as a
``git clone``; for any other copy it is null, with a warning.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEPT = ("workload", "seed", "seconds", "trace", "environment", "end_to_end",
        "per_layer", "fail_frac")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, with "-dirty" if its tracked files differ.  Only
    the top of a git work tree has its own commit: for a copy without .git,
    or one nested in another work tree (whose commit git would report), it
    warns on stderr and returns None."""
    top = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True).stdout.strip()
    if not top or Path(top).resolve() != checkout.resolve():
        print(f"collect_bench: {checkout} is not the top of a git work tree; "
              "its commit is recorded as null", file=sys.stderr)
        return None
    out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def code_lines(text: str) -> int:
    """The number of lines of Python source that hold a token of code: not
    blank, not comment-only and not part of a module, class or function
    docstring."""
    docstrings = {(node.body[0].value.lineno, node.body[0].value.col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE and not (tok.type == tokenize.STRING
                                             and tok.start in docstrings):
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def collect(checkout: Path, workloads: list[str], seed: int) -> dict:
    records = []
    for workload in workloads:
        for trace in (0, 1):
            path = checkout / ".perfbench-runs" / f"{workload}-seed{seed}-trace{trace}.json"
            if not path.is_file():
                raise FileNotFoundError(f"no run record {path}")
            record = json.loads(path.read_text(encoding="utf-8"))
            records.append({key: record[key] for key in KEPT})
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((checkout / "src" / "wg_sfem").glob("*.py"))}
    return {"commit": commit_of(checkout),
            "src_lines": {name: len(text.splitlines()) for name, text in sources.items()},
            "src_code_lines": {name: code_lines(text) for name, text in sources.items()},
            "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit, with its run records")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    try:
        payload = {
            "workloads": workloads,
            "parent": collect(args.parent, workloads, args.seed),
            "change": collect(args.change, workloads, args.seed),
        }
    except FileNotFoundError as exc:
        print(f"collect_bench: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
