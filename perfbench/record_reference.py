#!/usr/bin/env python3
"""Record the frozen per-solve outputs that run.py checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs one untraced pass of every workload (the jitter mesh at
REFERENCE_SEED) and rewrites reference.json with each solve's free DOFs,
solver method, L2 error and energy error.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV, OUT_DIR, SRC


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import NullTracer

    reference = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in workloads.WORKLOADS:
            problems = workloads.make_problems(name, workloads.REFERENCE_SEED, Path(tmp))
            result = workloads.run_pass(problems, NullTracer())
            entries = {}
            for rec in result.records:
                if rec.error is not None:
                    raise RuntimeError(f"{rec.solve_id}: {rec.error}")
                entries[rec.solve_id] = workloads.reference_entry(rec)
            reference[name] = entries
            print(f"{name}: {len(entries)} solves", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
