import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wg_sfem.localspaces as localspaces
from wg_sfem.localspaces import OperatorCache, OperatorStack
from wg_sfem.polymesh import GENERATORS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def identity(monkeypatch):
    """The script with one problem of its set."""
    path = ROOT / "scripts" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PROBLEMS", [("quad", 3, 1)])
    return module


def _run(script, capsys) -> str:
    assert script.main() == 0
    return capsys.readouterr().out


def test_two_runs_print_the_same_sorted_json(identity, capsys):
    first = _run(identity, capsys)
    assert _run(identity, capsys) == first
    payload = json.loads(first)
    assert list(payload) == ["quad-L3-k1"]
    record = payload["quad-L3-k1"]
    assert list(record["groups"]) == ["4"]
    assert set(record["groups"]["4"]) == set(identity.STACK_ARRAYS)
    assert set(record["per_cell"]) == set(identity.PER_CELL)
    for name in identity.CSR_MATRICES:
        assert set(record["system"][name]) == set(identity.CSR_ARRAYS)
    assert record["method"] == "direct" and record["iterations"] == 0
    assert json.dumps(payload, indent=1, sort_keys=True) + "\n" == first


def test_one_ulp_in_one_operator_value_changes_the_output(identity, capsys, monkeypatch):
    before = json.loads(_run(identity, capsys))["quad-L3-k1"]
    build = OperatorStack.__init__

    def nudged(self, *args):
        build(self, *args)
        self.stiffness[0, 0, 0] = np.nextafter(self.stiffness[0, 0, 0], np.inf)

    monkeypatch.setattr(OperatorStack, "__init__", nudged)
    after = json.loads(_run(identity, capsys))["quad-L3-k1"]
    assert after["groups"]["4"]["stiffness"] != before["groups"]["4"]["stiffness"]
    assert after["groups"]["4"]["weak_gradient"] == before["groups"]["4"]["weak_gradient"]
    # The uncondensed matrix holds the nudged entry; its pattern stays.
    matrix, matrix_before = after["system"]["matrix"], before["system"]["matrix"]
    assert matrix["data"] != matrix_before["data"]
    assert (matrix["indices"], matrix["indptr"]) == (matrix_before["indices"],
                                                    matrix_before["indptr"])


def test_one_and_two_workers_print_the_same_bytes(identity, capsys, monkeypatch):
    """On hex L3 at k = 2, in stacks and batches of 4 cells."""
    monkeypatch.setattr(identity, "PROBLEMS", [("hex", 3, 2)])
    monkeypatch.setattr(localspaces, "BATCH_CELLS", 4)
    monkeypatch.setattr(localspaces, "STACK_BYTES", 0)
    outputs = []
    for n in (2, 1):
        monkeypatch.setattr(localspaces, "_usable_cpus", lambda: n)
        outputs.append(_run(identity, capsys))
    cache = OperatorCache(GENERATORS["hex"](3), 2)
    assert len(dict.fromkeys(ops for ops, *_ in cache.batches())) > 1
    assert outputs[0] == outputs[1]


def test_the_output_does_not_follow_the_blas_thread_count():
    """PCG's dot products on the jitter L7 k = 1 edge system (16 128
    unknowns) differ in the last bit between one and two OpenBLAS threads;
    run as a script, identity.py pins one thread."""
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        outputs.append(subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "identity.py"), "jitter-L7-k1"],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert list(json.loads(outputs[0])) == ["jitter-L7-k1"]
    assert outputs[0] == outputs[1]


def test_an_unknown_problem_name_is_refused(identity, capsys):
    assert identity.main(["jitter-L9-k1"]) == 2
    assert "unknown problems ['jitter-L9-k1']" in capsys.readouterr().err
