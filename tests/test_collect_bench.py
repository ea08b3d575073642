import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def collect_bench():
    path = ROOT / "scripts" / "collect_bench.py"
    spec = importlib.util.spec_from_file_location("collect_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_records(checkout: Path, workloads, seed: int, label: str) -> None:
    runs = checkout / ".perfbench-runs"
    runs.mkdir(parents=True)
    for workload in workloads:
        for trace in (0, 1):
            record = {
                "workload": workload, "why": "w", "seed": seed, "seconds": 40.0,
                "trace": trace, "environment": {"python": label},
                "setup_wall_s": [0.4], "setup_scaled_s": [0.4],
                "end_to_end": {"time_to_solution_s": {"value": 1.0}},
                "fail_frac": {"value": 0.0, "failed": 0, "attempted": 2},
                "per_layer": {"wgsolve.solve_s": {"value": 0.1}} if trace else {},
                "passes": [{"solves": [{"solve": "x"}]}],
                "spans": [["pass", 0.0, 1.0]],
            }
            (runs / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def _write_sources(checkout: Path, lines: dict) -> None:
    src = checkout / "src" / "wg_sfem"
    src.mkdir(parents=True)
    for name, n in lines.items():
        (src / name).write_text("".join(f"x = {i}\n" for i in range(n)))
    (src / "notes.txt").write_text("not a module\n")


def test_collect_keeps_metrics_and_drops_spans_and_passes(collect_bench, tmp_path):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    _write_records(tmp_path / "parent", workloads, 3, "parent")
    _write_records(tmp_path / "change", workloads, 3, "change")
    lines = {"parent": {"a.py": 3, "b.py": 5}, "change": {"a.py": 2, "b.py": 5, "c.py": 1}}
    for side in ("parent", "change"):
        _write_sources(tmp_path / side, lines[side])
    out = tmp_path / "BENCH.json"
    assert collect_bench.main(["--parent", str(tmp_path / "parent"), "--change",
                               str(tmp_path / "change"), "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["workloads"] == workloads
    for side in ("parent", "change"):
        records = payload[side]["records"]
        assert [(r["workload"], r["trace"]) for r in records] == [
            (w, t) for w in workloads for t in (0, 1)]
        for record in records:
            assert set(record) == set(collect_bench.KEPT)
            assert record["environment"] == {"python": side}
        assert payload[side]["src_lines"] == lines[side]


def test_collect_reports_a_missing_record(collect_bench, tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    code = collect_bench.main(["--parent", str(tmp_path / "parent"), "--change",
                               str(tmp_path / "parent"), "--seed", "1",
                               "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert "no run record" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


MODULE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string
that is code"""
        return (x +
                1)
'''


def test_code_lines_skip_blank_comment_and_docstring_lines(collect_bench, tmp_path):
    """Code: the import, class, def, the two lines of s and of return."""
    assert collect_bench.code_lines(MODULE) == 7
    _write_sources(tmp_path, {"a.py": 3})
    (tmp_path / "src" / "wg_sfem" / "b.py").write_text(MODULE)
    side = collect_bench.collect(tmp_path, [], 3)
    assert side["src_lines"] == {"a.py": 3, "b.py": len(MODULE.splitlines())}
    assert side["src_code_lines"] == {"a.py": 3, "b.py": 7}
