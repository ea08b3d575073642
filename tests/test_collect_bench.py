import importlib.util
import json
import subprocess
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


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(cwd), "-c", "user.name=bench", "-c",
                           "user.email=bench@example.com", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def test_commit_is_that_of_the_top_of_a_work_tree(collect_bench, tmp_path, capsys):
    tree = tmp_path / "tree"
    _write_sources(tree, {"a.py": 1})
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "sources")
    assert collect_bench.commit_of(tree) == _git(tree, "rev-parse", "--short", "HEAD")
    (tree / "src" / "wg_sfem" / "a.py").write_text("x = 1\n")
    assert collect_bench.commit_of(tree).endswith("-dirty")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("nested", [False, True], ids=["lone-copy", "copy-in-a-work-tree"])
def test_commit_of_a_copy_is_null_with_a_warning(collect_bench, tmp_path, capsys, nested):
    """A copy without .git has no commit; one placed inside another work
    tree would otherwise report the outer tree's."""
    if nested:
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "commit", "-q", "--allow-empty", "-m", "outer")
    copy = tmp_path / "copy"
    _write_sources(copy, {"a.py": 1})
    assert collect_bench.collect(copy, [], 3)["commit"] is None
    assert "is not the top of a git work tree" in capsys.readouterr().err
