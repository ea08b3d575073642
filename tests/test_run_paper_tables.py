import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import wg_sfem.analysis as analysis
from wg_sfem.wgsolve import SolverError

ROOT = Path(__file__).resolve().parent.parent
SMALL_PLAN = {"square": {0: (2, 3)}, "quad": {}, "hex": {}}


@pytest.fixture
def script():
    path = ROOT / "scripts" / "run_paper_tables.py"
    spec = importlib.util.spec_from_file_location("run_paper_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tables(script, monkeypatch):
    """The script with one small planned study, square P0 on levels 2..3."""
    monkeypatch.setattr(script, "DEFAULT_PLAN", SMALL_PLAN)
    return script


def test_a_planned_study_prints_one_markdown_table_and_exits_0(tables, capsys):
    assert tables.main([]) == 0
    captured = capsys.readouterr()
    assert "== square family, P0 elements, levels 2..3" in captured.out
    assert captured.out.count("| level |") == 1
    assert "INCOMPLETE" not in captured.out and captured.err == ""


def test_a_failed_level_exits_4(tables, capsys, monkeypatch):
    def failing(family, level, k, case, tol=1e-12):
        raise SolverError("injected failure")

    monkeypatch.setattr(analysis, "run_level", failing)
    assert tables.main([]) == 4
    assert "INCOMPLETE: level 2: injected failure" in capsys.readouterr().out


def test_a_level_stopped_above_tol_is_noted_on_stderr(tables, capsys, monkeypatch):
    real_run_level = analysis.run_level

    def stopped(family, level, k, case, tol=1e-12):
        rep = real_run_level(family, level, k, case, tol=tol)
        return replace(rep, residual=2e-12) if level == 3 else rep

    monkeypatch.setattr(analysis, "run_level", stopped)
    assert tables.main([]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("square P0 level 3: residual 2.000E-12 above tol 1.000E-12: the "
                            "solve stopped at the rounding floor of the relative residual\n")
    assert "INCOMPLETE" not in captured.out


def test_a_request_with_no_planned_study_exits_2_naming_the_planned_degrees(script, capsys):
    with pytest.raises(SystemExit) as exc:
        script.main(["--families", "quad", "hex", "--degrees", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "planned degrees: quad [0, 1, 2, 3]; hex [0, 1, 2, 3]" in captured.err


def test_unplanned_pairs_are_named_on_stderr_and_skipped(tables, capsys):
    assert tables.main(["--families", "square", "--degrees", "0", "7"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("| level |") == 1
    assert captured.err == "skipped: no planned study for the square family at P7\n"
