import errno
import json

import numpy as np
import pytest

import wg_sfem.analysis as analysis
from wg_sfem.cli import LEVEL_CAPS, main
from wg_sfem.localspaces import dim_pk
from wg_sfem.polymesh import GENERATORS, build_mesh, read_mesh, write_mesh
from wg_sfem.wgsolve import SolverError


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------- mesh


def test_mesh_square_level3(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    code = run_cli(["mesh", "--family", "square", "--level", "3", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out
    assert "cells=16" in line
    mesh = read_mesh(out)
    assert mesh.n_cells == 16


def test_mesh_hex_contains_hexagon(tmp_path):
    out = tmp_path / "hex.json"
    assert run_cli(["mesh", "--family", "hex", "--level", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(len(cell) == 6 for cell in payload["cells"])


def test_mesh_level_guard_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh", "--family", "square", "--level", "99",
                 "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_hex_level_cap_is_7(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh", "--family", "hex", "--level", "8",
                 "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_every_family_has_a_level_cap():
    assert set(LEVEL_CAPS) == set(GENERATORS)


@pytest.mark.parametrize("subcommand", [
    ["mesh", "--family", "square", "--level", "2"],
    ["solve", "--family", "square", "--level", "2", "--degree", "0"],
    ["convergence", "--family", "square", "--levels", "2:3", "--degree", "0"],
], ids=["mesh", "solve", "convergence"])
def test_out_into_a_missing_directory_exits_2_before_any_work(subcommand, tmp_path, capsys,
                                                               monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    for name in ("solve_case", "run_convergence"):
        monkeypatch.setattr(f"wg_sfem.cli.{name}", no_work)
    monkeypatch.setitem(GENERATORS, "square", no_work)
    out = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as exc:
        run_cli([*subcommand, "--out", str(out)])
    assert exc.value.code == 2
    assert str(out.parent) in capsys.readouterr().err
    # Nor can a directory, existing or named by a trailing slash.
    for directory in (str(tmp_path), f"{tmp_path / 'new'}/"):
        with pytest.raises(SystemExit) as exc:
            run_cli([*subcommand, "--out", directory])
        assert exc.value.code == 2
        assert f"--out {directory} names a directory" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", [
    ["mesh", "--family", "square", "--level", "2"],
    ["solve", "--family", "square", "--level", "2", "--degree", "0"],
], ids=["mesh", "solve"])
@pytest.mark.parametrize("kind", ["name-too-long", "dangling-symlink"])
def test_out_that_cannot_be_written_exits_2_before_any_work(subcommand, kind, tmp_path, capsys,
                                                            monkeypatch):
    """A file name longer than the system allows, and a symlink into a
    missing directory, fail in the --out check with exit 2 and no
    traceback."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    monkeypatch.setattr("wg_sfem.cli.solve_case", no_work)
    monkeypatch.setitem(GENERATORS, "square", no_work)
    out = tmp_path / "link.json"
    if kind == "name-too-long":
        out = tmp_path / ("x" * 300 + ".json")
    else:
        out.symlink_to(tmp_path / "missing" / "out.json")
    with pytest.raises(SystemExit) as exc:
        run_cli([*subcommand, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--out {out}" in err and "Traceback" not in err
    if kind == "name-too-long":
        assert f"cannot write --out {out}: File name too long" in err


@pytest.mark.parametrize("subcommand", [
    ["mesh", "--family", "square", "--level", "2"],
    ["solve", "--family", "square", "--level", "2", "--degree", "0"],
    ["convergence", "--family", "square", "--levels", "2:3", "--degree", "0"],
], ids=["mesh", "solve", "convergence"])
def test_out_whose_write_fails_exits_2_naming_it(subcommand, tmp_path, capsys, monkeypatch):
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("wg_sfem.cli.write_mesh", full)
    monkeypatch.setattr("pathlib.Path.write_text", full)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run_cli([*subcommand, "--out", str(out)])
    assert exc.value.code == 2
    assert f"cannot write --out {out}: No space left on device" in capsys.readouterr().err


# ---------------------------------------------------------------- solve


def test_solve_summary_matches_run_level(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run_cli(["solve", "--family", "square", "--level", "4",
                    "--degree", "1", "--case", "sin2d", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(part.split("=") for part in line.split())
    rep = analysis.run_level("square", 4, 1, analysis.get_case("sin2d"))
    assert int(fields["dofs"]) == rep.dofs
    assert float(fields["l2_err"]) == pytest.approx(rep.l2_err, rel=2e-3)
    assert float(fields["energy_err"]) == pytest.approx(rep.energy_err, rel=2e-3)

    payload = json.loads(out.read_text())
    assert set(payload) == {"k", "u0", "ub", "residual"}
    assert payload["k"] == 1
    mesh_cells = 8 * 8
    assert len(payload["u0"]) == mesh_cells
    assert len(payload["u0"][0]) == dim_pk(1)
    assert len(payload["ub"][0]) == 2
    assert payload["residual"] <= 1e-12


def test_solve_patch_case_reports_tiny_errors(capsys):
    code = run_cli(["solve", "--family", "hex", "--level", "2",
                    "--degree", "0", "--case", "patch-linear"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(part.split("=") for part in line.split())
    assert float(fields["l2_err"]) <= 1e-8
    assert float(fields["energy_err"]) <= 1e-8


def test_solve_from_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "m.json"
    run_cli(["mesh", "--family", "quad", "--level", "2", "--out", str(mesh_path)])
    capsys.readouterr()
    code = run_cli(["solve", "--mesh", str(mesh_path), "--degree", "0",
                    "--case", "sin2d"])
    assert code == 0
    assert "l2_err=" in capsys.readouterr().out


@pytest.mark.parametrize("degree", ["1", "3"])
def test_solve_far_off_mesh_meets_tol(degree, tmp_path, capsys):
    """Hex level 4 moved to (1e6, 1e6), as a map-coordinate JSON mesh would
    sit: the cell frames come from the anchor-relative fan, so the solve
    meets the default tol and prints no note."""
    base = GENERATORS["hex"](4)
    mesh_path = tmp_path / "far.json"
    write_mesh(build_mesh(base.vertices + 1e6, base.cells), mesh_path)
    assert run_cli(["solve", "--mesh", str(mesh_path), "--degree", degree,
                    "--case", "sin2d"]) == 0
    captured = capsys.readouterr()
    assert float(dict(part.split("=") for part in captured.out.split())["residual"]) <= 1e-12
    assert captured.err == ""


def test_solve_above_tol_says_so_on_stderr_and_exits_0(capsys):
    """A tol below the rounding floor of the relative residual is not met;
    stdout keeps its one summary line."""
    assert run_cli(["solve", "--family", "square", "--level", "2", "--degree", "1",
                    "--tol", "1e-17"]) == 0
    captured = capsys.readouterr()
    residual = dict(part.split("=") for part in captured.out.split())["residual"]
    assert float(residual) > 1e-17
    assert captured.err == (f"residual {residual} above tol 1.000E-17: the solve stopped at "
                            "the rounding floor of the relative residual\n")
    assert run_cli(["solve", "--family", "square", "--level", "2", "--degree", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_solve_on_the_jacobi_only_pcg_path_above_32768_edge_unknowns(capsys):
    """Hex level 6 at k = 3: 48 512 free edge unknowns, which PCG solves
    with Jacobi alone (no multilevel cycle at k >= 3)."""
    assert run_cli(["solve", "--family", "hex", "--level", "6", "--degree", "3"]) == 0
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    assert float(fields["residual"]) <= 1e-11
    assert float(fields["l2_err"]) <= 1e-10


def test_solve_degree_cap_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--family", "square", "--level", "2", "--degree", "7",
                 "--case", "sin2d"])
    assert exc.value.code == 2


def test_solve_mesh_and_family_conflict_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--mesh", str(tmp_path / "m.json"), "--family", "square",
                 "--level", "2", "--degree", "0"])
    assert exc.value.code == 2


def test_solve_requires_some_mesh_source():
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--degree", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("subcommand", [["solve", "--level", "2"],
                                        ["convergence", "--levels", "2:3"]])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_non_positive_or_non_finite_tol_exits_2(subcommand, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([*subcommand, "--family", "square", "--degree", "1", "--tol", tol])
    assert exc.value.code == 2
    assert "tol" in capsys.readouterr().err


DART = [(1.0, 0.0), (0.2, 0.2), (0.0, 1.0), (0.0, 0.0)]


@pytest.mark.parametrize("content,names", [
    (None, "mesh.json"),
    ('{"vertices": [[0, 0], [1, 0]', "mesh.json"),
    (json.dumps({"vertices": DART, "cells": [[0, 1, 2, 3]]}), "cell 0"),
    (json.dumps({"vertices": DART, "cells": 5}), "cells must be a sequence"),
    (json.dumps({"vertices": DART, "cells": []}), "mesh has no cells"),
    (json.dumps({"vertices": DART, "cells": [[0, True, 2, 3]]}),
     "cell 0 has a non-integer vertex index True"),
    (json.dumps({"vertices": [[0, 0], [True, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]]}),
     "vertex 1 has a non-numeric coordinate True"),
    (b'{"vertices": [[0, 0]], "cells": [], "note": "\xff"}', "malformed mesh JSON in"),
    ("[" * 100_000, "malformed mesh JSON in"),
    (json.dumps({"vertices": [[0, 0], [1, 0], [0.5, 1], [0.3, 0.5]],
                 "cells": [[0, 1, 2], [0, 1, 3]]}),
     "cells 0 and 1 run edge (0, 1) the same way"),
], ids=["missing-file", "malformed-json", "dart", "cells-not-a-sequence", "no-cells",
        "bool-index", "bool-coordinate", "non-utf8", "deeply-nested", "folded"])
def test_solve_bad_mesh_file_exits_2_naming_the_file_or_cell(content, names, tmp_path, capsys):
    """A dart anchored next to its reflex vertex is not star-shaped about
    its first vertex, so the cache cannot build its fan; a cell list that is
    not a sequence, or is empty, or two cells folded over their shared
    edge, is a mesh format error."""
    path = tmp_path / "mesh.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert run_cli(["solve", "--mesh", str(path), "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert names in captured.err and "Traceback" not in captured.err


def test_solve_cell_failing_the_dimension_law_exits_2(tmp_path, capsys):
    """A quad whose second fan triangle is a needle 2000 long, reaching far
    along the chord, has a numerical nullspace of dimension 52 at k = 4,
    where the law asks for 50: two relative singular values, 7.7e-12 and
    1.2e-12, fall below the cut, and the next lies at 1.3e-9."""
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [2000, 2000.5]],
                                "cells": [[0, 1, 2, 3]]}))
    assert run_cli(["solve", "--mesh", str(path), "--degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell 0" in captured.err and "nullspace dimension" in captured.err
    # Only the singular values on each side of the rank cut, on one line.
    assert "above the rank cut 1e-10 and the next: " in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 300


# ---------------------------------------------------------------- convergence


def test_convergence_square_k0_rows_and_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run_cli(["convergence", "--family", "square", "--degree", "0",
                    "--levels", "4:6", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,l2_err,l2_rate,energy_err,energy_rate"
    assert len(lines) == 4
    final = lines[3].split(",")
    assert float(final[2]) == pytest.approx(2.0, abs=0.25)
    assert capsys.readouterr().out == out.read_text()


def test_convergence_notes_each_level_above_tol_on_stderr(capsys):
    """As solve does, one stderr line per level that stops above --tol,
    naming the level and its residual; exit 0."""
    args = ["convergence", "--family", "square", "--degree", "1", "--levels", "2:3"]
    assert run_cli(args + ["--tol", "1e-17"]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for level, line in zip((2, 3), lines):
        assert line.startswith(f"level {level}: residual ")
        assert line.endswith(" above tol 1.000E-17: the solve stopped at the rounding floor "
                             "of the relative residual")
    assert captured.out.startswith("level,l2_err,l2_rate,energy_err,energy_rate\n")
    assert run_cli(args) == 0
    assert capsys.readouterr().err == ""


def test_convergence_hex_k3_superconvergent_l2(capsys):
    code = run_cli(["convergence", "--family", "hex", "--degree", "3",
                    "--levels", "2:4", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][-1]["l2_rate"] == pytest.approx(5.0, abs=0.6)


def test_convergence_range_too_short_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["convergence", "--family", "square", "--degree", "0",
                 "--levels", "4:4"])
    assert exc.value.code == 2


def test_convergence_bad_range_spec_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["convergence", "--family", "square", "--degree", "0",
                 "--levels", "4-6"])
    assert exc.value.code == 2


def test_convergence_deterministic_bytes(tmp_path):
    args = ["convergence", "--family", "quad", "--degree", "1", "--levels", "2:4",
            "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_convergence_partial_failure_exits_4(tmp_path, capsys, monkeypatch):
    real_run_level = analysis.run_level

    def failing(family, level, k, case, tol=1e-12):
        if level >= 4:
            raise SolverError("injected failure")
        return real_run_level(family, level, k, case, tol=tol)

    monkeypatch.setattr(analysis, "run_level", failing)
    out = tmp_path / "partial.csv"
    code = run_cli(["convergence", "--family", "square", "--degree", "0",
                    "--levels", "3:5", "--format", "csv", "--out", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert "injected failure" in captured.err
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + the one completed level
    # As JSON, the table says that it is partial and why.
    assert run_cli(["convergence", "--family", "square", "--degree", "0",
                    "--levels", "3:5", "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["partial"] is True and payload["failure"] == "level 4: injected failure"
    assert [row["level"] for row in payload["rows"]] == [3]


def test_solve_solver_failure_exits_3(capsys, monkeypatch):
    import wg_sfem.cli as cli

    def boom(mesh, k, case, tol=1e-12, cache=None):
        raise SolverError("injected solver failure")

    monkeypatch.setattr(cli, "solve_case", boom)
    code = run_cli(["solve", "--family", "square", "--level", "2", "--degree", "0"])
    assert code == 3
    assert "injected solver failure" in capsys.readouterr().err
