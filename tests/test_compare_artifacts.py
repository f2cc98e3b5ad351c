"""tools/compare_artifacts.py on two output directories of small CLI runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from sobolab.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

JOBS = [
    ("heat", "--model", "torus:n=2,res=8", "--seed", "1", "--size", "10",
     "--spectrum-csv"),
    ("flow", "--flow", "torus:n=3,res=6", "--times", "0,0.5", "--theorem",
     "b3", "--p", "2.5", "--seed", "2", "--size", "10"),
]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    a = tmp_path_factory.mktemp("a")
    for job in JOBS:
        assert main([*job, "--out", str(a)]) == 0
    assert main(["report", "--dir", str(a), "--out", str(a)]) == 0
    return a


@pytest.fixture
def dirs(runs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(runs, a)
    shutil.copytree(runs, b)
    return a, b


def artifact(directory, command):
    (path,) = directory.glob(f"{command}_*.json")
    return path, json.loads(path.read_text())


def edit(directory, command, change):
    path, doc = artifact(directory, command)
    change(doc["results"])
    path.write_text(json.dumps(doc))


def compare(capsys, a, b):
    status = compare_artifacts.main([str(a), str(b), "--rtol", "1e-12"])
    return status, capsys.readouterr().out


def scale(factor):
    def change(results):
        results["contraction"]["worst_ratio"] *= factor
    return change


def test_identical_directories_agree(dirs, capsys):
    status, out = compare(capsys, *dirs)
    assert status == 0 and out.endswith("OK\n")
    assert "renamed: 0" in out and "unpaired: 0" in out


def test_a_deviation_below_rtol_passes_and_is_reported(dirs, capsys):
    edit(dirs[1], "heat", scale(1.0 + 1e-14))
    status, out = compare(capsys, *dirs)
    assert status == 0
    line = next(s for s in out.splitlines() if "contraction.worst_ratio" in s)
    assert 5e-15 < float(line.split()[0]) < 5e-14
    assert line.split()[1] == "heat.results.contraction.worst_ratio"


def test_a_deviation_past_rtol_fails(dirs, capsys):
    edit(dirs[1], "heat", scale(1.0 + 1e-6))
    status, out = compare(capsys, *dirs)
    assert status == 1 and out.endswith("FAIL\n")
    assert "heat.results.contraction.worst_ratio" in out


def test_a_changed_witness_fails(dirs, capsys):
    def change(results):
        results["contraction"]["worst_case"][-1] += 1
    edit(dirs[1], "heat", change)
    status, out = compare(capsys, *dirs)
    assert status == 1
    assert "heat.results.contraction.worst_case[2]" in out


def test_csv_cells_are_compared_and_renames_listed(dirs, capsys):
    """The trajectory CSV is read through the name the artifact holds; a
    renamed copy still pairs, and a perturbed cell fails."""
    a, b = dirs
    _, doc = artifact(b, "flow")
    old = b / Path(doc["results"]["csv"]).name
    rows = old.read_text().splitlines()
    cells = rows[1].split(",")
    cells[-2] = repr(float(cells[-2]) * (1.0 + 1e-6))  # worst_ratio at t = 0
    rows[1] = ",".join(cells)
    new = old.with_name("flow_trajectory_0123456789ab.csv")
    old.unlink()
    new.write_text("\n".join(rows) + "\n")

    def change(results):
        results["csv"] = str(new)
    edit(b, "flow", change)
    status, out = compare(capsys, a, b)
    assert status == 1
    assert f"{old.name} -> {new.name}" in out
    assert "flow.results.csv>flow_trajectory.csv[0].worst_ratio" in out


def test_a_report_index_pairs_its_entries_by_command_and_config(dirs, capsys):
    """A rename reorders the report's file-name-sorted index; the order of
    its entries is not compared, their contents are."""
    edit(dirs[1], "report", lambda results: results["artifacts"].reverse())
    assert compare(capsys, *dirs)[0] == 0

    def change(results):
        results["artifacts"][0]["config_sha256"] = "0" * 64
    edit(dirs[1], "report", change)
    status, out = compare(capsys, *dirs)
    assert status == 1 and ".config_sha256: '" in out


def test_unpaired_artifacts_fail(dirs, capsys):
    path, _ = artifact(dirs[1], "flow")
    path.unlink()
    status, out = compare(capsys, *dirs)
    assert status == 1
    assert f"A {path.name}" in out


def test_a_zero_residual_field_has_an_absolute_floor(dirs, capsys):
    """scaling_error is 0 in exact arithmetic: roundoff-level values agree
    whatever their relative difference, larger ones still fail, and the
    floor applies to no other field."""
    def put(directory, value, field="scaling_error"):
        def change(results):
            results["contraction"][field] = value
        edit(directory, "heat", change)

    put(dirs[0], 1.40e-15)
    put(dirs[1], 1.23e-15)
    status, out = compare(capsys, *dirs)
    assert status == 0 and "heat.results.contraction.scaling_error" in out
    put(dirs[1], 1.40e-15 + 2e-12)
    status, out = compare(capsys, *dirs)
    assert status == 1 and "contraction.scaling_error: 1.4e-15" in out
    put(dirs[0], 1.40e-15, "worst_ratio")
    put(dirs[1], 1.23e-15, "worst_ratio")
    put(dirs[1], 1.40e-15)
    status, out = compare(capsys, *dirs)
    assert status == 1 and "contraction.worst_ratio: 1.4e-15" in out
