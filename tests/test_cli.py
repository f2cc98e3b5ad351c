import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sobolab
from sobolab import flow as fl
from sobolab import cli, constants, manifold, semigroup, spectral
from sobolab.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_artifact(tmp_path, prefix):
    paths = sorted(Path(tmp_path).glob(f"{prefix}_*.json"))
    assert paths, f"no {prefix} artifact written"
    return paths, json.loads(paths[-1].read_text())


def test_ladder_command(tmp_path):
    assert run(tmp_path, "ladder", "--n", "3", "--p0", "2", "--target", "2.9") == 0
    _, doc = read_artifact(tmp_path, "ladder")
    values = [row["p_k"] for row in doc["results"]["ladder"]]
    assert values[1] == pytest.approx(18.0 / 7.0, abs=1e-12)
    assert values[2] == pytest.approx(1134.0 / 387.0, abs=1e-12)
    assert doc["results"]["m"] == 4
    assert doc["config_sha256"]


def test_bootstrap_command(tmp_path):
    assert run(tmp_path, "bootstrap", "--n", "4", "--p0", "2", "--A", "1",
               "--B", "0", "--target", str(8.0 / 3.0)) == 0
    _, doc = read_artifact(tmp_path, "bootstrap")
    assert doc["results"]["cumulative"]["C1"] == pytest.approx(8.0, abs=1e-12)
    assert doc["results"]["cumulative"]["C2"] == 0.0


def test_estimate_determinism_byte_identical(tmp_path):
    args = ("estimate", "--model", "torus:n=2,res=16", "--p", "1.2",
            "--seed", "42", "--size", "40")
    assert run(tmp_path / "a", *args) == 0
    assert run(tmp_path / "b", *args) == 0
    a = sorted((tmp_path / "a").glob("estimate_*.json"))[0]
    b = sorted((tmp_path / "b").glob("estimate_*.json"))[0]
    assert a.name == b.name  # content-addressed: same payload, same digest
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, path, mirrors", [
    (("heat", "--model", "torus:n=2,res=8"), "fourier", 0),
    (("riesz", "--model", "box:n=2,res=6", "--p", "1.5"), "fourier", 0),
    (("flow", "--flow", "sphere:r0=1,subdiv=1", "--times", "0:0.2:0.1",
      "--theorem", "d2", "--p", "1.5"), "dense", 3),
], ids=["torus-heat", "box-riesz", "sphere-flow"])
def test_artifact_diagnostics_repeat_byte_for_byte(tmp_path, monkeypatch,
                                                   argv, path, mirrors):
    """Each artifact names its decomposition path (per-axis on tori and
    boxes, dense on spheres), the bare Laplacian's kernel dimension and the
    mirrors of the dense solve, inside the hashed
    payload, and a rerun reproduces it
    (in a second directory under the same relative --out, because a flow
    artifact records its CSV's path)."""
    args = (*argv, "--seed", "3", "--size", "20")
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        assert run(Path("out"), *args) == 0
    (a,), doc = read_artifact(tmp_path / "a" / "out", argv[0])
    (b,), _ = read_artifact(tmp_path / "b" / "out", argv[0])
    assert a.name == b.name and a.read_bytes() == b.read_bytes()
    assert doc["results"]["diagnostics"] == {"decomposition": path,
                                             "kernel_dim": 1,
                                             "mirrors": mirrors}


@pytest.mark.parametrize("argv", [("riesz", "--model", "sphere:r=1"),
                                  ("flow", "--flow", "sphere:r0=1")],
                         ids=["model", "flow"])
def test_bare_sphere_spec_builds_the_642_node_mesh(tmp_path, capsys,
                                                   monkeypatch, argv):
    """Model and flow specs share one grammar and its default subdiv=3."""
    built = []

    def stop_after_build(spec):
        built.append(manifold.build(spec).num_nodes)
        raise ValueError("stopped after the build")

    monkeypatch.setattr(cli, "build", stop_after_build)
    monkeypatch.setattr(fl, "build", stop_after_build)
    assert run(tmp_path, *argv, "--seed", "1", "--size", "5") == 1
    one_line_error(capsys, "stopped after the build")
    assert built == [642]


def test_estimate_requires_seed(tmp_path, capsys):
    assert run(tmp_path, "estimate", "--model", "torus:n=2,res=16",
               "--p", "1.2") == 1
    one_line_error(capsys, "--seed")


def test_verify_exit_codes(tmp_path):
    base = ("--model", "torus:n=2,res=16", "--p", "1.2", "--seed", "1",
            "--size", "60")
    assert run(tmp_path, "verify", *base, "--A", "50", "--B", "50") == 0
    assert run(tmp_path, "verify", *base, "--A", "1e-6", "--B", "1e-6") == 2


def test_flow_command_csv(tmp_path):
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1", "--times",
               "0:0.4:0.05", "--theorem", "a2", "--p", "1.5", "--p0", "1.2",
               "--seed", "9", "--size", "30") == 0
    csvs = sorted(Path(tmp_path).glob("flow_trajectory_*.csv"))
    assert csvs
    lines = csvs[0].read_text().strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("t,")
    assert len(lines) == 10  # header + 9 time rows
    ratio_col = header.index("worst_ratio")
    assert all(float(row.split(",")[ratio_col]) <= 1.0 + 1e-9
               for row in lines[1:])


def test_flow_a2_on_a_seed_with_tiny_bump_members(tmp_path):
    """This seed draws bump members whose values all lie below 1.4e-12; the
    flatness test of the (A, B) estimate is relative to each member, so they
    keep their gradient and the base estimate is feasible."""
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1", "--times",
               "0:0.4:0.05", "--p", "1.5", "--p0", "1.2", "--theorem", "a2",
               "--seed", "119135138") == 0
    _, doc = read_artifact(tmp_path, "flow")
    base = doc["results"]["trajectory"]["base_constants"]
    assert base["B"] == 1.0 and base["A"] == pytest.approx(0.1915, abs=1e-4)


def test_flow_command_torus_finite_horizon(tmp_path):
    assert run(tmp_path, "flow", "--flow", "torus:n=3,res=6", "--times",
               "0,0.5,1.0", "--theorem", "b3", "--p", "2.5",
               "--seed", "2", "--size", "20") == 0
    _, doc = read_artifact(tmp_path, "flow")
    records = doc["results"]["trajectory"]["records"]
    assert len(records) == 3
    assert all(r["violations"] == 0 for r in records)


def test_flow_command_hypothesis_error_exit_1(tmp_path, capsys):
    status = run(tmp_path, "flow", "--flow", "torus:n=3,res=6", "--times",
                 "0,0.5", "--theorem", "a2", "--p", "2.5", "--seed", "2",
                 "--size", "10")
    assert status == 1
    assert "lambda0" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["0", "0,0.4999999995"])
def test_flow_accepts_every_time_before_the_singular_time(tmp_path, times):
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1,subdiv=1", "--times",
               times, "--theorem", "b2", "--seed", "3", "--size", "5") == 0
    _, doc = read_artifact(tmp_path, "flow")
    got = [r["t"] for r in doc["results"]["trajectory"]["records"]]
    assert got == [float(t) for t in times.split(",")]


@pytest.mark.parametrize("times", ["0,0.5", "0:0.6:0.2"])
def test_flow_refuses_times_from_the_singular_time_on(tmp_path, capsys, times):
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1,subdiv=1", "--times",
               times, "--theorem", "b2", "--seed", "3", "--size", "5") == 1
    err = capsys.readouterr().err
    last = max(map(float, times.replace(":", ",").split(",")[:2]))
    assert err.count("\n") == 1
    assert f"largest time {last:g} " in err and "singular time 0.5" in err
    assert "horizon" not in err


@pytest.mark.parametrize("times", ["-0.1", "-0.2:0.2:0.1", "0.1,-0.1"])
def test_flow_refuses_a_time_before_the_start(tmp_path, capsys, times):
    """A negative time is refused against the start time 0, not as past a
    flow horizon the user never gave."""
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1,subdiv=1",
               f"--times={times}", "--theorem", "b2", "--seed", "3",
               "--size", "5") == 1
    err = capsys.readouterr().err
    first = min(map(float, times.replace(":", ",").split(",")[:2]))
    assert err.count("\n") == 1
    assert f"the time {first:g} is before the start time 0" in err
    assert "horizon" not in err
    assert not list(tmp_path.iterdir())


def test_model_scale_option(tmp_path):
    assert run(tmp_path, "estimate", "--model", "torus:n=2,res=16,scale=2",
               "--p", "1.2", "--seed", "8", "--size", "30") == 0
    _, doc = read_artifact(tmp_path, "estimate")
    assert doc["results"]["model"] == "torus:n=2,res=16,L=6.28319x6.28319,scale=2"


def test_scaled_model_artifact_records_its_scale_once(tmp_path):
    assert run(tmp_path, "heat", "--model", "sphere:r=2,subdiv=1,scale=0.5",
               "--seed", "3", "--size", "10", "--t-list", "0.1") == 0
    _, doc = read_artifact(tmp_path, "heat")
    assert doc["results"]["model"] == "sphere:r=2,subdiv=1,scale=0.5"


def test_heat_command_with_fit_and_svg(tmp_path):
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=24",
               "--seed", "3", "--size", "30", "--t-list", "0.01,0.1",
               "--fit-window", "0.02,0.2", "--svg", "--spectrum-csv") == 0
    _, doc = read_artifact(tmp_path, "heat")
    assert doc["results"]["contraction"]["violations"] == 0
    assert "ultracontractivity" in doc["results"]
    assert list(Path(tmp_path).glob("heat_fit_*.svg"))
    assert list(Path(tmp_path).glob("spectrum_*.csv"))


def test_heat_command_beta_csv(tmp_path):
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=16",
               "--seed", "3", "--size", "24", "--t-list", "0.1",
               "--beta-csv") == 0
    csvs = list(Path(tmp_path).glob("log_sobolev_profile_*.csv"))
    assert csvs
    lines = csvs[0].read_text().strip().splitlines()
    assert lines[0] == "sigma,beta"
    betas = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(betas, betas[1:]))


def test_riesz_command(tmp_path):
    assert run(tmp_path, "riesz", "--model", "torus:n=2,res=16", "--p", "2",
               "--a", "1", "--seed", "4", "--size", "40") == 0
    _, doc = read_artifact(tmp_path, "riesz")
    assert doc["results"]["riesz"]["estimate"] <= 1.0 + 1e-8
    assert doc["results"]["equivalence"]["c1_hat"] >= 0.7071 - 1e-4


def test_w2p_command(tmp_path):
    assert run(tmp_path, "w2p", "--model", "torus:n=3,res=8", "--p", "1.2",
               "--mu", "3", "--seed", "5", "--size", "30") == 0
    _, doc = read_artifact(tmp_path, "w2p")
    assert doc["results"]["second_order"]["p_out"] == pytest.approx(6.0)
    assert doc["results"]["second_order"]["estimate"] > 0


def test_scaling_command(tmp_path):
    assert run(tmp_path, "scaling", "--model", "torus:n=3,res=8",
               "--lam", "2", "--mu", "3", "--p", "1.5", "--seed", "6",
               "--size", "30") == 0
    _, doc = read_artifact(tmp_path, "scaling")
    assert doc["results"]["transfer"]["violations"] == 0


def test_error_exit_status(tmp_path, capsys):
    status = run(tmp_path, "estimate", "--model", "torus:n=2,res=16",
                 "--p", "2.5", "--seed", "1", "--size", "10")
    assert status == 1
    assert "error" in capsys.readouterr().err


def test_report_indexes_artifacts(tmp_path):
    run(tmp_path, "ladder", "--n", "3", "--p0", "2", "--target", "2.5")
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path)]) == 0
    _, doc = read_artifact(tmp_path, "report")
    assert doc["results"]["count"] >= 1
    commands = {e["command"] for e in doc["results"]["artifacts"]}
    assert "ladder" in commands


def test_report_refuses_a_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["report", "--dir", str(missing), "--out", str(tmp_path)]) == 1
    one_line_error(capsys, str(missing))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("content", [b"[1]", b"{", b'{"command": "\xff"}'],
                         ids=["not-an-object", "not-json", "not-utf-8"])
def test_report_skips_json_files_that_are_not_artifacts(tmp_path, content):
    run(tmp_path, "ladder", "--n", "3", "--p0", "2", "--target", "2.5")
    (tmp_path / "other.json").write_bytes(content)
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path)]) == 0
    _, doc = read_artifact(tmp_path, "report")
    assert [e["command"] for e in doc["results"]["artifacts"]] == ["ladder"]


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "size": 25, "generator": "bumps"}))
    assert main(["estimate", "--model", "torus:n=2,res=16", "--p", "1.2",
                 "--generator", "eigen-mix", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    _, doc = read_artifact(tmp_path, "estimate")
    assert doc["config"]["seed"] == 11            # filled from config
    assert doc["config"]["size"] == 25            # non-None default overridden
    assert doc["config"]["generator"] == "eigen-mix"  # explicit flag wins


@pytest.mark.parametrize("content, words", [
    (None, ["config file", "No such file"]),
    ("{", ["config file", "Expecting"]),
    ("[1, 2]", ["config file", "JSON object"]),
    ('{"size": "abc"}', ["config key 'size'", "'abc'"]),
    ('{"svg": "no"}', ["config key 'svg'", "true or false"]),
    ('{"model": 5}', ["model variant '5'"]),
    ('{"sead": 4}', ["config key 'sead'", "no flag", "heat"]),
    ('{"b-grid": "1,2"}', ["config key 'b-grid'", "no flag", "heat"]),
], ids=["missing", "malformed", "list", "bad-size", "bad-switch", "number-model",
        "misspelt-key", "key-of-another-command"])
def test_bad_config_file_is_a_one_line_error(tmp_path, capsys, content, words):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert run(tmp_path, "heat", "--seed", "1", "--config", str(cfg)) == 1
    one_line_error(capsys, *words)


def test_artifacts_never_mutated(tmp_path):
    run(tmp_path, "ladder", "--n", "3", "--p0", "2", "--target", "2.5")
    path = sorted(Path(tmp_path).glob("ladder_*.json"))[0]
    before = path.read_bytes()
    run(tmp_path, "ladder", "--n", "3", "--p0", "2", "--target", "2.5")
    assert path.read_bytes() == before


def test_stdout_is_path_then_full_results_json(tmp_path, capsys):
    assert run(tmp_path, "flow", "--flow", "sphere:r0=1", "--times",
               "0:0.4:0.05", "--theorem", "a2", "--p", "1.5", "--p0", "1.2",
               "--seed", "9", "--size", "20") == 0
    first, _, rest = capsys.readouterr().out.partition("\n")
    assert len(rest) > 2000  # longer than the old 2000-character cut
    doc = json.loads(Path(first).read_text())
    assert json.loads(rest) == doc["results"]


def test_import_defers_quadrature_and_mpmath():
    src = str(Path(sobolab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sobolab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'mpmath' or m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err


def test_heat_rejects_negative_time(tmp_path, capsys):
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=8", "--seed", "1",
               "--size", "10", "--t-list", "-1") == 1
    one_line_error(capsys, "heat times")


def test_scaling_rejects_mu_not_above_p(tmp_path, capsys):
    assert run(tmp_path, "scaling", "--model", "torus:n=3,res=6", "--seed", "1",
               "--size", "10", "--mu", "1", "--p", "1.5") == 1
    one_line_error(capsys, "mu=1", "p=1.5")


def test_scaling_law_guard_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    check = semigroup.scaling_transfer_check
    monkeypatch.setattr(semigroup, "scaling_transfer_check",
                        lambda *a, **kw: check(*a, scaling_tol=-1.0, **kw))
    assert run(tmp_path, "scaling", "--model", "torus:n=3,res=6", "--seed", "1",
               "--size", "10") == 1
    one_line_error(capsys, "norm scaling law violated")


def test_flow_rejects_nonpositive_time_step(tmp_path, capsys):
    for times in ("0:0.4:0", "0:0.4:-0.1"):
        assert run(tmp_path, "flow", "--times", times, "--seed", "1",
                   "--size", "10") == 1
        one_line_error(capsys, "time step")


def test_flow_rejects_unknown_spec_options(tmp_path, capsys):
    assert run(tmp_path, "flow", "--flow", "torus:n=3,res=6,bogus=1",
               "--times", "0,0.5", "--theorem", "b3", "--p", "2.5",
               "--seed", "1", "--size", "10") == 1
    one_line_error(capsys, "bogus")


def test_verify_rejects_negative_constants(tmp_path, capsys):
    assert run(tmp_path, "verify", "--model", "torus:n=2,res=8", "--p", "1.2",
               "--A", "-1", "--B", "1", "--seed", "1", "--size", "10") == 1
    one_line_error(capsys, "A >= 0")


@pytest.mark.parametrize("p", ["2", "3"], ids=["p=n", "p>n"])
def test_verify_rejects_p_not_below_dim(tmp_path, capsys, p):
    assert run(tmp_path, "verify", "--model", "torus:n=2,res=8", "--p", p,
               "--A", "1", "--B", "1", "--seed", "1", "--size", "5") == 1
    one_line_error(capsys, "p < dim")


def test_closed_stdout_after_the_path_line_is_not_an_error(tmp_path):
    src = str(Path(sobolab.__file__).resolve().parents[1])
    argv = ["flow", "--flow", "sphere:r0=1,subdiv=2", "--times", "0:0.4:0.001",
            "--theorem", "a2", "--seed", "1", "--size", "5", "--out", str(tmp_path)]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from sobolab.cli import main; sys.exit(main(sys.argv[2:]))")
    # the results JSON (~170 kB) outgrows the pipe buffer, so the writer
    # is still printing when the reader goes away after the first line
    proc = subprocess.Popen([sys.executable, "-c", code, src, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline().decode().strip()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "Error" not in err, err
    assert Path(first).parent == tmp_path and Path(first).exists()


@pytest.mark.parametrize("argv", [
    ("riesz", "--model", "torus:n=2,res=8", "--p", "2", "--a", "1"),
    ("scaling", "--model", "torus:n=3,res=6", "--lam", "2"),
], ids=["riesz", "scaling"])
def test_command_decomposes_the_mesh_once(tmp_path, decompose_calls, argv):
    assert run(tmp_path, *argv, "--seed", "1", "--size", "10") == 0
    assert len(decompose_calls) == 1


@pytest.mark.parametrize("argv, nodes, transforms", [
    (("flow", "--flow", "sphere:r0=1,subdiv=2", "--theorem", "b2"), 162, 1),
    (("scaling", "--model", "torus:n=3,res=8"), 512, 1),
    (("riesz", "--model", "torus:n=2,res=12"), 144, 2),
    (("heat", "--model", "torus:n=2,res=12"), 144, 0),
    (("heat", "--model", "box:n=2,res=12"), 144, 0),
], ids=["flow-b2", "scaling", "riesz", "heat", "heat-box"])
def test_member_matrix_transforms_per_job(tmp_path, monkeypatch, argv, nodes,
                                          transforms):
    """Every f(H) of one chunk of members shares one forward transform: flow
    b2 one for its t = 0 constant and all nine times (each a Bessel
    multiplier on the same bare spectrum), scaling one for both metrics,
    riesz one for the Riesz scan and one for the three Bessel-type
    operators.  Heat on a torus or a box makes none beyond the draw's: its
    axis heat matrices act on the node values (spectral.heat_images).  With
    8 rows a chunk, 30 members
    make 4 chunks, each drawn once and transformed for every scan before
    the next; the refinement's one-row transforms are not counted.  Each
    chunk drawn (the refinement draws its witness's chunk again) projects
    its spectral rows with one forward on the leading modes."""
    size, rows, seen, projected, drawn = 30, 8, [], [], []
    monkeypatch.setattr(manifold, "CHUNK_BYTES", rows * 8 * nodes)
    for cls in (spectral.MirrorBasis, spectral.FourierBasis):
        def spy(self, u, k=None, original=cls.forward):
            if k is not None:
                projected.append(len(u))
            elif len(u) > 1:
                seen.append(len(u))
            return original(self, u, k)
        monkeypatch.setattr(cls, "forward", spy)

    def draw(self, original=constants.MemberStream.__iter__):
        # the mixed generator makes every member i with i % 3 == 1 a bump
        for j, chunk in enumerate(original(self)):
            drawn.append(sum(i % 3 != 1 for i in range(j * rows,
                                                       j * rows + len(chunk))))
            yield chunk
    monkeypatch.setattr(constants.MemberStream, "__iter__", draw)
    assert run(tmp_path, *argv, "--seed", "1", "--size", str(size)) in (0, 2)
    assert seen == [n for n in (rows, rows, rows, size - 3 * rows)
                    for _ in range(transforms)], seen
    assert drawn[:4] == [5, 6, 5, 4] and projected == drawn, (drawn, projected)


BUDGET_JOBS = [
    ("heat", "--model", "torus:n=2,res=64"),
    ("heat", "--model", "torus:n=2,res=64", "--beta-csv"),
    ("estimate", "--model", "torus:n=2,res=64", "--p", "1.5"),
    ("verify", "--model", "torus:n=2,res=64", "--p", "1.5", "--A", "1",
     "--B", "64"),
    ("riesz", "--model", "torus:n=2,res=64", "--p", "1.5"),
    ("estimate", "--model", "box:n=3,res=16", "--p", "1.5"),
    ("riesz", "--model", "box:n=3,res=16", "--p", "1.5"),
    ("w2p", "--model", "torus:n=3,res=16"),
    ("scaling", "--model", "torus:n=3,res=16"),
    ("flow", "--flow", "torus:n=3,res=16", "--times", "0:1:0.5",
     "--theorem", "b3", "--p", "2.5"),
    ("flow", "--flow", "torus:n=3,res=16", "--times", "0:1:0.5",
     "--theorem", "a3", "--p", "2.5"),
]


@pytest.mark.parametrize("argv", BUDGET_JOBS, ids=[
    "heat", "heat-beta-csv", "estimate", "verify", "riesz", "estimate-box",
    "riesz-box", "w2p", "scaling", "flow-b3", "flow-a3"])
def test_command_peak_is_within_the_budgets_member_term(tmp_path, argv):
    """A job draws, measures and drops its members a chunk at a time, so
    its traced peak grows with --size by its per-member values alone: at
    100 and 400 members of 4096 nodes (4 and 13 chunks of 32 rows) the
    peaks differ by less than one chunk plus MEMBER_VALUES floats per added
    member, and both stay under the budget's prediction without a dense
    solve (CHUNK_PEAK chunks, ELEMENT_PEAK element floats per chunk row,
    the element weights and the per-member values): a 3-d box has 27,000
    elements to its 4096 nodes.  A first one-member run leaves out what the
    first job in a process allocates once."""
    import tracemalloc

    nodes, peaks = 4096, {}
    elements = manifold.build(argv[2]).grad.num_elements  # argv[2]: the mesh
    assert run(tmp_path, *argv, "--seed", "3", "--size", "1") == 0
    for size in (100, 400):
        tracemalloc.start()
        try:
            status = run(tmp_path, *argv, "--seed", "3", "--size", str(size))
            _, peaks[size] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peaks[size] <= manifold._check_budget("", nodes, 0, 0, size,
                                                     elements=elements)
    chunk = manifold._chunk_rows(nodes) * nodes * 8
    assert abs(peaks[400] - peaks[100]) < chunk + manifold.MEMBER_VALUES * 8 * 300


def test_riesz_on_a_3d_box_is_within_its_budget_prediction(tmp_path):
    """A Riesz refinement's dual step is one weighted Laplacian of a node
    function, G^T diag(w |grad v|^(p-2)) G v, formed an axis at a time with
    no element vector field or node-pair table, so riesz on a 32^3 box
    (32,768 nodes, 238,328 elements) stays under what _check_node_count
    predicts for its spec: the per-axis matrices, the chunks of members,
    the element floats per chunk row and the element weights.  A first
    one-member run leaves out what the first job in a process allocates
    once."""
    import tracemalloc

    argv = ("riesz", "--model", "box:n=3,res=32", "--p", "1.5", "--seed", "3")
    elements = manifold.build(argv[2]).grad.num_elements
    assert run(tmp_path, *argv, "--size", "1") == 0
    tracemalloc.start()
    try:
        status = run(tmp_path, *argv, "--size", "20")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak <= manifold._check_budget("", 32 ** 3, 0, 0, 20, axis=32,
                                          elements=elements)


PAGE_FAULTS = """
import io, resource, sys, contextlib
sys.path.insert(0, sys.argv[1])
from sobolab.cli import main
argv = ["heat", "--model", "torus:n=2,res=56", "--seed", "4", "--out", "out"]
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[-1])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_a_repeated_job_reuses_the_pages_of_its_chunk_temporaries(tmp_path):
    """Each chunk frees and allocates about a dozen 1 MB temporaries on 3136
    nodes.  With glibc's default thresholds the heap's free top went back
    to the system after every chunk and a heat job faulted in about 9,600
    pages each time; the CLI keeps the chunk allowance mapped, so a repeated
    job in one interpreter faults in almost none."""
    src = str(Path(sobolab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", PAGE_FAULTS, src],
                          cwd=tmp_path, check=True, capture_output=True,
                          text=True)
    assert int(proc.stdout.splitlines()[-1]) < 1000


def test_nonfinite_result_is_a_one_line_error(tmp_path, capsys):
    # A = B = 0 makes the right-hand side vanish: the worst ratio is inf
    assert run(tmp_path, "verify", "--model", "torus:n=2,res=8", "--p", "1.5",
               "--A", "0", "--B", "0", "--seed", "1", "--size", "5") == 1
    one_line_error(capsys, "results.report.worst_ratio", "not finite")
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("times", ["0:inf:1", "-inf:0:1", "0:1:inf",
                                   "0:nan:0.1", "0,inf"])
def test_flow_rejects_nonfinite_times(tmp_path, capsys, times):
    assert run(tmp_path, "flow", f"--times={times}", "--seed", "1",
               "--size", "10") == 1
    one_line_error(capsys, "finite")


def test_heat_writes_an_infinite_exponent_as_inf(tmp_path):
    """The contraction check runs p = 1, 2 and inf; a worst case at p = inf
    used to make the artifact writer refuse the payload (exit 1)."""
    seen = set()
    for seed in ("1", "2", "3", "4"):
        out = tmp_path / seed
        assert main(["heat", "--model", "torus:n=2,res=8", "--generator",
                     "band-limited", "--seed", seed, "--out", str(out)]) == 0
        _, doc = read_artifact(out, "heat")
        seen.add(doc["results"]["contraction"]["worst_case"][1])
    assert seen <= {1.0, 2.0, "inf"}
    assert semigroup._case(5, [0.1], [1.0, 2.0, math.inf], 2) == (0.1, "inf", 1)


def test_heat_on_a_torus_makes_no_dense_eigendecomposition(tmp_path,
                                                           monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=16", "--seed", "2",
               "--size", "20", "--fit-window", "0.02,0.2",
               "--spectrum-csv") == 0


@pytest.mark.parametrize("argv, words", [
    (("riesz",), ["a seed is mandatory"]),
    (("verify", "--p", "2", "--A", "1", "--B", "1", "--seed", "1"), ["p < dim"]),
    (("verify", "--p", "1.5", "--A", "-1", "--B", "1", "--seed", "1"),
     ["A >= 0", "A=-1", "B=1"]),
    (("verify", "--p", "1.5", "--A", "nan", "--B", "1", "--seed", "1"),
     ["finite", "A=nan"]),
    (("verify", "--p", "1.5", "--A", "1", "--B", "inf", "--seed", "1"),
     ["finite", "B=inf"]),
    (("estimate", "--p", "2", "--seed", "1"), ["p < dim"]),
    (("w2p", "--p", "1.5", "--mu", "3", "--seed", "1"), ["w2p requires p"]),
    (("scaling", "--mu", "1", "--p", "1.5", "--seed", "1"), ["mu=1", "p=1.5"]),
    (("heat", "--fit-window", "1e-3", "--seed", "1"), ["--fit-window", "'1e-3'"]),
    (("heat", "--t-list", "abc", "--seed", "1"), ["--t-list", "'abc'"]),
    (("heat", "--t-list", "0.1,nan", "--seed", "1"), ["--t-list", "finite"]),
    (("heat", "--t-list", ",", "--seed", "1"), ["--t-list", "at least one"]),
    (("heat", "--t-list", "0.1,-1", "--seed", "1"), ["--t-list", "heat times"]),
    (("estimate", "--p", "1.2", "--b-grid", "1,x", "--seed", "1"),
     ["--b-grid", "'1,x'"]),
    (("estimate", "--p", "1.2", "--b-grid", "inf", "--seed", "1"),
     ["--b-grid", "finite"]),
    (("estimate", "--p", "1.2", "--b-grid", ",", "--seed", "1"),
     ["--b-grid", "at least one"]),
    (("estimate", "--p", "1.2", "--b-grid", "1,-1", "--seed", "1"),
     ["B >= 0", "B=-1"]),
    (("riesz", "--p", "1", "--seed", "1"), ["1 < p < inf", "p=1"]),
    (("riesz", "--p", "inf", "--seed", "1"), ["1 < p < inf", "p=inf"]),
    (("riesz", "--a", "-1", "--seed", "1"), ["a >= 0", "a=-1"]),
    (("w2p", "--p", "0.5", "--seed", "1"), ["p must be >= 1", "p=0.5"]),
    (("scaling", "--lam", "0.5", "--seed", "1"), ["lam >= 1", "lam=0.5"]),
    (("heat", "--fit-window", "1e-2,1e-3", "--seed", "1"),
     ["0 < t_low < t_high", "0.01, 0.001"]),
    (("heat", "--svg", "--seed", "1"), ["--svg", "--fit-window"]),
    (("scaling", "--mu", "inf", "--seed", "1"), ["finite", "mu=inf"]),
    (("w2p", "--mu", "inf", "--seed", "1"), ["finite", "--mu", "mu=inf"]),
    (("riesz", "--a", "inf", "--seed", "1"), ["finite", "a=inf"]),
    (("scaling", "--lam", "inf", "--seed", "1"), ["finite", "lam=inf"]),
], ids=["riesz-no-seed", "verify-p=n", "verify-A<0", "verify-A-nan",
        "verify-B-inf", "estimate-p=n", "w2p-p=mu/2", "scaling-mu<p",
        "heat-one-fit-window-value", "heat-t-list-not-a-number",
        "heat-t-list-nan", "heat-t-list-empty", "heat-t-list-negative",
        "estimate-b-grid-not-a-number",
        "estimate-b-grid-inf", "estimate-b-grid-empty",
        "estimate-b-grid-negative", "riesz-p=1",
        "riesz-p=inf", "riesz-a<0", "w2p-p<1", "scaling-lam<1",
        "heat-fit-window-reversed", "heat-svg-without-fit-window",
        "scaling-mu-inf", "w2p-mu-inf", "riesz-a-inf", "scaling-lam-inf"])
def test_bad_arguments_fail_before_the_model_is_built(tmp_path, capsys,
                                                      monkeypatch, argv, words):
    def refuse(*args, **kwargs):
        raise AssertionError("model built before the arguments were checked")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(cli, "decompose", refuse)
    argv = (*argv, "--model", "sphere:r=1,subdiv=4", "--size", "5")
    assert run(tmp_path, *argv) == 1
    one_line_error(capsys, *words)


@pytest.mark.parametrize("argv, words", [
    (("flow", "--flow", "sphere:r0=1e200,subdiv=1", "--seed", "1"),
     ["r0=1e+200", "singular time"]),
    (("bootstrap", "--n", "3", "--p0", "2", "--A", "1e300", "--B", "1e300",
      "--target", "2.9"), ["hop 1", "p = 2 -> ", "overflow"]),
], ids=["flow-sphere-radius", "bootstrap-hop"])
def test_float_overflow_is_refused_with_one_line(tmp_path, capsys, argv,
                                                 words):
    """A flow whose singular time, or a chain whose constants, overflow a
    float is refused at the boundary, naming its spec key or hop, with no
    traceback and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv) == 1
    one_line_error(capsys, *words)


def _run_quietly(tmp_path, *argv):
    """Exit status and artifact of a job run with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(tmp_path, *argv)
    paths = sorted(Path(tmp_path).glob(f"{argv[0]}_*.json"))
    return status, json.loads(paths[-1].read_text()) if paths else None


@pytest.mark.parametrize("argv, status", [
    (("w2p", "--model", "torus:n=3,res=6,L=1e200"), 1),
    (("riesz", "--model", "sphere:r=1e100,subdiv=1"), 0),
], ids=["w2p-underflow", "riesz-sphere-1e100"])
def test_a_mapping_norm_estimate_that_underflows_is_refused(tmp_path, capsys,
                                                            argv, status):
    """l^-2 takes w2p's positive H^-1 estimate on a 1e200 torus below
    floats: the job exits 1 with one line naming the estimate and the
    length, and writes no artifact; riesz on a 1e100 sphere, whose
    estimate is scale-invariant, still runs."""
    got, doc = _run_quietly(tmp_path, *argv, "--seed", "1")
    assert got == status
    if status:
        one_line_error(capsys, "H^-1 mapping-norm estimate", "underflows to 0",
                       "length 1.67e+199")
        assert not list(tmp_path.iterdir())
    else:
        assert doc["results"]["riesz"]["estimate"] > 0


# Specs a size bound refused before meshes were built at a reference size:
# each now runs, and an estimate (scale-invariant) agrees with the unit-size
# job on the same mesh.
FORMERLY_REFUSED = [
    ("estimate", "--p", "1.5", "--model", "torus:n=2,res=4,scale=1e200"),
    ("estimate", "--p", "1.5", "--model", "torus:n=2,res=4,scale=1e-200"),
    ("heat", "--model", "sphere:r=1e200,subdiv=1"),
    ("heat", "--model", "torus:n=2,res=4,L=1e300"),
    ("scaling", "--lam", "1e200", "--model", "torus:n=2,res=4"),
    ("heat", "--model", "torus:n=2,res=4,L=1e-160"),
    ("heat", "--model", "sphere:r=1e100,subdiv=1"),
    ("estimate", "--model", "torus:n=2,res=4,scale=1e-100", "--p", "1.5"),
    ("heat", "--model", "box:n=2,res=4,L=1e-160"),
    ("heat", "--model", "sphere:subdiv=1,scale=1e-160"),
]


@pytest.mark.parametrize("argv", FORMERLY_REFUSED, ids=[
    "scale-overflow", "scale-underflow", "sphere-radius", "torus-side",
    "scaling-lam", "torus-eigenvalues", "sphere-normals",
    "torus-member-gradient", "box-eigenvalues", "sphere-curvature"])
def test_sizes_past_the_old_bounds_run(tmp_path, argv):
    status, doc = _run_quietly(tmp_path / "job", *argv, "--seed", "1")
    assert status == 0
    if argv[0] == "estimate":
        model = argv[argv.index("--model") + 1].split(",scale=")[0]
        unit = list(argv)
        unit[argv.index("--model") + 1] = model
        assert _run_quietly(tmp_path / "unit", *unit, "--seed", "1")[0] == 0
        _, want = read_artifact(tmp_path / "unit", "estimate")
        got, want = doc["results"]["estimate"], want["results"]["estimate"]
        assert got["A_est"] == pytest.approx(want["A_est"], rel=1e-12)
        assert got["B_est"] == want["B_est"]


# The float-range jobs that leaked warnings or inf eigenvalues while sizes
# were checked spec key by spec key, and two at the ends of the range.
FLOAT_RANGE_JOBS = [
    ("heat", "--model", "box:n=2,res=4,L=1e154"),
    ("heat", "--model", "torus:n=2,res=16,scale=1e154"),
    ("heat", "--model", "sphere:subdiv=1,scale=1e154"),
    ("heat", "--model", "torus:n=2,res=4,L=5e-154"),
    ("heat", "--model", "box:n=2,res=4,L=3e-154"),
    ("estimate", "--model", "torus:n=3,res=4,L=1e103", "--p", "1.5"),
    ("estimate", "--model", "torus:n=3,res=8,L=1e-300", "--p", "1.5"),
]


@pytest.mark.parametrize("argv", FLOAT_RANGE_JOBS, ids=[
    "box-1e154", "torus-scale-1e154", "sphere-scale-1e154", "torus-5e-154",
    "box-3e-154", "estimate-1e103", "estimate-mixed-1e-300"])
def test_float_range_jobs_run_or_refuse_with_one_line(tmp_path, capsys, argv):
    """Each job exits 0 with finite fields (the artifact's JSON holds no
    inf or nan), or 1 with one line naming a field or a spec key; never
    with a warning."""
    status, doc = _run_quietly(tmp_path, *argv, "--seed", "1")
    if status == 1:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(r"is not finite|spec|r0=|L=|scale=", err), err
    else:
        assert status == 0 and doc is not None


def test_flow_on_a_sphere_past_the_float_range_names_r0(tmp_path, capsys):
    """r0 = 1e200 puts the singular time r0^2/2 past floats: the job runs
    as a shrinking sphere, or exits 1 with one line naming r0."""
    status, doc = _run_quietly(tmp_path, "flow", "--flow",
                               "sphere:r0=1e200,subdiv=1", "--size", "20",
                               "--seed", "1")
    if status == 1:
        one_line_error(capsys, "r0=1e+200")
    else:
        assert doc["results"]["trajectory"]["variant"] == "shrinking-sphere"


def test_estimates_are_bit_identical_at_every_size(tmp_path):
    """Bump members are drawn from the reference mesh's coordinates, so
    their estimate is the same float at any finite L; and the transfer
    check runs at lam = 1e200."""
    argv = ("estimate", "--generator", "bumps", "--p", "1.5", "--seed", "1")
    results = set()
    for length in ("1e-300", "1e-70", "6.283185307179586", "1e40", "1e300"):
        status, doc = _run_quietly(tmp_path / length, *argv, "--model",
                                   f"torus:n=3,res=8,L={length}")
        assert status == 0
        est = doc["results"]["estimate"]
        results.add((est["A_est"], est["B_est"], est["max_ratio"]))
    assert len(results) == 1
    status, doc = _run_quietly(tmp_path / "scaling", "scaling", "--lam",
                               "1e200", "--model", "torus:n=2,res=4",
                               "--size", "20", "--seed", "1")
    assert status == 0 and doc["results"]["transfer"]["lam"] == 1e200


# Jobs far from unit size: a spectrum read as 1 + mu / l^2 and shifted back
# by -1 lost mu / l^2 to roundoff, so the kernel grew or went negative.
FAR_FROM_UNIT_JOBS = [
    *(("estimate", "--p", "1.5", "--model", f"torus:n=3,res=8,L={length}")
      for length in ("1e-100", "1e9", "1e10", "1e100")),
    ("estimate", "--p", "1.5", "--model", "box:n=2,res=8,L=1e10"),
    ("estimate", "--p", "1.5", "--model", "sphere:r=1e100,subdiv=2"),
    ("riesz", "--model", "sphere:r=1e100,subdiv=1"),
]


@pytest.mark.parametrize("argv", FAR_FROM_UNIT_JOBS, ids=[
    "torus-1e-100", "torus-1e9", "torus-1e10", "torus-1e100", "box-1e10",
    "sphere-1e100", "riesz-sphere-1e100"])
def test_the_kernel_is_one_mode_at_every_size(tmp_path, argv):
    status, doc = _run_quietly(tmp_path, *argv, "--size", "20", "--seed", "7")
    assert status == 0
    assert doc["results"]["diagnostics"]["kernel_dim"] == 1


@pytest.mark.parametrize("r0", ["1e4", "1e8", "1e100"])
def test_a_round_sphere_flow_has_lambda0_a_quarter_of_r(tmp_path, r0):
    """lambda0(g(0)) of -Lap + R/4 is R/4 = 1/(2 r0^2) on a round sphere,
    and the b2 hypothesis lambda0 > 0 holds at any r0."""
    status, doc = _run_quietly(tmp_path, "flow", "--flow",
                               f"sphere:r0={r0},subdiv=2", "--theorem", "b2",
                               "--size", "20", "--seed", "7")
    assert status == 0
    lam0 = doc["results"]["trajectory"]["base_constants"]["lambda0_g0"]
    assert abs(lam0 * 2.0 * float(r0) ** 2 - 1.0) <= 1e-12


def test_specs_within_the_float_range_are_kept():
    """Every finite positive size is kept, and builds the same reference
    mesh as the unit-size spec: only the length differs."""
    for text in ("torus:n=2,res=4,L=1e-150", "torus:n=1,res=4,L=1e150",
                 "torus:n=2,res=4,scale=1e150", "sphere:r=1e76,subdiv=1",
                 "sphere:subdiv=1,scale=1e-150", "box:n=2,res=4,L=1e150",
                 "torus:n=1,res=4,L=1e155", "torus:n=2,res=4,L=1e100,"
                 "scale=1e100", "box:n=3,res=3,scale=1e-110",
                 "torus:n=2,res=4,L=1e-160", "sphere:r=1e150,subdiv=1"):
        m = manifold.build(text)
        unit = manifold.build(re.sub(r",(L|r|scale)=[^,]*", "", text))
        assert 0 < m.length < math.inf
        assert np.array_equal(m.mass, unit.mass)
        assert np.array_equal(m.points, unit.points)
    with pytest.raises(ValueError, match="not a finite positive float"):
        manifold.build("torus:n=2,res=4,L=1e300,scale=1e300")


@pytest.mark.parametrize("argv, words", [
    ((), ["required", "command"]),
    (("nope",), ["invalid choice", "'nope'"]),
    (("estimate", "--model", "torus:n=2,res=8", "--seed", "1"),
     ["required", "--p"]),
    (("ladder", "--n", "3", "--target", "2.9", "--bogus"),
     ["unrecognized", "--bogus"]),
    (("estimate", "--p", "1.2", "--seed", "1", "--generator", "x"),
     ["--generator", "invalid choice", "'x'"]),
    (("heat", "--seed", "x"), ["--seed", "invalid int", "'x'"]),
    (("estimate", "--p", "1.2", "--seed", "1", "--normalization", "none"),
     ["unrecognized", "--normalization"]),
], ids=["no-command", "unknown-command", "missing-flag", "unknown-flag",
        "bad-choice", "bad-type", "removed-normalization"])
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv, words):
    """Exit 2 means violations; a usage error is an error like any other."""
    with pytest.raises(SystemExit) as exit_:
        main([*argv, *(("--out", str(tmp_path)) if argv else ())])
    assert exit_.value.code == 1
    one_line_error(capsys, *words)


TORUS_JOBS = [
    ("heat", "--model", "torus:n=2,res=16", "--fit-window", "0.02,0.2",
     "--spectrum-csv"),
    ("riesz", "--model", "torus:n=2,res=12", "--p", "2"),
    ("scaling", "--model", "torus:n=3,res=6", "--lam", "2"),
    ("flow", "--flow", "torus:n=3,res=6", "--times", "0,0.5", "--theorem",
     "b3", "--p", "2.5"),
]


@pytest.mark.parametrize("argv", TORUS_JOBS, ids=[a[0] for a in TORUS_JOBS])
def test_torus_jobs_form_no_dense_eigenbasis(tmp_path, monkeypatch, argv):
    import numpy as np

    from sobolab import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("an N x N eigenbasis was formed")

    monkeypatch.setattr(spectral.FourierBasis, "columns", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run(tmp_path, *argv, "--seed", "3", "--size", "20") == 0


def test_heat_grid_job_peak_memory_is_below_one_dense_matrix(tmp_path):
    """The benchmark's heat-grid job on 56^2 nodes allocates less at its
    peak than one N x N float matrix (79 MB)."""
    import tracemalloc

    nodes = 56 ** 2
    tracemalloc.start()
    try:
        status = run(tmp_path, "heat", "--model", "torus:n=2,res=56",
                     "--t-list", "0.01,0.1,1", "--fit-window", "1e-3,1e-2",
                     "--svg", "--spectrum-csv", "--seed", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < nodes ** 2 * 8


THREADED_GRID_JOBS = [
    ("heat", "--model", "torus:n=2,res=56", "--fit-window", "1e-3,1e-2"),
    ("riesz", "--model", "torus:n=3,res=8"),
    ("estimate", "--model", "box:n=2,res=12", "--p", "1.5"),
]


def test_grid_reports_are_byte_identical_across_blas_thread_counts(tmp_path):
    """Torus and box jobs apply the eigenbasis by BLAS products along the
    grid axes; each entry's sum runs in the same order at any thread count,
    so the content-addressed artifact names agree."""
    src = str(Path(sobolab.__file__).resolve().parents[1])
    names = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        for argv in THREADED_GRID_JOBS:
            subprocess.run([sys.executable, "-m", "sobolab", *argv, "--seed", "5",
                            "--out", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        names.append(sorted(p.name for p in out.iterdir()))
    assert len(names[0]) == len(THREADED_GRID_JOBS)
    assert names[0] == names[1]


DENSE_THREAD_JOBS = [
    ("flow", "--theorem", "b2", "--size", "40"),
    ("scaling", "--model", "sphere:r=1,subdiv=2"),
]


def test_dense_reports_agree_across_blas_thread_counts(tmp_path):
    """Dense-path jobs (mirror-block solves and transforms) at 1 and 2 BLAS
    threads: the compare tool finds equal ints and witnesses and floats
    within its default rtol."""
    root = Path(sobolab.__file__).resolve().parents[2]
    dirs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        for argv in DENSE_THREAD_JOBS:
            subprocess.run([sys.executable, "-m", "sobolab", *argv, "--seed", "5",
                            "--out", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        dirs.append(out)
    assert len(list(dirs[0].glob("*.json"))) == len(DENSE_THREAD_JOBS)
    done = subprocess.run([sys.executable, str(root / "tools" / "compare_artifacts.py"),
                           *map(str, dirs)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout


@pytest.mark.slow
def test_heat_on_a_torus_past_the_dense_guard(tmp_path):
    """65,536 nodes: the Fourier basis adds no dense term to the memory
    budget, and the decay fit shows t^(-n/4) = t^(-1/2)."""
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=256",
               "--t-list", "0.01,0.1,1", "--fit-window", "1e-3,1e-2",
               "--seed", "7") == 0
    _, doc = read_artifact(tmp_path, "heat")
    assert doc["results"]["contraction"]["violations"] == 0
    assert doc["results"]["ultracontractivity"]["slope"] == pytest.approx(
        -0.5, abs=0.1)


@pytest.mark.parametrize("argv", [
    ("heat", "--model", "torus:n=2,res=16"),
    ("flow", "--flow", "torus:n=3,res=6", "--times", "0,0.5", "--theorem",
     "b3", "--p", "2.5"),
], ids=["heat", "flow"])
def test_huge_ensemble_size_is_refused_before_building(tmp_path, capsys,
                                                       monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("model built before the size was checked")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(fl, "build", refuse)
    assert run(tmp_path, *argv, "--seed", "1", "--size", "1000000000") == 1
    one_line_error(capsys, "1000000000 members", "needs a predicted",
                   "memory budget")


PEAK_RSS = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


@pytest.mark.slow
def test_estimate_on_a_subdivision_five_sphere_fits_the_memory_budget(tmp_path):
    """10,242 nodes solve in the 8 mirror blocks of an icosphere: the job
    exits 0, and its peak RSS stays under the memory budget its prediction
    was checked against.  tools/peak_rss.py reads the job's own high-water
    mark (VmHWM): ru_maxrss after exec starts from the RSS of the process
    that spawned it, here pytest's."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(PEAK_RSS),
         "--max-mb", str(manifold.MEMORY_BUDGET / 2 ** 20), "--", "estimate",
         "--model", "sphere:r=1,subdiv=5", "--p", "1.2", "--seed", "7",
         "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.startswith("exit 0, VmHWM "), proc.stdout
    _, doc = read_artifact(tmp_path, "estimate")
    assert doc["results"]["diagnostics"]["mirrors"] == 3


def test_peak_rss_fails_a_job_over_its_bound_or_with_an_error(tmp_path):
    """tools/peak_rss.py prints the job's exit status and its own VmHWM,
    and fails when either is out of bounds."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")

    def peak(bound, *argv):
        return subprocess.run(
            [sys.executable, str(PEAK_RSS), "--max-mb", bound,
             "--", *argv, "--out", str(tmp_path)], capture_output=True,
            text=True)

    ladder = ("ladder", "--n", "3", "--target", "2.9")
    within, over = peak("1000", *ladder), peak("1", *ladder)
    assert within.returncode == 0 and over.returncode == 1
    for proc in (within, over):
        assert re.fullmatch(r"exit 0, VmHWM \d+\.\d MB \(bound \d+ MB\)\n",
                            proc.stdout), proc.stdout
    failed = peak("1000", "ladder", "--n", "3", "--target", "5")
    assert failed.returncode == 1 and failed.stdout.startswith("exit 1, ")


SEEDED_JOBS = [
    ("estimate", "--model", "torus:n=2,res=8", "--p", "1.2"),
    ("verify", "--model", "torus:n=2,res=8", "--p", "1.2", "--A", "50",
     "--B", "50"),
    ("heat", "--model", "torus:n=2,res=8"),
    ("riesz", "--model", "torus:n=2,res=8"),
    ("w2p", "--model", "torus:n=3,res=4"),
    ("scaling", "--model", "torus:n=3,res=4"),
    ("flow", "--flow", "sphere:r0=1,subdiv=1", "--times", "0:0.2:0.1"),
]


def _key_names(tree) -> list[tuple[str, ...]]:
    """The path of every object key in a plain JSON tree (list items add no
    step to the path)."""
    if isinstance(tree, list):
        return [path for item in tree for path in _key_names(item)]
    if not isinstance(tree, dict):
        return []
    return [(key, *path) for key, value in tree.items()
            for path in [()] + _key_names(value)]


@pytest.mark.parametrize("argv", SEEDED_JOBS, ids=[a[0] for a in SEEDED_JOBS])
def test_seeded_artifact_records_the_ensemble_constants_once(tmp_path, argv):
    """Every command that draws an ensemble records its fixed constants at
    results.ensemble and nowhere else, and no removed setting survives."""
    assert run(tmp_path, *argv, "--seed", "1", "--size", "10") == 0
    _, doc = read_artifact(tmp_path, argv[0])
    paths = _key_names(doc)
    assert [p for p in paths if p[-1] == "ensemble"] == [("results", "ensemble")]
    assert doc["results"]["ensemble"] == {"decay": 2.0, "modes": 40,
                                          "bumps": 6}
    removed = {"normalization", "ensemble_meta", "mesh_level"}
    assert not [p for p in paths if p[-1] in removed]


def _readme_cli_lines() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sobolab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every example of the README's CLI block runs (verify may find a
    violation), and its closing report indexes the others."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOBOLAB_OUT", raising=False)
    lines = _readme_cli_lines()
    assert lines[-1][:2] == ["sobolab", "report"]
    for argv in lines:
        try:
            status = main(argv[1:])
        except SystemExit as exc:  # a usage error
            status = exc.code
        assert status in (0, 2), argv  # 2: a finding, such as a violation
    _, doc = read_artifact(tmp_path / "sobolab-out", "report")
    assert sorted(e["command"] for e in doc["results"]["artifacts"]) == sorted(
        argv[1] for argv in lines[:-1])


def test_help_lists_every_command_and_a_commands_flags(capsys):
    """main adds only the invoked command's arguments, but every command
    stays registered: the top-level help lists them all, and a command's
    help lists its own flags."""
    with pytest.raises(SystemExit) as top:
        main(["--help"])
    text = capsys.readouterr().out
    assert top.value.code == 0
    assert all(name in text for name in cli._COMMANDS)
    with pytest.raises(SystemExit) as heat:
        main(["heat", "--help"])
    text = capsys.readouterr().out
    assert heat.value.code == 0
    assert all(flag in text for flag in (
        "--model", "--seed", "--size", "--t-list", "--fit-window", "--svg",
        "--spectrum-csv", "--beta-csv"))


@pytest.mark.slow
def test_heat_matrices_of_many_times_are_within_the_budget(tmp_path,
                                                           monkeypatch):
    """A heat job of 50 times on a 256^2 torus holds one axis heat matrix
    per time (0.5 MB each), and its traced peak stays under the budget's
    prediction, which counts them.  A first one-member run leaves out what
    the first job in a process allocates once."""
    import tracemalloc

    taken = []
    axes = spectral._heat_axes
    monkeypatch.setattr(spectral, "_heat_axes",
                        lambda *a: taken.append(axes(*a)) or taken[-1])
    times = ",".join(f"{t:g}" for t in np.geomspace(1e-3, 1.0, 50))
    argv = ("heat", "--model", "torus:n=2,res=256", "--t-list", times,
            "--seed", "3")
    assert run(tmp_path, *argv, "--size", "1") == 0
    tracemalloc.start()
    try:
        status = run(tmp_path, *argv, "--size", "30")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert taken[0] is None and len(taken[1]) == 50
    assert peak <= manifold._check_budget("", 256 ** 2, 0, 0, 30, axis=256,
                                          elements=256 ** 2, matrices=50)
