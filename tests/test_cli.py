import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sobolab
from sobolab import flow as fl
from sobolab import cli, manifold, semigroup, spectral
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


@pytest.mark.parametrize("argv, path", [
    (("heat", "--model", "torus:n=2,res=8"), "fourier"),
    (("riesz", "--model", "box:n=2,res=6", "--p", "1.5"), "dense"),
    (("flow", "--flow", "sphere:r0=1,subdiv=1", "--times", "0:0.2:0.1",
      "--theorem", "d2", "--p", "1.5"), "dense"),
], ids=["torus-heat", "box-riesz", "sphere-flow"])
def test_artifact_diagnostics_repeat_byte_for_byte(tmp_path, monkeypatch,
                                                   argv, path):
    """Each artifact names its decomposition path and the bare Laplacian's
    kernel dimension, inside the hashed payload, and a rerun reproduces it
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
                                             "kernel_dim": 1}


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


def test_model_scale_option(tmp_path):
    assert run(tmp_path, "estimate", "--model", "torus:n=2,res=16,scale=2",
               "--p", "1.2", "--seed", "8", "--size", "30") == 0
    _, doc = read_artifact(tmp_path, "estimate")
    assert "scale2" in doc["results"]["model"]


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
], ids=["missing", "malformed", "list", "bad-size", "bad-switch", "number-model"])
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


def test_flow_honours_normalization(tmp_path, monkeypatch):
    seen = []

    def capture(flow, times, selector, p, ensemble, **kw):
        seen.append(ensemble)
        raise ValueError("stop after the ensemble spec")

    monkeypatch.setattr(fl, "track", capture)
    assert run(tmp_path, "flow", "--seed", "1", "--size", "10",
               "--normalization", "unit-l2") == 1
    assert [spec.normalization for spec in seen] == ["unit-l2"]


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


@pytest.mark.parametrize("argv, transforms", [
    (("flow", "--flow", "sphere:r0=1,subdiv=2", "--theorem", "b2"), 1),
    (("scaling", "--model", "torus:n=3,res=8"), 1),
    (("riesz", "--model", "torus:n=2,res=12"), 2),
    (("heat", "--model", "torus:n=2,res=12"), 1),
], ids=["flow-b2", "scaling", "riesz", "heat"])
def test_member_matrix_transforms_per_job(tmp_path, monkeypatch, argv,
                                          transforms):
    """Every f(H) of one member matrix shares one forward transform: flow b2
    one for its t = 0 constant and all nine times (each a Bessel multiplier
    on the same bare spectrum), scaling one for both metrics, riesz one for
    the Riesz scan and one for the three Bessel-type operators, heat one for
    all times."""
    size, seen = 30, []
    for cls in (spectral.DenseBasis, spectral.FourierBasis):
        def spy(self, u, k=None, original=cls.coefficients):
            if k is None and np.ndim(u) == 2 and len(u) == size:
                seen.append(type(self).__name__)
            return original(self, u, k)
        monkeypatch.setattr(cls, "coefficients", spy)
    assert run(tmp_path, *argv, "--seed", "1", "--size", str(size)) in (0, 2)
    assert len(seen) == transforms, seen


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
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run(tmp_path, "heat", "--model", "torus:n=2,res=16", "--seed", "2",
               "--size", "20", "--fit-window", "0.02,0.2",
               "--spectrum-csv") == 0


@pytest.mark.parametrize("argv, words", [
    (("riesz",), ["a seed is mandatory"]),
    (("verify", "--p", "2", "--A", "1", "--B", "1", "--seed", "1"), ["p < dim"]),
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
], ids=["riesz-no-seed", "verify-p=n", "estimate-p=n", "w2p-p=mu/2", "scaling-mu<p",
        "heat-one-fit-window-value", "heat-t-list-not-a-number",
        "heat-t-list-nan", "heat-t-list-empty", "heat-t-list-negative",
        "estimate-b-grid-not-a-number",
        "estimate-b-grid-inf", "estimate-b-grid-empty"])
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
    ((), ["required", "command"]),
    (("nope",), ["invalid choice", "'nope'"]),
    (("estimate", "--model", "torus:n=2,res=8", "--seed", "1"),
     ["required", "--p"]),
    (("ladder", "--n", "3", "--target", "2.9", "--bogus"),
     ["unrecognized", "--bogus"]),
    (("estimate", "--p", "1.2", "--seed", "1", "--generator", "x"),
     ["--generator", "invalid choice", "'x'"]),
    (("heat", "--seed", "x"), ["--seed", "invalid int", "'x'"]),
], ids=["no-command", "unknown-command", "missing-flag", "unknown-flag",
        "bad-choice", "bad-type"])
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
    import scipy.linalg

    from sobolab import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("an N x N eigenbasis was formed")

    monkeypatch.setattr(spectral.FourierBasis, "columns", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
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


THREADED_TORUS_JOBS = [
    ("heat", "--model", "torus:n=2,res=56", "--fit-window", "1e-3,1e-2"),
    ("riesz", "--model", "torus:n=3,res=8"),
]


def test_torus_reports_are_byte_identical_across_blas_thread_counts(tmp_path):
    """Torus jobs apply the eigenbasis by BLAS products along the grid axes;
    each entry's sum runs in the same order at any thread count, so the
    content-addressed artifact names agree."""
    src = str(Path(sobolab.__file__).resolve().parents[1])
    names = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        for argv in THREADED_TORUS_JOBS:
            subprocess.run([sys.executable, "-m", "sobolab", *argv, "--seed", "5",
                            "--out", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        names.append(sorted(p.name for p in out.iterdir()))
    assert len(names[0]) == len(THREADED_TORUS_JOBS)
    assert names[0] == names[1]


@pytest.mark.slow
def test_heat_on_a_torus_past_the_dense_guard(tmp_path):
    """65,536 nodes: the Fourier basis needs no node guard, and the decay
    fit shows t^(-n/4) = t^(-1/2)."""
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
    one_line_error(capsys, "1000000000 members", "member matrix guard")
