"""tools/bench_json.py on synthetic perfbench outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_json.py"


def write_run(runs_dir, workload, seed, side, trace, metrics):
    lines = [f"{workload} {name} {value} s" for name, value in metrics.items()]
    lines.append(json.dumps({"run_metadata": {"nproc": 2, "blas_threads": 1}}))
    lines.append(json.dumps({
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
    path = runs_dir / f"{workload}.{seed}.{side}.trace{trace}.out"
    path.write_text("\n".join(lines) + "\n")


def run_tool(runs_dir, out):
    return subprocess.run(
        [sys.executable, str(TOOL), str(runs_dir), "--out", str(out),
         "--title", "t", "--parent-commit", "abc", "--claim",
         "heat-grid:setup_s", "--seeds", "1-3",
         "--benchmark", str(ROOT / "BENCHMARK.json")],
        capture_output=True, text=True)


def test_summary_counts_pairs_in_each_metrics_better_direction(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    parent = [(0.60, 1.0), (0.70, 1.0), (0.65, 1.0)]
    change = [(0.30, 1.0), (0.80, 1.0), (0.32, 1.0)]
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        write_run(runs, "heat-grid", seed, "parent", 0,
                  {"setup_s": p[0], "pass_ratio": p[1]})
        write_run(runs, "heat-grid", seed, "change", 0,
                  {"setup_s": c[0], "pass_ratio": c[1]})
    write_run(runs, "heat-grid", 3, "parent", 1, {"spectral.self_s": 0.5})
    write_run(runs, "heat-grid", 3, "change", 1, {"spectral.self_s": 0.25})
    out = tmp_path / "BENCH.json"
    proc = run_tool(runs, out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    setup = doc["summary"]["heat-grid"]["setup_s"]
    assert setup["parent"]["median"] == 0.65 and setup["change"]["median"] == 0.32
    assert setup["parent"]["n"] == setup["pairs"] == 3
    assert setup["change_better_pairs"] == 2  # lower is better; seed 2 lost
    assert doc["summary"]["heat-grid"]["pass_ratio"]["change_better_pairs"] == 0
    assert set(doc["summary"]["heat-grid"]) == {"setup_s", "pass_ratio"}
    assert doc["trace_heat_grid_seed_3"] == {
        "parent": {"spectral.self_s": 0.5}, "change": {"spectral.self_s": 0.25}}
    assert doc["claim"] == {"workload": "heat-grid", "metric": "setup_s",
                            "seeds": "1-3"}
    assert len(doc["runs"]) == 8
    assert doc["runs"][0]["metadata"]["run_metadata"]["nproc"] == 2


@pytest.mark.parametrize("name, text", [
    ("heat-grid.1.both.trace0.out", ""),
    ("heat-grid.1.parent.trace0.out", "only one line\n"),
])
def test_unreadable_runs_fail_with_one_line(tmp_path, name, text):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / name).write_text(text)
    proc = run_tool(runs, tmp_path / "BENCH.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
