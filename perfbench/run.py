"""The sobolab benchmark: fixed lists of CLI jobs, timed end to end and per layer.

Run from the root of a source checkout (the one holding ``src/sobolab``):

    python3 perfbench/run.py --workload flow-sphere --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off:
  setup_s      median time for a fresh interpreter to finish ``import sobolab.cli``
               (two interpreters after each pass over the jobs)
  wall_s       one pass over the workload's jobs in-process after set-up
               (sum over jobs of each job's median time over the passes run
               in ``--seconds``)
  peak_rss_mb  ru_maxrss of the process that ran the jobs
  pass_ratio   jobs that returned the expected status and passed their
               output checks, divided by jobs attempted

``--trace 1`` runs the job list once untraced and once with every public
sobolab function wrapped (see ``tracer.py``), each in a fresh interpreter,
times imports with ``python -X importtime`` and reports per-layer call counts
and times.  It fails if a sobolab namespace still binds an unwrapped
function, or if the traced and untraced passes wrote different artifacts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata (machine, libraries, BLAS threads, commit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import metric_unit  # noqa: E402

BLAS_THREADS = 1  # steadier timings on a shared machine than the default pool
IMPORTTIME_SPAWNS = 3
CHILD_TIMEOUT_S = 150
TMP_DIR = ".perfbench-tmp"
IMPORT_METRICS = {"sobolab": "import.sobolab_s",
                  "scipy.integrate": "import.scipy_integrate_s",
                  "scipy.sparse": "import.scipy_sparse_s",
                  "mpmath": "import.mpmath_s"}


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SOBOLAB_OUT")}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _import_seconds(env: dict, root: Path) -> dict:
    """Median cumulative import time of selected modules (0 if not imported)."""
    samples = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sobolab.cli"],
            env=env, cwd=root, check=True, capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for module, name in IMPORT_METRICS.items():
            samples[name].append(seen.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _run_child(args, env, root: Path, tmp: Path, tag: str, seconds: float,
               trace: bool = False) -> dict:
    result = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--out", str(tmp / "out"), "--result", str(result),
           "--src", str(root / "src")]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def _wall(child: dict) -> float:
    return sum(statistics.median(job) for job in zip(*child["passes"]))


def _metadata(root: Path, child: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": str(root.parent)})
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas_threads": BLAS_THREADS,
            "git_commit": commit, **child["libraries"]}


def _measure(args, root: Path, tmp: Path):
    """Return (metrics, attempted, failed, problems, child result)."""
    env = _child_env(root)
    if not args.trace:
        # an untimed import first writes the bytecode caches
        subprocess.run([sys.executable, "-c", "import sobolab.cli"], env=env,
                       cwd=root, check=True)
        child = _run_child(args, env, root, tmp, "plain", args.seconds)
        attempted, failed = child["attempted"], child["failed"]
        metrics = {
            "setup_s": (statistics.median(child["setup_times"]), "s"),
            "wall_s": (_wall(child), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        return metrics, attempted, failed, child["problems"], child

    imports = _import_seconds(env, root)
    # one pass each, so counts are per pass and the overhead compares like
    # with like
    plain = _run_child(args, env, root, tmp, "plain", 0)
    traced = _run_child(args, env, root, tmp, "traced", 0, trace=True)
    problems = plain["problems"] + traced["problems"]
    problems += [f"unwrapped original bound at {name}" for name in traced["unwrapped"]]
    if plain["artifact_names"] != traced["artifact_names"]:
        problems.append("traced and untraced passes wrote different artifacts: "
                        f"{plain['artifact_names']} vs {traced['artifact_names']}")
    if traced["layers"]["cli.calls"] != traced["attempted"]:
        problems.append("the tracer missed CLI calls")
    metrics = {name: (value, metric_unit(name))
               for name, value in traced["layers"].items()}
    metrics.update({name: (value, "s") for name, value in imports.items()})
    metrics["reporting.artifact_bytes"] = (traced["artifact_bytes"], "B")
    metrics["trace.overhead_ratio"] = (_wall(traced) / _wall(plain), "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, problems, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "sobolab" / "cli.py").is_file():
        print(f"error: no sobolab source tree at {root / 'src'}; run from the "
              "root of a sobolab checkout", file=sys.stderr)
        return 2

    (root / TMP_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / TMP_DIR))
    try:
        metrics, attempted, failed, problems, child = _measure(args, root, tmp)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (root / TMP_DIR).rmdir()
        except OSError:  # another run still uses it
            pass

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:45s} {value:14.6g} {unit}")
    print(json.dumps({"run_metadata": _metadata(root, child)}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
