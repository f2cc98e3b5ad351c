"""Run one workload's job list in this fresh interpreter; write a JSON result.

Started by ``run.py``, one process per measurement:

    python perfbench/child.py --workload W --seed N --seconds S \
        --out DIR --result FILE --src SRC [--trace]

The job list is run over and over, each pass into a freshly emptied output
directory, as long as one more pass is expected to end within ``--seconds``
(at least once).  After each pass two fresh interpreters time
``import sobolab.cli``, so set-up samples are spread over the whole run,
which averages over the machine's load drift.  Each job's artifacts are
checked after its pass, outside the timed region.  With ``--trace`` every
public sobolab function is wrapped by ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_SPAWNS_PER_PASS = 2


def _run_job(main, job, argv, out: Path):
    """Time one CLI call; return (seconds, problems)."""
    buf = io.StringIO()
    status, problems = None, []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crashing job is counted, not fatal
        problems.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if problems:
        return seconds, problems
    if status != 0:
        return seconds, [f"exit status {status!r}, expected 0"]
    try:
        # main prints the artifact path first; the rest of stdout is truncated
        path = Path(buf.getvalue().splitlines()[0])
        problems = job.check(json.loads(path.read_text()))
    except Exception as exc:  # an unreadable artifact fails the job's checks
        problems = [f"artifact check raised {type(exc).__name__}: {exc}"]
    return seconds, problems


def _setup_times(count: int) -> list:
    """Wall times of fresh interpreters that import sobolab.cli."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sobolab.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return times


def _library_metadata() -> dict:
    import numpy
    import scipy

    def blas(lib):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--src", required=True,
                    help="the source tree sobolab must be imported from")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import sobolab.cli
    src = Path(args.src).resolve()
    if src not in Path(sobolab.cli.__file__).resolve().parents:
        print(f"sobolab was imported from {sobolab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    jobs = workloads.WORKLOADS[args.workload]
    argvs = workloads.job_argvs(args.workload, args.seed)
    passes, setup, problems, names = [], [], [], []
    failed = artifact_bytes = 0
    # every pass writes to the same directory, removed after the pass:
    # results embed the paths of the CSV/SVG files they write, and so do
    # artifact names
    out = Path(args.out)
    start = time.perf_counter()
    while True:
        times = []
        for job, argv in zip(jobs, argvs):
            # resolved per call, so the traced run goes through the wrapper
            seconds, job_problems = _run_job(sobolab.cli.main, job, argv, out)
            times.append(seconds)
            failed += bool(job_problems)
            problems += [f"pass {len(passes)} {argv[0]}: {p}" for p in job_problems]
        passes.append(times)
        files = sorted(out.iterdir()) if out.is_dir() else []
        names.append([p.name for p in files])
        artifact_bytes = sum(p.stat().st_size for p in files)
        shutil.rmtree(out, ignore_errors=True)
        setup += _setup_times(SETUP_SPAWNS_PER_PASS)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    if any(n != names[0] for n in names):
        problems.append("passes with the same seeds wrote different artifact names")
    result = {
        "passes": passes,
        "setup_times": setup,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "problems": problems,
        "artifact_names": names[0],
        "artifact_bytes": artifact_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "libraries": _library_metadata(),
    }
    if tracer is not None:
        result["unwrapped"] = tracer.unwrapped_bindings()
        result["layers"] = tracer.metrics()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
