"""Collect paired ``perfbench/run.py`` outputs into one ``BENCH_<PR>.json``.

Save the stdout of each benchmark run in RUNS_DIR as
``<workload>.<seed>.<side>.trace<0|1>.out``, side ``parent`` or ``change``,
for example ``heat-grid.1201.change.trace0.out``.  Then

    python tools/bench_json.py RUNS_DIR --out BENCH_12.json \
        --title "..." --parent-commit SHA --claim heat-grid:setup_s \
        --seeds "1201-1210" --protocol "..."

writes the layout of ``BENCH_10.json``:

- ``summary``: for every workload and end-to-end metric of the untraced
  runs, each side's median, quartiles (``statistics.quantiles``, exclusive
  method) and run count, and how many of the (workload, seed) pairs the
  change won, strictly, in the metric's better direction (read from
  ``BENCHMARK.json``);
- ``trace_<workload>_seed_<seed>``: both sides' per-layer metrics of each
  traced pair;
- ``runs``: every run's workload, seed, side, trace flag, run metadata and
  result line, as ``run.py`` printed them.

It reads the last two lines of each output (the run metadata and the result)
and measures nothing itself.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

NAME = re.compile(r"(?P<workload>[\w-]+)\.(?P<seed>\d+)\.(?P<side>parent|change)"
                  r"\.trace(?P<trace>[01])\.out")
SIDES = ("parent", "change")
DIGITS = 4


def read_run(path: Path) -> dict:
    """One run: the fields of its file name, its metadata and result lines."""
    match = NAME.fullmatch(path.name)
    if match is None:
        raise ValueError(f"{path.name}: not <workload>.<seed>.<side>.trace<k>.out")
    lines = path.read_text().strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"{path.name}: no metadata and result lines")
    metadata, result = (json.loads(line) for line in lines[-2:])
    if "run_metadata" not in metadata or "metrics" not in result:
        raise ValueError(f"{path.name}: last two lines are not run.py's output")
    return {"workload": match["workload"], "seed": int(match["seed"]),
            "side": match["side"], "trace": int(match["trace"]),
            "metadata": metadata, "result": result}


def _stats(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": round(statistics.median(values), DIGITS),
            "q1": round(q1, DIGITS), "q3": round(q3, DIGITS), "n": len(values)}


def summarize(runs: list, better: dict) -> dict:
    """Per workload and end-to-end metric: both sides' statistics and the
    number of seed pairs the change won."""
    summary = {}
    plain = [r for r in runs if r["trace"] == 0]
    for workload in sorted({r["workload"] for r in plain}):
        by_seed = {}
        for r in plain:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [s for s in by_seed.values() if all(side in s for side in SIDES)]
        rows = {}
        for metric, direction in better.items():
            if not pairs or metric not in pairs[0]["parent"]:
                continue
            value = {side: [p[side][metric]["value"] for p in pairs] for side in SIDES}
            sign = -1.0 if direction == "lower" else 1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
            rows[metric] = {side: _stats(value[side]) for side in SIDES}
            rows[metric].update(change_better_pairs=won, pairs=len(pairs))
        summary[workload] = rows
    return summary


def traces(runs: list) -> dict:
    """Both sides' per-layer metrics of every traced (workload, seed) pair."""
    out = {}
    for r in runs:
        if r["trace"] == 1:
            key = f"trace_{r['workload'].replace('-', '_')}_seed_{r['seed']}"
            out.setdefault(key, {})[r["side"]] = {
                name: m["value"] for name, m in r["result"]["metrics"].items()}
    return out


def bench_command(bench: dict) -> str:
    return " ".join(bench["command"]) + (
        " --workload <workload> --seed <seed> --seconds "
        f"{bench['run_seconds']:g} --trace <0|1>")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("runs_dir", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    ap.add_argument("--seeds", required=True,
                    help="the claim's seeds, as the protocol names them")
    ap.add_argument("--protocol", default="")
    ap.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args(argv)

    try:
        bench = json.loads(args.benchmark.read_text())
        runs = [read_run(p) for p in sorted(args.runs_dir.glob("*.out"))]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not runs:
        print(f"error: no *.out runs in {args.runs_dir}", file=sys.stderr)
        return 1
    workload, _, metric = args.claim.partition(":")
    runs.sort(key=lambda r: (r["trace"], r["workload"], r["seed"],
                             SIDES.index(r["side"])))
    doc = {
        "title": args.title,
        "parent_commit": args.parent_commit,
        "command": bench_command(bench),
        "protocol": args.protocol,
        "claim": {"workload": workload, "metric": metric, "seeds": args.seeds},
        "summary": summarize(runs, {m["name"]: m["better"]
                                    for m in bench["end_to_end"]}),
        **traces(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
