"""Run one sobolab command in a fresh interpreter and report its own peak RSS.

    python tools/peak_rss.py --max-mb MB -- COMMAND [ARGS...]

for example

    python tools/peak_rss.py --max-mb 70 -- flow --flow sphere:r0=1,subdiv=4 \
        --theorem a2 --seed 7 --out /tmp/peak

The child interpreter calls ``sobolab.cli.main`` on COMMAND ARGS (with the
repo's ``src`` first on its path) and then reads its own high-water mark,
``VmHWM`` in ``/proc/self/status``.  A parent's
``RUSAGE_CHILDREN`` ``ru_maxrss`` overstates a child's peak: after exec it
starts from the RSS of the process that spawned it.

Prints ``exit <status>, VmHWM <peak> MB (bound <MB> MB)`` (MB = 2^20
bytes).  Exit status 0 when the command exited 0 and its peak is below MB;
1 otherwise, also when there is no VmHWM to read (no /proc).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import sobolab.cli
status = sobolab.cli.main(sys.argv[2:])
with open('/proc/self/status') as f:
    peak = next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))
print(f'\\nVmHWM {peak}', flush=True)
sys.exit(status)
"""


def peak_rss(argv: list[str]) -> tuple[int, float | None]:
    """(exit status, VmHWM in MB or None) of ``sobolab`` ARGV in a child."""
    proc = subprocess.run([sys.executable, "-c", CHILD, SRC, *argv],
                          stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").rpartition("\n")[2].split()
    peak = int(last[1]) / 1024 if last[:1] == ["VmHWM"] else None
    return proc.returncode, peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="fail unless the peak is below this many MB")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the sobolab command and its flags, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no sobolab command given")
    status, peak = peak_rss(command)
    shown = "unavailable" if peak is None else f"{peak:.1f} MB"
    print(f"exit {status}, VmHWM {shown} (bound {args.max_mb:g} MB)")
    return int(status != 0 or peak is None or not peak < args.max_mb)


if __name__ == "__main__":
    sys.exit(main())
