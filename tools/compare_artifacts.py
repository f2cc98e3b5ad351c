"""Compare two directories of sobolab artifacts within a relative tolerance.

    python tools/compare_artifacts.py A_DIR B_DIR [--rtol 1e-12]

Artifacts (the JSON files a command writes to its --out directory) are
paired by (command, config_sha256).  Each pair must have the same keys and
list lengths and equal ints, bools and strings; floats may differ by rtol
relative, and a field that is 0 in exact arithmetic (a key of
ZERO_FIELD_FLOOR) also by its absolute floor, below which it is roundoff.
A string naming a content-addressed file <stem>_<12 hex>.<ext> is compared
by stem and extension, and a CSV it names (looked up next to the artifact)
is compared cell by cell under the same rules.  A list of artifact entries,
as in a report artifact, is compared in (command, config_sha256) order.

The report gives the largest relative float deviation per field path (list
indices folded to []), the pairs whose file names differ, and the artifacts
found in one directory only.  Exit status 0 when everything agrees, 1
otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

ADDRESSED = re.compile(r"(?P<stem>[^/\\]+)_[0-9a-f]{12}\.(?P<ext>\w+)$")
# field name -> absolute difference that counts as agreement: residuals that
# are 0 in exact arithmetic, whose relative difference measures only roundoff
ZERO_FIELD_FLOOR = {"scaling_error": 1e-12}


def _cell(text: str):
    """A CSV cell as the int, float or string it was written from."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _index_order(items: list) -> list:
    """A list of artifact entries (the report command's index, ordered by file
    name) in (command, config_sha256) order instead, which no rename changes."""
    if items and all(isinstance(x, dict) and "config_sha256" in x for x in items):
        return sorted(items, key=lambda x: (str(x.get("command")),
                                            str(x["config_sha256"])))
    return items


def _read_csv(path: Path) -> list[list]:
    with path.open(newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


class Comparison:
    """Walks paired values, keeping the worst float deviation per field."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.worst: dict[str, float] = {}
        self.problems: list[str] = []
        self.renamed: list[str] = []

    def value(self, path: str, a, b, dirs: tuple[Path, Path]) -> None:
        if type(a) is not type(b):
            self.problems.append(f"{path}: {a!r} != {b!r} (type differs)")
        elif isinstance(a, dict):
            if a.keys() != b.keys():
                self.problems.append(
                    f"{path}: keys {sorted(a.keys() ^ b.keys())} in one side only")
            for key in sorted(a.keys() & b.keys()):
                self.value(f"{path}.{key}" if path else key, a[key], b[key], dirs)
        elif isinstance(a, list):
            if len(a) != len(b):
                self.problems.append(f"{path}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(_index_order(a), _index_order(b))):
                self.value(f"{path}[{i}]", x, y, dirs)
        elif isinstance(a, float):
            self.number(path, a, b)
        elif isinstance(a, str) and ADDRESSED.search(a) and ADDRESSED.search(b):
            self.addressed(path, a, b, dirs)
        elif a != b:
            self.problems.append(f"{path}: {a!r} != {b!r}")

    def number(self, path: str, a: float, b: float) -> None:
        rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
        field = re.sub(r"\[\d+\]", "[]", path)
        self.worst[field] = max(self.worst.get(field, 0.0), rel)
        floor = ZERO_FIELD_FLOOR.get(path.rsplit(".", 1)[-1], 0.0)
        if not (rel <= self.rtol or abs(a - b) <= floor):
            self.problems.append(f"{path}: {a!r} vs {b!r} "
                                 f"(relative {rel:.3g} > {self.rtol:g})")

    def addressed(self, path: str, a: str, b: str,
                  dirs: tuple[Path, Path]) -> None:
        ma, mb = ADDRESSED.search(a), ADDRESSED.search(b)
        if (ma["stem"], ma["ext"]) != (mb["stem"], mb["ext"]):
            self.problems.append(f"{path}: {a!r} and {b!r} name different files")
            return
        name_a, name_b = Path(a).name, Path(b).name
        if name_a != name_b:
            self.renamed.append(f"{name_a} -> {name_b}")
        if ma["ext"] != "csv":
            return
        files = dirs[0] / name_a, dirs[1] / name_b
        missing = [str(f) for f in files if not f.is_file()]
        if missing:
            self.problems.append(f"{path}: CSV not found: {', '.join(missing)}")
            return
        rows_a, rows_b = (_read_csv(f) for f in files)
        if rows_a[:1] != rows_b[:1]:
            self.problems.append(f"{path}: CSV headers differ")
            return
        header = rows_a[0] if rows_a else []
        if len(rows_a) != len(rows_b):
            self.problems.append(
                f"{path}: CSV has {len(rows_a) - 1} != {len(rows_b) - 1} rows")
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:])):
            self.value(f"{path}>{ma['stem']}.csv[{i}]",
                       dict(zip(header, ra)), dict(zip(header, rb)), dirs)


def load_artifacts(directory: Path, problems: list[str]) -> dict:
    """(command, config_sha256) -> artifact path, for every JSON in directory."""
    found: dict = {}
    for path in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            key = (doc["command"], doc["config_sha256"])
        except (ValueError, KeyError, TypeError):
            problems.append(f"{path}: not a sobolab artifact")
            continue
        if key in found:
            problems.append(f"{path}: same command and config as "
                            f"{found[key].name}")
            continue
        found[key] = path
    return found


def compare(dir_a: Path, dir_b: Path, rtol: float) -> tuple[Comparison, list[str]]:
    """The comparison of every pair, and the artifacts of one side only."""
    cmp = Comparison(rtol)
    arts_a = load_artifacts(dir_a, cmp.problems)
    arts_b = load_artifacts(dir_b, cmp.problems)
    unpaired = [f"{side} {arts[key].name}"
                for side, arts, other in (("A", arts_a, arts_b), ("B", arts_b, arts_a))
                for key in sorted(arts.keys() - other.keys())]
    for key in sorted(arts_a.keys() & arts_b.keys()):
        pa, pb = arts_a[key], arts_b[key]
        if pa.name != pb.name:
            cmp.renamed.append(f"{pa.name} -> {pb.name}")
        cmp.value(key[0], json.loads(pa.read_text()),
                  json.loads(pb.read_text()), (dir_a, dir_b))
    return cmp, unpaired


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Compare two directories of sobolab artifacts.")
    ap.add_argument("a_dir", type=Path)
    ap.add_argument("b_dir", type=Path)
    ap.add_argument("--rtol", type=float, default=1e-12)
    args = ap.parse_args(argv)
    cmp, unpaired = compare(args.a_dir, args.b_dir, args.rtol)
    deviations = sorted(((rel, field) for field, rel in cmp.worst.items()
                         if rel > 0), reverse=True)
    print(f"rtol {args.rtol:g}: {len(cmp.worst)} float fields, "
          f"{len(cmp.worst) - len(deviations)} identical")
    for rel, field in deviations:
        print(f"  {rel:9.3g}  {field}")
    for label, lines in (("renamed", sorted(set(cmp.renamed))),
                         ("unpaired", unpaired), ("differences", cmp.problems)):
        print(f"{label}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    ok = not unpaired and not cmp.problems
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
