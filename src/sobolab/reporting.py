"""Deterministic report artifacts: canonical JSON, CSV and plain SVG plots.

Artifacts are content-addressed (the filename carries a hash of the payload)
so reruns never mutate previously written files; identical configurations
reproduce byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "to_plain",
    "canonical_json",
    "config_hash",
    "write_artifact",
    "write_csv",
    "write_indexed_csv",
    "write_svg_loglog",
]


def to_plain(obj):
    """Recursively convert dataclasses/ndarrays/tuples into JSON-ready types."""
    if type(obj) in (int, float, str, bool):  # most leaves; checked first
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_plain(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(x) for x in obj]
    return obj


def _nonfinite_field(obj, path: str = "") -> str | None:
    """Dotted path of the first non-finite float in a plain JSON tree, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, obj[k]) for k in sorted(obj))
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _nonfinite_field(value, sub)
        if found is not None:
            return found
    return None


def canonical_json(payload) -> str:
    """Sorted, compact JSON; a non-finite float raises ValueError naming its field."""
    plain = to_plain(payload)
    try:
        return json.dumps(plain, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:
        field = _nonfinite_field(plain)
        if field is None:
            raise
        raise ValueError(f"{field} is not finite; a JSON artifact cannot "
                         "hold it") from None


def config_hash(config) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _write_addressed(out_dir: Path, stem: str, suffix: str, text: str,
                     end: str = "") -> Path:
    """Write text + end to <stem>_<sha256(text)[:12]>.<suffix>; never overwrites."""
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}_{digest}.{suffix}"
    if not path.exists():
        path.write_text(text + end)
    return path


def write_artifact(out_dir: Path, stem: str, payload) -> Path:
    """Write canonical JSON to <stem>_<contenthash12>.json; never overwrites.

    The name hashes the JSON without the trailing newline the file ends with.
    """
    return _write_addressed(out_dir, stem, "json", canonical_json(payload),
                            end="\n")


def write_csv(out_dir: Path, stem: str, header: list[str], rows) -> Path:
    """Write the rows under header to <stem>_<contenthash12>.csv.

    A float cell, numpy's included, is written as the repr of the
    built-in float it holds, and any other cell (an int, a string or a
    bool, numpy's included) as its str.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([
            repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
            for x in row]))
    return _write_addressed(out_dir, stem, "csv", "\n".join(lines) + "\n")


def write_indexed_csv(out_dir: Path, stem: str, header: list[str],
                      values) -> Path:
    """Write the rows (k, values[k]), k = 0, 1, ..., under header to
    <stem>_<contenthash12>.csv: write_csv's bytes and name for those rows,
    formatted from the floats of values.tolist() with no test per cell."""
    lines = [",".join(header)]
    lines += [f"{k},{x!r}" for k, x in
              enumerate(np.asarray(values, dtype=float).tolist())]
    return _write_addressed(out_dir, stem, "csv", "\n".join(lines) + "\n")


def write_svg_loglog(out_dir: Path, stem: str, xs, ys, title: str,
                     fit_slope: float) -> Path:
    """Minimal log-log scatter with its fitted line; no plotting deps."""
    xs = np.log10(np.asarray(xs, dtype=float))
    ys = np.log10(np.asarray(ys, dtype=float))
    w, h, pad = 480, 360, 48

    def sx(x):
        span = xs.max() - xs.min() or 1.0
        return pad + (x - xs.min()) / span * (w - 2 * pad)

    def sy(y):
        span = ys.max() - ys.min() or 1.0
        return h - pad - (y - ys.min()) / span * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
    ]
    y0 = ys[0] + fit_slope * (xs - xs[0])
    parts.append(f'<polyline fill="none" stroke="#888" points="'
                 + " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, y0))
                 + '"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                     'fill="#1f6fb2"/>')
    parts.append("</svg>")
    return _write_addressed(out_dir, stem, "svg", "\n".join(parts) + "\n")
