import json
from dataclasses import dataclass

import numpy as np
import pytest

from sobolab.reporting import (canonical_json, config_hash, to_plain,
                               write_artifact, write_csv, write_svg_loglog)


@dataclass(frozen=True)
class Blob:
    name: str
    values: tuple


def test_to_plain_handles_numpy_and_dataclasses():
    blob = Blob(name="x", values=(np.float64(1.5), np.int64(3)))
    plain = to_plain({"b": blob, "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)})
    assert plain == {"b": {"name": "x", "values": [1.5, 3]},
                     "arr": [1.0, 2.0], "flag": True}
    json.dumps(plain)  # round-trippable


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2.5, 3]})
    b = canonical_json({"a": [2.5, 3], "b": 1})
    assert a == b == '{"a":[2.5,3],"b":1}'
    assert config_hash({"x": 1}) == config_hash({"x": 1})
    assert config_hash({"x": 1}) != config_hash({"x": 2})


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_write_artifact_content_addressed(tmp_path):
    p1 = write_artifact(tmp_path, "thing", {"v": 1})
    p2 = write_artifact(tmp_path, "thing", {"v": 1})
    p3 = write_artifact(tmp_path, "thing", {"v": 2})
    assert p1 == p2 and p1 != p3
    assert p1.exists() and p3.exists()


def test_write_csv_plain_floats(tmp_path):
    path = write_csv(tmp_path, "rows", ["a", "b"],
                     [(np.float64(0.1), 2), (0.25, np.int64(4))])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.1,2"
    assert lines[2] == "0.25,4"


def test_write_svg_loglog(tmp_path):
    ts = np.geomspace(1e-3, 1e-2, 5)
    path = write_svg_loglog(tmp_path, "plot", ts, 1.0 / np.sqrt(ts),
                            "decay", fit_slope=-0.5)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 5


def test_write_csv_bytes_for_builtin_and_numpy_cells(tmp_path):
    """Built-in cells are written as they are and numpy scalars as the
    built-ins they hold, so both give the same bytes."""
    rows = [(1, 0.1, "x", True), (np.int64(1), np.float64(0.1), "x", np.bool_(True)),
            (-2, 1e-300, "", False), (3, float(np.float64(2.0) / 3.0), "y", 0)]
    path = write_csv(tmp_path, "cells", ["i", "f", "s", "b"], rows)
    assert path.read_bytes() == (b"i,f,s,b\n1,0.1,x,True\n1,0.1,x,True\n"
                                 b"-2,1e-300,,False\n3,0.6666666666666666,y,0\n")


def _reference_csv_lines(header, rows) -> str:
    """The CSV text of a writer that converts each cell with to_plain first."""
    lines = [",".join(header)]
    for row in rows:
        cells = [to_plain(x) for x in row]
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in cells))
    return "\n".join(lines) + "\n"


def test_csv_files_equal_the_to_plain_writer_byte_for_byte(tmp_path):
    """The spectrum, flow-trajectory and beta-profile CSVs, and rows of
    numpy float64 and int64 cells, are the bytes a writer that passes every
    cell through to_plain gives."""
    from sobolab import (EnsembleSpec, build, constant_potential, decompose,
                         generate_ensemble)
    from sobolab import constants as ct
    from sobolab import flow as fl
    from sobolab.spectral import spectrum_rows

    m = build("torus:n=2,res=8")
    dec = decompose(m, constant_potential(m, 1.0))
    members = generate_ensemble(m, EnsembleSpec(seed=2, size=12), dec)
    profile, = ct._run(members, ct._beta_scan(
        m, constant_potential(m, 1.0), np.geomspace(1e-3, 2.0, 5),
        normalize=True))
    flow = fl.parse_flow_spec("sphere:r0=1,subdiv=1", members=12)
    traj = fl.track(flow, [0.0, 0.1], "b2", 1.5, EnsembleSpec(seed=2, size=12))
    header = ["t", "vol", "r_max_plus", "kappa", "lambda0", "bracket",
              "worst_ratio", "violations"]
    tables = {
        "spectrum": (["k", "lambda"], spectrum_rows(dec)),
        "flow_trajectory": (header,
                            [[r[k] for k in header] for r in traj.records]),
        "log_sobolev_profile": (["sigma", "beta"],
                                list(zip(profile.sigma_grid,
                                         profile.beta_values))),
        "numpy": (["i", "f"], [(np.int64(-3), np.float64(1e-300)),
                               (np.int64(7), np.float64(2.0) / 3.0)]),
    }
    for stem, (head, rows) in tables.items():
        path = write_csv(tmp_path, stem, head, rows)
        assert path.read_bytes() == _reference_csv_lines(head, rows).encode()
