"""The benchmark's workloads: fixed lists of ``sobolab`` CLI jobs and the checks
their artifacts must pass.

Every job's ``--seed`` is derived from the benchmark seed, so the same seed
gives the same inputs.  No check pins a seeded value: each one holds for
every draw of the ensembles, because it follows from a closed form or an
exact inequality on the mesh.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Job:
    """One CLI call; it must exit 0 and its artifact must pass ``check``.

    Every job is chosen so that no draw of its ensemble turns it into a
    finding (exit 2).
    """

    argv: tuple[str, ...]  # subcommand and flags, without --seed and --out
    check: Check  # artifact payload -> list of problems


def _close(name: str, got: float, want: float, tol: float) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]


def _at_most(name: str, got: float, limit: float) -> list:
    return [] if got <= limit else [f"{name} = {got!r} exceeds {limit!r}"]


def _at_least(name: str, got: float, limit: float) -> list:
    return [] if got >= limit else [f"{name} = {got!r} is below {limit!r}"]


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# ---------------------------------------------------------------------------
# flow-sphere: on the shrinking round sphere g(t) = (1 - 2t) g(0) the
# curvature potential R/4 is constant, so lambda0 = 1 / (2 (1 - 2t)) and the
# volume is 4 pi (1 - 2t) up to the mesh's inscribed-polyhedron error.

FLOW_TIMES = [0.05 * i for i in range(9)]


def _check_flow(payload: dict) -> list:
    res = payload["results"]
    records = res["trajectory"]["records"]
    problems = [] if Path(res["csv"]).is_file() else ["trajectory CSV missing"]
    if [round(r["t"], 12) for r in records] != [round(t, 12) for t in FLOW_TIMES]:
        return problems + [f"unexpected sample times {[r['t'] for r in records]}"]
    for r in records:
        t = r["t"]
        vol = 4.0 * math.pi * (1.0 - 2.0 * t)
        problems += _close(f"lambda0(t={t:g})", r["lambda0"],
                           1.0 / (2.0 * (1.0 - 2.0 * t)), 1e-4)
        problems += _close(f"vol(t={t:g})", r["vol"], vol, 1e-2 * vol)
        problems += _close(f"violations(t={t:g})", r["violations"], 0, 0)
    return problems


_FLOW = ("flow", "--flow", "sphere:r0=1", "--times", "0:0.4:0.05",
         "--p", "1.5", "--p0", "1.2")

# ---------------------------------------------------------------------------
# heat-grid: on the flat torus the finite-difference heat semigroup is
# positive and sub-Markov, so it contracts every L^p norm; and
# ||exp(-tH)||_{2->inf} ~ t^(-n/4) = t^(-1/2) in two dimensions.

HEAT_RES = 56


def _check_heat_grid(payload: dict) -> list:
    res = payload["results"]
    problems = _close("contraction violations",
                      res["contraction"]["violations"], 0, 0)
    problems += _close("fit slope", res["ultracontractivity"]["slope"], -0.5, 0.1)
    if not Path(res["svg"]).is_file():
        problems.append("fit SVG missing")
    rows = _csv_rows(res["spectrum_csv"])
    if len(rows) != HEAT_RES ** 2:
        problems.append(f"spectrum CSV has {len(rows)} rows, "
                        f"expected {HEAT_RES ** 2}")
    elif any(float(lam) < 0 for _, lam in rows):
        problems.append("negative eigenvalue in the spectrum CSV")
    return problems


# ---------------------------------------------------------------------------
# ensemble-batch: small meshes, a large ensemble.

TORUS2 = "torus:n=2,res=16"
TORUS3 = "torus:n=3,res=8"
SPHERE = "sphere:r=1,subdiv=2"
SIZE = "1500"


def _check_estimate(payload: dict) -> list:
    est = payload["results"]["estimate"]
    problems = [] if math.isfinite(est["A_est"]) and est["A_est"] >= 0 else [
        f"A_est = {est['A_est']!r} is not a finite nonnegative number"]
    grid = [float(b) for b in payload["config"]["b_grid"].split(",")]
    if est["B_est"] not in grid:
        problems.append(f"B_est = {est['B_est']!r} is not on the grid {grid}")
    return problems + _at_most("estimate max_ratio", est["max_ratio"], 1.0 + 1e-9)


# On the uniform torus grid every node has mass vol/N, so
# ||u||_inf^p <= (N/vol) ||u||_p^p and ||u||_{p*}^p <= vol^(p/p*) ||u||_inf^p.
# With n=2, p=1.5, p*=6 the B term B/vol^(3/4) ||u||_p^p dominates the left
# side for every u once B >= N = 256, whatever A >= 0 is.
VERIFY_B = str(16 ** 2)


def _check_verify(payload: dict) -> list:
    rep = payload["results"]["report"]
    return (_close("verify violations", rep["violations"], 0, 0)
            + _at_most("verify worst_ratio", rep["worst_ratio"], 1.0))


# At p = 2, Parseval gives ||grad H^-1/2 u|| <= ||u|| and
# (1/sqrt 2)(a||u|| + ||H0^1/2 u||) <= ||(H0 + a^2)^1/2 u|| <= a||u|| + ||H0^1/2 u||.
def _check_riesz(payload: dict) -> list:
    res = payload["results"]
    eq = res["equivalence"]
    return (_at_most("riesz estimate", res["riesz"]["estimate"], 1.0 + 1e-8)
            + _at_least("c1_hat", eq["c1_hat"], 1.0 / math.sqrt(2.0) - 1e-12)
            + _at_most("c2_hat", eq["c2_hat"], math.sqrt(2.0) + 1e-12)
            + _at_least("gradient_bessel_C", res["gradient_bessel_C"], 0.0))


def _check_w2p(payload: dict) -> list:
    res = payload["results"]
    problems = []
    for key in ("second_order", "first_order"):
        value = res[key]["estimate"]
        if not (math.isfinite(value) and value > 0):
            problems.append(f"w2p {key} estimate = {value!r}")
    return problems


def _check_scaling(payload: dict) -> list:
    return _at_most("scaling_error",
                    payload["results"]["transfer"]["scaling_error"], 1e-10)


def _check_beta(payload: dict) -> list:
    res = payload["results"]
    problems = _close("contraction violations",
                      res["contraction"]["violations"], 0, 0)
    rows = _csv_rows(res["beta_csv"])
    if len(rows) != 25:
        problems.append(f"beta CSV has {len(rows)} rows, expected 25")
    elif not all(math.isfinite(float(v)) for row in rows for v in row):
        problems.append("non-finite value in the beta CSV")
    return problems


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "flow-sphere": (
        Job(_FLOW + ("--theorem", "b2"), _check_flow),
        Job(_FLOW + ("--theorem", "a2"), _check_flow),
    ),
    "ensemble-batch": (
        Job(("estimate", "--model", TORUS2, "--p", "1.5", "--size", SIZE),
            _check_estimate),
        Job(("verify", "--model", TORUS2, "--p", "1.5", "--A", "0.5",
             "--B", VERIFY_B, "--size", SIZE), _check_verify),
        Job(("riesz", "--model", TORUS3, "--p", "2", "--size", SIZE),
            _check_riesz),
        Job(("w2p", "--model", SPHERE, "--size", SIZE), _check_w2p),
        Job(("scaling", "--model", TORUS3, "--size", SIZE), _check_scaling),
        Job(("heat", "--model", TORUS2, "--beta-csv", "--size", SIZE),
            _check_beta),
    ),
    "heat-grid": (
        Job(("heat", "--model", f"torus:n=2,res={HEAT_RES}",
             "--t-list", "0.01,0.1,1", "--fit-window", "1e-3,1e-2", "--svg",
             "--spectrum-csv"), _check_heat_grid),
    ),
}


def job_argvs(workload: str, seed: int) -> list:
    """The CLI argument lists of one pass over the workload, without --out."""
    rng = random.Random(f"{workload}:{seed}")
    return [list(job.argv) + ["--seed", str(rng.randrange(1, 2 ** 31 - 1))]
            for job in WORKLOADS[workload]]
