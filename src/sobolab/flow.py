"""Exact toy Ricci flows and constant tracking along them.

Only closed-form flows are used (a shrinking round 2-sphere and a static
flat torus), so every geometric quantity along the flow is auditable in
closed form.  Base constants are estimated once at t = 0; per-time
inequality constants are produced from them plus time-t geometry only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import chain_constants
from .constants import (EnsembleSpec, estimate_sobolev_AB, generate_ensemble,
                        two_term_check, _worst_ratio)
from .manifold import (DiscreteManifold, ModelSpec, _check_node_count, build,
                       gamma_integral, geometric_summary, scale_metric)
from .norms import bessel_norm, grad_lp_norm, lp_norm
from .spectral import (apply_functions, bessel_multiplier, constant_potential,
                       decompose, diagnostics)

__all__ = [
    "HypothesisError",
    "ExactFlow",
    "FlowTrajectory",
    "shrinking_sphere_flow",
    "static_torus_flow",
    "parse_flow_spec",
    "scale_factor",
    "metric_at",
    "track",
    "SELECTORS",
]

SELECTORS = ("a2", "a3", "b2", "b3", "d2", "d3", "e2", "e3")
RATIO_SLACK = 1e-9
GAMMA_EPS = 1.0  # the eps of the integral-curvature quantity in family e


class HypothesisError(ValueError):
    """A tracked inequality's hypothesis fails on this flow (e.g. lambda0 <= 0)."""


@dataclass(frozen=True)
class ExactFlow:
    """Closed-form metric evolution g(t) = lam(t)^2 g(0) on a fixed mesh."""

    variant: str  # "shrinking-sphere" | "static-torus"
    base: DiscreteManifold
    t_max: float
    r0: float = 1.0

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.variant == "shrinking-sphere":
            if self.t_max >= self.r0 ** 2 / 2.0:
                raise ValueError("horizon must stay inside the smooth interval "
                                 f"t < {self.r0 ** 2 / 2.0}")
        elif self.variant != "static-torus":
            raise ValueError(f"unknown flow variant {self.variant!r}")
        r = self.base.scalar_curvature
        if not np.all(r == r[0]):
            raise ValueError("exact flows need constant scalar curvature on the "
                             "base, so that R/4 is a shift of the spectrum")


def shrinking_sphere_flow(r0: float = 1.0, subdiv: int = 3,
                          t_max: float | None = None) -> ExactFlow:
    """Round 2-sphere under g(t) = (1 - 2t/r0^2) r0^2 g_unit; singular at r0^2/2."""
    base = build(ModelSpec(variant="sphere", radius=r0, resolution=subdiv))
    if t_max is None:
        t_max = 0.45 * r0 ** 2
    return ExactFlow(variant="shrinking-sphere", base=base, t_max=t_max, r0=r0)


def static_torus_flow(dim: int = 3, resolution: int = 10,
                      sides: tuple[float, ...] = (), t_max: float = 1.0) -> ExactFlow:
    """Ricci-flat fixed point: the metric is constant in t."""
    base = build(ModelSpec(variant="torus", dim=dim, resolution=resolution,
                           sides=sides))
    return ExactFlow(variant="static-torus", base=base, t_max=t_max)


def parse_flow_spec(text: str, t_max: float | None = None,
                    members: int = 1) -> ExactFlow:
    """Parse "sphere:r0=1" or "torus:n=3,res=10,L=6.283".

    Meshes the model-spec parser would refuse for an ensemble of the given
    number of members are refused before anything is built.
    """
    head, _, rest = text.partition(":")
    kw = dict(item.split("=", 1) for item in rest.split(",") if item)
    known = {"sphere": {"r0", "r", "subdiv"}, "torus": {"n", "res", "L"}}
    unknown = sorted(set(kw) - known.get(head, set()))
    if head in known and unknown:
        raise ValueError(f"unknown {head} flow options: {unknown}")
    if head == "sphere":
        subdiv = int(kw.get("subdiv", 3))
        _check_node_count("sphere", 2, subdiv, members)
        return shrinking_sphere_flow(
            r0=float(kw.get("r0", kw.get("r", 1.0))), subdiv=subdiv,
            t_max=t_max)
    if head == "torus":
        dim, res = int(kw.get("n", 3)), int(kw.get("res", 10))
        _check_node_count("torus", dim, res, members)
        sides: tuple[float, ...] = ()
        if "L" in kw:
            sides = tuple(float(s) for s in kw["L"].split("x"))
        return static_torus_flow(dim=dim, resolution=res, sides=sides,
                                 t_max=t_max or 1.0)
    raise ValueError(f"unknown flow spec {text!r}")


def scale_factor(flow: ExactFlow, t: float) -> float:
    """lam(t) with g(t) = lam(t)^2 g(0)."""
    if not 0 <= t <= flow.t_max:
        raise ValueError(f"t={t} beyond the flow horizon {flow.t_max}")
    if flow.variant == "shrinking-sphere":
        return math.sqrt(1.0 - 2.0 * t / flow.r0 ** 2)
    return 1.0


def metric_at(flow: ExactFlow, t: float) -> DiscreteManifold:
    return scale_metric(flow.base, scale_factor(flow, t))


def _defect(family: str, m: DiscreteManifold, summ: dict,
            c_adj: float) -> float | None:
    """The curvature defect of the d (kappa) and e (gamma) forms; None for b."""
    if family == "d":
        return summ["kappa"]
    if family == "e":  # adjusted integral-curvature form
        return gamma_integral(m, c_adj, GAMMA_EPS)
    return None


def _gradient_form(m: DiscreteManifold, U: np.ndarray, p: float,
                   defect: float) -> np.ndarray:
    """Per-member right-hand norm of the d and e forms (before the constant):
    ||grad u||_p + (1 + defect)||u||_p with the Ricci defect kappa or the
    integral-curvature gamma.  Family b uses ||(-Lap+1)^(1/2)u||_p instead.
    """
    return grad_lp_norm(m, U, p) + (1.0 + defect) * lp_norm(m, U, p)


@dataclass(frozen=True)
class FlowTrajectory:
    """Time-sampled geometry and inequality ratios along an exact flow."""

    variant: str
    selector: str
    p: float
    p0: float
    times: tuple[float, ...]
    records: tuple[dict, ...]
    base_constants: dict
    diagnostics: dict  # spectral.diagnostics of the one decomposition

    @property
    def worst_ratio(self) -> float:
        return max(r["worst_ratio"] for r in self.records)

    @property
    def total_violations(self) -> int:
        return sum(r["violations"] for r in self.records)


def track(flow: ExactFlow, times, selector: str, p: float,
          ensemble: EnsembleSpec, p0: float | None = None) -> FlowTrajectory:
    """Verify the selected inequality family at each sampled time.

    Base constants are estimated once at t = 0 on the ensemble; what varies
    with t is only the closed-form geometry (volume, curvature bracket,
    scale factor).  Selectors ending in "2" require lambda0(g(0)) > 0 and
    route static tori to the finite-horizon "3" variants.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; use one of {SELECTORS}")
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("need at least one sample time")
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    base = flow.base
    n = base.dim
    if p0 is None:
        p0 = 1.2 if n == 2 else 2.0
    if not p0 < p < n:
        raise ValueError(f"need p0 < p < n, got p0={p0}, p={p}, n={n}")
    # the one decomposition of the run: every time-t spectrum is a shift and
    # rescaling of it, and it seeds the ensemble.  R/4 is constant (ExactFlow
    # checks it), so -Lap + R/4 is this operator shifted by R/4 - 1.
    dec_base = decompose(base, constant_potential(base, 1.0))
    lam0_base = dec_base.shifted(base.scalar_curvature[0] / 4.0 - 1.0).lambda_min
    if selector.endswith("2") and lam0_base <= 1e-12:
        raise HypothesisError(
            f"selector {selector!r} requires lambda0(g(0)) > 0, got "
            f"{lam0_base:.3g}; use the finite-horizon selector "
            f"{selector[0]}3 instead")

    members = generate_ensemble(base, ensemble, dec=dec_base)
    family = selector[0]
    base_constants: dict = {"lambda0_g0": lam0_base}

    if family == "a":
        est = estimate_sobolev_AB(base, p0, members, meta=ensemble.meta())
        base_constants.update(A=est.A_est, B=est.B_est)
    else:
        q = n * p / (n - p)
        c_adj = -min(0.0, float(np.min(base.scalar_curvature))) / n
        defect0 = _defect(family, base, geometric_summary(base), c_adj)
        if family == "b":
            rhs0 = bessel_norm(base, dec_base, members, p)
            # (-Lap+1)^(1/2) on g(t) = lam^2 g(0) is a multiplier on the bare
            # t = 0 spectrum: one transform of the members serves every time
            bessel_t = apply_functions(
                dec_base.shifted(-1.0),
                (bessel_multiplier(scale_factor(flow, t)) for t in times),
                members)
        else:
            rhs0 = _gradient_form(base, members, p, defect0)
        c0 = max(0.0, _worst_ratio(lp_norm(base, members, q), rhs0).ratio)

    # one pass builds each metric g(t); the two sides of every check are kept,
    # because the b/d/e constant needs the transfer over all times first
    records, sides, transfer = [], [], 1.0
    for t in times:
        lam_t = scale_factor(flow, t)
        mt = metric_at(flow, t)
        summ = geometric_summary(mt)
        bracket = (summ["r_max_plus"] + 1.0) * summ["vol"] ** (2.0 / n)
        rec = {"t": t, "vol": summ["vol"], "r_max_plus": summ["r_max_plus"],
               "kappa": summ["kappa"], "lambda0": lam0_base / lam_t ** 2,
               "bracket": bracket}
        if family == "a":
            alpha = max(1.0, bracket if selector == "a2" else 1.0 + bracket)
            chain = chain_constants(n, p0, alpha * base_constants["A"],
                                    alpha * base_constants["B"], p)
            check = two_term_check(mt, p, chain.C1, chain.C2)
            lhs, rhs = check.lhs(members), check.rhs(members)
            rec.update(alpha=alpha, C1=chain.C1, C2=chain.C2, m_p=chain.m_p)
        else:
            # the spectral/gradient norms are not scale-covariant under the +1
            # shift; the transfer factor compensates over the sampled horizon
            transfer = max(transfer, lam_t ** (-1.0)
                           / math.sqrt(1.0 + summ["r_max_plus"]))
            defect = _defect(family, mt, summ, c_adj)
            if family == "e":
                rec.update(gamma=defect)
            lhs = lp_norm(mt, members, q)
            rhs = (lp_norm(mt, next(bessel_t), p) if family == "b"
                   else _gradient_form(mt, members, p, defect))
        sides.append((lhs, rhs))
        records.append(rec)

    if family != "a":
        base_constants.update(C0=c0, transfer=transfer, C=c0 * transfer)
        for rec in records:
            rec.update(C=base_constants["C"] * math.sqrt(1.0 + rec["r_max_plus"]))
    for (lhs, rhs), rec in zip(sides, records):
        # family a checks its chained constants as they are (factor 1)
        worst = _worst_ratio(lhs, rec.get("C", 1.0) * rhs, slack=RATIO_SLACK)
        rec.update(worst_ratio=worst.ratio, violations=worst.violations)
    return FlowTrajectory(variant=flow.variant, selector=selector, p=p, p0=p0,
                          times=times, records=tuple(records),
                          base_constants=base_constants,
                          diagnostics=diagnostics(dec_base))
