"""Exact toy Ricci flows and constant tracking along them.

Only closed-form flows are used (a shrinking round 2-sphere and a static
flat torus), so every geometric quantity along the flow is auditable in
closed form.  Base constants are estimated once at t = 0; per-time
inequality constants are produced from them plus time-t geometry only.

Every such flow is a homothety, g(t) = lam(t)^2 g(0), so each member norm
is measured once on g(0) and rescaled: an L^q norm by lam^(n/q), ||grad
u||_p by lam^(n/p-1), and so the three terms of the two-term form,
||u||_{p*}^p, ||grad u||_p^p and vol^(-p/n) ||u||_p^p, all by lam^(n-p).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import chain_constants
from .constants import (DEFAULT_B_GRID, RELATIVE_SLACK, EnsembleSpec,
                        MemberStream, _best_pair, _pstar, _sobolev_measure,
                        _sweep, _worst_ratio)
from .manifold import (DiscreteManifold, ModelSpec, build, gamma_integral,
                       geometric_summary, parse_model_spec, scale_metric)
from .norms import grad_lp_norm, lp_norm
from .spectral import (apply_functions, bessel_multiplier, constant_potential,
                       decompose, diagnostics, multipliers)

__all__ = [
    "HypothesisError",
    "ExactFlow",
    "FlowTrajectory",
    "shrinking_sphere_flow",
    "parse_flow_spec",
    "scale_factor",
    "metric_at",
    "track",
    "SELECTORS",
]

SELECTORS = ("a2", "a3", "b2", "b3", "d2", "d3", "e2", "e3")
GAMMA_EPS = 1.0  # the eps of the integral-curvature quantity in family e


class HypothesisError(ValueError):
    """A tracked inequality's hypothesis fails on this flow (e.g. lambda0 <= 0)."""


@dataclass(frozen=True)
class ExactFlow:
    """An Einstein base mesh under its exact Ricci flow.

    Ric = (R/n) g with R constant, so g(t) = (1 - 2Rt/n) g(0) on the fixed
    mesh: a round sphere shrinks to a point at t = n/(2R), a flat torus is
    static.  t_max is the horizon of the tracked times.
    """

    base: DiscreteManifold
    t_max: float

    def __post_init__(self):
        r = self.base.scalar_curvature
        if not np.all(r == r[0]):
            raise ValueError("exact flows need constant scalar curvature on the "
                             "base, so that R/4 is a shift of the spectrum")
        if not 0 < self.t_max < self.singular_time:  # empty when R < 0
            raise ValueError(f"horizon t_max={self.t_max} must lie in the smooth "
                             f"interval (0, {self.singular_time})")

    @property
    def singular_time(self) -> float:
        """n/(2R), where g(t) = (1 - t/singular_time) g(0) ends; inf if R = 0."""
        r = float(self.base.scalar_curvature[0])
        return self.base.dim / (2.0 * r) if r else math.inf

    @property
    def variant(self) -> str:
        return ("shrinking-sphere" if self.singular_time < math.inf
                else "static-torus")


def shrinking_sphere_flow(r0: float, subdiv: int, t_max: float) -> ExactFlow:
    """Round 2-sphere under g(t) = (1 - 2t/r0^2) r0^2 g_unit; singular at r0^2/2."""
    base = build(ModelSpec(variant="sphere", radius=r0, resolution=subdiv))
    return ExactFlow(base=base, t_max=t_max)


def parse_flow_spec(text: str, t_max: float | None = None,
                    members: int = 1) -> ExactFlow:
    """A model spec (see manifold.parse_model_spec) as its exact flow: a
    sphere shrinks, a torus is static.  The horizon defaults to 0.45 r0^2
    on a sphere and 1 on a torus.  Boxes and scaled specs have no exact
    flow here and are refused before anything is built."""
    spec = parse_model_spec(text, members)
    if spec.scale != 1.0:
        raise ValueError(f"flow spec {text!r}: a flow starts from scale=1")
    if spec.variant not in ("sphere", "torus"):
        raise ValueError(f"flow spec {text!r}: no exact flow on a {spec.variant}")
    if t_max is None:
        t_max = 0.45 * spec.radius ** 2 if spec.variant == "sphere" else 1.0
    return ExactFlow(base=build(spec), t_max=t_max)


def scale_factor(flow: ExactFlow, t: float) -> float:
    """lam(t) with g(t) = lam(t)^2 g(0)."""
    if not 0 <= t <= flow.t_max:
        raise ValueError(f"t={t} beyond the flow horizon {flow.t_max}")
    return math.sqrt(1.0 - t / flow.singular_time)


def metric_at(flow: ExactFlow, t: float) -> DiscreteManifold:
    return scale_metric(flow.base, scale_factor(flow, t))


def _defect(family: str, m: DiscreteManifold) -> float:
    """The curvature term of the d or e form on m: the Ricci defect kappa
    (d) or the integral-curvature gamma (e); b has none.  gamma needs no
    curvature adjustment: ExactFlow refuses R < 0."""
    if family == "d":
        return geometric_summary(m)["kappa"]
    return gamma_integral(m, 0.0, GAMMA_EPS) if family == "e" else 0.0


def _base_measure(base: DiscreteManifold, p: float, images=None):
    """A measure (see constants._sweep) of the per-member norms of the b, d
    or e form that no time changes, measured once on g(0): ||u||_{p*} and
    then the p-norms of a chunk's ``images`` (b; spectral.apply_functions
    of the chunk and a measure, with multipliers formed once) or, with no
    images, ||grad u||_p and ||u||_p (d, e)."""
    pstar = _pstar(base.dim, p)

    def measure(rows):
        star = lp_norm(base, rows, pstar)
        if images is not None:
            return star, images(rows, lambda v: lp_norm(base, v, p))
        return star, grad_lp_norm(base, rows, p), lp_norm(base, rows, p)
    return measure


def _form_sides(norms: tuple, n: int, p: float, lam: float, defect: float,
                bessel: np.ndarray | None):
    """Per-member (lhs, rhs) of the b, d or e form on g(t) = lam^2 g(0),
    before the constant, from the g(0) ``norms`` of _base_measure: ||u||_{p*}
    lam^(n/p*) against ||(-Lap+1)^(1/2)u||_p lam^(n/p) (b; ``bessel`` is
    the p-norm on g(0) of the members transformed at time t, because the
    multiplier is not a rescaling) or ||grad u||_p lam^(n/p-1) + (1 +
    defect) ||u||_p lam^(n/p) with the defect of g(t) (d, e).
    """
    star, grad, low = norms
    lhs = star * lam ** (n / _pstar(n, p))
    if bessel is not None:
        return lhs, bessel * lam ** (n / p)
    return lhs, (grad * lam ** (n / p - 1.0)
                 + (1.0 + defect) * low * lam ** (n / p))


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
    scale factor).  The member norms are measured once on g(0) and each
    time's values are the homothety's rescalings: lam^(n/q) for an L^q
    norm, lam^(n/p-1) for ||grad u||_p, and the common lam^(n-p) for the
    three terms of the two-term form (family a).  Only family b forms a
    member image per time, since sqrt(1 + mu/lam^2) is not a rescaling.
    Selectors ending in "2" require lambda0(g(0)) > 0 and route static
    tori to the finite-horizon "3" variants.
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

    members = MemberStream(base, ensemble, dec_base)
    family = selector[0]
    base_constants: dict = {"lambda0_g0": lam0_base}

    # every member norm is measured once on g(0), in one pass over the
    # members; time t rescales it
    if family == "a":
        (*terms0, lhs0, grd0, low0), = _sweep(
            members, _sobolev_measure(base, (p0, p)))
        est = _best_pair(p0, _pstar(n, p0), *terms0, DEFAULT_B_GRID)
        base_constants.update(A=est.A_est, B=est.B_est)
    else:
        images = None
        if family == "b":
            # (-Lap+1)^(1/2) on g(t) = lam^2 g(0) is a multiplier on the bare
            # t = 0 spectrum: one transform of each chunk serves the t = 0
            # constant (lam = 1) and then every sampled time
            lams = [1.0] + [scale_factor(flow, t) for t in times]
            dec_zero = dec_base.shifted(-1.0)
            bessel = multipliers(dec_zero, map(bessel_multiplier, lams))

            def images(rows, measure):
                return apply_functions(dec_zero, bessel, rows, measure)
        norms, = _sweep(members, _base_measure(base, p, images))
        if family == "b":
            bessel_t = iter(norms[1])
            norms = (norms[0], None, None)
        else:
            bessel_t = itertools.repeat(None)
        c0 = max(0.0, _worst_ratio(*_form_sides(
            norms, n, p, 1.0, _defect(family, base), next(bessel_t))).ratio)

    # one pass builds each metric g(t) for its geometry, and keeps its scale
    # factor and defect: the b/d/e constant needs the transfer over all
    # times before any time is checked
    records, steps, transfer = [], [], 1.0
    for t in times:
        lam_t = scale_factor(flow, t)
        mt = metric_at(flow, t)
        summ = geometric_summary(mt)
        bracket = (summ["r_max_plus"] + 1.0) * summ["vol"] ** (2.0 / n)
        rec = {"t": t, "vol": summ["vol"], "r_max_plus": summ["r_max_plus"],
               "kappa": summ["kappa"], "lambda0": lam0_base / lam_t ** 2,
               "bracket": bracket}
        defect = 0.0
        if family == "a":
            alpha = max(1.0, bracket if selector == "a2" else 1.0 + bracket)
            chain = chain_constants(n, p0, alpha * base_constants["A"],
                                    alpha * base_constants["B"], p)
            rec.update(alpha=alpha, C1=chain.C1, C2=chain.C2, m_p=chain.m_p)
        else:
            # the spectral/gradient norms are not scale-covariant under the +1
            # shift; the transfer factor compensates over the sampled horizon
            transfer = max(transfer, lam_t ** (-1.0)
                           / math.sqrt(1.0 + summ["r_max_plus"]))
            defect = _defect(family, mt)
            if family == "e":
                rec.update(gamma=defect)
        steps.append((lam_t, defect))
        records.append(rec)

    if family != "a":
        base_constants.update(C0=c0, transfer=transfer, C=c0 * transfer)
        for rec in records:
            rec.update(C=base_constants["C"] * math.sqrt(1.0 + rec["r_max_plus"]))
    for (lam_t, defect), rec in zip(steps, records):
        if family == "a":
            # all three terms scale by lam^(n-p); the chained constants are
            # checked as they are (factor 1)
            scale = lam_t ** (n - p)
            lhs = lhs0 * scale
            rhs = rec["C1"] * (grd0 * scale) + rec["C2"] * (low0 * scale)
        else:
            lhs, rhs = _form_sides(norms, n, p, lam_t, defect, next(bessel_t))
        worst = _worst_ratio(lhs, rec.get("C", 1.0) * rhs,
                             slack=RELATIVE_SLACK)
        rec.update(worst_ratio=worst.ratio, violations=worst.violations)
    return FlowTrajectory(variant=flow.variant, selector=selector, p=p, p0=p0,
                          times=times, records=tuple(records),
                          base_constants=base_constants,
                          diagnostics=diagnostics(dec_base))
