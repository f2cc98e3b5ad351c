"""Exact toy Ricci flows and constant tracking along them.

Only closed-form flows are used (a shrinking round 2-sphere and a static
flat torus), so every geometric quantity along the flow is auditable in
closed form.  Base constants are estimated once at t = 0; per-time
inequality constants are produced from them plus time-t geometry only.

Every such flow is a homothety, g(t) = lam(t)^2 g(0): the mesh of g(t) is
the reference mesh of g(0) at length lam(t) l(0).  So each member norm is
measured once on the reference mesh and given each sample's length by the
one rule of DiscreteManifold.physical: an L^q norm l^(n/q), ||grad u||_p
l^(n/p-1), and so the three terms of the two-term form, ||u||_{p*}^p,
||grad u||_p^p and vol^(-p/n) ||u||_p^p, all l^(n-p).  Every family takes
one path in ``track``: one pass over the members, then one loop over the
sampled geometry and one that checks each record.
"""

from __future__ import annotations

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
    static.  Which one is read from the sign of the reference mesh's R,
    and the singular time is l^2 n/(2 R_ref).  t_max is the horizon of the
    tracked times.
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
        return self.base.physical(self.base.dim / (2.0 * r), 2) if r else math.inf

    @property
    def variant(self) -> str:
        return ("shrinking-sphere" if self.base.scalar_curvature[0] > 0
                else "static-torus")


def shrinking_sphere_flow(r0: float, subdiv: int, t_max: float) -> ExactFlow:
    """Round 2-sphere under g(t) = (1 - 2t/r0^2) r0^2 g_unit; singular at r0^2/2."""
    base = build(ModelSpec(variant="sphere", radius=r0, resolution=subdiv))
    return ExactFlow(base=base, t_max=t_max)


def parse_flow_spec(text: str, t_max: float | None = None,
                    members: int = 1) -> ExactFlow:
    """A model spec (see manifold.parse_model_spec) as its exact flow: a
    sphere shrinks, a torus is static.  The horizon defaults to 0.45 r0^2
    on a sphere, refused with r0 past floats, and 1 on a torus.  Boxes and
    scaled specs have no exact flow here and are refused before anything
    is built."""
    spec = parse_model_spec(text, members)
    if spec.scale != 1.0:
        raise ValueError(f"flow spec {text!r}: a flow starts from scale=1")
    if spec.variant not in ("sphere", "torus"):
        raise ValueError(f"flow spec {text!r}: no exact flow on a {spec.variant}")
    base = build(spec)
    if spec.variant == "sphere" and t_max is None:
        t_max = base.physical(0.45, 2)  # 0.9 of the singular time r0^2/2
        if not math.isfinite(t_max):
            raise ValueError(f"flow spec {text!r}: the singular time r0^2/2 "
                             f"of r0={spec.radius:g} is not a finite float")
    return ExactFlow(base=base, t_max=1.0 if t_max is None else t_max)


def scale_factor(flow: ExactFlow, t: float) -> float:
    """lam(t) with g(t) = lam(t)^2 g(0)."""
    if not 0 <= t <= flow.t_max:
        raise ValueError(f"t={t} beyond the flow horizon {flow.t_max}")
    return math.sqrt(1.0 - t / flow.singular_time)


def metric_at(flow: ExactFlow, t: float) -> DiscreteManifold:
    return scale_metric(flow.base, scale_factor(flow, t))


def _form_sides(members, dec_base, family: str, p: float, lams):
    """The per-member sides of the b, d or e form on g(t) = lam^2 g(0),
    before the constant, as sides(i, mesh, defect) at sample i, lam =
    lams[i], mesh that of g(t) and the defect of g(t): ||u||_{p*} against
    ||(-Lap+1)^(1/2)u||_p (b) or ||grad u||_p + (1 + defect) ||u||_p (d, e).
    Every norm is measured on the reference mesh in one _sweep of the
    members and given the mesh's length (DiscreteManifold.physical); b's
    Bessel operator on g(t) is a multiplier on the bare t = 0 spectrum, not
    a rescaling, so one transform of each chunk gives its image at every
    distinct lam of lams, each formed once.
    """
    ref = dec_base.manifold.reference
    n, pstar = ref.dim, _pstar(ref.dim, p)
    if family == "b":
        dec_zero = dec_base.shifted(-1.0)
        distinct, at = np.unique(lams, return_inverse=True)
        bessel = multipliers(dec_zero,
                             map(bessel_multiplier, distinct.tolist()))

        def measure(rows):
            return lp_norm(ref, rows, pstar), apply_functions(
                dec_zero, bessel, rows, lambda v: lp_norm(ref, v, p))
    else:
        def measure(rows):
            return (lp_norm(ref, rows, pstar), grad_lp_norm(ref, rows, p),
                    lp_norm(ref, rows, p))
    (star, *norms), = _sweep(members, measure)

    def sides(i, mesh, defect):
        lhs = mesh.physical(star, n / pstar)
        if family == "b":
            return lhs, mesh.physical(norms[0][at[i]], n / p)
        grad, low = norms
        return lhs, (mesh.physical(grad, n / p - 1.0)
                     + (1.0 + defect) * mesh.physical(low, n / p))
    return sides


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
    length).  The member norms are measured once on the reference mesh
    (family a: constants._sobolev_measure; b, d, e: _form_sides) and given
    each time's length; one loop builds the geometry of g(0) and each g(t),
    and one gives each record its constants and checks them.  Selectors
    ending in "2" require lambda0(g(0)) > 0 and route static tori to the
    finite-horizon "3" variants.
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
    # checks it), so -Lap + R/4 is this operator shifted by -1, exactly, then
    # by R/4; the hypothesis reads the reference mesh's lambda0 l^2.
    dec_base = decompose(base, constant_potential(base, 1.0))
    r_base = base.physical(base.scalar_curvature[0], -2)
    lam0_base = dec_base.shifted(-1.0).shifted(r_base / 4.0).lambda_min
    if selector.endswith("2") and base.physical(lam0_base, 2) <= 1e-12:
        raise HypothesisError(
            f"selector {selector!r} requires lambda0(g(0)) > 0, got "
            f"{lam0_base:.3g}; use the finite-horizon selector "
            f"{selector[0]}3 instead")

    members = MemberStream(base, ensemble, dec_base)
    family = selector[0]
    base_constants: dict = {"lambda0_g0": lam0_base}
    samples = (0.0, *times)  # sample 0 is g(0), where C0 is measured
    lams = [scale_factor(flow, t) for t in samples]

    # each member norm once on the reference mesh; sample i gives it the
    # length of g(t_i)
    if family == "a":
        (*terms0, lhs0, grd0, low0), = _sweep(
            members, _sobolev_measure(base, (p0, p)))
        est = _best_pair(p0, _pstar(n, p0), *terms0, DEFAULT_B_GRID)
        base_constants.update(A=est.A_est, B=est.B_est)
    else:
        sides = _form_sides(members, dec_base, family, p, lams)

    # one pass builds each sample's metric g(t) for its geometry
    meshes = [metric_at(flow, t) for t in samples]
    records = []
    for t, lam, mt in zip(samples, lams, meshes):
        summ = geometric_summary(mt)
        rec = {"t": t, "vol": summ["vol"], "r_max_plus": summ["r_max_plus"],
               "kappa": summ["kappa"], "lambda0": lam0_base / lam ** 2,
               "bracket": (summ["r_max_plus"] + 1.0) * summ["vol"] ** (2.0 / n)}
        if family == "e":  # c = 0: ExactFlow refuses R < 0
            rec.update(gamma=gamma_integral(mt, 0.0, GAMMA_EPS))
        records.append(rec)
    at_zero, *records = records
    defect = {"d": "kappa", "e": "gamma"}.get(family)  # b has no defect

    if family != "a":
        c0 = max(0.0, _worst_ratio(
            *sides(0, base, at_zero.get(defect, 0.0))).ratio)
        # the spectral/gradient norms are not scale-covariant under the +1
        # shift; the transfer factor compensates over the sampled horizon
        transfer = max(1.0, max(lam ** (-1.0) / math.sqrt(1.0 + rec["r_max_plus"])
                                for lam, rec in zip(lams[1:], records)))
        base_constants.update(C0=c0, transfer=transfer, C=c0 * transfer)
    # one pass gives each record its constants and checks them
    for i, rec in enumerate(records, 1):
        if family == "a":
            alpha = max(1.0, rec["bracket"] if selector == "a2"
                        else 1.0 + rec["bracket"])
            chain = chain_constants(n, p0, alpha * base_constants["A"],
                                    alpha * base_constants["B"], p)
            rec.update(alpha=alpha, C1=chain.C1, C2=chain.C2, m_p=chain.m_p)
            # the three terms, measured on the reference mesh, take l^(n-p)
            lhs, grd, low = (meshes[i].physical(x, n - p)
                             for x in (lhs0, grd0, low0))
            rhs = chain.C1 * grd + chain.C2 * low
        else:
            rec.update(C=base_constants["C"] * math.sqrt(1.0 + rec["r_max_plus"]))
            lhs, rhs = sides(i, meshes[i], rec.get(defect, 0.0))
            rhs = rec["C"] * rhs
        worst = _worst_ratio(lhs, rhs, slack=RELATIVE_SLACK)
        rec.update(worst_ratio=worst.ratio, violations=worst.violations)
    return FlowTrajectory(variant=flow.variant, selector=selector, p=p, p0=p0,
                          times=times, records=tuple(records),
                          base_constants=base_constants,
                          diagnostics=diagnostics(dec_base))
