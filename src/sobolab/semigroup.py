"""Heat-semigroup, fractional-power and Riesz-transform experiments.

Operator norms between L^p spaces are estimated as ensemble suprema,
sharpened by a few adjoint power iterations from the worst member; exact
norms are out of reach in general.  Heat bounds derived from entropy
profiles are verified member-wise at fixed times.  Members are a member
matrix or a constants.MemberStream, measured a chunk at a time; a check
that the CLI runs in one pass with another is also a (measure, reduce) scan
for constants._run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import RELATIVE_SLACK, _row, _run, _sweep, _worst_ratio
from .manifold import VALIDATE_RTOL, DiscreteManifold, scale_metric
from .norms import _lp_norms, grad_lp_norm, lp_norm
from .spectral import (SpectralDecomposition, _op_norms_2_to_inf,
                       apply_function, apply_functions, bessel_multiplier,
                       heat_multiplier, multipliers, power_multiplier)

__all__ = [
    "MappingNormScan",
    "ContractionReport",
    "UltracontractivityFit",
    "heat_contraction_check",
    "ultracontractivity_fit",
    "check_heat_kernel_bounds",
    "mapping_norm",
    "riesz_ratio",
    "bessel_equivalence_constants",
    "scaling_transfer_check",
    "OPERATOR_POWERS",
]

CONTRACTION_TOL = 1e-8
REFINE_ITERATIONS = 5
FIT_SAMPLES = 9  # log-spaced times in an ultracontractivity fit window

OPERATOR_POWERS = {"H^0": 0.0, "H^-1/2": -0.5, "H^-1": -1.0, "H^1/2": 0.5}


@dataclass(frozen=True)
class MappingNormScan:
    """Ensemble supremum of ||Op u||_{p_out} / ||u||_{p_in}."""

    operator_label: str
    p_in: float
    p_out: float
    estimate: float


@dataclass(frozen=True)
class ContractionReport:
    label: str
    cases: int
    violations: int
    worst_ratio: float
    worst_case: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class UltracontractivityFit:
    c_hat: float
    mu_hat: float
    slope: float
    t_values: np.ndarray
    norms: np.ndarray
    truncation_flagged: bool


# ---------------------------------------------------------------------------
# heat semigroup

def _case(witness: int, outer, inner, count: int) -> tuple:
    """(outer, inner, member) of a flat index into an outer x inner x count grid.

    An infinite exponent is written "inf", which a JSON artifact can hold.
    """
    if witness < 0:
        return ()
    i, j, k = np.unravel_index(witness, (len(outer), len(inner), count))
    labels = tuple("inf" if x == math.inf else x for x in (outer[i], inner[j]))
    return labels + (int(k),)


def _contraction_scan(m: DiscreteManifold, dec: SpectralDecomposition,
                      t_list, p_list, tol: float = CONTRACTION_TOL):
    """heat_contraction_check as a (measure, reduce) scan for constants._run."""
    if not dec.potential.is_nonnegative:
        raise ValueError("contraction check requires a nonnegative potential; "
                         "shift the potential first")
    t_list, p_list = [float(t) for t in t_list], [float(p) for p in p_list]
    if any(t < 0 for t in t_list):
        raise ValueError(f"heat times must be >= 0, got {t_list}")

    heat = multipliers(dec, map(heat_multiplier, t_list))
    ref = m.reference  # a ratio of two L^p norms does not read the length

    def norms(u):
        return np.array(_lp_norms(ref, u, p_list))

    def measure(rows):  # (t, p, member) cases and (p, member) norms
        return apply_functions(dec, heat, rows, norms), norms(rows)

    def reduce(after, before):
        worst = _worst_ratio(after, before, slack=tol)
        return ContractionReport(
            label="heat-lp-contraction", cases=worst.used,
            violations=worst.violations, worst_ratio=worst.ratio,
            worst_case=_case(worst.witness, t_list, p_list, after.shape[-1]))
    return measure, reduce


def heat_contraction_check(m: DiscreteManifold, dec: SpectralDecomposition,
                           t_list, p_list, members,
                           tol: float = CONTRACTION_TOL) -> ContractionReport:
    """||e^{-tH} u||_p <= ||u||_p for nonnegative potentials.

    Exact positivity is not guaranteed by the discretization; the bound is
    asserted with relative tolerance tol.
    """
    return _run(members, _contraction_scan(m, dec, t_list, p_list, tol))[0]


def _check_fit_window(t_low: float, t_high: float) -> None:
    if not 0 < t_low < t_high:
        raise ValueError(f"need 0 < t_low < t_high, got {t_low:g}, {t_high:g}")


def ultracontractivity_fit(dec: SpectralDecomposition, t_low: float,
                           t_high: float) -> UltracontractivityFit:
    """Least-squares fit of log ||e^{-tH}||_{2->inf} against log t.

    Returns mu_hat = -4 * slope and the prefactor c_hat.  The window must
    stay below the ground-state-dominated regime; windows lying entirely
    under the spectral-truncation floor 4/lambda_max are rejected, and a
    lower endpoint under the floor is flagged.
    """
    _check_fit_window(t_low, t_high)
    lam = dec.eigenvalues
    lam_max = float(lam[-1])
    floor = 4.0 / lam_max if lam_max > 0 else 0.0
    if t_high < floor:
        raise ValueError(
            f"window [{t_low}, {t_high}] below the mesh resolution floor "
            f"{floor:.3g}; spectrum truncation invalidates the fit")
    gap_idx = np.argmax(lam > lam[0] + 1e-12)
    if gap_idx > 0:
        gap = float(lam[gap_idx] - lam[0])
        if t_high > 4.0 / gap:
            raise ValueError(
                f"window reaches the ground-state-dominated regime "
                f"(t_high > {4.0 / gap:.3g}); shrink the window")
    ts = np.exp(np.linspace(math.log(t_low), math.log(t_high), FIT_SAMPLES))
    norms = _op_norms_2_to_inf(dec, [heat_multiplier(t) for t in ts])
    coeff = np.polyfit(np.log(ts), np.log(norms), 1)
    slope = float(coeff[0])
    return UltracontractivityFit(
        c_hat=float(np.exp(coeff[1])), mu_hat=-4.0 * slope, slope=slope,
        t_values=ts, norms=norms, truncation_flagged=bool(t_low < floor))


def check_heat_kernel_bounds(m: DiscreteManifold, dec: SpectralDecomposition,
                             tau: Callable[[float], float], t_list, members,
                             sigma_star: float = math.inf) -> ContractionReport:
    """Verify the L2->inf and L1->inf heat bounds driven by tau(t).

    ||e^{-tH}u||_inf <= exp(tau(t) - (3t/4) inf Psi^-) ||u||_2 and
    ||e^{-tH}u||_inf <= exp(2 tau(t/2) - (3t/4) inf Psi^-) ||u||_1, with
    inf Psi^- = min(0, min Psi) so the correction factor is >= 1.
    """
    t_list = [float(t) for t in t_list]
    for t in t_list:
        if not 0 < t < sigma_star / 4.0:
            raise ValueError(f"t={t} outside (0, sigma_star/4)")
    inf_minus = dec.potential.inf_minus
    heat = multipliers(dec, map(heat_multiplier, t_list))
    base, sups = _sweep(members, lambda rows: (
        np.stack([lp_norm(m, rows, 2.0), lp_norm(m, rows, 1.0)]),
        apply_functions(dec, heat, rows,
                        lambda v: lp_norm(m, v, math.inf))))[0]
    dens = []  # (t, tag, member) cases
    for t in t_list:
        correction = -0.75 * t * inf_minus
        bounds = np.array([math.exp(tau(t) + correction),
                           math.exp(2.0 * tau(t / 2.0) + correction)])
        dens.append(bounds[:, None] * base)
    worst = _worst_ratio(sups[:, None, :], dens, slack=RELATIVE_SLACK)
    return ContractionReport(
        label="heat-kernel-bounds", cases=worst.used,
        violations=worst.violations, worst_ratio=worst.ratio,
        worst_case=_case(worst.witness, t_list, ("L2", "L1"), base.shape[-1]))


# ---------------------------------------------------------------------------
# mapping norms

def _refine(dec: SpectralDecomposition, power: float, grad_op: bool,
            p_in: float, p_out: float, u0: np.ndarray) -> float:
    """Adjoint power iteration for u -> H^power u or u -> grad H^power u.

    The output v is measured by its lengths |v|: for H^power the node
    values with mass weights, for grad H^power the element gradient lengths
    with element-volume weights.  Each step measures ||v||_{p_out}, takes
    the duality element |v|^(p_out-2) v / ||v||^(p_out-1) back to a node
    function in the mass pairing (for a gradient the weighted Laplacian
    G^T diag(w |grad v|^(p_out-2)) G v over the mass) and maps that through
    the mass-self-adjoint H^power, until v is 0 or a constant's roundoff
    gradient.  The norms, and so the best ratio, are the reference mesh's.
    """
    m = dec.manifold
    ref = m.reference
    fwd = power_multiplier(power)
    if grad_op:
        lengths, weights = m.grad.magnitudes, m.grad.weights
        dual = lambda v, s: m.grad.laplacian(v, weights * s) / m.mass
    else:
        lengths, weights = np.abs, m.mass
        dual = lambda v, s: v * s
    pd = p_in / (p_in - 1.0)
    floor = VALIDATE_RTOL * m.grad.bound() if grad_op else 0.0
    u = u0 / lp_norm(ref, u0, p_in)
    best = -math.inf
    for _ in range(REFINE_ITERATIONS):
        image = apply_function(dec, fwd, u)
        mags = lengths(image)
        nv = float(np.sum(weights * mags ** p_out) ** (1.0 / p_out))
        if nv == 0 or np.max(mags) <= floor * np.max(np.abs(image)):
            break
        best = max(best, nv)
        # the scale |v|^(p_out-2) is let go before the next lengths are formed
        back = dual(image, np.where(mags > 0, mags, 1.0) ** (p_out - 2.0))
        w = apply_function(dec, fwd, back / nv ** (p_out - 1.0))
        mag = np.abs(w)
        if not mag.any():
            break
        u = np.sign(w) * mag ** (pd - 1.0)
        u /= lp_norm(ref, u, p_in)
    return best


def _mapping_scan(dec: SpectralDecomposition, operator_label: str,
                  p_in: float, p_out: float, members):
    """mapping_norm as a (measure, reduce) scan for constants._run; the
    reduction draws its witness row again from members."""
    if p_out <= 0 or not math.isfinite(p_out):
        raise ValueError(f"output exponent {p_out} out of range")
    m = dec.manifold
    grad_op = operator_label.startswith("grad ")
    power_label = operator_label.removeprefix("grad ")
    if power_label not in OPERATOR_POWERS:
        raise ValueError(f"unknown operator {operator_label!r}")
    power = OPERATOR_POWERS[power_label]
    if power < 0 and dec.lambda_min <= 0:
        raise ValueError("negative power of a singular operator; "
                         "use a potential with a positive spectral floor")
    out_norm = grad_lp_norm if grad_op else lp_norm
    weights = multipliers(dec, (power_multiplier(power),))
    ref = m.reference  # the ratios take the length's factor once, in reduce

    def measure(rows):
        return (*apply_functions(dec, weights, rows,
                                 lambda v: out_norm(ref, v, p_out)),
                lp_norm(ref, rows, p_in))

    def reduce(images, base):
        scan = _worst_ratio(images, base)
        best = scan.ratio
        if scan.witness >= 0 and p_in > 1:
            best = max(best, _refine(dec, power, grad_op, p_in, p_out,
                                     _row(members, scan.witness)))
        estimate = m.physical(best, m.dim / p_out - m.dim / p_in - grad_op)
        if estimate == 0 < best < math.inf:
            raise ValueError(f"the {operator_label} mapping-norm estimate "
                             f"underflows to 0 at length {m.length:.3g} "
                             f"({m.label})")
        return MappingNormScan(operator_label=operator_label, p_in=p_in,
                               p_out=p_out, estimate=estimate)
    return measure, reduce


def mapping_norm(dec: SpectralDecomposition, operator_label: str,
                 p_in: float, p_out: float, members) -> MappingNormScan:
    """Estimate ||Op||_{p_in -> p_out} for Op in H powers or grad H^-1/2.

    The worst member of the ensemble scan starts an adjoint power iteration
    (_refine) when p_in > 1, and the estimate is the larger of the two; a
    MemberStream draws that member again.  Negative powers require a
    strictly positive spectrum; the exponent pair is the caller's contract
    (e.g. p_out = mu p/(mu-p) for H^-1/2 and mu p/(mu-2p) for H^-1 under a
    mu-dimensional Sobolev hypothesis).
    """
    return _run(members, _mapping_scan(dec, operator_label, p_in, p_out,
                                       members))[0]


def riesz_ratio(dec: SpectralDecomposition, p: float,
                members) -> MappingNormScan:
    """sup ||grad H^{-1/2} u||_p / ||u||_p over the ensemble, sharpened
    from its worst member as in mapping_norm."""
    return mapping_norm(dec, "grad H^-1/2", p, p, members)


def _check_equivalence_args(a: float, p: float) -> None:
    if not (1 < p < math.inf and 0 <= a < math.inf):
        raise ValueError(f"need 1 < p < inf and a finite a >= 0, got p={p:g}, "
                         f"a={a:g}")


def _equivalence_scan(dec_zero: SpectralDecomposition, a: float, p: float):
    """bessel_equivalence_constants as a (measure, reduce) scan for
    constants._run."""
    _check_equivalence_args(a, p)
    if np.max(np.abs(dec_zero.potential.values)) > 1e-12:
        raise ValueError("equivalence constants require the bare Laplacian spectrum")
    m = dec_zero.manifold
    weights = multipliers(dec_zero, (lambda lam: np.sqrt(lam + a * a),
                                     np.sqrt, bessel_multiplier(1.0)))

    def measure(rows):
        return (lp_norm(m, rows, p), *apply_functions(
            dec_zero, weights, rows, lambda v: lp_norm(m, v, p)),
            grad_lp_norm(m, rows, p))

    def reduce(base, mid, root, bessel, grad):
        outer = a * base + root
        # constants carry no information at a = 0: both sides are roundoff
        used = outer > 1e-10 * (1.0 + a) * base
        worst = _worst_ratio(mid, outer, used=used)
        if worst.used == 0:
            raise ValueError("degenerate ensemble: every member is constant")
        gradient = _worst_ratio(grad, bessel + a * base)
        return {"c1_hat": float(np.min(mid[used] / outer[used])),
                "c2_hat": worst.ratio, "members_used": worst.used,
                "gradient_bessel_C": max(0.0, gradient.ratio)}
    return measure, reduce


def bessel_equivalence_constants(dec_zero: SpectralDecomposition, a: float,
                                 p: float, members) -> dict:
    """Measured two-sided constants between (-Lap+a^2)^{1/2} and a||.|| + (-Lap)^{1/2}.

    (-Lap)^{1/2} annihilates constants, so at a = 0 constant members carry no
    information and are excluded from the ratio set of c1/c2.  Also the
    smallest feasible C in ||grad v||_p <= C(||(-Lap+1)^{1/2}v||_p + a||v||_p)
    over all members, as gradient_bessel_C.  The three operators come from
    one transform of each chunk of members.
    """
    return _run(members, _equivalence_scan(dec_zero, a, p))[0]


# ---------------------------------------------------------------------------
# scaling transfer

def _transfer_exponent(lam: float, mu: float, p: float) -> float:
    """mu p/(mu-p) for the transfer across g -> lam^2 g; ValueError unless
    lam, mu and p are finite, the transfer runs upward (lam >= 1) and
    mu > p."""
    if not all(map(math.isfinite, (lam, mu, p))):
        raise ValueError(f"need finite lam, mu and p, got lam={lam:g}, "
                         f"mu={mu:g}, p={p:g}")
    if not lam >= 1:
        raise ValueError(f"transfer direction requires lam >= 1, got lam={lam:g}")
    if not mu > p:
        raise ValueError(f"need mu > p for the exponent mu p/(mu-p), "
                         f"got mu={mu}, p={p}")
    return mu * p / (mu - p)


def scaling_transfer_check(m: DiscreteManifold, lam: float, mu: float,
                           p: float, members, dec_unit: SpectralDecomposition,
                           scaling_tol: float = 1e-10) -> dict:
    """Transfer ||u||_{mu p/(mu-p)} <= C ||(-Lap+1)^{1/2}u||_p across g -> lam^2 g.

    First verifies the exact norm-scaling laws ||u||_{q, scaled} =
    lam^{n/q} ||u||_q, then measures C on the scaled metric and asserts the
    original-metric inequality with constant lam * C on the same ensemble.
    """
    q_out = _transfer_exponent(lam, mu, p)
    if np.any(dec_unit.potential.values != 1.0):
        raise ValueError("scaling transfer needs the Psi = 1 decomposition")
    scaled = scale_metric(m, lam)
    ref, n = m.reference, m.dim
    qs = (p, q_out, 2.0)
    dec_zero = dec_unit.shifted(-1.0)
    bessel = multipliers(dec_zero, map(bessel_multiplier, (1.0, lam)))

    def measure(rows):
        # the Bessel operator of each metric is a multiplier on the bare
        # Laplacian's spectrum; every norm is taken once on the reference
        # mesh, and each metric gives it its length
        return (np.array([lp_norm(ref, rows, q) for q in qs]),
                grad_lp_norm(ref, rows, p),
                *apply_functions(dec_zero, bessel, rows,
                                 lambda v: lp_norm(ref, v, p)))

    norms, grad, bessel, bessel_scaled = _sweep(members, measure)[0]
    orig = [m.physical(x, n / q) for x, q in zip(norms, qs)]
    on_scaled = [scaled.physical(x, n / q) for x, q in zip(norms, qs)]
    grad_scaled = scaled.physical(grad, n / p - 1.0)
    grad = m.physical(grad, n / p - 1.0)
    bessel = m.physical(bessel, n / p)
    bessel_scaled = scaled.physical(bessel_scaled, n / p)
    # a power past floats is inf, as the scaled norm is: _worst_ratio refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        lam64 = np.float64(lam)
        pairs = [(on_scaled[i], lam64 ** (n / q) * orig[i])
                 for i, q in enumerate(qs)]
        pairs.append((grad_scaled, lam64 ** (n / p - 1.0) * grad))
        worst_scaling = max(
            float(np.max(np.abs(a - b) / np.maximum(b, 1e-300), initial=0.0))
            for a, b in pairs)
    if worst_scaling > scaling_tol:
        raise ValueError(
            f"norm scaling law violated: relative error {worst_scaling:.3g}")

    c_scaled = max(0.0, _worst_ratio(on_scaled[1], bessel_scaled).ratio)
    transferred = lam * c_scaled
    worst = _worst_ratio(orig[1], transferred * bessel, slack=RELATIVE_SLACK)
    return {"lam": lam, "mu": mu, "p": p, "q_out": q_out,
            "scaling_error": worst_scaling, "C_scaled": c_scaled,
            "C_transferred": transferred, "violations": worst.violations,
            "worst_ratio": worst.ratio}
