"""Ensemble-based estimation of Sobolev and log-Sobolev constants.

Test-function ensembles are deterministic functions of (seed, generator,
manifold).  Sobolev constants (A, B) are estimated as the smallest feasible
pair over a B-grid; entropy profiles beta(sigma) are measured directly or
derived in closed form from a Sobolev constant, with the associated
ultracontractivity constants tau(t) and c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .manifold import DiscreteManifold
from .norms import _per_member, grad_lp_norm, lp_norm, q_energy
from .spectral import PotentialField, SpectralDecomposition

__all__ = [
    "EnsembleSpec",
    "generate_ensemble",
    "SobolevEstimate",
    "min_feasible_A",
    "estimate_sobolev_AB",
    "estimate_single_A",
    "single_constant_from_pair",
    "LogSobolevProfile",
    "entropy",
    "measure_log_sobolev_beta",
    "beta_from_sobolev",
    "derived_profile",
    "log_coefficient_A0",
    "tau_closed_form",
    "tau_of_t",
    "ultracontractivity_constant",
    "InequalityCheck",
    "two_term_check",
    "VerifyReport",
    "verify_inequality",
    "DEFAULT_B_GRID",
]

DEFAULT_B_GRID = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)
RELATIVE_SLACK = 1e-9
TIE_REL = 1e-12  # ratios this close (relative) to the worst are ties

GENERATORS = ("band-limited", "bumps", "eigen-mix", "mixed")
BAND_DECAY = 2.0  # band-limited members weigh modes by (1 + H)^(-decay/2)
SPECTRAL_MODES = 40  # spectral members draw from clusters up to this mode
BUMP_COUNT = 6  # bump parameter draws per bump member


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic test-function family: (seed, generator, manifold) -> members."""

    seed: int
    size: int = 200
    generator: str = "mixed"
    normalization: str = "none"  # "none" | "unit-l2"

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.normalization not in ("none", "unit-l2"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.size < 1:
            raise ValueError("ensemble size must be positive")

    def meta(self) -> dict:
        return {"seed": self.seed, "size": self.size, "generator": self.generator,
                "normalization": self.normalization, "decay": BAND_DECAY,
                "modes": SPECTRAL_MODES, "bumps": BUMP_COUNT}


def _wrapped_sq_dist(points: np.ndarray, center: np.ndarray,
                     periods: tuple[float, ...] | None) -> np.ndarray:
    d = points - center[None, :]
    if periods is not None:
        per = np.asarray(periods)
        d = d - per[None, :] * np.round(d / per[None, :])
    return np.sum(d * d, axis=1)


def _bump_member(m: DiscreteManifold, rng: np.random.Generator) -> np.ndarray:
    """Superposition of Gaussian bumps; parameters drawn mesh-independently."""
    count = 1 + int(rng.integers(0, BUMP_COUNT))
    lo = m.points.min(axis=0)
    span = m.points.max(axis=0) - lo
    diam = float(np.linalg.norm(span)) or 1.0
    u = np.zeros(m.num_nodes)
    for _ in range(BUMP_COUNT):  # fixed draw count: mesh-comparable stream
        frac = rng.random(m.points.shape[1])
        width = diam * (0.03 + 0.17 * rng.random())
        amp = rng.standard_normal()
        if count > 0:
            center = lo + frac * span
            u += amp * np.exp(-_wrapped_sq_dist(m.points, center, m.periods)
                              / (2.0 * width ** 2))
        count -= 1
    return u


def generate_ensemble(m: DiscreteManifold, spec: EnsembleSpec,
                      dec: SpectralDecomposition | None = None) -> np.ndarray:
    """Members as rows, bit-identical for identical (seed, generator, manifold).

    Spectral generators (band-limited, eigen-mix, mixed) require a
    decomposition of the manifold; bumps need only node coordinates.  A
    spectral member projects seeded node noise xi / sqrt(mass) (standard
    normal coefficients in every mass-orthonormal basis) onto whole
    eigenvalue clusters, so it does not depend on the eigensolver's basis
    inside a degenerate eigenspace; it draws from its own child generator,
    so the main stream (and with it every bump) does not depend on the mesh.
    Members are drawn in stream order; the spectral ones are then projected
    in one product.
    """
    if spec.generator != "bumps" and dec is None:
        raise ValueError(f"generator {spec.generator!r} requires a spectral decomposition")
    rng = np.random.default_rng(spec.seed)
    members = np.empty((spec.size, m.num_nodes))
    if spec.generator != "bumps":
        bounds = dec.cluster_bounds()
        # count clusters start below SPECTRAL_MODES; K = bounds[count] ends the last
        count = np.searchsorted(bounds[:-1], min(SPECTRAL_MODES, bounds[-1]))
        band = (1.0 + dec.eigenvalues[:bounds[count]]) ** (-BAND_DECAY / 2.0)
    rows, weights = [], []
    for i in range(spec.size):
        if spec.generator == "mixed":
            kind = ("band-limited", "bumps", "eigen-mix")[i % 3]
        else:
            kind = spec.generator
        if kind == "bumps":
            members[i] = _bump_member(m, rng)
            continue
        child = rng.spawn(1)[0]
        if kind == "band-limited":
            weights.append(band)
        else:  # three clusters, each ending at or before K
            keep = np.zeros_like(band)
            for c in child.integers(0, count, size=3):
                keep[bounds[c]:bounds[c + 1]] = 1.0
            weights.append(keep)
        child.standard_normal(out=members[i])
        rows.append(i)
    if rows:
        members[rows] = dec.synthesize(np.array(weights) * dec.coefficients(
            members[rows] / np.sqrt(m.mass), band.size))
    members[~members.any(axis=1)] = 1.0  # degenerate draw; constants are valid members
    if spec.normalization == "unit-l2":
        members /= lp_norm(m, members, 2.0)[:, None]
    return members


# ---------------------------------------------------------------------------
# Sobolev (A, B) estimation

@dataclass(frozen=True)
class SobolevEstimate:
    """Feasible (A, B) for ||u||_{p*}^p <= A ||grad u||_p^p + (B/vol^{p/n}) ||u||_p^p."""

    p: float
    target_exponent: float
    A_est: float
    B_est: float
    max_ratio: float
    ensemble_meta: dict = field(default_factory=dict)


class _Worst(NamedTuple):
    ratio: float  # -inf when no member is used
    witness: int  # earliest flat index tied with the worst (TIE_REL); -1 if none
    violations: int
    used: int


def _worst_ratio(num, den, slack: float = 0.0, used=None) -> _Worst:
    """Worst num/den over per-member (or per-case) values, flattened in C order.

    A member with den <= 0 has ratio inf when num > 0 and carries no
    information otherwise, so it is not used; an explicit boolean ``used``
    mask replaces that rule.  Violations are used members with
    num > den (1 + slack).  The witness is the earliest case within TIE_REL
    of the worst ratio, so roundoff among equal ratios does not pick it.
    """
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float),
                                   np.asarray(den, dtype=float))
    num, den = num.ravel(), den.ravel()
    finite = np.isfinite(num) & np.isfinite(den)
    if not finite.all():
        raise ValueError("non-finite functional value on member "
                         f"{int(np.argmin(finite))}")
    used = (den > 0) | (num > 0) if used is None else np.ravel(used)
    if not used.any():
        return _Worst(-math.inf, -1, 0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(used, np.where(den > 0, num / den, math.inf), -math.inf)
    top = float(np.max(ratio))
    tied = ratio >= (top - TIE_REL * abs(top) if top < math.inf else top)
    violations = np.count_nonzero(used & (num > den * (1.0 + slack)))
    return _Worst(top, int(np.argmax(tied)), int(violations),
                  int(np.count_nonzero(used)))


def _pstar(n: int, p: float) -> float:
    """The Sobolev exponent np/(n-p); ValueError unless 1 <= p < n."""
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < dim")
    return n * p / (n - p)


def _sobolev_terms(m: DiscreteManifold, p: float, members: np.ndarray):
    n = m.dim
    pstar = _pstar(n, p)
    lhs = lp_norm(m, members, pstar) ** p
    grd = grad_lp_norm(m, members, p) ** p
    low = lp_norm(m, members, p) ** p / m.volume ** (p / n)
    return pstar, lhs, grd, low


def _min_A_from_terms(lhs: np.ndarray, grd: np.ndarray, low: np.ndarray,
                      B: float) -> float:
    scale = np.maximum(lhs, B * low)
    flat = grd <= 1e-13 * np.maximum(scale, 1.0)
    if np.any(lhs[flat] > B * low[flat] * (1.0 + 1e-12) + 1e-300):
        return math.inf
    return max(0.0, _worst_ratio(lhs - B * low, grd, used=~flat).ratio)


def min_feasible_A(m: DiscreteManifold, p: float, members: np.ndarray,
                   B: float) -> float:
    """Smallest A making the p-Sobolev inequality hold on every member.

    Returns inf when some gradient-free member already violates the B term.
    """
    _, lhs, grd, low = _sobolev_terms(m, p, members)
    return _min_A_from_terms(lhs, grd, low, B)


def estimate_sobolev_AB(m: DiscreteManifold, p: float, members: np.ndarray,
                        b_grid: tuple[float, ...] = DEFAULT_B_GRID,
                        meta: dict | None = None) -> SobolevEstimate:
    """Pick the feasible (A, B) pair minimizing A + B over the B grid.

    Ties resolve to the earliest grid entry, so estimates are reproducible.
    """
    if len(members) == 0:
        raise ValueError("empty ensemble")
    if len(b_grid) == 0:
        raise ValueError("empty B grid")
    pstar, lhs, grd, low = _sobolev_terms(m, p, members)
    best = None
    for b in b_grid:
        a = _min_A_from_terms(lhs, grd, low, b)
        if not math.isfinite(a):
            continue
        if best is None or a + b < best[0] + best[1]:
            best = (a, b)
    if best is None:
        raise ValueError("no feasible (A, B) on the grid; extend the B grid")
    a, b = best
    ratio = _worst_ratio(lhs, a * grd + b * low).ratio
    return SobolevEstimate(p=p, target_exponent=pstar, A_est=a, B_est=b,
                           max_ratio=ratio, ensemble_meta=dict(meta or {}))


def estimate_single_A(m: DiscreteManifold, mu: float, members: np.ndarray,
                      psi: PotentialField) -> float:
    """Smallest A with ||u||_{2mu/(mu-2)}^2 <= A int(|grad u|^2 + Psi u^2) on the ensemble.

    The energy form must be positive on every member (Psi >= 0 suffices).
    """
    if mu <= 2:
        raise ValueError("mu must exceed 2 for the exponent 2mu/(mu-2)")
    q = 2.0 * mu / (mu - 2.0)
    energy = q_energy(m, psi, members)
    if np.any(energy <= 0):
        raise ValueError("nonpositive energy member; use a nonnegative potential")
    return max(0.0, _worst_ratio(lp_norm(m, members, q) ** 2, energy).ratio)


def single_constant_from_pair(est: SobolevEstimate, vol: float, n: int) -> float:
    """Merge (A, B) into one constant for the energy form with Psi = 1.

    A ||grad u||^p + (B/vol^{p/n}) ||u||^p <= max(A, B/vol^{p/n}) (||grad u||^p + ||u||^p).
    """
    return max(est.A_est, est.B_est / vol ** (est.p / n))


# ---------------------------------------------------------------------------
# log-Sobolev profiles and heat-bound constants

@dataclass(frozen=True)
class LogSobolevProfile:
    """beta(sigma) samples for int u^2 ln u^2 <= sigma Q(u) + beta(sigma)."""

    sigma_grid: np.ndarray
    beta_values: np.ndarray
    source: str  # "measured" | "derived-from-sobolev"

    def __post_init__(self):
        s = np.asarray(self.sigma_grid, dtype=float)
        b = np.asarray(self.beta_values, dtype=float)
        if s.ndim != 1 or s.shape != b.shape:
            raise ValueError("grid and values must be 1-d and matching")
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise ValueError("sigma grid must be ascending and positive")
        if not np.all(np.isfinite(b)):
            raise ValueError("beta values must be finite")
        object.__setattr__(self, "sigma_grid", s)
        object.__setattr__(self, "beta_values", b)


def entropy(m: DiscreteManifold, u: np.ndarray) -> float | np.ndarray:
    """int u^2 ln u^2 with the 0 ln 0 = 0 convention; one value per row of u."""
    x = u * u
    return _per_member(np.sum(m.mass * x * np.log(np.where(x > 0, x, 1.0)), axis=-1))


def measure_log_sobolev_beta(m: DiscreteManifold, psi: PotentialField,
                             sigma_grid: np.ndarray, members: np.ndarray
                             ) -> LogSobolevProfile:
    """beta(sigma) = max over unit-L2 members of entropy(u) - sigma Q(u).

    Raw per-sigma maxima are returned; non-increase in sigma is a property
    of the construction when Q >= 0, not an enforced post-processing step.
    """
    off = np.abs(lp_norm(m, members, 2.0) - 1.0) > 1e-8
    if off.any():
        raise ValueError(f"member {int(np.argmax(off))} is not unit-L2 normalized")
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    beta = np.max(entropy(m, members)
                  - sigma_grid[:, None] * q_energy(m, psi, members), axis=1)
    return LogSobolevProfile(sigma_grid=sigma_grid, beta_values=beta,
                             source="measured")


def log_coefficient_A0(A: float, mu: float) -> float:
    """A0 = (mu/2) ln(mu/2) + (mu/2) ln A - 1."""
    if A <= 0 or mu <= 1:
        raise ValueError("need A > 0 and mu > 1")
    return (mu / 2.0) * math.log(mu / 2.0) + (mu / 2.0) * math.log(A) - 1.0


def beta_from_sobolev(A: float, mu: float, sigma: float) -> float:
    """beta(sigma) = -(mu/2) ln sigma + (mu/2) ln(mu/2) + (mu/2) ln A - 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return -(mu / 2.0) * math.log(sigma) + log_coefficient_A0(A, mu)


def derived_profile(A: float, mu: float, sigma_grid: np.ndarray) -> LogSobolevProfile:
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    beta = np.array([beta_from_sobolev(A, mu, s) for s in sigma_grid])
    return LogSobolevProfile(sigma_grid=sigma_grid, beta_values=beta,
                             source="derived-from-sobolev")


def tau_closed_form(t: float, A: float, mu: float) -> float:
    """tau(t) = -(mu/4) ln t + mu/4 + A0/2 for the logarithmic beta."""
    if t <= 0:
        raise ValueError("t must be positive")
    return -(mu / 4.0) * math.log(t) + mu / 4.0 + log_coefficient_A0(A, mu) / 2.0


def tau_of_t(t: float, beta: Callable[[float], float] | LogSobolevProfile,
             sigma_star: float = math.inf) -> float:
    """tau(t) = (1/2t) int_0^t beta(sigma) d sigma by adaptive quadrature.

    beta may be a callable or a measured profile (interpolated linearly,
    extended by its boundary values); the log singularity at 0 is integrable.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if t >= sigma_star:
        raise ValueError("t must stay below sigma_star")
    if isinstance(beta, LogSobolevProfile):
        grid, vals = beta.sigma_grid, beta.beta_values

        def beta_fn(s: float) -> float:
            return float(np.interp(s, grid, vals))
    else:
        beta_fn = beta
    from scipy.integrate import quad  # deferred: costs ~0.3 s at import

    integral, _ = quad(beta_fn, 0.0, t, limit=200, points=[0.0, t * 0.5])
    return integral / (2.0 * t)


def ultracontractivity_constant(A: float, mu: float) -> dict:
    """Prefactor and exponent in ||e^{-tH}u||_inf <= c t^{-mu/4} ||u||_2."""
    c = math.exp(mu / 4.0 + log_coefficient_A0(A, mu) / 2.0)
    return {"c": c, "exponent": mu / 4.0}


# ---------------------------------------------------------------------------
# uniform inequality verification

@dataclass(frozen=True)
class InequalityCheck:
    """LHS <= RHS functional pair; each maps the member matrix to a vector."""

    label: str
    lhs: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[[np.ndarray], np.ndarray]


def two_term_check(m: DiscreteManifold, p: float, A: float, B: float
                   ) -> InequalityCheck:
    """||u||_{p*}^p <= A ||grad u||_p^p + (B/vol^{p/n}) ||u||_p^p as a check."""
    if A < 0 or B < 0:
        raise ValueError("need A >= 0 and B >= 0")
    n = m.dim
    pstar = _pstar(n, p)
    vol_term = m.volume ** (p / n)
    return InequalityCheck(
        label=f"sobolev-two-term:p={p:g}",
        lhs=lambda u: lp_norm(m, u, pstar) ** p,
        rhs=lambda u: (A * grad_lp_norm(m, u, p) ** p
                       + B / vol_term * lp_norm(m, u, p) ** p))


@dataclass(frozen=True)
class VerifyReport:
    label: str
    members: int
    violations: int
    worst_ratio: float
    witness: int  # index of the worst member, ties to the earliest

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_inequality(check: InequalityCheck, members: np.ndarray) -> VerifyReport:
    """Count members with LHS > RHS beyond RELATIVE_SLACK; report the worst ratio."""
    worst = _worst_ratio(check.lhs(members), check.rhs(members),
                         slack=RELATIVE_SLACK)
    return VerifyReport(label=check.label, members=len(members),
                        violations=worst.violations, worst_ratio=worst.ratio,
                        witness=worst.witness)
