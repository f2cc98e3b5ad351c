"""Ensemble-based estimation of Sobolev and log-Sobolev constants.

Test-function ensembles are deterministic functions of (seed, generator,
manifold).  Sobolev constants (A, B) are estimated as the smallest feasible
pair over a B-grid; entropy profiles beta(sigma) are measured directly or
derived in closed form from a Sobolev constant, with the associated
ultracontractivity constants tau(t) and c.  Every function that takes
members takes a member matrix (rows = members) or a MemberStream and
measures them a chunk of rows at a time; only per-member values outlive a
chunk.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .manifold import DiscreteManifold, _chunks
from .norms import _by_chunks, _grad_lp_norms, lp_norm, q_energy
from .spectral import PotentialField, SpectralDecomposition

__all__ = [
    "EnsembleSpec",
    "MemberStream",
    "generate_ensemble",
    "SobolevEstimate",
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

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.size < 1:
            raise ValueError("ensemble size must be positive")


def _bump_member(geo: tuple, rng: np.random.Generator, u: np.ndarray,
                 scratch: np.ndarray) -> None:
    """Superposition of Gaussian bumps into u; parameters drawn mesh-independently.

    geo is what every bump of an ensemble reads of the mesh, computed once:
    the bounding box's low corner, side lengths and diagonal, the periods and
    the coordinate columns.  The squared (wrapped) distance to a centre is
    summed one axis at a time in scratch, three node-sized rows.
    """
    lo, span, diam, periods, columns = geo
    sq, d, t = scratch
    count = 1 + int(rng.integers(0, BUMP_COUNT))
    u[:] = 0.0
    for _ in range(BUMP_COUNT):  # fixed draw count: mesh-comparable stream
        frac = rng.random(len(columns))
        width = diam * (0.03 + 0.17 * rng.random())
        amp = rng.standard_normal()
        if count > 0:
            center = lo + frac * span
            for j, x in enumerate(columns):
                np.subtract(x, center[j], out=d)
                if periods is not None:
                    np.rint(np.divide(d, periods[j], out=t), out=t)
                    t *= periods[j]
                    d -= t
                if j == 0:
                    np.multiply(d, d, out=sq)
                else:
                    sq += np.multiply(d, d, out=t)
            sq /= -2.0 * width ** 2
            np.exp(sq, out=sq)
            u += np.multiply(sq, amp, out=sq)
        count -= 1


@dataclass(frozen=True)
class MemberStream:
    """The members of an ensemble, drawn a chunk of rows at a time.

    Iterating yields the rows of generate_ensemble(manifold, spec, dec) in
    the chunks of manifold._chunks, and each iteration draws them anew from
    the seed, so a job that measures and drops each chunk holds two chunks
    of members (_sweep draws the next while it measures one), whatever the
    ensemble's size.
    """

    manifold: DiscreteManifold
    spec: EnsembleSpec
    dec: SpectralDecomposition | None = None

    def __post_init__(self):
        if self.spec.generator != "bumps" and self.dec is None:
            raise ValueError(f"generator {self.spec.generator!r} requires a "
                             "spectral decomposition")

    def __iter__(self) -> Iterator[np.ndarray]:
        m, spec, dec = self.manifold, self.spec, self.dec
        rng = np.random.default_rng(spec.seed)
        if spec.generator != "bumps":
            bounds = dec.cluster_bounds()
            # count clusters start below SPECTRAL_MODES; K = bounds[count]
            # ends the last
            count = np.searchsorted(bounds[:-1], min(SPECTRAL_MODES, bounds[-1]))
            band = (1.0 + dec.eigenvalues[:bounds[count]]) ** (-BAND_DECAY / 2.0)
            root = np.sqrt(m.mass)
        if spec.generator in ("bumps", "mixed"):
            lo = m.points.min(axis=0)
            span = m.points.max(axis=0) - lo
            geo = (lo, span, float(np.linalg.norm(span)) or 1.0, m.periods,
                   m.points.T.copy())
            scratch = np.empty((3, m.num_nodes))
        for part in _chunks(spec.size, m.num_nodes):
            index = range(spec.size)[part]
            chunk = np.empty((len(index), m.num_nodes))
            rows, weights = [], []
            for row, i in enumerate(index):
                if spec.generator == "mixed":
                    kind = ("band-limited", "bumps", "eigen-mix")[i % 3]
                else:
                    kind = spec.generator
                if kind == "bumps":
                    _bump_member(geo, rng, chunk[row], scratch)
                    continue
                child = rng.spawn(1)[0]
                if kind == "band-limited":
                    weights.append(band)
                else:  # three clusters, each ending at or before K
                    keep = np.zeros_like(band)
                    for c in child.integers(0, count, size=3):
                        keep[bounds[c]:bounds[c + 1]] = 1.0
                    weights.append(keep)
                child.standard_normal(out=chunk[row])
                rows.append(row)
            if rows:
                x = chunk[rows]  # a copy: divided in place, let go before yield
                x /= root
                c = dec.basis.forward(x, band.size)
                del x
                c *= dec.basis.native(np.array(weights), band.size)
                chunk[rows] = dec.basis.backward(c, band.size)
            # a degenerate draw: constants are valid members
            chunk[~chunk.any(axis=1)] = 1.0
            yield chunk


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
    Members are drawn in stream order, and the spectral rows of each chunk
    (manifold._chunks) are projected together: the matrix is the chunks of
    MemberStream(m, spec, dec), concatenated.  A job that needs each member
    once iterates the stream instead and never holds the matrix.
    """
    members = np.empty((spec.size, m.num_nodes))
    for part, chunk in zip(_chunks(spec.size, m.num_nodes),
                           MemberStream(m, spec, dec)):
        members[part] = chunk
    return members


def _member_chunks(members) -> Iterator[np.ndarray]:
    """The member rows a chunk at a time: a MemberStream as it draws them, a
    member matrix (one node function is one row) as its manifold._chunks
    slices."""
    if isinstance(members, MemberStream):
        return iter(members)
    rows = np.reshape(members, (-1, np.shape(members)[-1]))
    return (rows[part] for part in _chunks(*rows.shape))


class _NextChunk:
    """next(chunks, None), drawn on a worker thread while the caller
    measures the chunk before it.

    The draw runs in a copy of the caller's context, so numpy's errstate
    (a context variable since numpy 2) holds there as it does in the
    caller; result() joins the thread and returns the chunk (None past the
    last) or raises what the draw raised.
    """

    def __init__(self, chunks: Iterator[np.ndarray]):
        self._chunk = self._error = None
        self.thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._draw, chunks))
        self.thread.start()

    def _draw(self, chunks: Iterator[np.ndarray]) -> None:
        try:
            self._chunk = next(chunks, None)
        except BaseException as exc:  # raised again in the caller by result()
            self._error = exc

    def result(self) -> np.ndarray | None:
        self.thread.join()
        if self._error is not None:
            raise self._error
        return self._chunk


def _sweep(members, *measures) -> list[tuple]:
    """Each measure's per-member values over every member, from one pass
    over the member chunks (_member_chunks).

    A measure maps a chunk of rows to a tuple of arrays, each with one value
    per row along its last axis; the values of all chunks are concatenated
    along it.  Only those values outlive a chunk.  A MemberStream's next
    chunk is drawn on one worker thread (_NextChunk) while the current one
    is measured, so the draw and the measures each run in stream order and
    every value is what a serial pass gives; the thread is joined before
    _sweep returns or raises, and a measure that raises stops the draw.
    """
    parts = [[] for _ in measures]
    chunks = _member_chunks(members)
    ahead = isinstance(members, MemberStream)
    chunk, draw = next(chunks, None), None
    try:
        while chunk is not None:
            if ahead:
                draw = _NextChunk(chunks)
            for values, measure in zip(parts, measures):
                values.append(measure(chunk))
            chunk = draw.result() if ahead else next(chunks, None)
    finally:
        if draw is not None:
            draw.thread.join()
    if not parts[0]:
        raise ValueError("empty ensemble")
    return [tuple(np.concatenate(v, axis=-1) for v in zip(*values))
            for values in parts]


def _run(members, *scans) -> list:
    """The result of each (measure, reduce) scan from one pass over the
    members: reduce takes the measure's values (_sweep) over all of them."""
    values = _sweep(members, *(measure for measure, _ in scans))
    return [reduce(*v) for (_, reduce), v in zip(scans, values)]


def _row(members, index: int) -> np.ndarray:
    """Member row index; a MemberStream draws it anew, up to its chunk."""
    for chunk in _member_chunks(members):
        if index < len(chunk):
            return chunk[index]
        index -= len(chunk)
    raise IndexError("member index out of range")


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


def _check_constants(A: float, B: float) -> None:
    """ValueError unless the two-term constants A and B are finite and >= 0."""
    if not (0 <= A < math.inf and 0 <= B < math.inf):
        raise ValueError(f"need finite A >= 0 and B >= 0, got A={A:g}, B={B:g}")


def _check_b_grid(b_grid: tuple[float, ...]) -> None:
    """ValueError unless the B grid is non-empty and every B on it is >= 0."""
    if len(b_grid) == 0:
        raise ValueError("empty B grid")
    bad = [b for b in b_grid if not b >= 0]
    if bad:
        raise ValueError(f"need B >= 0 on the B grid, got B={bad[0]:g}")


def _sobolev_measure(m: DiscreteManifold, ps: tuple[float, ...]):
    """A measure (see _sweep) of the per-member terms of the two-term form
    ||u||_{p*}^p <= A ||grad u||_p^p + (B/vol^{p/n}) ||u||_p^p at each p of
    ps: ||u||_{p*}^p, ||grad u||_p^p and ||u||_p^p / vol^{p/n}, three
    arrays per p.  A chunk's element-gradient magnitudes are formed once for
    all of ps.  The three terms take the same factor l^(n-p) of the length,
    so they are taken on the reference mesh, and the constants and ratios
    they give do not read l."""
    m = m.reference
    n = m.dim
    stars = [_pstar(n, p) for p in ps]

    def measure(rows):
        terms = []
        for p, pstar, grad in zip(ps, stars, _grad_lp_norms(m, rows, ps)):
            terms += [lp_norm(m, rows, pstar) ** p, grad ** p,
                      lp_norm(m, rows, p) ** p / m.volume ** (p / n)]
        return tuple(terms)
    return measure


def _min_A_from_terms(lhs: np.ndarray, grd: np.ndarray, low: np.ndarray,
                      B: float) -> float:
    """Smallest A making the two-term form hold on every member at this B;
    inf when some gradient-free member already violates the B term."""
    scale = np.maximum(lhs, B * low)
    flat = grd <= 1e-13 * scale
    if np.any(lhs[flat] > B * low[flat] * (1.0 + 1e-12) + 1e-300):
        return math.inf
    return max(0.0, _worst_ratio(lhs - B * low, grd, used=~flat).ratio)


def _best_pair(p: float, pstar: float, lhs: np.ndarray, grd: np.ndarray,
               low: np.ndarray, b_grid: tuple[float, ...]) -> SobolevEstimate:
    """The feasible (A, B) minimizing A + B over b_grid, from the per-member
    terms at p (_sobolev_measure); ties resolve to the earliest B."""
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
                           max_ratio=ratio)


def estimate_sobolev_AB(m: DiscreteManifold, p: float, members,
                        b_grid: tuple[float, ...] = DEFAULT_B_GRID) -> SobolevEstimate:
    """Pick the feasible (A, B) pair minimizing A + B over the B grid.

    Ties resolve to the earliest grid entry, so estimates are reproducible.
    """
    _check_b_grid(b_grid)
    (lhs, grd, low), = _sweep(members, _sobolev_measure(m, (p,)))
    return _best_pair(p, _pstar(m.dim, p), lhs, grd, low, b_grid)


def estimate_single_A(m: DiscreteManifold, mu: float, members,
                      psi: PotentialField) -> float:
    """Smallest A with ||u||_{2mu/(mu-2)}^2 <= A int(|grad u|^2 + Psi u^2) on the ensemble.

    The energy form must be positive on every member (Psi >= 0 suffices).
    """
    if mu <= 2:
        raise ValueError("mu must exceed 2 for the exponent 2mu/(mu-2)")
    q = 2.0 * mu / (mu - 2.0)
    (lhs, energy), = _sweep(members, lambda rows: (
        lp_norm(m, rows, q) ** 2, q_energy(m, psi, rows)))
    if np.any(energy <= 0):
        raise ValueError("nonpositive energy member; use a nonnegative potential")
    return max(0.0, _worst_ratio(lhs, energy).ratio)


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
    def measure(rows):
        x = rows * rows
        return m.physical(
            np.sum(m.mass * x * np.log(np.where(x > 0, x, 1.0)), axis=-1), m.dim)
    return _by_chunks(u, measure)


def _beta_scan(m: DiscreteManifold, psi: PotentialField,
               sigma_grid: np.ndarray, normalize: bool = False):
    """measure_log_sobolev_beta as a (measure, reduce) scan for _run;
    normalize scales each chunk's rows to unit L2 first."""
    sigma_grid = np.asarray(sigma_grid, dtype=float)

    def measure(rows):
        if normalize:
            rows = rows / lp_norm(m, rows, 2.0)[:, None]
        return lp_norm(m, rows, 2.0), entropy(m, rows), q_energy(m, psi, rows)

    def reduce(norms, ent, energy):
        off = np.abs(norms - 1.0) > 1e-8
        if off.any():
            raise ValueError(f"member {int(np.argmax(off))} is not unit-L2 "
                             "normalized")
        beta = np.array([np.max(ent - s * energy) for s in sigma_grid])
        return LogSobolevProfile(sigma_grid=sigma_grid, beta_values=beta)
    return measure, reduce


def measure_log_sobolev_beta(m: DiscreteManifold, psi: PotentialField,
                             sigma_grid: np.ndarray, members
                             ) -> LogSobolevProfile:
    """beta(sigma) = max over unit-L2 members of entropy(u) - sigma Q(u).

    Raw per-sigma maxima are returned; non-increase in sigma is a property
    of the construction when Q >= 0, not an enforced post-processing step.
    """
    return _run(members, _beta_scan(m, psi, sigma_grid))[0]


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
    return LogSobolevProfile(sigma_grid=sigma_grid, beta_values=beta)


def tau_closed_form(t: float, A: float, mu: float) -> float:
    """tau(t) = -(mu/4) ln t + mu/4 + A0/2 for the logarithmic beta."""
    if t <= 0:
        raise ValueError("t must be positive")
    return -(mu / 4.0) * math.log(t) + mu / 4.0 + log_coefficient_A0(A, mu) / 2.0


def tau_of_t(t: float, beta: Callable[[float], float] | LogSobolevProfile,
             sigma_star: float = math.inf) -> float:
    """tau(t) = (1/2t) int_0^t beta(sigma) d sigma, by a fixed rule.

    A measured profile is interpolated linearly and extended by its
    boundary values, so its integral is exact: trapezoids on 0, the grid
    points below t, and t.  A callable is integrated by 32-point
    Gauss-Legendre after sigma = t v^6, which smooths the integrable log
    singularity at 0 (within about 3e-15 of tau_closed_form for the
    logarithmic beta).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if t >= sigma_star:
        raise ValueError("t must stay below sigma_star")
    if isinstance(beta, LogSobolevProfile):
        grid = beta.sigma_grid
        s = np.concatenate(([0.0], grid[grid < t], [t]))
        b = np.interp(s, grid, beta.beta_values)
        return float(np.sum(np.diff(s) * (b[:-1] + b[1:]))) / (4.0 * t)
    x, w = np.polynomial.legendre.leggauss(32)
    v = 0.5 * (x + 1.0)  # d sigma = 6 t v^5 dv, and dv = dx / 2
    return 1.5 * sum(float(wi * vi ** 5 * beta(t * vi ** 6))
                     for wi, vi in zip(w, v))


def ultracontractivity_constant(A: float, mu: float) -> dict:
    """Prefactor and exponent in ||e^{-tH}u||_inf <= c t^{-mu/4} ||u||_2."""
    c = math.exp(mu / 4.0 + log_coefficient_A0(A, mu) / 2.0)
    return {"c": c, "exponent": mu / 4.0}


# ---------------------------------------------------------------------------
# two-term inequality verification

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


def verify_inequality(m: DiscreteManifold, p: float, A: float, B: float,
                      members) -> VerifyReport:
    """Check ||u||_{p*}^p <= A ||grad u||_p^p + (B/vol^{p/n}) ||u||_p^p on
    every member: count violations beyond RELATIVE_SLACK, report the worst ratio."""
    _check_constants(A, B)
    (lhs, grd, low), = _sweep(members, _sobolev_measure(m, (p,)))
    worst = _worst_ratio(lhs, A * grd + B * low, slack=RELATIVE_SLACK)
    return VerifyReport(label=f"sobolev-two-term:p={p:g}", members=lhs.size,
                        violations=worst.violations, worst_ratio=worst.ratio,
                        witness=worst.witness)
