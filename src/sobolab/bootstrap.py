"""Exponent bootstrap: the p-ladder recurrence and explicit constant chains.

A feasible p0-Sobolev pair (A, B) is pushed to any target p < n through
closed-form per-step constants; each hop feeds its (C1, C2) output into the
next as (A, B).  The step multiplicity m_p = 2^(k+1) for targets in
(p_k, p_{k+1}] governs how a common scale factor on (A, B) propagates.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

__all__ = [
    "LADDER_GUARD",
    "PLadder",
    "BootstrapStep",
    "BootstrapChain",
    "p_next",
    "iterate_ladder",
    "build_ladder",
    "r_p",
    "step_constants",
    "chain_constants",
    "alpha_scaling_bound",
]

LADDER_GUARD = 200
SCALING_SLACK = 1e-9  # relative and absolute slack of alpha_scaling_bound


def p_next(n: float, p: float) -> float:
    """One ladder hop: n^2 p / ((n-p)^2 + n p).  Fixed point only at p = n."""
    if not 1 <= p < n:
        raise ValueError(f"p={p} outside [1, n) for n={n}")
    return n * n * p / ((n - p) ** 2 + n * p)


def iterate_ladder(n: float, p0: float, count: int) -> list[float]:
    """First `count` ladder iterates in double precision.

    The recurrence converges to n faster than any fixed float format can
    resolve, so iterates are clamped to the largest double below n once the
    arithmetic saturates; the sequence is strictly increasing before that.
    """
    cap = math.nextafter(float(n), 0.0)
    vals = [float(p0)]
    for _ in range(count):
        nxt = min(p_next(n, vals[-1]), cap)
        vals.append(max(nxt, vals[-1]))
    return vals


@dataclass(frozen=True)
class PLadder:
    """Ladder values p_0 < p_1 < ... with interval lookup for targets."""

    p0: float
    values: tuple[float, ...]

    def k_for(self, p: float) -> int:
        """Index k with p in (p_k, p_{k+1}]."""
        if not self.p0 < p <= self.values[-1]:
            raise ValueError(f"target {p} outside the built ladder range")
        for k in range(len(self.values) - 1):
            if self.values[k] < p <= self.values[k + 1]:
                return k
        raise AssertionError("unreachable for a strictly increasing ladder")

    def m_for(self, p: float) -> int:
        """Step multiplicity 2^(k+1) for p in (p_k, p_{k+1}]."""
        return 2 ** (self.k_for(p) + 1)


def build_ladder(n: float, p0: float, target_p: float) -> PLadder:
    """Extend the ladder until target_p <= p_{k+1}; guarded at 200 hops."""
    if not 1 <= p0 < n:
        raise ValueError("need 1 <= p0 < n")
    if not p0 < target_p < n:
        raise ValueError("need p0 < target_p < n")
    vals = [float(p0)]
    for _ in range(LADDER_GUARD):
        vals.append(p_next(n, vals[-1]))
        if target_p <= vals[-1]:
            return PLadder(p0=p0, values=tuple(vals))
    raise RuntimeError("ladder guard exceeded; target too close to n")


def r_p(n: float, p0: float, p: float) -> float:
    """r_p = p(n - p0) / (p0 (n - p)); equals 1 at p = p0."""
    if p >= n:
        raise ValueError("p must be below n")
    if p < p0:
        raise ValueError("p must be at least p0")
    return p * (n - p0) / (p0 * (n - p))


def _one_step(n, p0, p, A, B, power):
    one = A / A  # unit in the working arithmetic (float or mpf)
    r = r_p(n * one, p0 * one, p * one)
    lead = power(2.0 * one, (p - p0) / p0)
    c1 = lead * power(A, p / p0) * power(r ** p0 + B, p / p0)
    c2 = lead * power(B, 2.0 * p / p0) if B > 0 else B * 0
    return c1, c2


def step_constants(n: float, p0: float, p: float, A: float, B: float
                   ) -> tuple[float, float]:
    """One-hop constants.

    C1 = 2^((p-p0)/p0) A^(p/p0) (r_p^p0 + B)^(p/p0),
    C2 = 2^((p-p0)/p0) B^(2p/p0), valid for p0 < p <= n^2 p0/((n-p0)^2 + n p0).
    """
    if A <= 0 or B < 0:
        raise ValueError("need A > 0 and B >= 0")
    reach = p_next(n, p0)
    if not p0 < p <= reach * (1 + 1e-14):
        raise ValueError(f"p={p} beyond the one-step reach {reach}")
    c1, c2 = _one_step(n, p0, p, A, B, math.pow)
    return float(c1), float(c2)


@dataclass(frozen=True)
class BootstrapStep:
    from_p: float
    to_p: float
    r: float
    C1: float
    C2: float


@dataclass(frozen=True)
class BootstrapChain:
    """Composed constants from (p0, A, B) up to the target exponent."""

    steps: tuple[BootstrapStep, ...]
    m_p: int

    @property
    def C1(self) -> float:
        return self.steps[-1].C1

    @property
    def C2(self) -> float:
        return self.steps[-1].C2


def chain_constants(n: float, p0: float, A: float, B: float, target_p: float,
                    precision: int | None = None) -> BootstrapChain:
    """Chain through p_1, ..., p_k and a final partial hop to target_p.

    Each hop feeds its (C1, C2) forward as the next (A, B).  The final hop
    stops at target_p rather than overshooting to p_{k+1}, matching the
    interval definition of m_p and giving smaller constants.  precision, if
    given, switches the arithmetic to mpmath with that many decimal digits
    (powers like B^(2p/p0) amplify roundoff across hops).
    """
    if not (0 < A < math.inf and 0 <= B < math.inf):
        raise ValueError(f"need finite A > 0 and B >= 0, got A={A:g}, B={B:g}")
    if precision is not None and precision < 1:
        raise ValueError(f"precision must be at least 1 decimal digit, "
                         f"got {precision}")
    ladder = build_ladder(n, p0, target_p)
    k = ladder.k_for(target_p)
    hops = list(ladder.values[1:k + 1]) + [target_p]
    if precision is None:
        power = math.pow
        a_cur, b_cur = float(A), float(B)
        ctx = contextlib.nullcontext()
    else:
        import mpmath  # deferred: only the high-precision mode needs it

        power = mpmath.power
        a_cur, b_cur = mpmath.mpf(A), mpmath.mpf(B)
        ctx = mpmath.workdps(precision)
    steps = []
    from_p = p0
    with ctx:
        for hop, to_p in enumerate(hops, 1):
            try:
                c1, c2 = _one_step(n, from_p, to_p, a_cur, b_cur, power)
            except OverflowError:
                c1 = c2 = math.inf
            step = BootstrapStep(from_p=from_p, to_p=to_p, r=r_p(n, from_p, to_p),
                                 C1=float(c1), C2=float(c2))
            if not (math.isfinite(step.C1) and math.isfinite(step.C2)):
                raise ValueError(f"hop {hop} of the chain, p = {from_p:g} -> "
                                 f"{to_p:g}: its constants overflow a float")
            steps.append(step)
            a_cur, b_cur, from_p = c1, c2, to_p
    return BootstrapChain(steps=tuple(steps), m_p=2 ** (k + 1))


def alpha_scaling_bound(n: float, p0: float, target_p: float, A1: float,
                        B1: float, alpha: float) -> dict:
    """Check chain(alpha A1, alpha B1).C_i <= alpha^(m_p p/p0) chain(A1, B1).C_i.

    Returns the verification record; raises AssertionError with the
    counterexample tuple if the bound fails beyond SCALING_SLACK.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    base = chain_constants(n, p0, A1, B1, target_p)
    scaled = chain_constants(n, p0, alpha * A1, alpha * B1, target_p)
    factor = alpha ** (base.m_p * target_p / p0)
    record = {
        "n": n, "p0": p0, "target_p": target_p, "A1": A1, "B1": B1,
        "alpha": alpha, "m_p": base.m_p, "factor": factor,
        "base": (base.C1, base.C2), "scaled": (scaled.C1, scaled.C2),
        "margins": (factor * base.C1 - scaled.C1, factor * base.C2 - scaled.C2),
    }
    for name, got, bound in (("C1", scaled.C1, factor * base.C1),
                             ("C2", scaled.C2, factor * base.C2)):
        if got > bound * (1.0 + SCALING_SLACK) + SCALING_SLACK:
            raise AssertionError(
                f"scaling bound failed for {name}: {got} > {bound} at "
                f"(n={n}, p0={p0}, p={target_p}, A1={A1}, B1={B1}, alpha={alpha})")
    return record
