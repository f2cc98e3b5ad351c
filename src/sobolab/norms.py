"""Discrete L^p, gradient, W^{1,p}, spectral-square-root and energy norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import DiscreteManifold
from .spectral import PotentialField, SpectralDecomposition, apply_function

__all__ = [
    "lp_norm",
    "grad_lp_norm",
    "w1p_norm",
    "bessel_norm",
    "q_energy",
    "NormReport",
    "norm_report",
]


def _per_member(x) -> float | np.ndarray:
    """A float for one member, the vector of per-member values for a matrix."""
    return float(x) if np.ndim(x) == 0 else x


def lp_norm(m: DiscreteManifold, u: np.ndarray, p: float) -> float | np.ndarray:
    """Mass-weighted L^p norm; p = inf gives the node maximum.

    u is one node function (N,) or a member matrix (K, N), rows = members;
    the norm is taken along the last axis.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.isinf(p):
        return _per_member(np.max(np.abs(u), axis=-1))
    return _per_member(np.sum(m.mass * np.abs(u) ** p, axis=-1) ** (1.0 / p))


def grad_lp_norm(m: DiscreteManifold, u: np.ndarray,
                 p: float) -> float | np.ndarray:
    """Element-volume-weighted L^p norm of the per-element gradient magnitude."""
    if p < 1:
        raise ValueError("p must be >= 1")
    mags = m.grad.magnitudes(u)
    if np.isinf(p):
        return _per_member(np.max(mags, axis=-1, initial=0.0))
    return _per_member(np.sum(m.grad.weights * mags ** p, axis=-1) ** (1.0 / p))


def w1p_norm(m: DiscreteManifold, u: np.ndarray, p: float) -> float | np.ndarray:
    """Sum convention: ||u||_p + ||grad u||_p."""
    return lp_norm(m, u, p) + grad_lp_norm(m, u, p)


def bessel_norm(m: DiscreteManifold, dec_unit: SpectralDecomposition,
                u: np.ndarray, p: float) -> float | np.ndarray:
    """||(-Laplacian+1)^(1/2) u||_p; dec_unit must be the Psi = 1 decomposition."""
    if not np.allclose(dec_unit.potential.values, 1.0, atol=1e-12):
        raise ValueError("bessel_norm requires the decomposition of -Laplacian + 1")
    return lp_norm(m, apply_function(dec_unit, np.sqrt, u), p)


def q_energy(m: DiscreteManifold, psi: PotentialField,
             u: np.ndarray) -> float | np.ndarray:
    """Quadratic form int (|grad u|^2 + Psi u^2); may be negative for Psi < 0."""
    stiff = np.sum(u * (m.stiffness @ u.T).T, axis=-1)
    return _per_member(stiff + np.sum(m.mass * psi.values * u * u, axis=-1))


@dataclass(frozen=True)
class NormReport:
    """Norm vocabulary of a single function on a single manifold."""

    lp: dict[float, float]
    grad_lp: dict[float, float]
    w1p: dict[float, float]
    bessel_1p: dict[float, float]
    q_energy: float


def norm_report(m: DiscreteManifold, dec_unit: SpectralDecomposition,
                psi: PotentialField, u: np.ndarray,
                ps: tuple[float, ...] = (1.0, 1.5, 2.0)) -> NormReport:
    lp = {p: lp_norm(m, u, p) for p in ps}
    gr = {p: grad_lp_norm(m, u, p) for p in ps}
    return NormReport(
        lp=lp, grad_lp=gr,
        w1p={p: lp[p] + gr[p] for p in ps},
        bessel_1p={p: bessel_norm(m, dec_unit, u, p) for p in ps},
        q_energy=q_energy(m, psi, u),
    )
