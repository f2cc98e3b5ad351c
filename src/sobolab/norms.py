"""Discrete L^p, gradient and energy norms."""

from __future__ import annotations

import numpy as np

from .manifold import DiscreteManifold
from .spectral import PotentialField

__all__ = [
    "lp_norm",
    "grad_lp_norm",
    "q_energy",
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


def q_energy(m: DiscreteManifold, psi: PotentialField,
             u: np.ndarray) -> float | np.ndarray:
    """Quadratic form int (|grad u|^2 + Psi u^2); may be negative for Psi < 0."""
    return _per_member(m.grad.energy(u)
                       + np.sum(m.mass * psi.values * u * u, axis=-1))
