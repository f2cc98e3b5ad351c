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


def _check_exponent(p: float) -> None:
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got p={p:g}")


def lp_norm(m: DiscreteManifold, u: np.ndarray, p: float) -> float | np.ndarray:
    """Mass-weighted L^p norm; p = inf gives the node maximum.

    u is one node function (N,) or a member matrix (K, N), rows = members;
    the norm is taken along the last axis.
    """
    _check_exponent(p)
    a = np.abs(u, dtype=float)
    if np.isinf(p):
        return _per_member(np.max(a, axis=-1))
    a **= p  # in the fresh |u|: no further node-sized temporaries
    a *= m.mass
    return _per_member(np.sum(a, axis=-1) ** (1.0 / p))


def grad_lp_norm(m: DiscreteManifold, u: np.ndarray,
                 p: float) -> float | np.ndarray:
    """Element-volume-weighted L^p norm of the per-element gradient magnitude."""
    _check_exponent(p)
    mags = m.grad.magnitudes(u)
    if np.isinf(p):
        return _per_member(np.max(mags, axis=-1, initial=0.0))
    mags **= p  # in place: magnitudes returns a fresh array
    mags *= m.grad.weights
    return _per_member(np.sum(mags, axis=-1) ** (1.0 / p))


def q_energy(m: DiscreteManifold, psi: PotentialField,
             u: np.ndarray) -> float | np.ndarray:
    """Quadratic form int (|grad u|^2 + Psi u^2); may be negative for Psi < 0."""
    return _per_member(m.grad.energy(u)
                       + np.sum(m.mass * psi.values * u * u, axis=-1))
