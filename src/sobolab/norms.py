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


# a sum of p-th powers below this may have lost terms to underflow
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


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
    with np.errstate(over="ignore"):
        a **= p  # in the fresh |u|: no further node-sized temporaries
    a *= m.mass
    sums = np.sum(a, axis=-1)
    norms = sums ** (1.0 / p)
    lost = np.isinf(sums) | (sums < _UNDERFLOW)  # |u|^p over- or underflowed
    if np.any(lost):
        norms = _rescaled(m, u, p, norms, lost)
    return _per_member(norms)


def _rescaled(m: DiscreteManifold, u: np.ndarray, p: float,
              norms: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """norms with each lost row recomputed as M (sum mass (|u|/M)^p)^(1/p),
    M = max |u| on the row; a zero row and a row holding inf keep their
    value."""
    norms, lost = np.array(norms, ndmin=1), np.array(lost, ndmin=1)
    rows = np.abs(np.reshape(u, lost.shape + (-1,))[lost], dtype=float)
    top = np.max(rows, axis=-1)
    fix = (top > 0) & (top < np.inf)
    rows = rows[fix] / top[fix, None]
    rows **= p
    rows *= m.mass
    lost[lost] = fix
    norms[lost] = top[fix] * np.sum(rows, axis=-1) ** (1.0 / p)
    return norms.reshape(np.shape(u)[:-1])


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
