"""Discrete L^p, gradient and energy norms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .manifold import DiscreteManifold, _chunks
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


def _by_chunks(u: np.ndarray,
               measure: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """measure(rows), one value per row, over the member rows of u a chunk
    at a time (manifold._chunks), so no temporary outgrows one chunk.

    u is one node function (N,), measured as a one-row matrix, or a member
    matrix (K, N).  measure reduces each row along its own contiguous
    entries, so a row's value does not depend on the chunk it falls in.
    """
    rows = np.reshape(u, (-1, np.shape(u)[-1]))
    out = np.empty(len(rows))
    for part in _chunks(*rows.shape):
        out[part] = measure(rows[part])
    return _per_member(out.reshape(np.shape(u)[:-1]))


def _check_exponent(p: float) -> None:
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got p={p:g}")


def lp_norm(m: DiscreteManifold, u: np.ndarray, p: float) -> float | np.ndarray:
    """Mass-weighted L^p norm; p = inf gives the node maximum.

    u is one node function (N,) or a member matrix (K, N), rows = members;
    the norm is taken along the last axis.
    """
    _check_exponent(p)
    if np.isinf(p):
        return _by_chunks(u, lambda rows: np.max(np.abs(rows), axis=-1))
    return _by_chunks(u, lambda rows: _lp_rows(m.mass, rows, p))


def _lp_rows(mass: np.ndarray, rows: np.ndarray, p: float) -> np.ndarray:
    """The L^p norm of each row, rescaling the rows whose |u|^p over- or
    underflowed (_rescaled)."""
    a = np.abs(rows, dtype=float)
    with np.errstate(over="ignore"):
        a **= p  # in the fresh |u|: no further chunk-sized temporaries
    a *= mass
    sums = np.sum(a, axis=-1)
    norms = sums ** (1.0 / p)
    lost = np.isinf(sums) | (sums < _UNDERFLOW)
    if np.any(lost):
        _rescaled(mass, rows, p, norms, lost)
    return norms


def _rescaled(mass: np.ndarray, rows: np.ndarray, p: float,
              norms: np.ndarray, lost: np.ndarray) -> None:
    """Recompute each lost row's norm in place as M (sum mass (|u|/M)^p)^(1/p),
    M = max |u| on the row; a zero row and a row holding inf keep their
    value."""
    a = np.abs(rows[lost], dtype=float)
    top = np.max(a, axis=-1)
    fix = (top > 0) & (top < np.inf)
    a = a[fix] / top[fix, None]
    a **= p
    a *= mass
    lost[lost] = fix
    norms[lost] = top[fix] * np.sum(a, axis=-1) ** (1.0 / p)


def grad_lp_norm(m: DiscreteManifold, u: np.ndarray,
                 p: float) -> float | np.ndarray:
    """Element-volume-weighted L^p norm of the per-element gradient magnitude."""
    _check_exponent(p)
    return _by_chunks(u, lambda rows: _grad_lp_norms(m, rows, (p,))[0])


def _grad_lp_norms(m: DiscreteManifold, rows: np.ndarray,
                   ps: tuple[float, ...]) -> list[np.ndarray]:
    """grad_lp_norm of each of a chunk's rows at each exponent of ps, from
    one computation of the element-gradient magnitudes.  A norm past the
    float range is refused, naming the model: its cells are too small for
    the gradients of its members."""
    mags = m.grad.magnitudes(rows)
    norms = []
    with np.errstate(over="ignore"):
        for p in ps:
            if np.isinf(p):
                norms.append(np.max(mags, axis=-1, initial=0.0))
                continue
            powers = mags ** p
            powers *= m.grad.weights
            norms.append(np.sum(powers, axis=-1) ** (1.0 / p))
    if not all(np.isfinite(x).all() for x in norms):
        raise ValueError(f"model {m.label}: a member's gradient norm "
                         f"overflows a float (the cells are too small)")
    return norms


def q_energy(m: DiscreteManifold, psi: PotentialField,
             u: np.ndarray) -> float | np.ndarray:
    """Quadratic form int (|grad u|^2 + Psi u^2); may be negative for Psi < 0."""
    weight = m.mass * psi.values
    return _by_chunks(u, lambda rows: m.grad.energy(rows)
                      + np.sum(weight * rows * rows, axis=-1))
