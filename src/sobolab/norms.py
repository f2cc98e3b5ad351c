"""Discrete L^p, gradient and energy norms, summed on the reference mesh
and given the length's factor once (DiscreteManifold.physical)."""

from __future__ import annotations

import math
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
    return m.physical(_by_chunks(u, lambda rows: _lp_rows(m.mass, rows, p)),
                      m.dim / p)


def _lp_rows(mass: np.ndarray, rows: np.ndarray, p: float) -> np.ndarray:
    """The L^p norm of each row (_roots of its sum of mass |u|^p)."""
    a = np.abs(rows, dtype=float)
    with np.errstate(over="ignore"):
        a **= p  # in the fresh |u|: no further chunk-sized temporaries
    a *= mass
    return _roots(mass, rows, p, np.sum(a, axis=-1))


def _lp_norms(m: DiscreteManifold, rows: np.ndarray,
              ps: tuple[float, ...]) -> list[np.ndarray]:
    """lp_norm of each of a chunk's rows at each exponent of ps, from one
    |u|.

    p = inf takes the node maximum of |u|, and a p other than 1 and 2 its
    p-th power; then |u| itself is weighted for p = 1, and let go before
    u u is formed for p = 2.  |u|^1 and |u|^2 are |u| and u u bit for bit,
    so every sum, and every value, is lp_norm's.
    """
    for p in ps:
        _check_exponent(p)
    mass, sums, out = m.mass, {}, {}
    a = np.abs(rows, dtype=float)
    if math.inf in ps:
        out[math.inf] = np.max(a, axis=-1)
    with np.errstate(over="ignore"):
        for p in set(ps) - {1.0, 2.0, math.inf}:
            x = a ** p
            x *= mass
            sums[p] = np.sum(x, axis=-1)
            del x
        if 1.0 in ps:
            a *= mass
            sums[1.0] = np.sum(a, axis=-1)
        del a
        if 2.0 in ps:
            x = np.multiply(rows, rows, dtype=float)
            x *= mass
            sums[2.0] = np.sum(x, axis=-1)
    for p, s in sums.items():
        out[p] = m.physical(_roots(mass, rows, p, s), m.dim / p)
    return [out[p] for p in ps]


def _roots(mass: np.ndarray, rows: np.ndarray, p: float,
           sums: np.ndarray) -> np.ndarray:
    """sums^(1/p), the L^p norms of rows from their sums of mass |u|^p.

    A row whose sum over- or underflowed is taken again as
    M (sum mass (|u|/M)^p)^(1/p), M = max |u| on the row; a zero row and a
    row holding inf keep sums^(1/p).
    """
    norms = sums ** (1.0 / p)
    lost = np.isinf(sums) | (sums < _UNDERFLOW)
    if np.any(lost):
        a = np.abs(rows[lost], dtype=float)
        top = np.max(a, axis=-1)
        fix = (top > 0) & (top < np.inf)
        a = a[fix] / top[fix, None]
        a **= p
        a *= mass
        lost[lost] = fix
        norms[lost] = top[fix] * np.sum(a, axis=-1) ** (1.0 / p)
    return norms


def grad_lp_norm(m: DiscreteManifold, u: np.ndarray,
                 p: float) -> float | np.ndarray:
    """Element-volume-weighted L^p norm of the per-element gradient magnitude."""
    _check_exponent(p)
    return m.physical(
        _by_chunks(u, lambda rows: _grad_lp_norms(m, rows, (p,))[0]),
        m.dim / p - 1.0)


def _grad_lp_norms(m: DiscreteManifold, rows: np.ndarray,
                   ps: tuple[float, ...]) -> list[np.ndarray]:
    """grad_lp_norm of each of a chunk's rows on the reference mesh at each
    exponent of ps, from one computation of the element-gradient
    magnitudes."""
    mags = m.grad.magnitudes(rows)
    return [np.max(mags, axis=-1, initial=0.0) if np.isinf(p)
            else _lp_rows(m.grad.weights, mags, p) for p in ps]


def q_energy(m: DiscreteManifold, psi: PotentialField,
             u: np.ndarray) -> float | np.ndarray:
    """Quadratic form int (|grad u|^2 + Psi u^2); may be negative for Psi < 0."""
    n, weight = m.dim, m.mass * psi.values
    return _by_chunks(u, lambda rows: m.physical(m.grad.energy(rows), n - 2)
                      + m.physical(np.sum(weight * rows * rows, axis=-1), n))
