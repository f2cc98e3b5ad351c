"""Spectral decomposition of H = -Laplacian + Psi and operator calculus f(H).

The generalized symmetric problem (S + M_Psi) phi = lambda M phi is solved
in closed form on a periodic grid with uniform mass and constant Psi (a
tensor product of real Fourier modes, applied by axis-wise real FFTs), and
otherwise reduced via the diagonal mass square root and solved with a dense
symmetric eigensolver; every operator function (heat semigroup, fractional
powers, resolvents) is evaluated on the resulting eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .manifold import DENSE_NODE_GUARD, DiscreteManifold, scale_metric

__all__ = [
    "DENSE_NODE_GUARD",
    "SingularOperatorError",
    "PotentialField",
    "SpectralDecomposition",
    "constant_potential",
    "quarter_curvature",
    "decompose",
    "apply_function",
    "lambda0",
    "heat_multiplier",
    "power_multiplier",
    "spectrum_rows",
]

EIG_CLIP_REL = 1e-10
CLUSTER_GAP_REL = 1e-9  # roundoff splits are ~1e-15, real gaps >= ~1e-5
GRID_MATCH_REL = 1e-13  # stiffness-vs-Kronecker-sum mismatch allowed


class SingularOperatorError(ValueError):
    """Raised when f is undefined on the computed spectrum (e.g. 0^(-1/2))."""


@dataclass(frozen=True)
class PotentialField:
    """Per-node potential Psi (1/length^2 units) with a provenance label."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        object.__setattr__(self, "values", v)

    @property
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0))

    @property
    def inf_minus(self) -> float:
        """min(0, min Psi); always <= 0."""
        return float(min(0.0, np.min(self.values)))


def constant_potential(m: DiscreteManifold, c: float) -> PotentialField:
    return PotentialField(np.full(m.num_nodes, float(c)), f"const:{c:g}")


def quarter_curvature(m: DiscreteManifold) -> PotentialField:
    return PotentialField(m.scalar_curvature / 4.0, "R/4")


@dataclass(frozen=True)
class DenseBasis:
    """Mass-orthonormal eigenvectors held as the explicit N x N matrix phi.

    Every basis has these methods; u is one node function (N,) or a member
    matrix (K, N), rows = members, and so are the coefficient arrays.
    """

    phi: np.ndarray  # columns
    mass: np.ndarray

    def coefficients(self, u: np.ndarray, k: int | None = None) -> np.ndarray:
        """Mass inner products <u, phi_j>, j < k (default all), for u or each row of u."""
        return (u * self.mass) @ self.phi[:, :k]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Sum of coeffs_j phi_j over the leading coeffs.shape[-1] modes, row by row."""
        return coeffs @ self.phi[:, :coeffs.shape[-1]].T

    def columns(self, k: int | None = None) -> np.ndarray:
        """The leading k (default all) eigenvectors as columns."""
        return self.phi[:, :k]

    def row_sums(self, w: np.ndarray) -> np.ndarray:
        """sum_k w[k, j] phi_k(x)^2 at every node x, for each column j of w."""
        return (self.phi ** 2) @ w

    def scaled(self, lam: float, m: DiscreteManifold) -> DenseBasis:
        """The basis on m = scale_metric(., lam): phi / lam^(n/2)."""
        return DenseBasis(self.phi * lam ** (-m.dim / 2.0), m.mass)


@dataclass(frozen=True)
class FourierBasis:
    """Products of real Fourier columns over sqrt(m0) on a res^dim periodic grid.

    Eigenvector k is the mode order[k] (C order over the axes, each axis in
    the column order of _fourier_axis).  Coefficients and syntheses are
    axis-wise real FFTs, so the N x N matrix is formed only by columns().
    """

    res: int
    dim: int
    m0: float  # the uniform node mass
    order: np.ndarray  # stable ascending-eigenvalue permutation of the modes

    def _grid(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(u.shape[:-1] + (self.res,) * self.dim)

    def coefficients(self, u: np.ndarray, k: int | None = None) -> np.ndarray:
        c = self._grid(u)
        for axis in range(-self.dim, 0):
            c = _real_fourier(c, axis)
        c = c.reshape(u.shape)[..., self.order[:k]]
        c *= np.sqrt(self.m0)
        return c

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        shape = coeffs.shape[:-1] + self.order.shape
        u = np.zeros(shape)
        u[..., self.order[:coeffs.shape[-1]]] = coeffs
        u = self._grid(u)
        for axis in range(-self.dim, 0):  # rebinding frees each input early
            u = _real_fourier_inverse(u, axis)
        u /= np.sqrt(self.m0)
        return u.reshape(shape)

    def columns(self, k: int | None = None) -> np.ndarray:
        """The leading k columns in closed form, without an FFT."""
        q = _fourier_axis(self.res)[1]
        modes = np.indices((self.res,) * self.dim).reshape(self.dim, -1)
        keep = self.order[:k]
        factors = []
        for d in range(self.dim):
            shape = [1] * self.dim + [keep.size]
            shape[d] = self.res
            factors.append(q[:, modes[d, keep]].reshape(shape))
        phi = reduce(np.multiply, factors).reshape(self.order.size, keep.size)
        return phi / np.sqrt(self.m0)

    def row_sums(self, w: np.ndarray) -> np.ndarray:
        """sum_k w[k, j] / vol at every node.

        The columns of one eigenvalue have squares summing to their count
        over vol at every node, and w is a function of the eigenvalue.
        """
        n = self.order.size
        return np.broadcast_to(np.sum(w, axis=0) / (n * self.m0),
                               (n,) + w.shape[1:])

    def scaled(self, lam: float, m: DiscreteManifold) -> FourierBasis:
        """The basis on m = scale_metric(., lam): m0 becomes m0 lam^n."""
        return replace(self, m0=float(m.mass[0]))


_SQRT2 = np.sqrt(2.0)


def _along(axis: int, index) -> tuple:
    """An index tuple taking index on a negative axis and all of the others."""
    return (Ellipsis, index) + (slice(None),) * (-axis - 1)


def _real_fourier(u: np.ndarray, axis: int) -> np.ndarray:
    """Coefficients of u along a negative axis against the _fourier_axis columns.

    With the orthonormal rfft F: c_0 = Re F_0, c_(2k-1) = sqrt 2 Re F_k,
    c_(2k) = -sqrt 2 Im F_k, and for even res the last c is Re F_(res/2).
    """
    res = u.shape[axis]
    f = np.fft.rfft(u, axis=axis, norm="ortho")
    c = np.empty(u.shape)
    c[_along(axis, 0)] = f[_along(axis, 0)].real
    np.multiply(f[_along(axis, slice(1, None))].real, _SQRT2,
                out=c[_along(axis, slice(1, None, 2))])
    np.multiply(f[_along(axis, slice(1, (res + 1) // 2))].imag, -_SQRT2,
                out=c[_along(axis, slice(2, None, 2))])
    if res % 2 == 0:
        c[_along(axis, -1)] = f[_along(axis, -1)].real
    return c


def _real_fourier_inverse(c: np.ndarray, axis: int) -> np.ndarray:
    """The inverse of _real_fourier: node values sum_j c_j q_j along axis."""
    res = c.shape[axis]
    shape = list(c.shape)
    shape[axis] = res // 2 + 1
    f = np.empty(shape, dtype=complex)
    f[_along(axis, 0)] = c[_along(axis, 0)]
    np.divide(c[_along(axis, slice(1, None, 2))], _SQRT2,
              out=f[_along(axis, slice(1, None))].real)
    np.divide(c[_along(axis, slice(2, None, 2))], -_SQRT2,
              out=f[_along(axis, slice(1, (res + 1) // 2))].imag)
    if res % 2 == 0:
        f[_along(axis, -1)] = c[_along(axis, -1)]
    return np.fft.irfft(f, n=res, axis=axis, norm="ortho")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of H = -Laplacian + Psi, orthonormal in the mass inner product.

    The eigenvectors are reached through basis (a DenseBasis or a
    FourierBasis) and nowhere else.
    """

    eigenvalues: np.ndarray
    basis: DenseBasis | FourierBasis
    potential: PotentialField
    manifold: DiscreteManifold

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def coefficients(self, u: np.ndarray, k: int | None = None) -> np.ndarray:
        """Mass inner products <u, phi_j>, j < k (default all), for u or each row of u."""
        return self.basis.coefficients(u, k)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Sum of coeffs_j phi_j over the leading coeffs.shape[-1] modes, row by row."""
        return self.basis.synthesize(coeffs)

    def cluster_bounds(self) -> np.ndarray:
        """Start index of every eigenvalue cluster, followed by N.

        A new cluster starts where consecutive eigenvalues differ by more
        than CLUSTER_GAP_REL * max|lambda|, so a cluster holds whole
        eigenspaces and quantities built from whole clusters do not depend
        on the eigensolver's choice of basis inside them.
        """
        lam = self.eigenvalues
        tol = CLUSTER_GAP_REL * np.max(np.abs(lam), initial=0.0)
        return np.concatenate(
            ([0], np.flatnonzero(np.diff(lam) > tol) + 1, [lam.size]))

    def shifted(self, c: float) -> SpectralDecomposition:
        """Exact decomposition of H + c for a constant c, with no new eigh.

        The basis is shared; eigenvalues and potential move by c and
        the clipping rule of decompose is applied again, so a shift down to
        the bare Laplacian keeps its kernel at exactly 0.
        """
        psi = PotentialField(self.potential.values + c,
                             f"{self.potential.label}{c:+g}")
        return replace(self, eigenvalues=_clip(self.eigenvalues + c),
                       potential=psi)

    def scaled(self, lam: float) -> SpectralDecomposition:
        """Exact decomposition of H / lam^2 on scale_metric(manifold, lam).

        Under g -> lam^2 g the mass scales by lam^n and the stiffness by
        lam^(n-2), so eigenvalues (and the potential that keeps H/lam^2)
        divide by lam^2 and mass-orthonormal eigenvectors by lam^(n/2).
        """
        m = scale_metric(self.manifold, lam)
        if m is self.manifold:
            return self
        inv2 = lam ** -2.0
        psi = PotentialField(self.potential.values * inv2,
                             f"({self.potential.label})/{lam:g}^2")
        return SpectralDecomposition(
            eigenvalues=self.eigenvalues * inv2,
            basis=self.basis.scaled(lam, m), potential=psi, manifold=m)


def _clip(w: np.ndarray) -> np.ndarray:
    """Set eigenvalues with |lambda| <= EIG_CLIP_REL * max|lambda| to exactly 0."""
    clip = EIG_CLIP_REL * np.max(np.abs(w)) if w.size else 0.0
    w[np.abs(w) <= clip] = 0.0
    return w


def decompose(m: DiscreteManifold, psi: PotentialField) -> SpectralDecomposition:
    """Generalized symmetric eigendecomposition of S + M_Psi vs M.

    Periodic grids with uniform mass, a Kronecker-sum stiffness and constant
    Psi get exact Fourier eigenvalues and a FourierBasis; every other model a
    dense eigh, refused over DENSE_NODE_GUARD nodes.  Eigenvalues with
    |lambda| <= 1e-10 * max|lambda| are clipped to exactly 0 so the Neumann
    kernel is detected reliably by the operator calculus.
    """
    n = m.num_nodes
    if psi.values.shape != (n,):
        raise ValueError("potential has wrong shape")
    res = _fourier_grid(m)
    if res is not None and np.all(psi.values == psi.values[0]):
        w = _fourier_eigenvalues(m, res)
        order = np.argsort(w, kind="stable")
        w = w[order] + psi.values[0]
        basis = FourierBasis(res=res, dim=m.dim, m0=float(m.mass[0]), order=order)
    else:
        w, basis = _dense_eigenpairs(m, psi)
    return SpectralDecomposition(eigenvalues=_clip(w), basis=basis,
                                 potential=psi, manifold=m)


def _dense_eigenpairs(m: DiscreteManifold, psi: PotentialField):
    """Eigenvalues and a DenseBasis by a dense eigh."""
    n = m.num_nodes
    if n > DENSE_NODE_GUARD:
        raise ValueError(
            f"{n} nodes exceeds the dense decomposition guard ({DENSE_NODE_GUARD})")
    sqrt_m = np.sqrt(m.mass)
    a = m.stiffness.toarray()
    a[np.diag_indices(n)] += m.mass * psi.values
    a /= sqrt_m[:, None]
    a /= sqrt_m[None, :]
    a = 0.5 * (a + a.T)
    w, v = la.eigh(a)
    return w, DenseBasis(v / sqrt_m[:, None], m.mass)


def _periodic_laplacian(res: int) -> sp.csr_matrix:
    """The 1-d periodic second difference 2u_j - u_(j-1) - u_(j+1)."""
    j = np.arange(res)
    return sp.csr_matrix(
        (np.repeat([2.0, -1.0, -1.0], res),
         (np.tile(j, 3), np.concatenate([j, (j + 1) % res, (j - 1) % res]))),
        shape=(res, res))


def _fourier_grid(m: DiscreteManifold) -> int | None:
    """Nodes per axis when H is separable on a periodic grid, else None.

    That needs uniform mass m0 and a stiffness equal, up to GRID_MATCH_REL,
    to the Kronecker sum of (m0 / h_d^2) L_d over the axes (C order, axis 0
    slowest), L_d the periodic second difference and h_d = period_d / res;
    the comparison costs O(nnz).
    """
    if m.periods is None or len(m.periods) != m.dim:
        return None
    n = m.num_nodes
    res = round(n ** (1.0 / m.dim))
    m0 = m.mass[0]
    if res < 2 or res ** m.dim != n or np.any(m.mass != m0):
        return None
    lap = _periodic_laplacian(res)
    expected = sp.csr_matrix((n, n))
    for d, period in enumerate(m.periods):
        c = m0 / (period / res) ** 2
        expected = expected + sp.kron(
            sp.kron(sp.identity(res ** d), c * lap),
            sp.identity(res ** (m.dim - d - 1)), format="csr")
    scale = abs(expected).max()
    if abs(m.stiffness - expected).max() > GRID_MATCH_REL * scale:
        return None
    return res


def _fourier_axis(res: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues 4 sin^2(pi k/res) and orthonormal real Fourier columns.

    Columns run 1, cos 1, sin 1, cos 2, sin 2, ... (then the alternating
    mode when res is even); a cos/sin pair shares one computed eigenvalue.
    """
    freq = (np.arange(res) + 1) // 2
    lam = 4.0 * np.sin(np.pi * freq / res) ** 2
    angle = 2.0 * np.pi * (np.outer(np.arange(res), freq) % res) / res
    q = np.where(np.arange(res) % 2 == 1, np.cos(angle), np.sin(angle))
    q[:, 0] = 1.0
    q *= np.where((freq == 0) | (2 * freq == res), 1.0, np.sqrt(2.0)) / np.sqrt(res)
    return lam, q


def _fourier_eigenvalues(m: DiscreteManifold, res: int) -> np.ndarray:
    """Eigenvalues of -Laplacian on a grid accepted by _fourier_grid, per mode.

    Mode (k_0, ..., k_(n-1)), in C order like the nodes, has the sum of the
    per-axis 4 sin^2(pi k/res) / h_d^2.
    """
    lam1 = _fourier_axis(res)[0]
    modes = np.indices((res,) * m.dim).reshape(m.dim, -1)
    return sum(lam1[modes[d]] / (period / res) ** 2
               for d, period in enumerate(m.periods))


def _multiplier(dec: SpectralDecomposition,
                f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(lambda_k) on the spectrum; SingularOperatorError where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fw = np.asarray(f(dec.eigenvalues), dtype=float)
    if fw.shape != dec.eigenvalues.shape:
        raise ValueError("multiplier must map the spectrum elementwise")
    if not np.all(np.isfinite(fw)):
        bad = dec.eigenvalues[~np.isfinite(fw)]
        raise SingularOperatorError(
            f"multiplier undefined at eigenvalue(s) {bad[:3]} "
            f"(operator is singular for this function)")
    return fw


def apply_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray],
                   u: np.ndarray) -> np.ndarray:
    """Evaluate f(H) u = sum_k f(lambda_k) <u, phi_k>_mass phi_k.

    u is one node function (N,) or a member matrix (K, N), rows = members.
    """
    return dec.synthesize(_multiplier(dec, f) * dec.coefficients(u))


def heat_multiplier(t: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda lam: np.exp(-t * lam)


def power_multiplier(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """lambda -> lambda^alpha; yields a singular-operator error on 0 for alpha < 0."""
    def f(lam: np.ndarray) -> np.ndarray:
        return np.power(lam, alpha)
    return f


def lambda0(m: DiscreteManifold) -> float:
    """Smallest eigenvalue of -Laplacian + R/4."""
    return decompose(m, quarter_curvature(m)).lambda_min


def _op_norms_2_to_inf(dec: SpectralDecomposition,
                       fs: list[Callable[[np.ndarray], np.ndarray]]) -> np.ndarray:
    """Exact L2 -> Linf norm max_x sqrt(sum_k f(l_k)^2 phi_k(x)^2) of each f(H).

    The basis forms the row sums once for all of fs.
    """
    fw2 = np.stack([_multiplier(dec, f) ** 2 for f in fs], axis=1)
    return np.sqrt(np.max(dec.basis.row_sums(fw2), axis=0))


def spectrum_rows(dec: SpectralDecomposition) -> list[tuple[int, float]]:
    """(k, lambda_k) rows for CSV regression baselines."""
    return [(k, float(lam)) for k, lam in enumerate(dec.eigenvalues)]
