"""Spectral decomposition of H = -Laplacian + Psi and operator calculus f(H).

The generalized symmetric problem (S + M_Psi) phi = lambda M phi is solved
in closed form on a periodic grid with uniform mass and constant Psi (a
tensor product of real Fourier modes), and otherwise reduced via the
diagonal mass square root and solved with a dense symmetric eigensolver;
every operator function (heat semigroup, fractional powers, resolvents) is
evaluated on the resulting eigenpairs.
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
class SpectralDecomposition:
    """Eigenpairs of H = -Laplacian + Psi, orthonormal in the mass inner product."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, mass-orthonormal
    potential: PotentialField
    manifold: DiscreteManifold

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def coefficients(self, u: np.ndarray, k: int | None = None) -> np.ndarray:
        """Mass inner products <u, phi_j>, j < k (default all), for u or each row of u."""
        return (u * self.manifold.mass) @ self.eigenvectors[:, :k]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Sum of coeffs_j phi_j over the leading coeffs.shape[-1] modes, row by row."""
        return coeffs @ self.eigenvectors[:, :coeffs.shape[-1]].T

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

        The eigenvectors are shared; eigenvalues and potential move by c and
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
            eigenvectors=self.eigenvectors * lam ** (-m.dim / 2.0),
            potential=psi, manifold=m)


def _clip(w: np.ndarray) -> np.ndarray:
    """Set eigenvalues with |lambda| <= EIG_CLIP_REL * max|lambda| to exactly 0."""
    clip = EIG_CLIP_REL * np.max(np.abs(w)) if w.size else 0.0
    w[np.abs(w) <= clip] = 0.0
    return w


def decompose(m: DiscreteManifold, psi: PotentialField) -> SpectralDecomposition:
    """Generalized symmetric eigendecomposition of S + M_Psi vs M.

    Periodic grids with uniform mass, a Kronecker-sum stiffness and constant
    Psi get exact Fourier eigenpairs; every other model a dense eigh.
    Eigenvalues with |lambda| <= 1e-10 * max|lambda| are clipped to exactly
    0 so the Neumann kernel is detected reliably by the operator calculus.
    """
    n = m.num_nodes
    if n > DENSE_NODE_GUARD:
        raise ValueError(
            f"{n} nodes exceeds the dense decomposition guard ({DENSE_NODE_GUARD})")
    if psi.values.shape != (n,):
        raise ValueError("potential has wrong shape")
    res = _fourier_grid(m)
    if res is not None and np.all(psi.values == psi.values[0]):
        w, phi = _fourier_eigenpairs(m, res, float(psi.values[0]))
    else:
        w, phi = _dense_eigenpairs(m, psi)
    return SpectralDecomposition(eigenvalues=_clip(w), eigenvectors=phi,
                                 potential=psi, manifold=m)


def _dense_eigenpairs(m: DiscreteManifold, psi: PotentialField):
    """Eigenvalues and mass-orthonormal eigenvectors by a dense eigh."""
    n = m.num_nodes
    sqrt_m = np.sqrt(m.mass)
    a = m.stiffness.toarray()
    a[np.diag_indices(n)] += m.mass * psi.values
    a /= sqrt_m[:, None]
    a /= sqrt_m[None, :]
    a = 0.5 * (a + a.T)
    w, v = la.eigh(a)
    return w, v / sqrt_m[:, None]


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


def _fourier_eigenpairs(m: DiscreteManifold, res: int, psi: float):
    """Exact eigenpairs on a grid accepted by _fourier_grid, for constant Psi.

    Eigenvalues are sums of per-axis 4 sin^2(pi k/res) / h_d^2 plus Psi,
    in stable ascending order; each eigenvector is the product of one
    Fourier column per axis over sqrt(m0), formed in one broadcast pass.
    """
    dim = m.dim
    lam1, q = _fourier_axis(res)
    modes = np.indices((res,) * dim).reshape(dim, -1)  # C order, like nodes
    w = sum(lam1[modes[d]] / (period / res) ** 2
            for d, period in enumerate(m.periods))
    order = np.argsort(w, kind="stable")
    factors = []
    for d in range(dim):
        shape = [1] * dim + [order.size]
        shape[d] = res
        factors.append(q[:, modes[d, order]].reshape(shape))
    factors[0] = factors[0] / np.sqrt(m.mass[0])
    phi = reduce(np.multiply, factors).reshape(order.size, order.size)
    return w[order] + psi, phi


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

    The eigenvectors are squared once for all of fs.
    """
    fw2 = np.stack([_multiplier(dec, f) ** 2 for f in fs], axis=1)
    return np.sqrt(np.max((dec.eigenvectors ** 2) @ fw2, axis=0))


def spectrum_rows(dec: SpectralDecomposition) -> list[tuple[int, float]]:
    """(k, lambda_k) rows for CSV regression baselines."""
    return [(k, float(lam)) for k, lam in enumerate(dec.eigenvalues)]
