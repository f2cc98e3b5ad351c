"""Spectral decomposition of H = -Laplacian + Psi and operator calculus f(H).

The generalized symmetric problem (S + M_Psi) phi = lambda M phi is solved
in closed form on a periodic grid with uniform mass and constant Psi (real
Fourier modes, applied by one product per axis with the leading columns of
the res x res Fourier matrix), and otherwise reduced via the diagonal mass
square root and solved in place by LAPACK's symmetric divide and conquer
(dsyevd, the one use of scipy.linalg, imported there); every operator
function (heat semigroup, fractional powers, resolvents) is evaluated on the
resulting eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Iterable, Iterator

import numpy as np

from .manifold import DENSE_NODE_GUARD, DiscreteManifold, GridGradient

__all__ = [
    "DENSE_NODE_GUARD",
    "SingularOperatorError",
    "PotentialField",
    "SpectralDecomposition",
    "constant_potential",
    "decompose",
    "apply_function",
    "apply_functions",
    "heat_multiplier",
    "bessel_multiplier",
    "power_multiplier",
    "spectrum_rows",
    "diagnostics",
]

EIG_CLIP_REL = 1e-10
CLUSTER_GAP_REL = 1e-9  # roundoff splits are ~1e-15, real gaps >= ~1e-5


class SingularOperatorError(ValueError):
    """Raised when f is undefined on the computed spectrum (e.g. 0^(-1/2))."""


@dataclass(frozen=True)
class PotentialField:
    """Per-node potential Psi (1/length^2 units), checked finite."""

    values: np.ndarray

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
    return PotentialField(np.full(m.num_nodes, float(c)))


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


@dataclass(frozen=True)
class FourierBasis:
    """Products of real Fourier columns over sqrt(m0) on a res^dim periodic grid.

    Eigenvector k is the mode order[k] (C order over the axes, each axis a
    column of q = _fourier_axis(res)[1]).  Coefficients and syntheses of the
    leading k modes apply the first b columns of q along every axis, b = 1 +
    the largest per-axis index among order[:k] (b = res for all modes), so
    they cost O(b) per entry per axis, and the N x N matrix is formed only by
    columns().
    """

    q: np.ndarray  # the real Fourier columns of one axis
    dim: int
    m0: float  # the uniform node mass
    order: np.ndarray  # stable ascending-eigenvalue permutation of the modes

    def coefficients(self, u: np.ndarray, k: int | None = None) -> np.ndarray:
        b, keep = self._leading(k)
        c = _per_axis(self.q[:, :b].T, u, self.dim)
        c = c.reshape(u.shape[:-1] + (b ** self.dim,))[..., keep]
        c *= np.sqrt(self.m0)
        return c

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        b, keep = self._leading(coeffs.shape[-1])
        u = _per_axis(self.q[:, :b], self._scatter(coeffs, b, keep), self.dim)
        u /= np.sqrt(self.m0)
        return u.reshape(coeffs.shape[:-1] + self.order.shape)

    def _leading(self, k: int | None) -> tuple[int, np.ndarray]:
        """b and the flat indices of the modes order[:k] on the b^dim grid."""
        axes = np.unravel_index(self.order[:k], self.q.shape[:1] * self.dim)
        b = 1 + int(np.max(axes, initial=0))
        return b, np.ravel_multi_index(axes, (b,) * self.dim)

    def _scatter(self, coeffs: np.ndarray, b: int, keep: np.ndarray) -> np.ndarray:
        u = np.zeros(coeffs.shape[:-1] + (b ** self.dim,))
        u[..., keep] = coeffs
        return u

    def columns(self, k: int | None = None) -> np.ndarray:
        """The leading k columns in closed form, as products of columns of q."""
        modes = np.indices(self.q.shape[:1] * self.dim).reshape(self.dim, -1)
        keep = self.order[:k]
        factors = []
        for d in range(self.dim):
            shape = [1] * self.dim + [keep.size]
            shape[d] = -1
            factors.append(self.q[:, modes[d, keep]].reshape(shape))
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


def _per_axis(a: np.ndarray, u: np.ndarray, dim: int) -> np.ndarray:
    """The matrix a applied along every axis of u.

    u is a node function or a member matrix in C grid order with
    a.shape[1]^dim entries per row, and the result has rows of a.shape[0].
    a is the res x b factor of k leading modes or its transpose, so each
    axis costs O(b) per node entry.  Rebinding u frees each input once the
    next product exists, so a temporary passed in costs no extra copy.
    """
    n = a.shape[1]
    for d in range(dim - 1):
        u = np.matmul(a, u.reshape(-1, n, n ** (dim - 1 - d)))
    return u.reshape(-1, n) @ a.T


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
        return replace(self, eigenvalues=_clip(self.eigenvalues + c),
                       potential=PotentialField(self.potential.values + c))


def _clip(w: np.ndarray) -> np.ndarray:
    """Set eigenvalues with |lambda| <= EIG_CLIP_REL * max|lambda| to exactly 0."""
    clip = EIG_CLIP_REL * np.max(np.abs(w)) if w.size else 0.0
    w[np.abs(w) <= clip] = 0.0
    return w


def decompose(m: DiscreteManifold, psi: PotentialField) -> SpectralDecomposition:
    """Generalized symmetric eigendecomposition of S + M_Psi vs M.

    A model whose gradient is a periodic grid gradient (a torus: component d
    the forward difference over h_d = period_d / res), whose element weights
    all equal its uniform node mass, with a constant Psi, gets exact Fourier
    eigenvalues and a FourierBasis: its stiffness is then the Kronecker sum
    of (m0 / h_d^2) times the periodic second difference.  Every other model
    gets a dense divide-and-conquer solve of the mass-reduced stiffness,
    refused over DENSE_NODE_GUARD nodes.  Eigenvalues with
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
        basis = FourierBasis(q=_fourier_axis(res)[1], dim=m.dim,
                             m0=float(m.mass[0]), order=order)
    else:
        w, basis = _dense_eigenpairs(m, psi)
    return SpectralDecomposition(eigenvalues=_clip(w), basis=basis,
                                 potential=psi, manifold=m)


def _dense_eigenpairs(m: DiscreteManifold, psi: PotentialField):
    """Eigenvalues and a DenseBasis by LAPACK divide and conquer (dsyevd).

    The mass-reduced matrix M^(-1/2) (S + M_Psi) M^(-1/2) is symmetrised and
    solved in place, and the eigenvectors are scaled by 1/sqrt(mass) in
    place, so no second N x N array is kept besides LAPACK's workspace.
    LAPACK gets the F-contiguous view a.T, the same symmetric matrix,
    because a C-order array would be copied first.
    """
    import scipy.linalg  # the dense path alone needs it

    n = m.num_nodes
    if n > DENSE_NODE_GUARD:
        raise ValueError(
            f"{n} nodes exceeds the dense decomposition guard ({DENSE_NODE_GUARD})")
    sqrt_m = np.sqrt(m.mass)
    a = m.stiffness.toarray()
    a[np.diag_indices(n)] += m.mass * psi.values
    a /= sqrt_m[:, None]
    a /= sqrt_m[None, :]
    a += a.T
    a *= 0.5
    w, v = scipy.linalg.eigh(a.T, driver="evd", overwrite_a=True,
                             check_finite=False)
    v /= sqrt_m[:, None]
    return w, DenseBasis(v, m.mass)


def _fourier_grid(m: DiscreteManifold) -> int | None:
    """Nodes per axis when H is separable on a periodic grid, else None.

    Read from the gradient's structure: a periodic GridGradient, whose
    inv_h_d is res / period_d by construction, with element weights all
    equal to the uniform node mass m0.  Its stiffness is then exactly the
    Kronecker sum of (m0 / h_d^2) L_d over the axes (C order, axis 0
    slowest), L_d the periodic second difference.
    """
    g = m.grad
    if not (isinstance(g, GridGradient) and g.periodic):
        return None
    m0 = m.mass[0]
    if np.any(m.mass != m0) or np.any(g.weights != m0):
        return None
    return g.res


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


def apply_functions(dec: SpectralDecomposition,
                    fs: Iterable[Callable[[np.ndarray], np.ndarray]],
                    u: np.ndarray) -> Iterator[np.ndarray]:
    """f(H) u for each f of fs in turn, from one forward transform of u.

    u is one node function (N,) or a member matrix (K, N), rows = members.
    Each result is formed only when the next one is asked for, so a caller
    that measures them one by one holds one of them at a time.
    """
    c = dec.coefficients(u)
    for f in fs:
        yield dec.synthesize(_multiplier(dec, f) * c)


def apply_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray],
                   u: np.ndarray) -> np.ndarray:
    """Evaluate f(H) u = sum_k f(lambda_k) <u, phi_k>_mass phi_k."""
    return next(apply_functions(dec, (f,), u))


def heat_multiplier(t: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda lam: np.exp(-t * lam)


def bessel_multiplier(lam: float) -> Callable[[np.ndarray], np.ndarray]:
    """mu -> sqrt(1 + mu / lam^2) on the bare Laplacian's spectrum mu.

    g -> lam^2 g divides -Laplacian by lam^2, so this gives the node values
    of (-Laplacian + 1)^(1/2) on the scaled metric, with no new decomposition.
    """
    inv2 = lam ** -2.0
    return lambda mu: np.sqrt(mu * inv2 + 1.0)


def power_multiplier(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """lambda -> lambda^alpha; yields a singular-operator error on 0 for alpha < 0."""
    def f(lam: np.ndarray) -> np.ndarray:
        return np.power(lam, alpha)
    return f


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


def diagnostics(dec1: SpectralDecomposition) -> dict:
    """Deterministic facts about the Psi = 1 decomposition of a mesh.

    decomposition is the path that solved it ("fourier" or "dense");
    kernel_dim counts the exactly-zero eigenvalues of the bare Laplacian,
    dec1.shifted(-1): 1 on every connected model.
    """
    path = "fourier" if isinstance(dec1.basis, FourierBasis) else "dense"
    kernel = dec1.shifted(-1.0).eigenvalues == 0.0
    return {"decomposition": path, "kernel_dim": int(np.count_nonzero(kernel))}
