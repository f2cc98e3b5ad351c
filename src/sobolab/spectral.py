"""Spectral decomposition of H = -Laplacian + Psi and operator calculus f(H).

The generalized symmetric problem (S + M_Psi) phi = lambda M phi is solved
in closed form on a grid with constant Psi, a torus or a Neumann box
(products of per-axis real Fourier or DCT-I columns, applied by one product
per axis with the leading columns of the res x res axis matrix).  Spheres
and a non-constant Psi are reduced via the diagonal mass square root,
split into one block per character of the group generated by the axis
reflections the mesh declares (DiscreteManifold.reflections) that leave
H invariant (one block, the whole matrix, when none does), and solved
block by block by numpy.linalg.eigh (LAPACK's symmetric divide and
conquer, dsyevd), the blocks kept apart and applied one by one; the
stiffness is read from its numpy entries, so no solve loads scipy.  Every
operator function (heat semigroup, fractional powers, resolvents) is
evaluated on the resulting eigenpairs.  Both paths solve the reference
mesh's (DiscreteManifold) operator l^2 (H - c), c = min Psi, and keep its
spectrum mu apart from c (SpectralDecomposition), so a constant shift is
exact at every length.  An f(H) multiplies the coefficients in each
basis's own layout by f(lambda) laid out the same way (multipliers, formed
once per job), and apply_functions takes the members a chunk of rows at a
time (manifold._chunks), measuring each image before the next is formed,
so no f(H) image of a whole member matrix is held.  The heat semigroup on a
grid is a product of one res x res heat matrix per axis times e^(-t c)
(heat_images): a scan forms those matrices once per time and applies them
to the node values, with no coefficients, whenever forming them costs less
than the forward transforms they remove.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Iterable

import numpy as np

from .manifold import (MEMORY_BUDGET, DiscreteManifold, GridGradient,
                       _check_budget, _chunks, _predicted_peak)

__all__ = [
    "SingularOperatorError",
    "PotentialField",
    "SpectralDecomposition",
    "constant_potential",
    "decompose",
    "apply_function",
    "multipliers",
    "apply_functions",
    "heat_images",
    "heat_multiplier",
    "bessel_multiplier",
    "power_multiplier",
    "diagnostics",
]

EIG_CLIP_REL = 1e-10
CLUSTER_GAP_REL = 1e-9  # roundoff splits are ~1e-15, real gaps >= ~1e-5
MIRROR_RTOL = 1e-12  # mass, Psi and stiffness change under a mirror / largest


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
class MirrorBasis:
    """Mass-orthonormal eigenvectors kept as one block per mirror character.

    images[g, x] is node g.x of orbit representative x under the mirror
    group G, chi[s, g] = +-1 its (symmetric) character table, and scale[g, x]
    = sqrt(|stab x| / |G|) / sqrt(mass(g.x)).  Block (s, keep, v, cols)
    holds the orbits keep on which character s lives, their eigenvectors v
    (column-major, as LAPACK computes them), and the columns cols
    (ascending) they take in the stable ascending merge of all blocks'
    eigenvalues: eigenvector cols[j] is chi[s, g] scale[g, x] v[x, j] at
    node g.x, x in keep, and 0 elsewhere.  The leading k modes are
    therefore a prefix of every block, and a transform gathers the members
    over the orbit images, applies chi once and each block's leading
    columns once, and scatters back, at about 1/|G| of the cost of the
    N x N product; columns() alone forms phi.  A mesh with no mirror has
    the trivial group: one block, chi = [[1]].

    Every basis has forward, backward and native, each on the leading k
    modes (all by default) in one layout of the basis's own, columns and
    row_sums.  forward maps (K, N) rows (rows = members) to coefficients,
    backward(., k) inverts forward(., k), and native lays out one value per
    mode, or a row of them per member, as forward lays out coefficients.
    Here that is the blocks' in turn, as (modes, members) columns, so an
    f(H) neither gathers nor scatters coefficients.  No transform chunks
    the members: its caller passes one chunk (manifold._chunks) at a time.
    """

    chi: np.ndarray
    images: np.ndarray
    scale: np.ndarray
    blocks: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def mirrors(self) -> int:
        return self.chi.shape[0].bit_length() - 1

    @property
    def size(self) -> int:
        return sum(cols.size for *_, cols in self.blocks)

    def _leading(self, k: int | None):
        """Each block cut to its columns among the leading k modes."""
        for s, keep, v, cols in self.blocks:
            j = cols.size if k is None else int(np.searchsorted(cols, k))
            yield s, keep, v[:, :j], cols[:j]

    def _orbit_sums(self, rows: np.ndarray) -> np.ndarray:
        """(|G|, orbits, K) character sums of the (K, N) rows over the orbit
        images; block s reads its orbits keep at [s, keep]."""
        # image g.x weighs u mass phi / |stab x| = u chi v / (|G| scale)
        x = rows.T[self.images]
        x /= (self.chi.shape[0] * self.scale)[:, :, None]
        return (self.chi @ x.reshape(x.shape[0], -1)).reshape(x.shape)

    def native(self, fw: np.ndarray, k: int | None = None) -> np.ndarray:
        """fw, one value per leading mode (or a row of them per member), in
        forward's layout: (modes, 1), or (modes, members)."""
        fw = np.atleast_2d(fw)
        return np.concatenate([fw[:, cols] for *_, cols in self._leading(k)],
                              axis=1).T

    def forward(self, rows: np.ndarray, k: int | None = None) -> np.ndarray:
        """The coefficients of the (K, N) rows on the leading k (default
        all) modes, (modes, K), the blocks' in turn."""
        x = self._orbit_sums(rows)
        return np.concatenate([v.T @ x[s, keep]
                               for s, keep, v, _ in self._leading(k)])

    def backward(self, c: np.ndarray, k: int | None = None) -> np.ndarray:
        """The (K, N) rows whose forward at k is c.

        The (|G|, orbits, K) block values y[s, keep] are summed over the
        characters and scattered to the nodes.  No reference to c is kept
        past the block products, nor to the block values past their
        character sums, so a temporary passed in (apply_functions' weighted
        coefficients) is freed once the block values exist, as in
        FourierBasis.backward.
        """
        held = [c]
        del c
        y = np.zeros(self.images.shape + held[0].shape[1:])
        lo = 0
        for s, keep, v, _ in self._leading(k):
            y[s, keep] = v @ held[0][lo:lo + v.shape[1]]
            lo += v.shape[1]
        held.clear()
        shape = y.shape
        y = (self.chi @ y.reshape(shape[0], -1)).reshape(shape)
        y *= self.scale[:, :, None]
        u = np.empty(shape[2:] + (self.size,))
        u.T[self.images] = y
        return u

    def columns(self, k: int | None = None) -> np.ndarray:
        """The leading k (default all) eigenvectors as columns, synthesized
        from a chunk of the identity's rows at a time."""
        eye = np.eye(self.size if k is None else k)
        phi = np.empty((self.size, len(eye)))
        for part in _chunks(len(eye), self.size):
            phi[:, part] = self.backward(self.native(eye[part], k), k).T
        return phi

    def row_sums(self, fw2: np.ndarray) -> np.ndarray:
        """sum_k fw2[k, j] phi_k(x)^2, from each orbit's squared block rows."""
        r = np.zeros((self.images.shape[1],) + fw2.shape[1:])
        for _, keep, v, cols in self.blocks:
            r[keep] += (v ** 2) @ fw2[cols]
        out = np.empty((self.size,) + fw2.shape[1:])
        out[self.images] = (self.scale ** 2)[:, :, None] * r
        return out


@dataclass(frozen=True)
class FourierBasis:
    """Products of per-axis columns over sqrt(m0) on a res^dim grid.

    Every axis has the columns q, orthonormal under the node weights w: the
    real Fourier columns with w = 1 on a torus, the DCT-I columns with the
    trapezoid weights (1/2 at both ends) on a Neumann box, so the node
    masses are m0 times the product of the per-axis weights; lam are their
    eigenvalues for a unit cell side (_fourier_axis).  Eigenvector k
    is the mode order[k] (C order over the axes, each axis a column of q).
    At k leading modes forward applies the first b columns of q weighted by
    w along every axis, and backward the first b columns of q, b = 1 + the
    largest per-axis index among order[:k] (b = res for all modes), so they
    cost O(b) per entry per axis, and the N x N matrix is formed only by
    columns(), in closed form.  The coefficients sit on the b^dim grid of
    modes in C order, zero in native off the kept modes, and leave out the
    sqrt(m0) factors, which cancel in backward(forward(u, k) * native(fw,
    k), k).  No transform chunks the members: its caller passes one chunk
    (manifold._chunks) at a time.
    """

    q: np.ndarray  # the columns of one axis
    w: np.ndarray  # the node weights of one axis, under which q is orthonormal
    lam: np.ndarray  # the eigenvalue of each column of q at a unit cell side
    dim: int
    m0: float  # the cell mass
    order: np.ndarray  # stable ascending-eigenvalue permutation of the modes

    def _leading(self, k: int | None) -> tuple[int, np.ndarray]:
        """b and the flat indices of the modes order[:k] on the b^dim grid
        (res and order itself for all modes)."""
        if k is None:
            return self.q.shape[0], self.order
        axes = np.unravel_index(self.order[:k], self.q.shape[:1] * self.dim)
        b = 1 + int(np.max(axes, initial=0))
        return b, np.ravel_multi_index(axes, (b,) * self.dim)

    def native(self, fw: np.ndarray, k: int | None = None) -> np.ndarray:
        """fw, one value per leading mode (or a row of them per member), on
        forward's b^dim grid of modes in C order, zero off the kept ones."""
        b, keep = self._leading(k)
        out = np.zeros(fw.shape[:-1] + (b ** self.dim,))
        out[..., keep] = fw
        return out

    def forward(self, rows: np.ndarray, k: int | None = None) -> np.ndarray:
        """The coefficients of the (K, N) rows, over sqrt(m0), on the
        b^dim grid of the leading k (default all) modes: (K, b^dim)."""
        b, _ = self._leading(k)
        return _per_axis((self.w[:, None] * self.q[:, :b]).T, rows,
                         self.dim).reshape(len(rows), -1)

    def backward(self, c: np.ndarray, k: int | None = None) -> np.ndarray:
        """The (K, N) rows whose forward at k is c.

        c is handed to _per_axis with no reference kept here, so a
        temporary passed in (apply_functions' weighted coefficients) is
        freed once the first axis product exists.
        """
        b, _ = self._leading(k)
        count, held = len(c), [c]
        del c
        return _per_axis(self.q[:, :b], held.pop(),
                         self.dim).reshape(count, -1)

    def columns(self, k: int | None = None) -> np.ndarray:
        """The leading k columns in closed form, as products of columns of q."""
        modes = np.indices(self.q.shape[:1] * self.dim).reshape(self.dim, -1)
        keep = self.order[:k]
        factors = []
        for d in range(self.dim):
            shape = [1] * self.dim + [keep.size]
            shape[d] = self.q.shape[0]
            factors.append(self.q[:, modes[d, keep]].reshape(shape))
        phi = reduce(np.multiply, factors).reshape(self.order.size, keep.size)
        return phi / np.sqrt(self.m0)

    def row_sums(self, fw2: np.ndarray) -> np.ndarray:
        """sum_k fw2[k, j] phi_k(x)^2 at every node x.

        phi_k(x)^2 is the product over the axes of q^2 at (x_d, k_d), over
        m0, so the sums are q^2 applied along every axis of each column of
        fw2 in the modes' grid order.
        """
        sums = _per_axis(self.q ** 2, self.native(fw2.T), self.dim)
        return sums.reshape(fw2.shape[::-1]).T / self.m0


def _per_axis(a, u: np.ndarray, dim: int) -> np.ndarray:
    """The matrix a applied along every axis of u, or a[d] along axis d when
    a is a tuple of dim matrices.

    u is a node function or a member matrix in C grid order with the
    product of the matrices' column counts as entries per row, and the
    result has rows of the product of their row counts.  a is the res x b
    factor of k leading modes or its transpose, so each axis costs O(b) per
    node entry, or an axis heat matrix of each axis (heat_images).
    Rebinding u frees each input once the next product exists, so a
    temporary passed in costs no extra copy.
    """
    mats = a if isinstance(a, tuple) else (a,) * dim
    for d in range(dim - 1):
        rest = math.prod(b.shape[1] for b in mats[d + 1:])
        u = np.matmul(mats[d], u.reshape(-1, mats[d].shape[1], rest))
    return u.reshape(-1, mats[-1].shape[1]) @ mats[-1].T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of H = -Laplacian + Psi, orthonormal in the mass inner product.

    mu is the clipped ascending spectrum of the reference operator l^2 (H -
    shift), and the eigenvalues are mu / l^2 + shift, formed here alone.
    The eigenvectors are reached through basis (a MirrorBasis or a
    FourierBasis) and nowhere else.
    """

    mu: np.ndarray
    basis: MirrorBasis | FourierBasis
    potential: PotentialField
    manifold: DiscreteManifold
    shift: float = 0.0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.manifold.physical(self.mu, -2) + self.shift

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def cluster_bounds(self) -> np.ndarray:
        """Start index of every eigenvalue cluster, followed by N.

        A new cluster starts where consecutive mu differ by more than
        CLUSTER_GAP_REL * max|mu|, so the clusters are the same at every
        length, a cluster holds whole eigenspaces, and quantities built
        from whole clusters do not depend on the eigensolver's choice of
        basis inside them.
        """
        mu = self.mu
        gaps = np.diff(mu) > CLUSTER_GAP_REL * np.max(np.abs(mu))
        return np.concatenate(([0], np.flatnonzero(gaps) + 1, [mu.size]))

    def shifted(self, c: float) -> SpectralDecomposition:
        """Exact decomposition of H + c for a constant c, with no new eigh.

        Only shift and potential move by c, so the bare Laplacian
        dec1.shifted(-1.0) has shift 1 - 1 = 0 and mu's exact kernel.
        """
        return replace(self, shift=self.shift + c,
                       potential=PotentialField(self.potential.values + c))


def _clip(mu: np.ndarray) -> np.ndarray:
    """Set the mu with |mu| <= EIG_CLIP_REL * max|mu| to exactly 0."""
    mu[np.abs(mu) <= EIG_CLIP_REL * np.max(np.abs(mu))] = 0.0
    return mu


def decompose(m: DiscreteManifold, psi: PotentialField) -> SpectralDecomposition:
    """Generalized symmetric eigendecomposition of S + M_Psi vs M.

    A model whose gradient is a grid gradient accepted by _fourier_grid (a
    torus, or a Neumann box), with a constant Psi, gets exact mu and a
    FourierBasis: its stiffness is then a Kronecker sum of per-axis second
    differences, and mode (k_0, ..., k_(n-1)), in C order like the nodes,
    has mu the sum of the per-axis eigenvalues over h_d^2.  Every other
    model gets a dense divide-and-conquer solve of the mass-reduced
    stiffness, in mirror blocks and within the memory budget.  mu with |mu|
    <= 1e-10 * max|mu| are clipped to exactly 0 so the Neumann kernel is
    detected reliably by the operator calculus.
    """
    n = m.num_nodes
    if psi.values.shape != (n,):
        raise ValueError("potential has wrong shape")
    c = float(psi.values[0])
    grid = _fourier_grid(m) if np.all(psi.values == c) else None
    if grid is not None:
        lam1, q, weights, m0 = grid
        g = m.grad
        modes = np.indices((g.res,) * m.dim).reshape(m.dim, -1)
        mu = sum(lam1[modes[d]] / h ** 2 for d, h in enumerate(g.h))
        order = np.argsort(mu, kind="stable")
        mu = mu[order]
        basis = FourierBasis(q=q, w=weights, lam=lam1, dim=m.dim, m0=m0,
                             order=order)
    else:
        mu, c, basis = _mirror_eigenpairs(m, psi, _mirrors(m, psi))
    return SpectralDecomposition(mu=_clip(mu), basis=basis, potential=psi,
                                 manifold=m, shift=c)


def _eigh_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh (LAPACK's dsyevd) of the symmetric part of a.

    a is made exactly symmetric in place.  numpy solves a copy of it, so
    the call holds a, that copy, dsyevd's 2 n^2 workspace and the n x n
    eigenvectors it returns.  Those are put back in LAPACK's column-major
    layout, so every product with them (a single vector's too) rounds as
    with an in-place LAPACK solve.
    """
    a += a.T
    a *= 0.5
    w, v = np.linalg.eigh(a)
    return w, np.asfortranarray(v)


def _mirrors(m: DiscreteManifold, psi: PotentialField) -> list[np.ndarray]:
    """The declared reflections m.reflections (commuting involutions) that
    leave mass, Psi and the stiffness's entries invariant to MIRROR_RTOL
    of their largest value: they generate Z2^k."""
    entries = m.stiffness_entries
    return [r for r in m.reflections
            if _within(m.mass[r] - m.mass, m.mass)
            and _within(psi.values[r] - psi.values, psi.values)
            and _within(_permuted_gap(entries, r), entries[2])]


def _permuted_gap(entries, r: np.ndarray) -> np.ndarray:
    """The entries of S[r][:, r] - S on the union of both patterns, from
    the (rows, cols, values) entries of S (r an involution)."""
    rows, cols, values = entries
    n = r.size
    keys = np.concatenate([rows * n + cols, r[rows] * n + r[cols]])
    _, slot = np.unique(keys, return_inverse=True)
    return np.bincount(slot, weights=np.concatenate([values, -values]))


def _within(gap: np.ndarray, ref: np.ndarray) -> bool:
    """|gap| <= MIRROR_RTOL * max|ref| entrywise."""
    bound = MIRROR_RTOL * np.max(np.abs(ref), initial=0.0)
    return bool(np.all(np.abs(gap) <= bound))


def _stiffness_rows(m: DiscreteManifold, reps: np.ndarray) -> np.ndarray:
    """The rows reps of the stiffness, dense: (reps.size, N)."""
    rows, cols, values = m.stiffness_entries
    at = np.full(m.num_nodes, -1)
    at[reps] = np.arange(reps.size)
    kept = at[rows] >= 0
    out = np.zeros((reps.size, m.num_nodes))
    out[at[rows[kept]], cols[kept]] = values[kept]
    return out


def _mirror_eigenpairs(m: DiscreteManifold, psi: PotentialField,
                       mirrors: list[np.ndarray]):
    """The spectrum mu of the reference operator A = M^(-1/2) (S + l^2
    M_(Psi - c)) M^(-1/2), c = min Psi, that c and the eigenvectors, one
    dsyevd block per character of the mirror group, once it fits the memory
    budget.  A constant Psi leaves the reference stiffness alone.

    The k mirrors generate G = Z2^k: element g (a bit mask over the
    mirrors) moves node x to perms[g, x], and character s is chi[s, g] =
    (-1)^popcount(s & g).  Each orbit has its least node as representative
    x, with stabiliser size D_x.  Block s holds the orbits on whose
    stabiliser chi_s is trivial, and
        B_s[x, y] = D_x^(-1/2) sum_g chi_s(g) A[x, g.y] D_y^(-1/2),
    read from the rows of A at the representatives alone.  Eigenvector v of
    B_s is chi_s(g) v(x) / sqrt(|orbit of x|) at node g.x, and 0 on the
    other orbits (a node on a mirror plane is missing from the blocks whose
    character is -1 on its stabiliser), so the blocks' sizes sum to N.
    Each image's columns are added into the character sums in place (chi is
    +-1), the blocks are cut out and the sums let go before the first
    dsyevd, and each block is let go once solved, so the trivial group of a
    mesh with no mirror (one block, the whole of A) holds no more than an
    unsplit solve of A.  The blocks stay apart in a MirrorBasis.
    """
    n = m.num_nodes
    perms, chi = np.arange(n)[None, :], np.ones((1, 1))
    for r in mirrors:
        perms = np.concatenate([perms, r[perms]])
        chi = np.kron([[1.0, 1.0], [1.0, -1.0]], chi)
    reps = np.flatnonzero(np.min(perms, axis=0) == np.arange(n))
    _check_budget(f"dense solve of {n} nodes", n, chi.shape[0], reps.size, 0)
    images = perms[:, reps]  # (|G|, orbits): node g.x of each representative
    fixed = images == reps
    stab = np.count_nonzero(fixed, axis=0)
    member = ~((chi < 0) @ fixed)  # (characters, orbits): orbit in block s

    c = float(np.min(psi.values))
    sqrt_m = np.sqrt(m.mass)
    a_rows = _stiffness_rows(m, reps)
    a_rows[np.arange(reps.size), reps] += (
        m.mass[reps] * m.physical(psi.values[reps] - c, 2))
    a_rows /= sqrt_m[reps, None]
    a_rows /= sqrt_m[None, :]
    sums = np.zeros((chi.shape[0], reps.size, reps.size))  # (s, x, y)
    for image, signs in zip(images, chi.T):
        cols = a_rows[:, image]
        for s, sign in enumerate(signs):
            (np.add if sign > 0 else np.subtract)(sums[s], cols, out=sums[s])
    del a_rows, cols
    d_half = 1.0 / np.sqrt(stab)
    cut = []
    for s in np.flatnonzero(np.any(member, axis=1)):
        keep = np.flatnonzero(member[s])
        b = sums[s][np.ix_(keep, keep)]
        b *= d_half[keep, None]
        b *= d_half[keep]
        cut.append((s, keep, b))
    del sums, b
    blocks = []
    while cut:  # a block is let go once solved
        s, keep, b = cut.pop(0)
        blocks.append((s, keep, *_eigh_symmetric(b)))
        del b

    w = np.concatenate([blk[2] for blk in blocks])
    order = np.argsort(w, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    ends = np.cumsum([keep.size for _, keep, _, _ in blocks])
    basis = MirrorBasis(
        chi=chi, images=images,
        scale=np.sqrt(stab / chi.shape[0]) / sqrt_m[images],
        blocks=tuple((s, keep, v, cols) for (s, keep, _, v), cols
                     in zip(blocks, np.split(column, ends[:-1]))))
    return w[order], c, basis


def _fourier_grid(m: DiscreteManifold):
    """_fourier_axis of the grid and its cell mass m0 when H is separable
    on it, else None.

    Read from the gradient's structure: a GridGradient, whose inv_h_d is
    1 / h_d by construction (h_d the reference cell side of axis d), with
    all element weights equal and node masses m0 times
    the product of the per-axis weights w.  m0 is an element's weight times
    the 2^dim corner elements of a box cell (1 on a torus).  Each axis d
    then contributes (m0 / h_d^2) times its second difference, weighted by
    the other axes' w, to the stiffness, and the eigenvectors are products
    of the per-axis ones (C order, axis 0 slowest).
    """
    g = m.grad
    if not isinstance(g, GridGradient) or np.any(g.weights != g.weights[0]):
        return None
    lam, q, w = _fourier_axis(g.res, g.periodic)
    m0 = float(g.weights[0] * (1 if g.periodic else 2 ** m.dim))
    if np.any(m.mass != m0 * reduce(np.multiply.outer, [w] * m.dim).ravel()):
        return None
    return lam, q, w, m0


def _fourier_axis(res: int, periodic: bool):
    """Eigenvalues, columns and weights of one axis's second difference.

    Periodic: eigenvalues 4 sin^2(pi k/res), orthonormal real Fourier
    columns 1, cos 1, sin 1, cos 2, sin 2, ... (then the alternating mode
    when res is even), a cos/sin pair sharing one computed eigenvalue, and
    weights 1.  Neumann: eigenvalues 4 sin^2(pi k/(2(res - 1))) and the
    DCT-I columns cos(pi k j/(res - 1)), orthonormal under the trapezoid
    weights (1/2 at both ends).
    """
    w = np.ones(res)
    if periodic:
        freq = (np.arange(res) + 1) // 2
        lam = 4.0 * np.sin(np.pi * freq / res) ** 2
        angle = 2.0 * np.pi * (np.outer(np.arange(res), freq) % res) / res
        q = np.where(np.arange(res) % 2 == 1, np.cos(angle), np.sin(angle))
        q[:, 0] = 1.0
        q *= np.where((freq == 0) | (2 * freq == res), 1.0, np.sqrt(2.0)) / np.sqrt(res)
        return lam, q, w
    r = res - 1
    k = np.arange(res)
    w[[0, -1]] = 0.5
    lam = 4.0 * np.sin(0.5 * np.pi * k / r) ** 2
    q = np.outer(k, k)  # two res x res arrays at most, as the budget counts
    q %= 2 * r
    q = q * (np.pi / r)
    np.cos(q, out=q)
    q *= np.sqrt(np.where(k % r == 0, 1.0, 2.0) / r)
    return lam, q, w


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


def multipliers(dec: SpectralDecomposition,
                fs: Iterable[Callable[[np.ndarray], np.ndarray]]) -> list:
    """f(lambda) of each f of fs, in the basis's own order (basis.native):
    what apply_functions multiplies the coefficients by.  A scan forms them
    once and passes them for every chunk of members."""
    return [dec.basis.native(_multiplier(dec, f)) for f in fs]


def _measured(u: np.ndarray, measure: Callable[[np.ndarray], np.ndarray],
              images) -> np.ndarray:
    """measure of each image that images(rows) yields for a chunk of rows,
    stacked over the images.

    u is one node function (N,) or a member matrix (K, N), rows = members;
    measure maps a chunk of image rows to per-member values along its last
    axis (one per row), and the result is (images,) + its leading axes +
    u.shape[:-1].  The rows go a chunk at a time (manifold._chunks), and
    each image is measured and let go before the next one is formed.
    """
    rows = np.reshape(u, (-1, np.shape(u)[-1]))
    parts = []
    for part in _chunks(*rows.shape):
        values = []
        for image in images(rows[part]):
            values.append(measure(image))
            del image
        parts.append(values)
    values = np.concatenate(parts, axis=-1)
    return values.reshape(values.shape[:-1] + np.shape(u)[:-1])


def apply_functions(dec: SpectralDecomposition, weights: list,
                    u: np.ndarray,
                    measure: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """measure(f(H) u) for each f whose multipliers(dec, ...) are weights,
    stacked over them as _measured stacks them: each chunk of rows is
    transformed once for all weights."""
    basis = dec.basis

    def images(rows):
        c = basis.forward(rows)
        for w in weights:
            yield basis.backward(c * w)
    return _measured(u, measure, images)


def heat_images(dec: SpectralDecomposition, t_list, members: int):
    """A function of (u, measure) giving measure(e^(-tH) u) for each t of
    t_list with the shape and values of apply_functions(dec,
    multipliers(dec, map(heat_multiplier, t_list)), u, measure); members is
    the number of member rows it is passed over a scan.

    On a FourierBasis H is the constant c = dec.shift plus a Kronecker sum
    of the axes' second differences, so e^(-tH) is e^(-tc) times one res x
    res heat matrix K_d(t) = q diag(e^(-t lam_d)) (w q)^T along each axis d,
    lam_d the axis eigenvalues over h_d^2 at the length (_heat_axes).  They
    are formed once per time and distinct axis spacing, and each image is
    one product per axis of the node values: no forward transform and no
    coefficients.  Otherwise, and whenever _heat_axes declines, the images
    are apply_functions' with the heat multipliers.  Each multiplier is
    checked finite on the spectrum (_multiplier) once either way; the
    per-axis path lets it go.
    """
    t_list = [float(t) for t in t_list]
    axes = _heat_axes(dec, t_list, members)
    if axes is None:
        weights = multipliers(dec, map(heat_multiplier, t_list))
        return lambda u, measure: apply_functions(dec, weights, u, measure)
    dim = dec.manifold.dim

    def images(rows):
        for mats, scale in axes:
            v = _per_axis(mats, rows, dim).reshape(rows.shape)
            v *= scale
            yield v
            del v  # before the next image is formed
    return lambda u, measure: _measured(u, measure, images)


def _heat_axes(dec: SpectralDecomposition, t_list: list, members: int):
    """(the axes' heat matrices, e^(-t c)) for each t, or None unless the
    basis is a FourierBasis and holding the matrices pays.

    Forming them takes times x spacings x res^3 multiply-adds (spacings:
    the distinct cell sides h_d), and the forward transforms they remove
    members x N x res x dim; the matrices are taken when they cost less and
    the job's predicted peak with them (manifold._predicted_peak) stays
    within the memory budget.
    """
    basis, m = dec.basis, dec.manifold
    if not isinstance(basis, FourierBasis):
        return None
    res, n = basis.q.shape[0], m.num_nodes
    spacings, axis = np.unique(m.grad.h, return_inverse=True)
    count = len(t_list) * spacings.size
    if not (count * res ** 3 < members * n * res * m.dim
            and _predicted_peak(n, 0, 0, members, res, m.grad.num_elements,
                                count) <= MEMORY_BUDGET):
        return None
    wq = (basis.w[:, None] * basis.q).T
    lam = m.physical(basis.lam / spacings[:, None] ** 2, -2)
    axes = []
    for t in t_list:
        _multiplier(dec, heat_multiplier(t))  # refuses a non-finite one
        heat = [(basis.q * np.exp(-t * x)) @ wq for x in lam]
        axes.append((tuple(heat[i] for i in axis), np.exp(-t * dec.shift)))
    return axes


def apply_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray],
                   u: np.ndarray) -> np.ndarray:
    """Evaluate f(H) u = sum_k f(lambda_k) <u, phi_k>_mass phi_k.

    The image is as large as u; apply_functions measures images chunk by
    chunk instead.
    """
    basis = dec.basis
    rows = np.reshape(u, (-1, np.shape(u)[-1]))
    c = basis.forward(rows)
    c *= basis.native(_multiplier(dec, f))
    return basis.backward(c).reshape(np.shape(u))


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

    The basis forms the row sums once for all of fs; phi_k^2 takes its
    factor 1/l^n at the maxima.
    """
    fw2 = np.stack([_multiplier(dec, f) ** 2 for f in fs], axis=1)
    m = dec.manifold
    return np.sqrt(m.physical(np.max(dec.basis.row_sums(fw2), axis=0), -m.dim))


def diagnostics(dec1: SpectralDecomposition) -> dict:
    """Deterministic facts about the Psi = 1 decomposition of a mesh.

    decomposition is the path that solved it ("fourier" or "dense");
    kernel_dim counts the exactly-zero mu (the bare Laplacian's kernel): 1
    on every connected model at every length; mirrors is the number of axis
    reflections the dense solve split the problem by (0 for the trivial
    group of a mesh with no mirror, and on the Fourier path).
    """
    fourier = isinstance(dec1.basis, FourierBasis)
    return {"decomposition": "fourier" if fourier else "dense",
            "kernel_dim": int(np.count_nonzero(dec1.mu == 0.0)),
            "mirrors": 0 if fourier else dec1.basis.mirrors}
