"""Discretized model manifolds: volume/energy forms, curvature data, metric scaling.

Three model families are provided: flat tori (periodic finite-difference
grids), round 2-spheres (subdivided icosahedra with cotangent stiffness),
and boxes with the natural Neumann boundary condition, each built at a
reference size and carrying its physical size as one length
(DiscreteManifold), so no array leaves the float range whatever the size.
Curvature fields are assigned analytically, never estimated from the mesh.
Grid gradients are numpy differences and a sphere's P1 gradient is numpy
arrays of node indices and coefficients.  Either gives per-element gradient
lengths and the weighted Laplacian G^T diag(omega) G u, and never a field of
gradient vectors; the stiffness G^T W G is numpy (row, column, value)
entries derived from either.  Only a read of ``stiffness``, the
same entries as a scipy matrix, loads scipy.  A torus or box stiffness is a
Kronecker sum over the axes, so its spectrum is closed-form per axis
(spectral.FourierBasis); each builder declares its mesh's axis
reflections, whose blocks a dense solve uses, and makes a connected mesh,
so nothing searches its graph.  The memory budget counts a grid's res x res
axis matrices, a sphere's dense solve and every mesh's element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

__all__ = [
    "GradientElements",
    "GridGradient",
    "DiscreteManifold",
    "ModelSpec",
    "build",
    "parse_model_spec",
    "scale_metric",
    "geometric_summary",
    "gamma_integral",
]

MEMORY_BUDGET = 10 ** 9  # bytes a job's predicted peak may reach
DENSE_PEAK = 1.4  # a dense solve's peak / the floats _check_budget counts
CHUNK_BYTES = 2 ** 20  # member rows per pass: as many N-float rows as fit
ELEMENT_BLOCK_BYTES = 2 ** 18  # sphere node values gathered per element block
CHUNK_PEAK = 12  # chunks at a job's peak: one measured, the next drawn meanwhile
ELEMENT_PEAK = 3  # floats per element and member row: |G u|^2, |G u|, |G u|^p
MEMBER_VALUES = 64  # floats a job keeps per member: its values and their reductions
AXIS_GUARD = 256  # nodes per grid axis but a 1-d box's (products cost O(res))
VALIDATE_RTOL = 1e-10  # |gradient of a constant| allowed / largest coefficient
SPEC_KEYS = {"sphere": ("r", "r0", "subdiv", "scale"),  # model spec options
             "torus": ("n", "res", "L", "scale"),
             "box": ("n", "res", "L", "scale")}


class _Elements:
    """What every gradient derives from G, its (num_elements * ncomp) x N
    matrix: ``laplacian(u, omega)`` is G^T diag(omega) G u for one node
    function u, omega one weight per element shared by its components.
    ``weights`` are element volumes and ``num_nodes`` is N.  Each gradient
    also gives the squared gradient lengths without forming G u^T
    (``_squares``), the nodes and coefficients of each row of G
    (``_rows``) and its largest coefficient (``bound``).
    """

    weights: np.ndarray
    ncomp: int

    @property
    def num_elements(self) -> int:
        return self.weights.shape[0]

    def magnitudes(self, u: np.ndarray) -> np.ndarray:
        """Per-element gradient lengths, shape u.shape[:-1] + (num_elements,),
        each member's row contiguous, so a sum along it rounds the same
        whatever the number of rows."""
        return np.sqrt(self._squares(u).T, order="C")

    def energy(self, u: np.ndarray) -> float | np.ndarray:
        """Dirichlet energy sum_e w_e |grad u|_e^2, one value per row of u,
        each summed along its own contiguous row as magnitudes is."""
        terms = np.multiply(self._squares(u).T, self.weights, order="C")
        return np.sum(terms, axis=-1)

    def stiffness_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G^T W G as (rows, cols, values), sorted by (row, col), one entry
        per node pair that shares a row of G.

        Entry (i, j) sums (a_ri w_r) a_rj over the rows r of G in order,
        from 0, as the sparse product G^T diag(w) G does, so the values
        are those of that product.
        """
        n = self.num_nodes
        nodes, coeffs = self._rows()
        k = nodes.shape[1]
        left = coeffs * np.repeat(self.weights, self.ncomp)[:, None]
        keys = (np.repeat(nodes, k, axis=1) * n + np.tile(nodes, k)).ravel()
        terms = (np.repeat(left, k, axis=1) * np.tile(coeffs, k)).ravel()
        pairs, slot = np.unique(keys, return_inverse=True)
        return pairs // n, pairs % n, np.bincount(slot, weights=terms)


@dataclass(frozen=True)
class GradientElements(_Elements):
    """Per-element gradient data held as numpy arrays (sphere P1 elements).

    Row e * ncomp + c of G is component c of the gradient on element e.
    The rows of one element share its nodes, ``nodes[e]`` (ascending), and
    row e * ncomp + c has the coefficients ``coeffs[e, c]`` at them.
    num_nodes is N.
    """

    nodes: np.ndarray  # (num_elements, k) node indices, ascending per element
    coeffs: np.ndarray  # (num_elements, ncomp, k)
    weights: np.ndarray
    num_nodes: int

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    def laplacian(self, u: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """G^T diag(omega) G u: one batched product with the coefficients
        forms each element's components, the transposed product its node
        terms, and each node sums its terms in element order."""
        g = np.matmul(self.coeffs, u[self.nodes][:, :, None])
        g *= omega[:, None, None]
        terms = np.matmul(self.coeffs.transpose(0, 2, 1), g)
        return np.bincount(self.nodes.ravel(), weights=terms.ravel(),
                           minlength=self.num_nodes)

    def _squares(self, u: np.ndarray) -> np.ndarray:
        """Squared gradient lengths, shape (num_elements,) + u.shape[:-1].

        A block of elements at a time (about ELEMENT_BLOCK_BYTES of node
        values): the block's node values are gathered once from a
        node-major copy of u, and one batched product with its
        coefficients forms its components, squared and summed.  One row is
        given a copy as a second column: numpy's matmul takes a
        matrix-vector kernel for a lone column, which rounds otherwise, and
        a row's value must not depend on the rows that come with it.
        """
        rows = np.ascontiguousarray(u.reshape(-1, u.shape[-1]).T)  # (N, K)
        count = rows.shape[1]
        if count == 1:
            rows = np.repeat(rows, 2, axis=1)
        sq = np.empty((self.num_elements, rows.shape[1]))
        step = max(1, ELEMENT_BLOCK_BYTES // (8 * rows[0].size
                                              * self.nodes.shape[1]))
        for lo in range(0, self.num_elements, step):
            part = slice(lo, lo + step)
            g = np.matmul(self.coeffs[part], rows[self.nodes[part]])
            np.sum(np.square(g, out=g), axis=1, out=sq[part])
        return sq[:, :count].reshape((self.num_elements,) + u.shape[:-1])

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's nodes (ascending) and coefficients, (rows, k) each."""
        k = self.nodes.shape[1]
        return (np.repeat(self.nodes, self.ncomp, axis=0),
                self.coeffs.reshape(-1, k))

    def bound(self) -> float:
        """The largest |coefficient| of G."""
        return float(np.max(np.abs(self.coeffs), initial=0.0))


@dataclass(frozen=True)
class GridGradient(_Elements):
    """Forward differences on a res^dim grid, applied by numpy slices.

    h are the cell sides, one per axis (res of them make a torus's period,
    res - 1 a box's side).  Component d of an element is inv_h[d] u(x +
    e_d) - inv_h[d] u(x) along one d-edge.  On a torus (periodic) there is one
    element per node x, and the edge from res - 1 wraps to 0.  On a Neumann
    box the elements are trapezoid Q1 corners: one per (cell corner, cell),
    weight cell_vol / 2^dim, whose component d is the difference along the
    cell's d-edge through that corner, so every node lies on an element.
    Elements run corner by corner, each corner's cells in C order.
    """

    res: int
    h: np.ndarray  # the cell side of each axis
    weights: np.ndarray
    periodic: bool

    @property
    def ncomp(self) -> int:
        return len(self.h)

    @property
    def inv_h(self) -> np.ndarray:
        """1 / h_d, the difference coefficient of each axis."""
        return 1.0 / self.h

    @property
    def num_nodes(self) -> int:
        return self.res ** self.ncomp

    def _layout(self, tail: tuple[int, ...]) -> tuple[int, ...]:
        """Element array shape: (corner,) + cells + tail."""
        n = self.ncomp
        corners, cells = (1, self.res) if self.periodic else (2 ** n, self.res - 1)
        return (corners,) + (cells,) * n + tail

    def _edge_shape(self, shape: tuple[int, ...], d: int) -> tuple[int, ...]:
        """Shape of the d-edge array of a grid array: one entry per edge
        x -> x + e_d, res - 1 of them along axis d on a box."""
        n = self.res if self.periodic else self.res - 1
        return shape[:d] + (n,) + shape[d + 1:]

    def _pieces(self, a: np.ndarray, d: int):
        """(edge index, heads, tails) of the d-edges of a grid array a (grid
        axes first): the edges x -> x + e_d inside the grid, then on a torus
        the wrap from res - 1 to 0."""
        r = self.res - 1
        pre = (slice(None),) * d
        inner, first, last = slice(0, r), slice(0, 1), slice(r, None)
        yield pre + (inner,), a[pre + (slice(1, None),)], a[pre + (inner,)]
        if self.periodic:
            yield pre + (last,), a[pre + (first,)], a[pre + (last,)]

    def _corners(self, d: int):
        """(corner, its cells as an index into a d-edge array) of the elements."""
        if self.periodic:
            yield 0, ()
            return
        r = self.res - 1
        for c, corner in enumerate(product((0, 1), repeat=self.ncomp)):
            yield c, tuple(slice(None) if j == d else slice(k, k + r)
                           for j, k in enumerate(corner))

    def _elements(self, per_axis) -> np.ndarray:
        """Rows (E * ncomp,) of G's layout from (d, d-edge node array) pairs."""
        g = np.empty(self._layout((self.ncomp,)), dtype=np.intp)
        comp = (slice(None),) * self.ncomp
        for d, values in per_axis:
            for c, cells in self._corners(d):
                g[(c,) + comp + (d,)] = values[cells]
        return g.ravel()

    def _differences(self, v: np.ndarray):
        """(d, inv_h u(head) - inv_h u(tail) on every d-edge) for v = u.T,
        rounded as the sparse product G v.  Each array is overwritten by the
        next one, so use it before asking for the next."""
        a = np.ascontiguousarray(v).reshape((self.res,) * self.ncomp + v.shape[1:])
        scaled, buf, inv_h = np.empty_like(a), np.empty(a.size), self.inv_h
        for d in range(self.ncomp):
            np.multiply(a, inv_h[d], out=scaled)
            shape = self._edge_shape(a.shape, d)
            diff = buf[:math.prod(shape)].reshape(shape)
            for edges, head, tail in self._pieces(scaled, d):
                np.subtract(head, tail, out=diff[edges])
            yield d, diff

    def _squares(self, u: np.ndarray) -> np.ndarray:
        # the components' squares added in order d = 0, 1, ..., without
        # forming the (E * ncomp, K) array of G u^T
        sq = np.empty(self._layout(u.shape[:-1]))
        for d, diff in self._differences(u.T):
            np.square(diff, out=diff)
            for c, cells in self._corners(d):
                if d:
                    sq[c] += diff[cells]
                else:
                    sq[c] = diff[cells]
        return sq.reshape((-1,) + u.shape[:-1])

    def edges(self) -> np.ndarray:
        """Node pairs (2, E * ncomp): each difference's head and tail, row order."""
        nodes = np.arange(self.num_nodes).reshape((self.res,) * self.ncomp)
        ends = []
        for d in range(self.ncomp):
            pair = np.empty((2,) + self._edge_shape(nodes.shape, d), dtype=np.intp)
            for edges, head, tail in self._pieces(nodes, d):
                pair[(slice(None),) + edges] = head, tail
            ends.append(pair)
        return np.stack([self._elements(enumerate(e[k] for e in ends))
                         for k in (0, 1)])

    def laplacian(self, u: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """G^T diag(omega) G u, an axis at a time: each d-edge weighs its
        difference by the omega of the elements on it, and its flux, times
        inv_h[d], goes to its head node and from its tail node."""
        omega = omega.reshape(self._layout(()))
        out = np.zeros((self.res,) * self.ncomp)
        for d, diff in self._differences(u):
            weight = np.zeros(diff.shape)
            for c, cells in self._corners(d):
                weight[cells] += omega[c]
            flux = weight * diff * self.inv_h[d]
            for edges, head, tail in self._pieces(out, d):
                head += flux[edges]
                tail -= flux[edges]
        return out.ravel()

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's nodes (ascending) and coefficients, (rows, 2) each:
        inv_h[d] at the head and -inv_h[d] at the tail."""
        ends = self.edges().T
        c = np.tile(self.inv_h, self.num_elements)[:, None] * [1.0, -1.0]
        flip = ends[:, 0] > ends[:, 1]
        ends[flip], c[flip] = ends[flip, ::-1], c[flip, ::-1]
        return ends, c

    def bound(self) -> float:
        """The largest |coefficient| of G."""
        return float(np.max(np.abs(self.inv_h)))


@dataclass(frozen=True)
class DiscreteManifold:
    """Discretized Riemannian model: a reference mesh and its length l.

    Every array is the reference mesh's: a unit sphere, or a grid of unit
    geometric-mean cell side.  The metric is l^2 times the reference one,
    and a quantity of length dimension k takes l^k in one place (physical).
    mass is the lumped (diagonal) volume form and grad the per-element
    gradient data; the Dirichlet form is sum_e w_e |grad u|_e^2, so the
    stiffness matrix G^T W G is derived from grad, as numpy entries.  The
    curvature fields carry 1/length^2 units only through l
    (geometric_summary); ric_min is the least Ricci eigenvalue at each
    node.  reflections are the node permutations r of the mesh's axis
    reflections (node r[i] is the image of node i), as its builder
    declares them.
    """

    dim: int
    points: np.ndarray
    mass: np.ndarray
    grad: GradientElements | GridGradient
    scalar_curvature: np.ndarray
    ric_min: np.ndarray
    label: str
    reflections: tuple[np.ndarray, ...] = ()
    length: float = 1.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValueError(f"model {self.label}: its length "
                             f"{self.length:g} is not a finite positive float")

    @property
    def num_nodes(self) -> int:
        return self.mass.shape[0]

    def physical(self, x, k: float):
        """x l^k for x of length dimension k on the reference mesh: x itself
        at l = 1, and inf or 0 past floats without a warning (a report
        refuses a non-finite field); 0 stays 0."""
        if self.length == 1.0:
            return x
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            y = x * np.float64(self.length) ** k
        return np.where(np.equal(x, 0), 0.0, y)[()]

    @property
    def reference(self) -> DiscreteManifold:
        """The mesh at length 1, where scale-invariant ratios are taken."""
        return self if self.length == 1.0 else replace(self, length=1.0)

    @property
    def volume(self) -> float:
        return self.physical(float(self.mass.sum()), self.dim)

    @property
    def periods(self) -> tuple[float, ...] | None:
        """The reference periods of a periodic grid, else None."""
        g = self.grad
        if isinstance(g, GridGradient) and g.periodic:
            return tuple(g.h * g.res)
        return None

    @cached_property
    def stiffness_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stiffness G^T W G as (rows, cols, values), sorted by (row,
        col), formed on first read.  Only the dense decomposition needs it;
        energies read the gradient."""
        return self.grad.stiffness_entries()

    @cached_property
    def stiffness(self):
        """The same entries as a scipy CSR matrix (the first read loads
        scipy.sparse), for tests and diagnostics."""
        import scipy.sparse as sp
        rows, cols, values = self.stiffness_entries
        return sp.csr_matrix((values, (rows, cols)),
                             shape=(self.num_nodes, self.num_nodes))

    def dirichlet_energy(self, u: np.ndarray) -> float:
        return self.physical(float(self.grad.energy(u)), self.dim - 2)

    def mass_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.physical(float(np.sum(self.mass * u * v)), self.dim)

    def validate(self) -> None:
        """Check construction invariants; raises ValueError on failure.

        The stiffness is symmetric with constants in its kernel by
        construction, given a zero gradient of constants.  Connectivity is
        the builders': each mesh is connected as built, and a disconnected
        gradient would show as kernel_dim > 1 in every artifact's
        diagnostics.  R is the trace of Ric, so R >= n min Ric at every
        node.  The reflections are commuting involutions of the nodes other
        than the identity.
        """
        if np.any(self.mass <= 0):
            raise ValueError("mass weights must be positive")
        ones = np.ones(self.num_nodes)
        if np.max(self.grad.magnitudes(ones), initial=0.0) \
                > VALIDATE_RTOL * self.grad.bound():
            raise ValueError("element gradient of constants is nonzero")
        r = self.scalar_curvature
        slack = 1e-12 * np.maximum(1.0, np.abs(r))
        if np.any(r < self.dim * self.ric_min - slack):
            raise ValueError("scalar curvature below n * ric_min (R is the "
                             "trace of Ric)")
        nodes = np.arange(self.num_nodes)
        for i, r in enumerate(self.reflections):
            if not np.array_equal(np.sort(r), nodes):
                raise ValueError(f"reflection {i} is not a node permutation")
            if not np.array_equal(r[r], nodes) or np.array_equal(r, nodes):
                raise ValueError(f"reflection {i} is not a proper involution")
            if any(not np.array_equal(r[q], q[r])
                   for q in self.reflections[:i]):
                raise ValueError(f"reflection {i} does not commute with "
                                 f"another")


@dataclass(frozen=True)
class ModelSpec:
    """Catalog entry for a buildable model.

    variant is one of "torus", "sphere", "box".  resolution is nodes per axis
    for grids and the subdivision level for spheres.  sides belong to grids
    and radius to spheres: a sphere takes no sides and a grid keeps radius
    1.0.  A grid's one side length (default 2 pi) serves every axis; it is
    repeated only after the variant and resolution are validated.  scale
    applies a metric scaling g -> scale^2 g.  Any finite positive sides,
    radius and scale are kept: the mesh is built at its reference size,
    and they set its length alone (DiscreteManifold).
    """

    variant: str
    dim: int = 2
    resolution: int = 16
    sides: tuple[float, ...] = ()
    radius: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.variant not in ("torus", "sphere", "box"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")
        if self.variant == "sphere":
            if self.sides:
                raise ValueError(f"a sphere takes no sides, got sides={self.sides}")
            if self.dim != 2:
                raise ValueError("sphere models are 2-dimensional only")
            if self.resolution < 1:
                raise ValueError("subdivision level too small for the stencil")
        else:
            if self.radius != 1.0:
                raise ValueError(f"a {self.variant} takes no radius, got "
                                 f"radius={self.radius:g}")
            if self.dim < 1:
                raise ValueError("dimension must be >= 1")
            if self.resolution < 2:
                raise ValueError("resolution too small to support the stencil")
            sides = self.sides if self.sides else (2.0 * np.pi,)
            if len(sides) == 1:
                sides = sides * self.dim
            if len(sides) != self.dim:
                raise ValueError("need one side length per dimension")
            if not all(0 < s < np.inf for s in sides):
                raise ValueError("side lengths must be positive and finite")
            object.__setattr__(self, "sides", tuple(float(s) for s in sides))
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")

    def describe(self) -> str:
        if self.variant == "sphere":
            s = f"sphere:r={self.radius:g},subdiv={self.resolution}"
        else:
            sides = "x".join(f"{s:g}" for s in self.sides)
            s = f"{self.variant}:n={self.dim},res={self.resolution},L={sides}"
        if self.scale != 1.0:
            s += f",scale={self.scale:g}"
        return s


def _chunk_rows(nodes) -> int:
    """Member rows of nodes floats in one chunk: as many as fit in
    CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (8 * nodes))


def _chunks(count: int, nodes: int):
    """Slices of count member rows of nodes floats, _chunk_rows each: an
    ensemble is drawn, and every norm, f(H) image and projection of its
    members is formed, chunk by chunk, so a job that keeps only per-member
    values holds a few chunks whatever the ensemble's size."""
    step = _chunk_rows(nodes)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _keep_chunk_pages() -> None:
    """Let the C allocator keep the pages of freed chunk temporaries.

    A job allocates and frees a few arrays of about CHUNK_BYTES per chunk
    of members.  glibc's default returns heap memory to the system whenever
    twice the largest freed mmapped block lies free at the top of the heap,
    so every chunk would fault its temporaries' pages in again (about 10^4
    page faults in a heat job on 3136 nodes).  Blocks up to the budget's
    chunk allowance, CHUNK_PEAK chunks, come from the heap, and that
    much free memory stays mapped.  The allocator keeps one arena
    (M_ARENA_MAX = 1), so the chunks that constants._sweep draws on a worker
    thread come from the same heap and reuse the same kept pages; a second
    arena would hold its own.  A C library without mallopt is left as it
    is.
    """
    import ctypes  # numpy has loaded it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    allowance = CHUNK_PEAK * CHUNK_BYTES
    mallopt(-3, allowance)  # M_MMAP_THRESHOLD
    mallopt(-1, allowance)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _check_budget(job: str, nodes, group: int, orbits, members: int,
                  axis: int = 0, elements=0) -> float:
    """Predicted peak bytes of a job, refused unless within MEMORY_BUDGET.

    Five terms, in floats.  A dense solve in the mirror group's blocks
    (group = 0 on the per-axis path) holds DENSE_PEAK times the larger of
    its two phases, plus 2 |G| N for the node images and character table.
    The character sums hold |G| o^2 sums, the o x N stiffness rows at the
    orbit representatives and one image's o^2 columns (o = orbits); the
    solves hold the cut blocks, at most |G| o^2, and numpy's eigh of the
    block being solved (at most o x o) another 4 o^2: a copy, dsyevd's
    2 o^2 workspace and the eigenvectors.  A per-axis basis of axis nodes
    per axis holds 2 axis^2: its columns and the one copy of the same size
    (weighted or squared) that a transform or a row sum forms.
    CHUNK_PEAK chunks of min(members, _chunk_rows) rows of N are what a
    chunk's transforms and measures hold at once, with the next chunk and
    its draw's temporaries (constants._sweep draws it meanwhile).  A
    gradient norm of a chunk holds ELEMENT_PEAK floats per row and element
    (the squares, the magnitudes and their p-th powers), next to the mesh's
    element weights:
    8 (res - 1)^3 elements on a 3-d box against res^3 nodes.  MEMBER_VALUES
    per member are the per-member values a job keeps and reduces (3 to 28
    measured at the default times; a heat --t-list time adds 3 cases, a
    flow b --times sample one value).  members = 0 predicts the
    decomposition alone.
    """
    dense = 0.0
    if group:
        sums = group * orbits * orbits + orbits * nodes + orbits * orbits
        solves = (group + 4) * orbits * orbits
        dense = DENSE_PEAK * (max(sums, solves) + 2 * group * nodes)
    rows = min(members, _chunk_rows(nodes)) if members else 0
    peak = 8.0 * (dense + 2 * axis * axis + elements + MEMBER_VALUES * members
                  + rows * (CHUNK_PEAK * nodes + ELEMENT_PEAK * elements))
    if not peak <= MEMORY_BUDGET:
        raise ValueError(f"{job} needs a predicted {peak / 1e9:.3g} GB, over "
                         f"the memory budget of {MEMORY_BUDGET / 1e9:g} GB")
    return peak


def _check_node_count(variant: str, dim: int, res: int, members: int) -> None:
    """Refuse a model spec whose job is too large before the mesh is built.

    A grid has res^dim nodes and an icosphere (res = subdiv) 10 * 4^res + 2;
    a torus has res^dim elements, a box (2 res - 2)^dim and an icosphere
    20 * 4^res.
    An axis of a torus, or of a box of dimension 2 or more, may have at most
    AXIS_GUARD nodes; a 1-d box's one axis matrix is its whole eigenbasis,
    and the budget bounds it.  The budget takes the mirror group at Psi = 1
    on an icosphere, 2^3 and about N / 8 orbits, and the res x res axis
    matrices on a grid.  A power of 256 bits or more is named but never
    formed, so a huge n or subdiv costs nothing.  Resolutions that
    ModelSpec rejects pass unchecked.
    """
    sphere = variant == "sphere"
    base, exp = (4, res) if sphere else (res, dim)
    if base < 2 or exp < 1:
        return
    count = f"10*4^{res}+2" if sphere else f"{res}^{dim}"
    n, e, group, orbits = math.inf, math.inf, 1, math.inf  # unformed: inf
    if exp * (base.bit_length() - 1) < 256:
        n = 10 * 4 ** res + 2 if sphere else res ** dim
        e = (20 * 4 ** res if sphere else n if variant == "torus"
             else (2 * res - 2) ** dim)
        count += f" = {n}"
        group, orbits = (8, n / 8) if sphere else (0, 0)
    if (variant == "torus" or variant == "box" and dim > 1) and res > AXIS_GUARD:
        raise ValueError(f"{variant} model of {count} nodes exceeds the axis "
                         f"guard ({AXIS_GUARD} nodes per axis)")
    _check_budget(f"{variant} model of {count} nodes times {members} members",
                  n, group, orbits, members, 0 if sphere else res, e)


def parse_model_spec(text: str, members: int = 1) -> ModelSpec:
    """Parse a spec string like "torus:n=2,res=32,L=6.2831853".

    A sphere takes r (alias r0, default 1), subdiv (default 3) and scale; a
    torus or box takes n (default 2), res (default 16), L (one side for
    every axis, default 2 pi, or one per axis joined by x) and scale; scale
    defaults to 1.  Any other key is refused, and so is a job over the
    memory budget with an ensemble of the given number of members (see
    _check_node_count), before anything is built.
    """
    head, _, rest = text.partition(":")
    variant = head.strip()
    if variant not in SPEC_KEYS:
        raise ValueError(f"unknown model variant {variant!r}")
    kw: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise ValueError(f"malformed model option {item!r}")
            kw[k.strip()] = v.strip()
    keys = SPEC_KEYS[variant]
    unknown = [k for k in kw if k not in keys]
    if unknown:
        raise ValueError(f"unknown {variant} options {unknown}; a {variant} "
                         f"takes {', '.join(keys)}")
    sphere = variant == "sphere"
    dim = 2 if sphere else int(kw.get("n", 2))
    res = int(kw.get("subdiv", 3) if sphere else kw.get("res", 16))
    _check_node_count(variant, dim, res, members)
    radius = float(kw.get("r", kw.get("r0", 1.0)))
    scale = float(kw.get("scale", 1.0))
    sides = tuple(float(s) for s in kw["L"].split("x")) if "L" in kw else ()
    return ModelSpec(variant=variant, dim=dim, resolution=res, sides=sides,
                     radius=radius, scale=scale)


# ---------------------------------------------------------------------------
# grid models (torus, box)

def _build_grid(spec: ModelSpec) -> DiscreteManifold:
    """A torus (one forward-difference element per node) or a Neumann box
    (Q1 corner elements, half and quarter masses on faces and corners);
    reflection d takes index k along axis d to res - 1 - k.  Its length is
    the geometric mean of the cell sides times scale, and the reference
    cells are the cells over it (all 1 on an isotropic grid)."""
    periodic = spec.variant == "torus"
    dim, res = spec.dim, spec.resolution
    h = np.array([s / res if periodic else s / (res - 1) for s in spec.sides])
    length = h[0] * math.exp(sum(math.log(x / h[0]) for x in h) / dim)
    h = h / length
    cell_vol = float(np.prod(h))
    n = res ** dim
    coords = np.stack(np.unravel_index(np.arange(n), (res,) * dim), axis=1)
    if periodic:
        weights = np.full(n, cell_vol)
        mass = np.full(n, cell_vol)
    else:
        weights = np.full((2 * (res - 1)) ** dim, cell_vol / 2 ** dim)
        end = (coords == 0) | (coords == res - 1)
        mass = cell_vol * np.prod(np.where(end, 0.5, 1.0), axis=1)
    grad = GridGradient(res=res, h=h, weights=weights, periodic=periodic)
    grid = np.arange(n).reshape((res,) * dim)
    return DiscreteManifold(
        dim=dim, points=coords * h[None, :], mass=mass, grad=grad,
        scalar_curvature=np.zeros(n), ric_min=np.zeros(n),
        label=spec.describe(),
        reflections=tuple(np.flip(grid, d).ravel() for d in range(dim)),
        length=float(length) * spec.scale)


# ---------------------------------------------------------------------------
# icosphere

_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
    [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
    [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
], dtype=float)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


def _icosphere(subdiv: int):
    """Points, faces and axis reflections r of the unit icosahedron split
    subdiv times.  Each split adds the edge midpoints, numbered in the order
    the faces first visit their edges (ab, bc, ca of each face), projected
    to the unit sphere, and cuts every face into four.  Reflection d negates
    coordinate d of the base vertices (0, +-1, +-phi: exactly) and takes
    the midpoint of (a, b) to that of (r[a], r[b])."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    mirrors = [np.argmax(np.all(_ICO_VERTS[:, None] * signs == _ICO_VERTS,
                                axis=2), axis=1)
               for signs in 1.0 - 2.0 * np.eye(3)]  # row d negates axis d
    for _ in range(subdiv):
        n = len(verts)
        a, b, c = faces.T
        ends = np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2)  # visit order
        lo, hi = np.sort(ends, axis=1).T
        keys, first, inverse = np.unique(lo * n + hi, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        mids = verts[lo[first[order]]] + verts[hi[first[order]]]
        # a per-row dot product rounds as the 1-D norm of each midpoint did
        norms = np.sqrt((mids[:, None, :] @ mids[:, :, None])[:, 0, 0])
        ab, bc, ca = (n + rank[inverse.ravel()]).reshape(-1, 3).T
        verts = np.concatenate([verts, mids / norms[:, None]])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        for i, r in enumerate(mirrors):
            ra, rb = np.sort(r[np.stack(np.divmod(keys, n))], axis=0)
            mid = np.empty_like(rank)
            mid[rank] = n + rank[np.searchsorted(keys, ra * n + rb)]
            mirrors[i] = np.concatenate([r, mid])
    return verts, faces, tuple(mirrors)


def _triangle_mesh_arrays(points: np.ndarray, faces: np.ndarray):
    """Lumped mass and P1 gradient elements (the cotangent stiffness is
    G^T W G)."""
    n = points.shape[0]
    p0, p1, p2 = points[faces[:, 0]], points[faces[:, 1]], points[faces[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(normal, axis=1)  # 2 * area
    areas = 0.5 * area2
    if np.any(areas <= 0):
        raise ValueError("degenerate triangle in mesh")
    nhat = normal / area2[:, None]

    # P1 gradient: grad u = sum_i u_i (nhat x e_i) / (2A), e_i the opposite
    # edge; coeffs[f, c, i] is component c of vertex i's term
    edges = [p2 - p1, p0 - p2, p1 - p0]
    coeffs = np.stack([np.cross(nhat, e) / area2[:, None] for e in edges],
                      axis=2)
    order = np.argsort(faces, axis=1)
    grad = GradientElements(
        nodes=np.take_along_axis(faces, order, axis=1),
        coeffs=np.take_along_axis(coeffs, order[:, None, :], axis=2),
        weights=areas, num_nodes=n)

    mass = np.zeros(n)
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return mass, grad


def _build_sphere(spec: ModelSpec) -> DiscreteManifold:
    """The unit icosphere (R = 2, Ric = 1), of length r times scale."""
    points, faces, reflections = _icosphere(spec.resolution)
    mass, grad = _triangle_mesh_arrays(points, faces)
    n = points.shape[0]
    return DiscreteManifold(
        dim=2, points=points, mass=mass, grad=grad,
        scalar_curvature=np.full(n, 2.0), ric_min=np.full(n, 1.0),
        label=spec.describe(), reflections=reflections,
        length=spec.radius * spec.scale)


def build(spec: ModelSpec | str) -> DiscreteManifold:
    """Construct the model described by spec (ModelSpec or spec string),
    refused as parse_model_spec refuses one member's job before anything
    is built."""
    if isinstance(spec, str):
        spec = parse_model_spec(spec)
    else:
        _check_node_count(spec.variant, spec.dim, spec.resolution, 1)
    m = (_build_sphere if spec.variant == "sphere" else _build_grid)(spec)
    m.validate()
    return m


# ---------------------------------------------------------------------------
# operations

def scale_metric(m: DiscreteManifold, lam: float) -> DiscreteManifold:
    """Metric scaling g -> lam^2 g: the length times lam, the reference
    mesh kept.  lam=1 returns the manifold unchanged.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if lam == 1.0:
        return m
    return replace(m, length=lam * m.length, label=m.label + f"*scale{lam:g}")


def geometric_summary(m: DiscreteManifold) -> dict:
    """Volume, positive-part curvature maximum and Ricci defect.

    kappa is (-min{0, min ric_min})^(1/2).
    """
    return {
        "vol": m.volume,
        "r_max_plus": m.physical(float(max(0.0, np.max(m.scalar_curvature))),
                                 -2),
        "kappa": m.physical(float(np.sqrt(max(0.0, -np.min(m.ric_min)))), -1),
    }


def gamma_integral(m: DiscreteManifold, c: float, eps: float) -> float:
    """Integral-curvature quantity (int [(ric_min+c)^-]^(n/2+eps))^(1/(2 eps)).

    Returns 0 when ric_min + c >= 0 everywhere.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    neg = np.maximum(0.0, -(m.physical(m.ric_min, -2) + c))
    integral = float(np.sum(m.physical(m.mass, m.dim)
                            * neg ** (m.dim / 2.0 + eps)))
    return integral ** (1.0 / (2.0 * eps))
