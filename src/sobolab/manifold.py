"""Discretized model manifolds: volume/energy forms, curvature data, metric scaling.

Three model families are provided: flat tori (periodic finite-difference
grids), round 2-spheres (subdivided icosahedra with cotangent stiffness),
and boxes with the natural Neumann boundary condition.  Curvature fields
are assigned analytically, never estimated from the mesh.  Grid gradients
are numpy differences; only a sphere, or a first read of ``stiffness``,
loads scipy.
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
    "with_fields",
    "geometric_summary",
    "gamma_integral",
]

DENSE_NODE_GUARD = 4000  # nodes of a sphere or box (dense decomposition)
TORUS_AXIS_GUARD = 256  # nodes per torus axis (Fourier products cost O(res))
MEMBER_GUARD = 2 ** 24  # ensemble size x nodes: a 128 MiB member matrix
VALIDATE_RTOL = 1e-10  # |gradient of a constant| allowed / largest coefficient


class _Elements:
    """What every gradient derives from G, its (num_elements * ncomp) x N
    matrix: ``_apply(v)`` is G v for v of shape (N,) or (N, K), and
    ``_apply_t(x)`` is G^T x for x of shape (num_elements * ncomp,).
    ``weights`` are element volumes.  Each gradient also gives G as a scipy
    matrix (``sparse``), the node pairs its rows join (``edges``), its
    largest coefficient (``bound``) and itself on g -> lam^2 g (``scaled``).
    """

    weights: np.ndarray
    ncomp: int

    @property
    def num_elements(self) -> int:
        return self.weights.shape[0]

    def vectors(self, u: np.ndarray) -> np.ndarray:
        """Gradient vectors, shape u.shape[:-1] + (num_elements, ncomp).

        u is one node function (N,) or a member matrix (K, N), rows = members.
        """
        return self._apply(u.T).T.reshape(
            u.shape[:-1] + (self.num_elements, self.ncomp))

    def pullback(self, s: np.ndarray) -> np.ndarray:
        """Node vector G^T W s of an element field s (num_elements, ncomp).

        The counterpart of vectors: <vectors(u), s> weighted by element
        volume equals u . pullback(s) for every node function u.
        """
        return self._apply_t(np.repeat(self.weights, self.ncomp) * s.ravel())

    def _squares(self, u: np.ndarray) -> np.ndarray:
        """Squared gradient lengths, shape (num_elements,) + u.shape[:-1]."""
        g = self._apply(u.T)  # (E * ncomp,) or (E * ncomp, K)
        np.square(g, out=g)  # in place: the product is the largest temporary
        return g.reshape((self.num_elements, self.ncomp) + g.shape[1:]).sum(axis=1)

    def magnitudes(self, u: np.ndarray) -> np.ndarray:
        """Per-element gradient lengths, shape u.shape[:-1] + (num_elements,)."""
        sq = self._squares(u)
        return np.sqrt(sq, out=sq).T

    def energy(self, u: np.ndarray) -> float | np.ndarray:
        """Dirichlet energy sum_e w_e |grad u|_e^2, one value per row of u."""
        return self.weights @ self._squares(u)


@dataclass(frozen=True)
class GradientElements(_Elements):
    """Per-element gradient data held as a sparse matrix (sphere P1 elements).

    ``matrix`` is G, a scipy CSR matrix; applying it to a node function and
    reshaping to (num_elements, ncomp) gives the gradient vector on each
    element.
    """

    matrix: object  # scipy.sparse.csr_matrix
    weights: np.ndarray
    ncomp: int

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def _apply_t(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.T @ x

    def sparse(self):
        return self.matrix

    def edges(self) -> np.ndarray:
        """Node pairs (2, P) sharing a row of G: consecutive entries of a row."""
        indptr = self.matrix.indptr
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        same = rows[1:] == rows[:-1]
        cols = self.matrix.indices
        return np.stack([cols[:-1][same], cols[1:][same]])

    def bound(self) -> float:
        """The largest |coefficient| of G."""
        return float(np.max(np.abs(self.matrix.data), initial=0.0))

    def scaled(self, lam: float, dim: int) -> GradientElements:
        """The gradient of g -> lam^2 g on a dim-manifold."""
        return GradientElements(self.matrix * (1.0 / lam),
                                self.weights * lam ** dim, self.ncomp)


@dataclass(frozen=True)
class GridGradient(_Elements):
    """Forward differences on a res^dim grid, applied by numpy slices.

    Component d of an element is inv_h[d] u(x + e_d) - inv_h[d] u(x) along
    one d-edge.  On a torus (periodic; sides are the periods) there is one
    element per node x, and the edge from res - 1 wraps to 0.  On a Neumann
    box the elements are trapezoid Q1 corners: one per (cell corner, cell),
    weight cell_vol / 2^dim, whose component d is the difference along the
    cell's d-edge through that corner, so every node lies on an element.
    Elements run corner by corner, each corner's cells in C order.
    """

    res: int
    sides: tuple[float, ...]
    inv_h: np.ndarray  # 1 / h_d, the difference coefficient of each axis
    weights: np.ndarray
    periodic: bool

    @property
    def ncomp(self) -> int:
        return len(self.sides)

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

    def _elements(self, per_axis, tail: tuple[int, ...] = (), dtype=float):
        """Rows (E * ncomp,) + tail of G's layout from (d, d-edge array) pairs."""
        g = np.empty(self._layout((self.ncomp,) + tail), dtype=dtype)
        comp = (slice(None),) * self.ncomp
        for d, values in per_axis:
            for c, cells in self._corners(d):
                g[(c,) + comp + (d,)] = values[cells]
        return g.reshape((-1,) + tail)

    def _differences(self, v: np.ndarray):
        """(d, inv_h u(head) - inv_h u(tail) on every d-edge) for v = u.T,
        rounded as the sparse product G v.  Each array is overwritten by the
        next one, so use it before asking for the next."""
        a = np.ascontiguousarray(v).reshape((self.res,) * self.ncomp + v.shape[1:])
        scaled, buf = np.empty_like(a), np.empty(a.size)
        for d in range(self.ncomp):
            np.multiply(a, self.inv_h[d], out=scaled)
            shape = self._edge_shape(a.shape, d)
            diff = buf[:math.prod(shape)].reshape(shape)
            for edges, head, tail in self._pieces(scaled, d):
                np.subtract(head, tail, out=diff[edges])
            yield d, diff

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self._elements(self._differences(v), v.shape[1:])

    def _squares(self, u: np.ndarray) -> np.ndarray:
        # the components' squares added in order d = 0, 1, ..., as the rows
        # of _apply would be, without forming that (E * ncomp, K) array
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
        nodes = np.arange(self.res ** self.ncomp).reshape((self.res,) * self.ncomp)
        ends = []
        for d in range(self.ncomp):
            pair = np.empty((2,) + self._edge_shape(nodes.shape, d), dtype=np.intp)
            for edges, head, tail in self._pieces(nodes, d):
                pair[(slice(None),) + edges] = head, tail
            ends.append(pair)
        return np.stack([self._elements(enumerate(e[k] for e in ends),
                                        dtype=np.intp) for k in (0, 1)])

    def _apply_t(self, x: np.ndarray) -> np.ndarray:
        # each node sums its terms in row order, as a sparse G^T x does
        ends = self.edges()
        cx = np.tile(self.inv_h, self.num_elements) * x
        return np.bincount(ends.T.ravel(),
                           weights=np.stack([cx, -cx], axis=1).ravel(),
                           minlength=self.res ** self.ncomp)

    def sparse(self):
        """G as a scipy CSR matrix (the first use loads scipy.sparse)."""
        import scipy.sparse as sp
        head, tail = self.edges()
        rows = np.arange(head.size)
        c = np.tile(self.inv_h, self.num_elements)
        return sp.csr_matrix(
            (np.concatenate([c, -c]), (np.concatenate([rows, rows]),
                                       np.concatenate([head, tail]))),
            shape=(head.size, self.res ** self.ncomp))

    def bound(self) -> float:
        """The largest |coefficient| of G."""
        return float(np.max(np.abs(self.inv_h)))

    def scaled(self, lam: float, dim: int) -> GridGradient:
        """The gradient of g -> lam^2 g on a dim-manifold."""
        return replace(self, sides=tuple(s * lam for s in self.sides),
                       inv_h=self.inv_h * (1.0 / lam),
                       weights=self.weights * lam ** dim)


def _component_count(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """Connected components of the graph on n nodes with edges (a[i], b[i]).

    Each round hooks the larger root of every edge whose ends disagree onto
    the smaller one, then points every node at its root; labels only fall,
    so the rounds end.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return int(np.count_nonzero(label == np.arange(n)))
        np.minimum.at(label, np.maximum(la, lb)[split], np.minimum(la, lb)[split])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@dataclass(frozen=True)
class DiscreteManifold:
    """Discretized Riemannian model.

    mass is the lumped (diagonal) volume form and grad the per-element
    gradient data; the Dirichlet form is sum_e w_e |grad u|_e^2, so the
    stiffness matrix G^T W G is derived from grad.  Curvature fields carry
    1/length^2 units; ricci_lower is the scalar a^2 >= 0 in the lower bound
    Ric >= -a^2 g.
    """

    dim: int
    points: np.ndarray
    mass: np.ndarray
    grad: GradientElements | GridGradient
    boundary_mask: np.ndarray
    scalar_curvature: np.ndarray
    ric_min: np.ndarray
    ricci_lower: float
    label: str

    @property
    def num_nodes(self) -> int:
        return self.mass.shape[0]

    @property
    def volume(self) -> float:
        return float(self.mass.sum())

    @property
    def periods(self) -> tuple[float, ...] | None:
        """The side lengths of a periodic grid, else None."""
        g = self.grad
        return g.sides if isinstance(g, GridGradient) and g.periodic else None

    @cached_property
    def stiffness(self):
        """The stiffness G^T W G as a scipy CSR matrix, formed on first read.

        Only the dense decomposition needs it; energies read the gradient.
        """
        import scipy.sparse as sp
        g = self.grad.sparse()
        return (g.T @ sp.diags(np.repeat(self.grad.weights, self.grad.ncomp))
                @ g).tocsr()

    def dirichlet_energy(self, u: np.ndarray) -> float:
        return float(self.grad.energy(u))

    def mass_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.mass * u * v))

    def validate(self) -> None:
        """Check construction invariants; raises ValueError on failure.

        The stiffness is symmetric with constants in its kernel by
        construction, given a zero gradient of constants; a disconnected
        gradient graph would add kernel directions no node couples to.
        """
        if np.any(self.mass <= 0):
            raise ValueError("mass weights must be positive")
        ones = np.ones(self.num_nodes)
        if np.max(self.grad.magnitudes(ones), initial=0.0) \
                > VALIDATE_RTOL * self.grad.bound():
            raise ValueError("element gradient of constants is nonzero")
        parts = _component_count(*self.grad.edges(), self.num_nodes)
        if parts != 1:
            raise ValueError(f"gradient graph has {parts} connected components")
        if np.any(self.ric_min < -self.ricci_lower - 1e-12):
            raise ValueError("ric_min violates the ricci_lower bound")


@dataclass(frozen=True)
class ModelSpec:
    """Catalog entry for a buildable model.

    variant is one of "torus", "sphere", "box".  resolution is nodes per axis
    for grids and the subdivision level for spheres.  A grid's one side
    length (default 2 pi) serves every axis; it is repeated only after the
    variant and resolution are validated.  scale applies a
    post-construction metric scaling g -> scale^2 g.
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
            if self.dim != 2:
                raise ValueError("sphere models are 2-dimensional only")
            if self.resolution < 1:
                raise ValueError("subdivision level too small for the stencil")
        else:
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


def _check_node_count(variant: str, dim: int, res: int, members: int) -> None:
    """Refuse a model spec whose mesh is too large before it is built.

    A grid has res^dim nodes and an icosphere (res = subdiv) 10 * 4^res + 2.
    Spheres and boxes, which decompose only densely, may have at most
    DENSE_NODE_GUARD nodes, and a torus axis at most TORUS_AXIS_GUARD; on
    every model, members x nodes (the member matrix of an ensemble) may be
    at most MEMBER_GUARD.  A power of 256 bits or more is named but never
    formed, so a huge n or subdiv costs nothing.  Sizes that ModelSpec
    rejects pass unchecked.
    """
    sphere = variant == "sphere"
    base, exp = (4, res) if sphere else (res, dim)
    if variant not in ("torus", "box", "sphere") or base < 2 or exp < 1:
        return
    count = f"10*4^{res}+2" if sphere else f"{res}^{dim}"
    n = math.inf
    if exp * (base.bit_length() - 1) < 256:
        n = 10 * 4 ** res + 2 if sphere else res ** dim
        count += f" = {n}"
    if variant != "torus" and n > DENSE_NODE_GUARD:
        raise ValueError(f"{variant} model of {count} nodes exceeds the dense "
                         f"decomposition guard ({DENSE_NODE_GUARD})")
    if variant == "torus" and res > TORUS_AXIS_GUARD:
        raise ValueError(f"torus model of {count} nodes exceeds the axis "
                         f"guard ({TORUS_AXIS_GUARD} nodes per axis)")
    if n * members > MEMBER_GUARD:
        raise ValueError(f"{variant} model of {count} nodes times {members} "
                         f"members exceeds the member matrix guard "
                         f"({MEMBER_GUARD} entries)")


def parse_model_spec(text: str, members: int = 1) -> ModelSpec:
    """Parse a spec string like "torus:n=2,res=32,L=6.2831853".

    Unset keys default to n=2, res=16 (subdiv=3 on a sphere), r=1 (alias
    r0), one side L = 2 pi and scale=1.  Meshes too large for the dense decomposition (spheres and boxes) or
    for an ensemble of the given number of members are refused (see
    _check_node_count) before anything is built.
    """
    head, _, rest = text.partition(":")
    kw: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise ValueError(f"malformed model option {item!r}")
            kw[k.strip()] = v.strip()
    variant = head.strip()
    dim = int(kw.pop("n", 2))
    default_res = 3 if variant == "sphere" else 16  # subdiv / nodes per axis
    res = int(kw.pop("res", kw.pop("subdiv", default_res)))
    _check_node_count(variant, dim, res, members)
    radius = float(kw.pop("r", kw.pop("r0", 1.0)))
    scale = float(kw.pop("scale", 1.0))
    sides: tuple[float, ...] = ()
    if "L" in kw:
        sides = tuple(float(s) for s in kw.pop("L").split("x"))
    if kw:
        raise ValueError(f"unknown model options: {sorted(kw)}")
    return ModelSpec(variant=variant, dim=dim, resolution=res, sides=sides,
                     radius=radius, scale=scale)


# ---------------------------------------------------------------------------
# grid models (torus, box)

def _build_grid(spec: ModelSpec) -> DiscreteManifold:
    """A torus (one forward-difference element per node) or a Neumann box
    (Q1 corner elements, half and quarter masses on faces and corners)."""
    periodic = spec.variant == "torus"
    dim, res = spec.dim, spec.resolution
    h = np.array([s / res if periodic else s / (res - 1) for s in spec.sides])
    cell_vol = float(np.prod(h))
    n = res ** dim
    coords = np.stack(np.unravel_index(np.arange(n), (res,) * dim), axis=1)
    if periodic:
        weights = np.full(n, cell_vol)
        mass = np.full(n, cell_vol)
        boundary = np.zeros(n, dtype=bool)
    else:
        weights = np.full((2 * (res - 1)) ** dim, cell_vol / 2 ** dim)
        end = (coords == 0) | (coords == res - 1)
        mass = cell_vol * np.prod(np.where(end, 0.5, 1.0), axis=1)
        boundary = np.any(end, axis=1)
    grad = GridGradient(res=res, sides=spec.sides, inv_h=1.0 / h,
                        weights=weights, periodic=periodic)
    return DiscreteManifold(
        dim=dim, points=coords * h[None, :], mass=mass, grad=grad,
        boundary_mask=boundary,
        scalar_curvature=np.zeros(n), ric_min=np.zeros(n), ricci_lower=0.0,
        label=spec.describe())


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


def _icosphere(subdiv: int, radius: float):
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdiv):
        edge_mid: dict[tuple[int, int], int] = {}
        new_faces = []
        verts_list = list(verts)

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in edge_mid:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return verts * radius, faces


def _triangle_mesh_arrays(points: np.ndarray, faces: np.ndarray):
    """Lumped mass and P1 gradient elements (a sparse G; the cotangent
    stiffness is G^T W G)."""
    import scipy.sparse as sp  # spheres alone hold a sparse gradient

    n = points.shape[0]
    p0, p1, p2 = points[faces[:, 0]], points[faces[:, 1]], points[faces[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(normal, axis=1)  # 2 * area
    areas = 0.5 * area2
    if np.any(areas <= 0):
        raise ValueError("degenerate triangle in mesh")
    nhat = normal / area2[:, None]

    # P1 gradient: grad u = sum_i u_i (nhat x e_i) / (2A), e_i the opposite edge
    nf = faces.shape[0]
    rows, cols, vals = [], [], []
    edges = [p2 - p1, p0 - p2, p1 - p0]
    for i in range(3):
        perp = np.cross(nhat, edges[i]) / area2[:, None]  # (nf, 3)
        for c in range(3):
            rows.append(np.arange(nf) * 3 + c)
            cols.append(faces[:, i])
            vals.append(perp[:, c])
    gmat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf * 3, n))
    grad = GradientElements(matrix=gmat, weights=areas, ncomp=3)

    mass = np.zeros(n)
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return mass, grad


def _build_sphere(spec: ModelSpec) -> DiscreteManifold:
    points, faces = _icosphere(spec.resolution, spec.radius)
    mass, grad = _triangle_mesh_arrays(points, faces)
    n = points.shape[0]
    r2 = spec.radius ** 2
    return DiscreteManifold(
        dim=2, points=points, mass=mass, grad=grad,
        boundary_mask=np.zeros(n, dtype=bool),
        scalar_curvature=np.full(n, 2.0 / r2),
        ric_min=np.full(n, 1.0 / r2),
        ricci_lower=0.0, label=spec.describe())


def build(spec: ModelSpec | str) -> DiscreteManifold:
    """Construct the model described by spec (ModelSpec or spec string)."""
    if isinstance(spec, str):
        spec = parse_model_spec(spec)
    m = (_build_sphere if spec.variant == "sphere" else _build_grid)(spec)
    m.validate()
    if spec.scale != 1.0:
        m = scale_metric(m, spec.scale)
    return m


# ---------------------------------------------------------------------------
# operations

def scale_metric(m: DiscreteManifold, lam: float) -> DiscreteManifold:
    """Metric scaling g -> lam^2 g.

    Volume weights scale by lam^n, element gradients by 1/lam (with element
    volumes and grid periods by lam^n and lam, so the Dirichlet form scales
    by lam^(n-2)), curvatures by 1/lam^2.  lam=1 returns the manifold
    unchanged.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if lam == 1.0:
        return m
    n = m.dim
    return replace(
        m,
        points=m.points * lam,
        mass=m.mass * lam ** n,
        grad=m.grad.scaled(lam, n),
        scalar_curvature=m.scalar_curvature / lam ** 2,
        ric_min=m.ric_min / lam ** 2,
        ricci_lower=m.ricci_lower / lam ** 2,
        label=m.label + f"*scale{lam:g}",
    )


def with_fields(m: DiscreteManifold, *, scalar_curvature=None, ric_min=None,
                ricci_lower: float | None = None, label: str | None = None
                ) -> DiscreteManifold:
    """Override curvature fields (for synthetic test geometries)."""
    kw = {}
    if scalar_curvature is not None:
        kw["scalar_curvature"] = np.broadcast_to(
            np.asarray(scalar_curvature, dtype=float), (m.num_nodes,)).copy()
    if ric_min is not None:
        kw["ric_min"] = np.broadcast_to(
            np.asarray(ric_min, dtype=float), (m.num_nodes,)).copy()
    if ricci_lower is not None:
        kw["ricci_lower"] = float(ricci_lower)
    if label is not None:
        kw["label"] = label
    return replace(m, **kw)


def geometric_summary(m: DiscreteManifold) -> dict:
    """Volume, positive-part curvature maximum and Ricci defect.

    kappa is (-min{0, min ric_min})^(1/2).
    """
    return {
        "vol": m.volume,
        "r_max_plus": float(max(0.0, np.max(m.scalar_curvature))),
        "kappa": float(np.sqrt(max(0.0, -np.min(m.ric_min)))),
    }


def gamma_integral(m: DiscreteManifold, c: float, eps: float) -> float:
    """Integral-curvature quantity (int [(ric_min+c)^-]^(n/2+eps))^(1/(2 eps)).

    Returns 0 when ric_min + c >= 0 everywhere.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    neg = np.maximum(0.0, -(m.ric_min + c))
    integral = float(np.sum(m.mass * neg ** (m.dim / 2.0 + eps)))
    return integral ** (1.0 / (2.0 * eps))
