"""Discretized model manifolds: volume/energy forms, curvature data, metric scaling.

Three model families are provided: flat tori (periodic finite-difference
grids), round 2-spheres (subdivided icosahedra with cotangent stiffness),
and boxes with the natural Neumann boundary condition.  Curvature fields
are assigned analytically, never estimated from the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GradientElements",
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
VALIDATE_RTOL = 1e-10  # invariant residuals allowed, relative to |stiffness|


@dataclass(frozen=True)
class GradientElements:
    """Per-element gradient evaluation data.

    ``matrix`` has shape (num_elements * ncomp, num_nodes); applying it to a
    node function and reshaping to (num_elements, ncomp) gives the gradient
    vector on each element.  ``weights`` are element volumes.
    """

    matrix: sp.csr_matrix
    weights: np.ndarray
    ncomp: int

    @property
    def num_elements(self) -> int:
        return self.weights.shape[0]

    def vectors(self, u: np.ndarray) -> np.ndarray:
        """Gradient vectors, shape u.shape[:-1] + (num_elements, ncomp).

        u is one node function (N,) or a member matrix (K, N), rows = members.
        """
        return (self.matrix @ u.T).T.reshape(
            u.shape[:-1] + (self.num_elements, self.ncomp))

    def pullback(self, s: np.ndarray) -> np.ndarray:
        """Node vector G^T W s of an element field s (num_elements, ncomp).

        The counterpart of vectors: <vectors(u), s> weighted by element
        volume equals u . pullback(s) for every node function u.
        """
        return self.matrix.T @ (np.repeat(self.weights, self.ncomp) * s.ravel())

    def magnitudes(self, u: np.ndarray) -> np.ndarray:
        """Per-element gradient lengths, shape u.shape[:-1] + (num_elements,)."""
        g = self.matrix @ u.T  # (E * ncomp,) or (E * ncomp, K)
        np.square(g, out=g)  # in place: the product is the largest temporary
        sq = g.reshape((self.num_elements, self.ncomp) + g.shape[1:]).sum(axis=1)
        del g
        return np.sqrt(sq, out=sq).T


@dataclass(frozen=True)
class DiscreteManifold:
    """Discretized Riemannian model.

    mass is the lumped (diagonal) volume form, stiffness the Dirichlet-energy
    bilinear form, grad the per-element gradient data matching the stiffness
    assembly.  Curvature fields carry 1/length^2 units; ricci_lower is the
    scalar a^2 >= 0 in the lower bound Ric >= -a^2 g.
    """

    dim: int
    points: np.ndarray
    mass: np.ndarray
    stiffness: sp.csr_matrix
    grad: GradientElements
    boundary_mask: np.ndarray
    scalar_curvature: np.ndarray
    ric_min: np.ndarray
    ricci_lower: float
    label: str
    periods: tuple[float, ...] | None = None

    @property
    def num_nodes(self) -> int:
        return self.mass.shape[0]

    @property
    def volume(self) -> float:
        return float(self.mass.sum())

    def dirichlet_energy(self, u: np.ndarray) -> float:
        return float(u @ (self.stiffness @ u))

    def mass_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.mass * u * v))

    def validate(self) -> None:
        """Check construction invariants; raises ValueError on failure."""
        if np.any(self.mass <= 0):
            raise ValueError("mass weights must be positive")
        tol = VALIDATE_RTOL * (abs(self.stiffness).sum() + 1.0)
        asym = abs(self.stiffness - self.stiffness.T).max()
        if asym > tol:
            raise ValueError("stiffness is not symmetric")
        ones = np.ones(self.num_nodes)
        r = self.stiffness @ ones
        if np.max(np.abs(r)) > tol:
            raise ValueError("stiffness does not annihilate constants")
        if np.max(self.grad.magnitudes(ones)) > tol:
            raise ValueError("element gradient of constants is nonzero")
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

    Meshes too large for the dense decomposition (spheres and boxes) or
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
    res = int(kw.pop("res", kw.pop("subdiv", 16)))
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

def _grid_arrays(dim: int, res: int, sides: tuple[float, ...], periodic: bool):
    """Nodes, stiffness and gradient elements for a tensor grid.

    Stiffness is assembled from the same forward-difference cells used for
    the gradient elements, so the p=2 gradient norm reproduces the stiffness
    quadratic form exactly.
    """
    npts = res ** dim
    h = np.array([s / res if periodic else s / (res - 1) for s in sides])
    cell_vol = float(np.prod(h))

    idx = np.arange(npts)
    coords = np.stack(np.unravel_index(idx, (res,) * dim), axis=1)  # (N, dim)
    points = coords * h[None, :]

    rows, cols, vals = [], [], []
    ncomp = dim
    if periodic:
        cells = idx
    else:
        keep = np.all(coords < res - 1, axis=1)
        cells = idx[keep]
    ncells = cells.shape[0]
    cell_coords = np.stack(np.unravel_index(cells, (res,) * dim), axis=1)
    for d in range(dim):
        nbr = cell_coords.copy()
        nbr[:, d] = (nbr[:, d] + 1) % res if periodic else nbr[:, d] + 1
        nbr_idx = np.ravel_multi_index(nbr.T, (res,) * dim)
        comp_rows = np.arange(ncells) * ncomp + d
        rows.extend([comp_rows, comp_rows])
        cols.extend([nbr_idx, cells])
        vals.extend([np.full(ncells, 1.0 / h[d]), np.full(ncells, -1.0 / h[d])])
    weights = np.full(ncells, cell_vol)
    gmat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells * ncomp, npts),
    )
    grad = GradientElements(matrix=gmat, weights=weights, ncomp=ncomp)

    # S = G^T diag(w) G so u'Su = sum_cells w |grad u|^2 identically
    wdiag = sp.diags(np.repeat(weights, ncomp))
    stiff = (gmat.T @ wdiag @ gmat).tocsr()
    stiff.eliminate_zeros()

    if periodic:
        mass = np.full(npts, cell_vol)
        boundary = np.zeros(npts, dtype=bool)
    else:
        w1 = np.where((coords == 0) | (coords == res - 1), 0.5, 1.0)
        mass = cell_vol * np.prod(w1, axis=1)
        boundary = np.any((coords == 0) | (coords == res - 1), axis=1)
    return points, mass, stiff, grad, boundary


def _build_grid(spec: ModelSpec) -> DiscreteManifold:
    periodic = spec.variant == "torus"
    points, mass, stiff, grad, boundary = _grid_arrays(
        spec.dim, spec.resolution, spec.sides, periodic)
    n = points.shape[0]
    return DiscreteManifold(
        dim=spec.dim, points=points, mass=mass, stiffness=stiff, grad=grad,
        boundary_mask=boundary,
        scalar_curvature=np.zeros(n), ric_min=np.zeros(n), ricci_lower=0.0,
        label=spec.describe(), periods=spec.sides if periodic else None)


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
    """Cotangent stiffness, lumped mass and P1 gradient elements."""
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

    wdiag = sp.diags(np.repeat(areas, 3))
    stiff = (gmat.T @ wdiag @ gmat).tocsr()

    mass = np.zeros(n)
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return mass, stiff, grad


def _build_sphere(spec: ModelSpec) -> DiscreteManifold:
    points, faces = _icosphere(spec.resolution, spec.radius)
    mass, stiff, grad = _triangle_mesh_arrays(points, faces)
    n = points.shape[0]
    r2 = spec.radius ** 2
    return DiscreteManifold(
        dim=2, points=points, mass=mass, stiffness=stiff, grad=grad,
        boundary_mask=np.zeros(n, dtype=bool),
        scalar_curvature=np.full(n, 2.0 / r2),
        ric_min=np.full(n, 1.0 / r2),
        ricci_lower=0.0, label=spec.describe(), periods=None)


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

    Volume weights scale by lam^n, the Dirichlet form by lam^(n-2), element
    gradients by 1/lam (with element volumes by lam^n), curvatures by
    1/lam^2.  lam=1 returns the manifold unchanged.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if lam == 1.0:
        return m
    n = m.dim
    grad = GradientElements(matrix=m.grad.matrix * (1.0 / lam),
                            weights=m.grad.weights * lam ** n,
                            ncomp=m.grad.ncomp)
    return replace(
        m,
        points=m.points * lam,
        mass=m.mass * lam ** n,
        stiffness=(m.stiffness * lam ** (n - 2)).tocsr(),
        grad=grad,
        scalar_curvature=m.scalar_curvature / lam ** 2,
        ric_min=m.ric_min / lam ** 2,
        ricci_lower=m.ricci_lower / lam ** 2,
        label=m.label + f"*scale{lam:g}",
        periods=None if m.periods is None else tuple(s * lam for s in m.periods),
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
