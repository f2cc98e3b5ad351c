import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sobolab import (build, constant_potential, decompose, gamma_integral,
                     geometric_summary, scale_metric)
from sobolab.manifold import (_ICO_FACES, _ICO_VERTS, GradientElements,
                              ModelSpec, _component_count, _icosphere,
                              parse_model_spec)


def test_torus_volume_is_product_of_sides(torus2):
    assert torus2.volume == pytest.approx(4 * np.pi ** 2, rel=1e-9)


def test_sphere_volume_within_mesh_tolerance(sphere3):
    assert sphere3.volume == pytest.approx(4 * np.pi, rel=0.01)


def test_box_constant_has_zero_energy():
    box = build("box:n=1,res=64,L=1")
    ones = np.ones(box.num_nodes)
    assert box.dirichlet_energy(ones) == pytest.approx(0.0, abs=1e-12)
    assert box.volume == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec_text", ["torus:n=0,res=8", "sphere:r=-1,subdiv=2",
                                       "torus:n=2,res=1", "sphere:r=1,subdiv=0",
                                       "box:n=2,res=8,L=0"])
def test_invalid_specs_rejected(spec_text):
    with pytest.raises(ValueError):
        build(spec_text)


def test_parse_model_spec_roundtrip():
    spec = parse_model_spec("torus:n=2,res=32,L=6.2831853")
    assert spec.variant == "torus" and spec.dim == 2 and spec.resolution == 32
    assert spec.sides == (6.2831853, 6.2831853)
    with pytest.raises(ValueError):
        parse_model_spec("torus:res=8,bogus=1")


@pytest.mark.parametrize("fields, words", [
    (dict(variant="sphere", resolution=1, sides=(5.0,)), ["sphere", "sides"]),
    (dict(variant="torus", resolution=4, radius=7.0), ["torus", "radius=7"]),
    (dict(variant="box", resolution=4, radius=0.5), ["box", "radius=0.5"]),
], ids=["sphere-sides", "torus-radius", "box-radius"])
def test_model_spec_refuses_another_variants_field(fields, words):
    """describe() and build() read sides on grids and radius on spheres only,
    so a spec carrying the other variant's field is refused, not kept."""
    with pytest.raises(ValueError) as err:
        ModelSpec(**fields)
    assert "\n" not in str(err.value)
    assert all(w in str(err.value) for w in words), err.value


def test_scale_identity_returns_same_object(sphere3):
    assert scale_metric(sphere3, 1.0) is sphere3


def test_scaled_spec_is_labelled_by_its_description():
    """The spec's description already holds the scale; scale_metric's own
    suffix is for meshes scaled after they are built."""
    m = build("sphere:r=2,subdiv=1,scale=0.5")
    assert m.label == "sphere:r=2,subdiv=1,scale=0.5"
    assert scale_metric(m, 2.0).label == "sphere:r=2,subdiv=1,scale=0.5*scale2"


def test_scale_2d_keeps_stiffness_volume_times_four(torus2):
    scaled = scale_metric(torus2, 2.0)
    assert np.allclose(scaled.stiffness.toarray(), torus2.stiffness.toarray())
    assert scaled.volume == pytest.approx(4 * torus2.volume, rel=1e-12)
    # independent rebuild of the scaled model agrees
    rebuilt = build(f"torus:n=2,res=32,L={2 * 2 * np.pi!r}")
    assert scaled.volume == pytest.approx(rebuilt.volume, rel=1e-12)
    u = np.cos(2 * np.pi * np.arange(scaled.num_nodes) / scaled.num_nodes)
    assert scaled.dirichlet_energy(u) == pytest.approx(
        rebuilt.dirichlet_energy(u), rel=1e-10)


def test_scale_sphere_halves_squared_curvature(sphere3):
    scaled = scale_metric(sphere3, 2.0)
    assert geometric_summary(scaled)["r_max_plus"] == pytest.approx(0.5)
    assert np.allclose(scaled.physical(scaled.ric_min, -2.0), 0.25)


def test_scale_composition(torus2):
    a = scale_metric(scale_metric(torus2, 1.5), 2.0)
    b = scale_metric(torus2, 3.0)
    assert a.length == pytest.approx(b.length, rel=1e-15)
    assert a.volume == pytest.approx(b.volume, rel=1e-12)
    u = np.random.default_rng(2).standard_normal(torus2.num_nodes)
    assert a.dirichlet_energy(u) == pytest.approx(b.dirichlet_energy(u),
                                                  rel=1e-12)
    assert geometric_summary(a) == geometric_summary(b)


def test_physical_takes_the_length_power_once_without_warnings():
    """x l^k, x itself at l = 1; past floats inf or 0 without a warning,
    with 0 kept 0; a length past floats is refused, naming the model."""
    unit = build("torus:n=2,res=8,L=8")
    x = np.array([0.0, 1.5])
    assert unit.length == 1.0 and unit.physical(x, 3.0) is x
    m = build("torus:n=2,res=8,L=8e-300")
    assert m.length == 1e-300
    assert np.array_equal(m.physical(x, -2.0), [0.0, np.inf])
    assert np.array_equal(m.physical(x, 2.0), [0.0, 0.0])
    assert m.physical(2.0, -0.5) == 2.0 * 1e150
    with pytest.raises(ValueError, match="L=8e-300x8e-300,scale=1e-300"):
        build("torus:n=2,res=8,L=8e-300,scale=1e-300")


def test_scale_rejects_nonpositive(torus2):
    with pytest.raises(ValueError):
        scale_metric(torus2, 0.0)


def test_geometric_summary_flat_and_sphere(torus2, sphere3):
    flat = geometric_summary(torus2)
    assert flat["r_max_plus"] == 0.0 and flat["kappa"] == 0.0
    rnd = geometric_summary(sphere3)
    assert rnd["r_max_plus"] == pytest.approx(2.0)
    assert rnd["kappa"] == 0.0
    # the potential floor min(0, min Psi) is read from the potential itself
    assert constant_potential(torus2, -2.0).inf_minus == -2.0


def test_geometric_summary_scaled_sphere_closed_form(sphere3):
    lam = 3.0
    scaled = scale_metric(sphere3, lam)
    summ = geometric_summary(scaled)
    expected = (2.0 / lam ** 2 + 1.0) * (sphere3.volume * lam ** 2) ** 1.0
    got = (summ["r_max_plus"] + 1.0) * summ["vol"] ** (2.0 / scaled.dim)
    assert got == pytest.approx(expected, rel=1e-12)


def test_geometric_summary_permutation_invariant(torus2):
    rng = np.random.default_rng(0)
    base = replace(torus2, scalar_curvature=rng.standard_normal(torus2.num_nodes),
                   ric_min=-np.abs(rng.standard_normal(torus2.num_nodes)))
    perm = rng.permutation(torus2.num_nodes)
    shuffled = replace(base, mass=base.mass[perm],
                       scalar_curvature=base.scalar_curvature[perm],
                       ric_min=base.ric_min[perm])
    assert geometric_summary(shuffled) == geometric_summary(base)


def _ric_minus_one(m):
    """m with ric_min = -1 on the physical mesh: -l^2 on the reference one."""
    return replace(m, ric_min=np.full(m.num_nodes, -m.length ** 2))


def test_gamma_integral_cases(torus2, sphere3):
    assert gamma_integral(sphere3, 0.0, 1.0) == 0.0
    assert gamma_integral(torus2, 1.0, 0.5) == 0.0
    synthetic = _ric_minus_one(torus2)
    # integrand is 1 everywhere: gamma = vol^(1/(2 eps)) with eps = 1
    assert gamma_integral(synthetic, 0.0, 1.0) == pytest.approx(
        np.sqrt(torus2.volume), rel=1e-12)


def test_gamma_integral_monotone_in_c(torus2):
    synthetic = _ric_minus_one(torus2)
    cs = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    vals = [gamma_integral(synthetic, c, 0.7) for c in cs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma_integral_monotone_in_eps(torus2):
    synthetic = _ric_minus_one(torus2)
    # integrand is 1: gamma = vol^{1/(2 eps)} decreases in eps (vol > 1)
    gammas = [gamma_integral(synthetic, 0.0, e) for e in (0.5, 1.0, 2.0)]
    assert gammas[0] > gammas[1] > gammas[2]


def test_p2_gradient_matches_stiffness(torus2, sphere3):
    from sobolab import grad_lp_norm
    from test_spectral import _perturbed_torus
    rng = np.random.default_rng(3)
    for m in (torus2, sphere3, build("box:n=2,res=9,L=1.5"), _perturbed_torus()):
        u = rng.standard_normal(m.num_nodes)
        energy = m.dirichlet_energy(u)
        assert grad_lp_norm(m, u, 2.0) ** 2 == pytest.approx(energy, rel=1e-8)
        # the derived stiffness G^T W G gives the same quadratic form
        assert u @ (m.stiffness @ u) == pytest.approx(energy, rel=1e-12)


BOXES = [("box:n=2,res=12", 2, 12), ("box:n=3,res=6", 3, 6)]


@pytest.mark.parametrize("text, n, res", BOXES)
def test_neumann_box_is_connected_with_one_zero_eigenvalue(text, n, res):
    """Q1 corner elements reach every node: one component, a one-dimensional
    kernel, and the tensor sums of the 1-d Neumann chain's eigenvalues
    (4/h^2) sin^2(k pi / (2(res-1)))."""
    m = build(text)
    assert _component_count(*m.grad.edges(), m.num_nodes) == 1
    lam = decompose(m, constant_potential(m, 0.0)).eigenvalues
    assert np.count_nonzero(lam == 0.0) == 1
    h = 2 * np.pi / (res - 1)
    chain = (4 / h ** 2) * np.sin(np.arange(res) * np.pi / (2 * (res - 1))) ** 2
    expected = np.sort(sum(np.meshgrid(*[chain] * n, indexing="ij")).ravel())
    assert np.max(np.abs(lam - expected)) <= 1e-12 * expected[-1]


@pytest.mark.parametrize("text, n, res", BOXES)
def test_validate_rejects_the_box_without_corner_elements(text, n, res):
    """The earlier box assembly: one element per cell holding the forward
    differences from its lowest corner, so a node with two coordinates at
    res-1 lies on no element.  Those elements are the corner-(0, ..., 0)
    rows of today's gradient, at the whole cell volume."""
    m = build(text)
    cells = (res - 1) ** n
    head, tail = m.grad.edges()[:, :cells * n].reshape(2, cells, n)
    assert np.all(tail == tail[:, :1])  # each cell's lowest corner
    nodes = np.concatenate([tail[:, :1], head], axis=1)  # x, then x + e_d
    coeffs = np.zeros((cells, n, n + 1))
    for d in range(n):
        coeffs[:, d, 0], coeffs[:, d, d + 1] = -m.grad.inv_h[d], m.grad.inv_h[d]
    order = np.argsort(nodes, axis=1)
    old = GradientElements(np.take_along_axis(nodes, order, axis=1),
                           np.take_along_axis(coeffs, order[:, None], axis=2),
                           np.full(cells, 2 ** n * m.grad.weights[0]),
                           m.num_nodes)
    parts = {2: 2, 3: 17}[n]
    with pytest.raises(ValueError, match=f"{parts} connected components"):
        replace(m, grad=old).validate()


def test_validate_catches_broken_invariants(torus2):
    bad = replace(torus2, ric_min=np.ones(torus2.num_nodes))  # R = 0 < n * min Ric = 2
    with pytest.raises(ValueError):
        bad.validate()


def _swap_first_two(n):
    swap = np.arange(n)
    swap[[0, 1]] = 1, 0
    return swap


@pytest.mark.parametrize("case, words", [
    ("repeated-node", "reflection 0 is not a node permutation"),
    ("too-short", "reflection 0 is not a node permutation"),
    ("cycle", "reflection 1 is not a proper involution"),
    ("identity", "reflection 0 is not a proper involution"),
    ("non-commuting", "reflection 2 does not commute with another"),
])
def test_validate_rejects_a_declared_reflection_that_is_not_one(case, words):
    """Each declared reflection must be a permutation of the nodes, an
    involution other than the identity, and commute with the others."""
    m = build("box:n=2,res=4")
    n = m.num_nodes
    x, y = m.reflections
    m.validate()
    reflections = {
        "repeated-node": (np.zeros(n, dtype=int), y),
        "too-short": (x[:-1], y),
        "cycle": (x, np.roll(np.arange(n), 1)),
        "identity": (np.arange(n), y),
        "non-commuting": (x, y, _swap_first_two(n)),
    }[case]
    with pytest.raises(ValueError, match=words):
        replace(m, reflections=reflections).validate()


def _reference_icosphere(subdiv):
    """The per-edge loop _icosphere replaced: each face's edges ab, bc, ca
    get their midpoint, normalised by its 1-D norm, on first visit."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdiv):
        edge_mid, new_faces, verts_list = {}, [], list(verts)

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in edge_mid:
                m = verts_list[a] + verts_list[b]
                edge_mid[key] = len(verts_list)
                verts_list.append(m / np.linalg.norm(m))
            return edge_mid[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts, faces = np.array(verts_list), np.array(new_faces)
    return verts, faces


@pytest.mark.parametrize("subdiv", range(6))
def test_icosphere_matches_the_per_edge_loop_bit_for_bit(subdiv):
    points, faces, _ = _icosphere(subdiv)
    want_points, want_faces = _reference_icosphere(subdiv)
    assert np.array_equal(faces, want_faces)
    assert np.array_equal(points, want_points)
    assert points.shape == (10 * 4 ** subdiv + 2, 3)


def _reference_p1_matrix(points, faces):
    """The scipy CSR form of the sphere's P1 gradient the numpy arrays
    replaced: row 3 f + c holds component c of (nhat x e_i) / (2 A) at
    node faces[f, i], e_i the edge opposite vertex i."""
    import scipy.sparse as sp

    p0, p1, p2 = points[faces[:, 0]], points[faces[:, 1]], points[faces[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(normal, axis=1)
    nhat = normal / area2[:, None]
    nf = faces.shape[0]
    rows, cols, vals = [], [], []
    for i, edge in enumerate([p2 - p1, p0 - p2, p1 - p0]):
        perp = np.cross(nhat, edge) / area2[:, None]
        for c in range(3):
            rows.append(np.arange(nf) * 3 + c)
            cols.append(faces[:, i])
            vals.append(perp[:, c])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf * 3, points.shape[0]))


def _close(got, want, rtol=1e-14):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("subdiv", range(1, 5))
def test_sphere_gradient_arrays_match_the_sparse_matrix(subdiv):
    """The numpy P1 gradient (nodes and coefficients per element) applies
    G and G^T, joins the node pairs, bounds its coefficients and forms
    G^T W G as the scipy CSR matrix of the same mesh does: the unit
    sphere's, whatever the radius."""
    import scipy.sparse as sp

    m = build(f"sphere:r=1.3,subdiv={subdiv}")
    points, faces, _ = _icosphere(subdiv)
    g, ref = m.grad, _reference_p1_matrix(points, faces)
    rng = np.random.default_rng(subdiv)
    v = rng.standard_normal((m.num_nodes, 5))
    assert _close(g._apply(v), ref @ v) and _close(g._apply(v[:, 0]), ref @ v[:, 0])
    s = rng.standard_normal((g.num_elements, 3))
    assert _close(g.pullback(s), ref.T @ (np.repeat(g.weights, 3) * s.ravel()))
    # CSR rows are consecutive entries of the same nodes, three per element
    indices = ref.indices.reshape(-1, 3, 3)[:, 0]
    assert np.array_equal(g.edges(), np.stack([indices[:, :2].ravel(),
                                               indices[:, 1:].ravel()]))
    assert g.bound() == np.max(np.abs(ref.data))
    stiff = (ref.T @ sp.diags(np.repeat(g.weights, 3)) @ ref).tocoo()
    order = np.lexsort((stiff.col, stiff.row))
    rows, cols, values = m.stiffness_entries
    assert np.array_equal(rows, stiff.row[order])
    assert np.array_equal(cols, stiff.col[order])
    assert _close(values, stiff.data[order])


def test_sphere_gradient_lengths_hold_under_three_blocks():
    """magnitudes of 200 members on the 642-node sphere forms the squared
    lengths a block of elements at a time: its traced peak stays under 3
    (elements x members) float blocks (the squares, the lengths and a
    node-major copy of the members)."""
    m = build("sphere:r=1,subdiv=3")
    u = np.random.default_rng(2).standard_normal((200, m.num_nodes))
    block = m.grad.num_elements * len(u) * 8
    tracemalloc.start()
    try:
        mags = m.grad.magnitudes(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mags.shape == (200, m.grad.num_elements)
    assert peak < 3 * block
