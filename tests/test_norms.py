import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolab import (apply_function, build, constant_potential, grad_lp_norm,
                     lp_norm, q_energy, scale_metric)
from sobolab.spectral import bessel_multiplier


def bessel(m, dec0, u, p):
    """||(-Laplacian+1)^(1/2) u||_p from the bare Laplacian's decomposition."""
    return lp_norm(m, apply_function(dec0, bessel_multiplier(1.0), u), p)


def test_constant_on_unit_volume_is_one(torus2_unit):
    u = np.ones(torus2_unit.num_nodes)
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        assert lp_norm(torus2_unit, u, p) == pytest.approx(1.0, rel=1e-12)


def test_l2_squared_is_mass_inner(torus2):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(torus2.num_nodes)
    assert lp_norm(torus2, u, 2.0) ** 2 == pytest.approx(
        torus2.mass_inner(u, u), rel=1e-12)


@pytest.mark.parametrize("lam", [2.0, 10.0])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_lp_scaling_law(torus3_coarse, lam, q):
    scaled = scale_metric(torus3_coarse, lam)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(torus3_coarse.num_nodes)
    expected = lam ** (torus3_coarse.dim / q) * lp_norm(torus3_coarse, u, q)
    assert lp_norm(scaled, u, q) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_grad_scaling_law(torus3_coarse, lam):
    scaled = scale_metric(torus3_coarse, lam)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(torus3_coarse.num_nodes)
    n, p = torus3_coarse.dim, 1.5
    expected = lam ** (n / p - 1.0) * grad_lp_norm(torus3_coarse, u, p)
    assert grad_lp_norm(scaled, u, p) == pytest.approx(expected, rel=1e-12)


def test_gradient_of_constant_vanishes(torus2, sphere3):
    # exact cancellation on grid differences; roundoff-level on the P1 mesh
    assert grad_lp_norm(torus2, np.ones(torus2.num_nodes), 1.7) == 0.0
    assert grad_lp_norm(sphere3, np.ones(sphere3.num_nodes), 1.7) < 1e-12


def test_rayleigh_identity_first_eigenfunction(torus2, torus2_dec0):
    u = torus2_dec0.basis.columns(2)[:, 1]
    lam1 = torus2_dec0.eigenvalues[1]
    assert grad_lp_norm(torus2, u, 2.0) ** 2 == pytest.approx(
        lam1 * lp_norm(torus2, u, 2.0) ** 2, rel=1e-6)


def test_bessel_p2_identity(torus2, torus2_dec0):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(torus2.num_nodes)
    expected = np.sqrt(torus2.dirichlet_energy(u) + torus2.mass_inner(u, u))
    assert bessel(torus2, torus2_dec0, u, 2.0) == pytest.approx(
        expected, rel=1e-8)


def test_bessel_of_constant_is_lp_norm(torus2, torus2_dec0):
    u = np.full(torus2.num_nodes, 2.5)
    for p in (1.0, 1.5, 3.0):
        assert bessel(torus2, torus2_dec0, u, p) == pytest.approx(
            lp_norm(torus2, u, p), rel=1e-10)


def test_bessel_w1p_two_sided_equivalence(torus2, torus2_dec0, torus2_members):
    p = 1.5
    ratios = []
    for u in torus2_members[:100]:
        b = bessel(torus2, torus2_dec0, u, p)
        w = lp_norm(torus2, u, p) + grad_lp_norm(torus2, u, p)  # W^{1,p}
        if w > 0:
            ratios.append(b / w)
    c = max(max(ratios), 1.0 / min(ratios))
    assert 0 < min(ratios) and max(ratios) < np.inf
    assert all(1.0 / c <= r <= c for r in ratios)


def test_q_energy_cases(torus2, torus2_dec1):
    ones = np.ones(torus2.num_nodes)
    psi0 = constant_potential(torus2, 0.0)
    psi1 = constant_potential(torus2, 1.0)
    assert q_energy(torus2, psi0, ones) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(torus2.num_nodes)
    assert q_energy(torus2, psi1, u) == pytest.approx(
        torus2.dirichlet_energy(u) + torus2.mass_inner(u, u), rel=1e-12)
    # equals ||H^(1/2) u||_2^2 via spectral calculus
    from sobolab import apply_function
    half = apply_function(torus2_dec1, np.sqrt, u)
    assert q_energy(torus2, psi1, u) == pytest.approx(
        torus2.mass_inner(half, half), rel=1e-8)


def test_p_below_one_rejected(torus2):
    u = np.ones(torus2.num_nodes)
    with pytest.raises(ValueError):
        lp_norm(torus2, u, 0.5)
    with pytest.raises(ValueError):
        grad_lp_norm(torus2, u, 0.99)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3),
       p=st.floats(min_value=1.0, max_value=6.0))
def test_absolute_homogeneity(c, p):
    m = build("torus:n=2,res=8,L=1")
    rng = np.random.default_rng(7)
    u = rng.standard_normal(m.num_nodes)
    assert lp_norm(m, c * u, p) == pytest.approx(c * lp_norm(m, u, p), rel=1e-12)
    assert grad_lp_norm(m, c * u, p) == pytest.approx(
        c * grad_lp_norm(m, u, p), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       p=st.floats(min_value=1.0, max_value=3.0),
       dq=st.floats(min_value=0.1, max_value=3.0))
def test_holder_consistency(seed, p, dq):
    m = build("torus:n=2,res=8,L=1")
    q = p + dq
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m.num_nodes)
    bound = m.volume ** (1.0 / p - 1.0 / q) * lp_norm(m, u, q)
    assert lp_norm(m, u, p) <= bound + 1e-10


# the matrix contract: a (K, N) member matrix gives one value per row, equal
# to stacking the single-member calls
ENSEMBLES = [("torus2", "torus2_dec1", "torus2_members"),
             ("sphere3", "sphere3_dec1", "sphere3_members")]


@pytest.mark.parametrize("names", ENSEMBLES, ids=["torus", "sphere"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_norms_on_member_matrix_equal_stacked_rows(request, names, p):
    m, dec1, members = (request.getfixturevalue(n) for n in names)
    U = members[:40]
    cases = [(lambda u: lp_norm(m, u, p)), (lambda u: grad_lp_norm(m, u, p))]
    if np.isfinite(p):
        cases.append(lambda u: bessel(m, dec1.shifted(-1.0), u, p))
    for norm in cases:
        batched = norm(U)
        assert batched.shape == (len(U),)
        stacked = np.array([norm(u) for u in U])
        assert isinstance(norm(U[0]), float)
        np.testing.assert_allclose(batched, stacked, rtol=1e-13, atol=0)


@pytest.mark.parametrize("names", ENSEMBLES, ids=["torus", "sphere"])
def test_q_energy_on_member_matrix_equals_stacked_rows(request, names):
    m, _, members = (request.getfixturevalue(n) for n in names)
    psi = constant_potential(m, 1.0)
    U = members[:40]
    stacked = np.array([q_energy(m, psi, u) for u in U])
    np.testing.assert_allclose(q_energy(m, psi, U), stacked, rtol=1e-13, atol=0)


@pytest.mark.parametrize("text", ["torus:n=2,res=16", "sphere:r=1,subdiv=2",
                                  "box:n=2,res=8"])
def test_norms_match_the_plain_expressions_bit_for_bit(text):
    """The in-place powers and weights give the same bits as the plain
    expressions on the reference mesh, times the length's factor, and the
    caller's u is left as it was."""
    m = build(text)
    n = m.dim
    u = np.random.default_rng(3).standard_normal((6, m.num_nodes))
    kept = u.copy()
    for p in (1.0, 1.5, 2.0, 6.0):
        for v in (u, u[2]):
            want = np.sum(m.mass * np.abs(v) ** p, axis=-1) ** (1.0 / p)
            assert np.array_equal(lp_norm(m, v, p), m.physical(want, n / p))
            mags = m.grad.magnitudes(v)
            want = np.sum(m.grad.weights * mags ** p, axis=-1) ** (1.0 / p)
            assert np.array_equal(grad_lp_norm(m, v, p),
                                  m.physical(want, n / p - 1.0))
    assert np.array_equal(u, kept)


def test_lp_norm_survives_overflow_and_underflow_of_large_exponents():
    """|u|^q overflows (1e3^200), underflows (1e-3^200) or falls into the
    subnormal range (0.03^210) in double; the norm is then taken of
    |u|/max|u| on those rows only, and every other row keeps its plain
    value bit for bit."""
    m = build("sphere:r=1,subdiv=1")
    ones = np.ones(m.num_nodes)
    vol = m.volume ** (1.0 / 200.0)
    with np.errstate(all="raise"):
        assert lp_norm(m, 1e3 * ones, 200.0) == pytest.approx(1e3 * vol,
                                                              rel=1e-14)
    ramp = np.linspace(0.0, 1.0, m.num_nodes)
    rows = np.stack([1e3 * ones, ramp, 1e-3 * ones, 0.0 * ones])
    got = lp_norm(m, rows, 200.0)
    with np.errstate(over="ignore"):
        plain = np.sum(m.mass * rows ** 200.0, axis=-1) ** (1.0 / 200.0)
    assert got[0] == pytest.approx(1e3 * vol, rel=1e-14)
    assert got[1] == plain[1]
    assert got[2] == pytest.approx(1e-3 * vol, rel=1e-14)
    assert got[3] == 0.0
    assert lp_norm(m, 0.03 * ones, 210.0) == pytest.approx(
        0.03 * m.volume ** (1.0 / 210.0), rel=1e-14)
    rows[3, 0] = np.inf
    assert lp_norm(m, rows, 200.0)[3] == np.inf


@pytest.mark.parametrize("text", ["torus:n=2,res=16", "sphere:r=1,subdiv=2",
                                  "box:n=2,res=9"])
def test_functionals_equal_their_one_row_values_bit_for_bit(text,
                                                            monkeypatch):
    """lp_norm, grad_lp_norm, q_energy and entropy run a member matrix
    chunk by chunk, and each row reduces along its own contiguous entries,
    so every row of a matrix spanning several chunks has exactly its value
    as one node function: chunks of 3 rows over 8 rows, the last of 2."""
    from sobolab import (EnsembleSpec, PotentialField, decompose, entropy,
                         generate_ensemble, manifold)

    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    u = generate_ensemble(m, EnsembleSpec(seed=4, size=8), dec=dec)
    psi = PotentialField(np.linspace(-0.5, 2.0, m.num_nodes))
    monkeypatch.setattr(manifold, "CHUNK_BYTES", 3 * 8 * m.num_nodes)
    assert [len(range(8)[s]) for s in manifold._chunks(8, m.num_nodes)] \
        == [3, 3, 2]
    functionals = [lambda v, p=p: lp_norm(m, v, p) for p in (1.0, 1.5, 6.0,
                                                             np.inf)]
    functionals += [lambda v, p=p: grad_lp_norm(m, v, p)
                    for p in (1.0, 1.5, np.inf)]
    functionals += [lambda v: q_energy(m, psi, v), lambda v: entropy(m, v)]
    for f in functionals:
        whole = f(u)
        assert whole.shape == (8,)
        assert np.array_equal(whole, [f(row) for row in u])
        assert np.array_equal(whole, np.concatenate([f(u[i:i + 1])
                                                     for i in range(8)]))
