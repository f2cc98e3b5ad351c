from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from sobolab import (EnsembleSpec, SingularOperatorError, apply_function,
                     constant_potential, decompose, generate_ensemble,
                     heat_multiplier, lambda0, power_multiplier,
                     scale_metric, spectral)
from sobolab.manifold import (DiscreteManifold, GradientElements, ModelSpec,
                              build)
from sobolab.norms import lp_norm
from sobolab.spectral import (DENSE_NODE_GUARD, PotentialField,
                              SpectralDecomposition, spectrum_rows)


def test_torus_kernel_is_constant(torus2, torus2_dec0):
    dec = torus2_dec0
    assert dec.eigenvalues[0] == 0.0
    phi0 = dec.basis.columns(1)[:, 0]
    assert np.max(np.abs(phi0 - phi0[0])) < 1e-8 * np.abs(phi0[0])


def test_sphere_spherical_harmonic_spectrum(sphere3_dec0):
    w = sphere3_dec0.eigenvalues
    assert abs(w[0]) < 1e-10
    for ell, lo, hi in [(1, 1, 4), (2, 4, 9), (3, 9, 16)]:
        cluster = w[lo:hi]
        target = ell * (ell + 1)
        assert np.max(np.abs(cluster - target)) / target < 0.02
    # multiplicity clustering: gaps between clusters exceed in-cluster spread
    assert w[4] - w[3] > 5 * (w[3] - w[1])
    assert w[9] - w[8] > 5 * (w[8] - w[4])


def test_constant_potential_shifts_spectrum(torus2, torus2_dec0, torus2_dec1):
    assert np.allclose(torus2_dec1.eigenvalues, torus2_dec0.eigenvalues + 1.0,
                       atol=1e-8)


def test_identity_multiplier_reproduces_operator(torus2, torus2_dec1):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(torus2.num_nodes)
    via_spectrum = apply_function(torus2_dec1, lambda lam: lam, u)
    direct = (torus2.stiffness @ u) / torus2.mass + u
    assert np.max(np.abs(via_spectrum - direct)) < 1e-8 * np.max(np.abs(direct))


def test_heat_on_constant_is_exact_decay(torus2, torus2_dec1):
    u = np.full(torus2.num_nodes, 3.0)
    out = apply_function(torus2_dec1, heat_multiplier(0.7), u)
    assert np.allclose(out, 3.0 * np.exp(-0.7), rtol=1e-12)


def test_sqrt_twice_equals_identity_power(torus2, torus2_dec1):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(torus2.num_nodes)
    twice = apply_function(torus2_dec1, np.sqrt,
                           apply_function(torus2_dec1, np.sqrt, u))
    once = apply_function(torus2_dec1, lambda lam: lam, u)
    assert np.max(np.abs(twice - once)) < 1e-8 * max(1.0, np.max(np.abs(once)))


def test_negative_power_of_neumann_kernel_errors(torus2, torus2_dec0):
    u = np.ones(torus2.num_nodes)
    with pytest.raises(SingularOperatorError):
        apply_function(torus2_dec0, power_multiplier(-0.5), u)


def test_decompose_guard_and_bad_potential(torus2):
    psi = constant_potential(torus2, 0.0)
    fake = psi.values[:10]
    with pytest.raises(ValueError):
        decompose(torus2, PotentialField(fake, "short"))
    with pytest.raises(ValueError):
        PotentialField(np.array([np.nan]), "bad")
    # a mesh built in code bypasses the spec parsers' size gate; a box
    # decomposes densely at every size
    big = build(ModelSpec("box", dim=2, resolution=64))
    assert big.num_nodes > DENSE_NODE_GUARD
    with pytest.raises(ValueError, match="guard"):
        decompose(big, constant_potential(big, 0.0))


def test_residual_and_orthonormality(sphere3, sphere3_dec1):
    dec = sphere3_dec1
    s = sphere3.stiffness.toarray()
    mpsi = np.diag(sphere3.mass * dec.potential.values)
    phi = dec.basis.columns()
    lhs = (s + mpsi) @ phi
    rhs = sphere3.mass[:, None] * phi * dec.eigenvalues[None, :]
    resid = lhs - rhs
    # mass-norm residual per eigenpair
    norms = np.sqrt(np.sum(resid * resid / sphere3.mass[:, None], axis=0))
    assert np.all(norms <= 1e-8 * (1.0 + np.abs(dec.eigenvalues)))
    gram = phi.T @ (sphere3.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(sphere3.num_nodes))) < 1e-8


def test_torus_fd_spectrum_closed_form(torus2, torus2_dec0):
    """Grid eigenvalues match (4/h^2)(sin^2 + sin^2) exactly."""
    res = 32
    h = 2 * np.pi / res
    j, k = np.meshgrid(np.arange(res), np.arange(res))
    lam = (4.0 / h ** 2) * (np.sin(np.pi * j / res) ** 2
                            + np.sin(np.pi * k / res) ** 2)
    expected = np.sort(lam.ravel())
    assert np.max(np.abs(torus2_dec0.eigenvalues - expected)) < 1e-8 * expected[-1]


def test_neumann_box_spectrum_closed_form():
    """1-d Neumann chain: lambda_k = (4/h^2) sin^2(k pi / (2(res-1)))."""
    from sobolab import build
    res = 64
    box = build(f"box:n=1,res={res},L=1")
    dec = decompose(box, constant_potential(box, 0.0))
    h = 1.0 / (res - 1)
    k = np.arange(res)
    expected = np.sort((4.0 / h ** 2) * np.sin(k * np.pi / (2 * (res - 1))) ** 2)
    assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-8 * expected[-1]
    # low modes agree with the continuum (k pi / L)^2 to 0.5%
    for kk in (1, 2, 3, 4):
        assert dec.eigenvalues[kk] == pytest.approx((kk * np.pi) ** 2, rel=5e-3)


def test_lambda0_values(torus2, sphere3):
    assert lambda0(torus2) == pytest.approx(0.0, abs=1e-10)
    assert lambda0(sphere3) == pytest.approx(0.5, abs=1e-6)
    assert lambda0(scale_metric(sphere3, 2.0)) == pytest.approx(1.0 / 8.0, abs=1e-6)


def test_op_norm_single_node_identity():
    m = DiscreteManifold(
        dim=2, points=np.zeros((1, 2)), mass=np.ones(1),
        stiffness=sp.csr_matrix((1, 1)),
        grad=GradientElements(sp.csr_matrix((1, 1)), np.ones(1), 1),
        boundary_mask=np.zeros(1, dtype=bool),
        scalar_curvature=np.zeros(1), ric_min=np.zeros(1), ricci_lower=0.0,
        label="point")
    dec = decompose(m, constant_potential(m, 0.0))
    got = spectral._op_norms_2_to_inf(dec, [lambda lam: np.ones_like(lam)])[0]
    assert got == pytest.approx(1.0)


def test_op_norm_ground_state_domination(torus2, torus2_dec1):
    t = 10.0
    got = spectral._op_norms_2_to_inf(torus2_dec1, [heat_multiplier(t)])[0]
    expected = np.exp(-t) / np.sqrt(torus2.volume)
    assert got == pytest.approx(expected, rel=1e-6)


def test_semigroup_property(torus2, torus2_dec1):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(torus2.num_nodes)
    both = apply_function(torus2_dec1, heat_multiplier(0.2),
                          apply_function(torus2_dec1, heat_multiplier(0.1), u))
    one = apply_function(torus2_dec1, heat_multiplier(0.3), u)
    assert np.max(np.abs(both - one)) < 1e-8


def test_self_adjointness(torus2, torus2_dec1):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(torus2.num_nodes)
    v = rng.standard_normal(torus2.num_nodes)
    a = torus2.mass_inner(apply_function(torus2_dec1, np.sqrt, u), v)
    b = torus2.mass_inner(u, apply_function(torus2_dec1, np.sqrt, v))
    assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_l2_bessel_identity(torus2, torus2_dec1):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(torus2.num_nodes)
    half = apply_function(torus2_dec1, np.sqrt, u)
    lhs = torus2.mass_inner(half, half)
    rhs = torus2.dirichlet_energy(u) + torus2.mass_inner(u, u)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_positivity_surrogate(torus2, torus2_dec1):
    rng = np.random.default_rng(5)
    u = np.abs(rng.standard_normal(torus2.num_nodes))
    out = apply_function(torus2_dec1, heat_multiplier(0.05), u)
    assert out.min() >= -1e-8 * u.max()


def test_shifted_operator_equivalence(torus2):
    """e^{-tH} computed directly equals e^{-t inf Psi^-} e^{-t H1} with H1 shifted."""
    rng = np.random.default_rng(6)
    psi_vals = rng.standard_normal(torus2.num_nodes)
    psi = PotentialField(psi_vals, "mixed-sign")
    inf_minus = psi.inf_minus
    shifted = PotentialField(psi_vals - inf_minus, "shifted")
    u = rng.standard_normal(torus2.num_nodes)
    t = 0.3
    direct = apply_function(decompose(torus2, psi), heat_multiplier(t), u)
    via_shift = np.exp(-t * inf_minus) * apply_function(
        decompose(torus2, shifted), heat_multiplier(t), u)
    assert np.max(np.abs(direct - via_shift)) < 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_spectrum_rows(torus2_dec0):
    rows = spectrum_rows(torus2_dec0)
    assert rows[0] == (0, 0.0)
    assert len(rows) == len(torus2_dec0.eigenvalues)


@pytest.mark.parametrize("names", [("torus2_dec1", "torus2_members"),
                                   ("sphere3_dec1", "sphere3_members")],
                         ids=["torus", "sphere"])
def test_apply_function_on_member_matrix_equals_stacked_rows(request, names):
    dec, members = (request.getfixturevalue(n) for n in names)
    m, U = dec.manifold, members[:40]
    for f in (np.sqrt, heat_multiplier(0.3), lambda lam: lam):
        batched = apply_function(dec, f, U)
        assert batched.shape == U.shape
        op_norm = np.max(np.abs(f(dec.eigenvalues)))  # ||f(H)||_{2->2}
        for row, u in zip(batched, U):
            diff = row - apply_function(dec, f, u)
            assert lp_norm(m, diff, 2.0) <= 1e-13 * op_norm * lp_norm(m, u, 2.0)


# ---------------------------------------------------------------------------
# shift and scale views: exact decompositions of H + c and of H/lam^2 on the
# scaled metric, checked against a fresh decompose.  Both meshes have
# degenerate eigenvalue clusters, where eigenvectors are basis-dependent, so
# views are compared through f(H), not column by column.

@pytest.fixture(scope="module", params=["sphere:r=1,subdiv=2", "torus:n=3,res=8"])
def view_base(request):
    from sobolab import build
    m = build(request.param)
    return decompose(m, constant_potential(m, 1.0))


def assert_same_operator(view, direct):
    lam = direct.eigenvalues
    assert np.max(np.abs(view.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    m = direct.manifold
    U = np.random.default_rng(8).standard_normal((6, m.num_nodes))
    diff = apply_function(view, np.sqrt, U) - apply_function(direct, np.sqrt, U)
    assert np.all(lp_norm(m, diff, 2.0) <= 1e-12 * lp_norm(m, U, 2.0))


@pytest.mark.parametrize("c", [-1.0, -0.5, 2.0])
def test_shifted_view_matches_decompose(view_base, c):
    m = view_base.manifold
    direct = decompose(m, constant_potential(m, 1.0 + c))
    view = view_base.shifted(c)
    assert np.array_equal(view.potential.values, direct.potential.values)
    assert_same_operator(view, direct)


@pytest.mark.parametrize("lam", [0.6, 2.0])
def test_scaled_view_matches_decompose(view_base, lam):
    ms = scale_metric(view_base.manifold, lam)
    direct = decompose(ms, constant_potential(ms, 1.0))
    view = view_base.shifted(-1.0).scaled(lam).shifted(1.0)
    assert np.array_equal(view.manifold.mass, ms.mass)
    assert np.array_equal(view.potential.values, direct.potential.values)
    assert_same_operator(view, direct)
    phi = view.basis.columns()
    gram = phi.T @ (ms.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(ms.num_nodes))) <= 1e-12
    # the potential scales with the operator: Psi = 1 becomes 1/lam^2
    assert np.allclose(view_base.scaled(lam).potential.values, lam ** -2.0,
                       rtol=1e-15, atol=0.0)
    assert view_base.scaled(1.0) is view_base


def test_shift_to_bare_laplacian_has_exact_kernel(view_base):
    bare = view_base.shifted(-1.0)
    direct = decompose(bare.manifold, constant_potential(bare.manifold, 0.0))
    assert np.all(bare.potential.values == 0.0)
    kernel = bare.eigenvalues == 0.0
    assert kernel.sum() == (direct.eigenvalues == 0.0).sum() == 1
    assert kernel[0]


# Closed-form Fourier eigenpairs on periodic grids against the dense eigh of
# the same mesh.  Both bases are mass-orthonormal, but inside a degenerate
# eigenspace they differ, so only basis-independent quantities are compared.
FOURIER_SPECS = ["torus:n=1,res=32", "torus:n=2,res=32", "torus:n=3,res=8",
                 "torus:n=2,res=9,L=3x5", "torus:n=2,res=12,L=1,scale=1.7"]


def _dense(m, psi):
    w, v = spectral._dense_eigenpairs(m, psi)
    return SpectralDecomposition(spectral._clip(w), v, psi, m)


def _max_residual(dec):
    """max |(S + M Psi) phi_k - lambda_k M phi_k| over nodes and pairs."""
    m, phi = dec.manifold, dec.basis.columns()
    resid = (m.stiffness @ phi + (m.mass * dec.potential.values)[:, None] * phi
             - m.mass[:, None] * phi * dec.eigenvalues[None, :])
    return np.max(np.abs(resid))


@pytest.mark.parametrize("text", FOURIER_SPECS)
def test_fourier_eigenpairs_match_dense(text):
    m = build(text)
    psi = constant_potential(m, 1.0)
    assert spectral._fourier_grid(m) is not None
    fourier, dense = decompose(m, psi), _dense(m, psi)
    lam_max = np.max(np.abs(dense.eigenvalues))
    assert np.max(np.abs(fourier.eigenvalues - dense.eigenvalues)) \
        <= 1e-12 * lam_max
    phi = fourier.basis.columns()
    gram = phi.T @ (m.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(m.num_nodes))) <= 1e-12
    assert _max_residual(fourier) <= 1e-12 * lam_max * np.max(m.mass)
    u = np.random.default_rng(5).standard_normal((4, m.num_nodes))
    for f in (heat_multiplier(0.05), power_multiplier(-0.5),
              power_multiplier(1.0)):
        norm_f = np.max(np.abs(f(dense.eigenvalues)))
        diff = apply_function(fourier, f, u) - apply_function(dense, f, u)
        assert np.all(lp_norm(m, diff, 2.0)
                      <= 1e-12 * norm_f * lp_norm(m, u, 2.0))
    spec = EnsembleSpec(seed=9, size=60, generator="mixed")
    a = generate_ensemble(m, spec, dec=fourier)
    b = generate_ensemble(m, spec, dec=dense)
    assert np.all(np.max(np.abs(a - b), axis=1)
                  <= 1e-9 * np.max(np.abs(b), axis=1))


@pytest.mark.parametrize("text", FOURIER_SPECS)
def test_fourier_basis_matches_its_explicit_columns(text):
    """The FFT coefficients, syntheses, f(H) and 2->inf norms equal the
    products with the closed-form columns, on views of the basis too."""
    m = build(text)
    base = decompose(m, constant_potential(m, 1.0))
    assert isinstance(base.basis, spectral.FourierBasis)
    n = m.num_nodes
    u = np.random.default_rng(6).standard_normal((4, n))
    fs = [heat_multiplier(t) for t in (1e-3, 0.05, 1.0)]
    for dec in (base, base.shifted(-1.0), base.scaled(2.0),
                base.shifted(-1.0).scaled(0.6).shifted(1.0)):
        phi = dec.basis.columns()
        explicit = SpectralDecomposition(
            dec.eigenvalues, spectral.DenseBasis(phi, dec.manifold.mass),
            dec.potential, dec.manifold)
        for k in (None, n // 3):
            assert np.array_equal(dec.basis.columns(k), phi[:, :k])
            want = explicit.coefficients(u, k)
            got = dec.coefficients(u, k)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(dec.coefficients(u[0], k) - want[0])) \
                <= 1e-12 * np.max(np.abs(want))
            want = explicit.synthesize(got)
            assert np.max(np.abs(dec.synthesize(got) - want)) \
                <= 1e-12 * np.max(np.abs(want))
        for f in fs + [np.sqrt, lambda lam: lam]:
            want = apply_function(explicit, f, u)
            assert np.max(np.abs(apply_function(dec, f, u) - want)) \
                <= 1e-12 * np.max(np.abs(want))
        want = spectral._op_norms_2_to_inf(explicit, fs)
        assert np.all(np.abs(spectral._op_norms_2_to_inf(dec, fs) - want)
                      <= 1e-12 * want)
    spec = EnsembleSpec(seed=9, size=60, generator="mixed")
    a = generate_ensemble(m, spec, dec=base)
    b = generate_ensemble(m, spec, dec=SpectralDecomposition(
        base.eigenvalues, spectral.DenseBasis(base.basis.columns(), m.mass),
        base.potential, m))
    assert np.all(np.max(np.abs(a - b), axis=1)
                  <= 1e-9 * np.max(np.abs(b), axis=1))


def _perturbed_torus():
    m = build("torus:n=2,res=8")
    s = m.stiffness.tolil()
    s[0, 1] -= 1e-6
    s[1, 0] -= 1e-6
    s[0, 0] += 1e-6
    s[1, 1] += 1e-6
    return replace(m, stiffness=s.tocsr())


@pytest.mark.parametrize("case", ["perturbed-torus", "sphere", "box",
                                  "varying-potential"])
def test_non_separable_models_fall_back_to_dense(case, monkeypatch):
    if case == "perturbed-torus":
        m = _perturbed_torus()
    elif case in ("sphere", "box"):
        m = build({"sphere": "sphere:r=1,subdiv=1", "box": "box:n=2,res=6"}[case])
    else:
        m = build("torus:n=2,res=8")
    psi = (PotentialField(1.0 + m.points[:, 0], "x") if case == "varying-potential"
           else constant_potential(m, 1.0))
    calls = []
    original = spectral.la.eigh
    monkeypatch.setattr(spectral.la, "eigh",
                        lambda a: calls.append(a.shape) or original(a))
    dec = decompose(m, psi)
    assert calls == [(m.num_nodes, m.num_nodes)]
    assert _max_residual(dec) <= 1e-10 * np.max(np.abs(dec.eigenvalues))
    if case in ("perturbed-torus", "sphere", "box"):
        assert spectral._fourier_grid(m) is None
