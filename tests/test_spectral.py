import json
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sobolab

from sobolab import constants as ct
from sobolab import (EnsembleSpec, SingularOperatorError, apply_function,
                     constant_potential, decompose, generate_ensemble,
                     geometric_summary, heat_multiplier, power_multiplier,
                     scale_metric, spectral)
from sobolab.manifold import (DiscreteManifold, GradientElements, ModelSpec,
                              _check_budget, build, parse_model_spec)
from sobolab.norms import lp_norm
from sobolab.spectral import (PotentialField, SpectralDecomposition,
                              spectrum_rows)


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
    direct = torus2.physical(torus2.stiffness @ u, -2.0) / torus2.mass + u
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
    """A bad potential is refused, and so is a dense solve over the memory
    budget.  A mesh built in code bypasses the spec parsers' budget check: a
    random Psi on the 10,242-node sphere leaves no mirror, so the whole
    matrix is one block (about 5.87 GB predicted).  It is refused after
    _mirrors with one line naming the predicted bytes and the budget, while
    the traced peak is still a small part of one N x N matrix."""
    psi = constant_potential(torus2, 0.0)
    fake = psi.values[:10]
    with pytest.raises(ValueError):
        decompose(torus2, PotentialField(fake))
    with pytest.raises(ValueError):
        PotentialField(np.array([np.nan]))
    m = build(ModelSpec("sphere", resolution=5))
    psi = PotentialField(np.random.default_rng(3).uniform(1, 2, m.num_nodes))
    m.stiffness_entries  # built once per mesh, before the solve
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="needs a predicted 5.87 GB, over "
                                             "the memory budget") as err:
            decompose(m, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "10242 nodes" in str(err.value) and "\n" not in str(err.value)
    assert peak < 0.01 * m.num_nodes ** 2 * 8


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


def _lambda0(m):
    """Ground state of -Laplacian + R/4 as flow.track reads it: the Psi = 1
    spectrum shifted by R/4 - 1 (R is constant on these models)."""
    dec = decompose(m, constant_potential(m, 1.0))
    return dec.shifted(geometric_summary(m)["r_max_plus"] / 4.0 - 1.0).lambda_min


def test_lambda0_values(torus2, sphere3):
    assert _lambda0(torus2) == pytest.approx(0.0, abs=1e-10)
    assert _lambda0(sphere3) == pytest.approx(0.5, abs=1e-6)
    assert _lambda0(scale_metric(sphere3, 2.0)) == pytest.approx(1.0 / 8.0, abs=1e-6)


def test_op_norm_single_node_identity():
    m = DiscreteManifold(
        dim=2, points=np.zeros((1, 2)), mass=np.ones(1),
        grad=GradientElements(np.zeros((1, 1), dtype=int), np.zeros((1, 1, 1)),
                              np.ones(1), 1),
        scalar_curvature=np.zeros(1), ric_min=np.zeros(1), label="point")
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
    psi = PotentialField(psi_vals)
    inf_minus = psi.inf_minus
    shifted = PotentialField(psi_vals - inf_minus)
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
# The shift view (the exact decomposition of H + c) and the metric-scaling
# multiplier (f(H/lam^2) on g -> lam^2 g is f(mu/lam^2) on the unscaled bare
# spectrum mu), checked against a fresh decompose.  Both meshes have
# degenerate eigenvalue clusters, where eigenvectors are basis-dependent, so
# they are compared through f(H), not column by column.

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
    """The scaled operator viewed through the unscaled decomposition: the
    node values of (-Lap+1)^(1/2) on scale_metric(m, lam) are those of the
    multiplier sqrt(1 + mu/lam^2) on the bare Laplacian of m."""
    ms = scale_metric(view_base.manifold, lam)
    direct = decompose(ms, constant_potential(ms, 1.0))
    bare = view_base.shifted(-1.0)
    lam_d = direct.eigenvalues
    assert np.max(np.abs(1.0 + bare.eigenvalues / lam ** 2 - lam_d)) \
        <= 1e-12 * np.max(np.abs(lam_d))
    U = np.random.default_rng(8).standard_normal((6, ms.num_nodes))
    via = apply_function(bare, spectral.bessel_multiplier(lam), U)
    diff = via - apply_function(direct, np.sqrt, U)
    assert np.all(lp_norm(ms, diff, 2.0) <= 1e-12 * lp_norm(ms, U, 2.0))


def test_shift_to_bare_laplacian_has_exact_kernel(view_base):
    bare = view_base.shifted(-1.0)
    direct = decompose(bare.manifold, constant_potential(bare.manifold, 0.0))
    assert np.all(bare.potential.values == 0.0)
    kernel = bare.eigenvalues == 0.0
    assert kernel.sum() == (direct.eigenvalues == 0.0).sum() == 1
    assert kernel[0]


# Closed-form per-axis eigenpairs on tori (real Fourier columns) and Neumann
# boxes (DCT-I columns) against the mirror-block solve of the same mesh.
# Both bases are mass-orthonormal, but inside a degenerate eigenspace they
# differ, so only basis-independent quantities are compared.
FOURIER_SPECS = ["torus:n=1,res=32", "torus:n=2,res=32", "torus:n=3,res=8",
                 "torus:n=2,res=9,L=3x5", "torus:n=2,res=12,L=1,scale=1.7",
                 "box:n=1,res=7", "box:n=2,res=2", "box:n=2,res=8",
                 "box:n=2,res=9,L=1x2.5", "box:n=3,res=6",
                 "box:n=3,res=5,L=1x2x3", "box:n=2,res=12,L=1,scale=1.7"]


def _dense(m, psi):
    mu, c, v = spectral._mirror_eigenpairs(m, psi, spectral._mirrors(m, psi))
    return SpectralDecomposition(spectral._clip(mu), v, psi, m, c)


def _tensor_sum(m, sides):
    """The eigenvalues of -Laplacian on a grid of the given side lengths in
    closed form, ascending: the sums over the axes of 4 sin^2(pi k / res) /
    h_d^2 on a torus (h_d = side_d / res) and of 4 sin^2(pi k / (2 (res -
    1))) / h_d^2 on a box (h_d = side_d / (res - 1))."""
    g = m.grad
    k = np.arange(g.res)
    if g.periodic:
        per_axis = [4.0 * np.sin(np.pi * k / g.res) ** 2 * (g.res / s) ** 2
                    for s in sides]
    else:
        per_axis = [4.0 * np.sin(np.pi * k / (2 * (g.res - 1))) ** 2
                    * ((g.res - 1) / s) ** 2 for s in sides]
    return np.sort(reduce(np.add.outer, per_axis).ravel())


def _max_residual(dec):
    """max |(S / l^2 + M Psi) phi_k - lambda_k M phi_k| over nodes and
    pairs, S and M the reference mesh's (the physical residual over l^(n/2))."""
    m, phi = dec.manifold, dec.basis.columns()
    resid = (m.physical(m.stiffness @ phi, -2.0)
             + (m.mass * dec.potential.values)[:, None] * phi
             - m.mass[:, None] * phi * dec.eigenvalues[None, :])
    return np.max(np.abs(resid))


@pytest.mark.parametrize("text", FOURIER_SPECS)
def test_fourier_eigenpairs_match_dense(text):
    m = build(text)
    psi = constant_potential(m, 1.0)
    assert spectral._fourier_grid(m) is not None
    fourier, dense = decompose(m, psi), _dense(m, psi)
    assert isinstance(fourier.basis, spectral.FourierBasis)
    lam_max = np.max(np.abs(dense.eigenvalues))
    assert np.max(np.abs(fourier.eigenvalues - dense.eigenvalues)) \
        <= 1e-12 * lam_max
    spec = parse_model_spec(text)
    sides = [side * spec.scale for side in spec.sides]
    assert np.max(np.abs(fourier.eigenvalues - 1.0 - _tensor_sum(m, sides))) \
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


@dataclass(frozen=True)
class ExplicitBasis:
    """The reference every basis is checked against: products with the
    explicit mass-orthonormal columns phi (N x N), the coefficients of the
    leading k modes in ascending order."""

    phi: np.ndarray
    mass: np.ndarray

    def native(self, fw, k=None):
        return fw

    def forward(self, rows, k=None):
        return (rows * self.mass) @ self.phi[:, :k]

    def backward(self, c, k=None):
        return c @ self.phi[:, :k].T

    def columns(self, k=None):
        return self.phi[:, :k]

    def row_sums(self, w):
        return (self.phi ** 2) @ w


def _ensemble_modes(dec):
    """The ensemble's K: the end of the last cluster starting below
    SPECTRAL_MODES."""
    bounds = dec.cluster_bounds()
    return int(bounds[np.searchsorted(bounds[:-1],
                                      min(ct.SPECTRAL_MODES, bounds[-1]))])


def _explicit(dec):
    """dec with its basis replaced by the products with its columns."""
    return replace(dec, basis=ExplicitBasis(dec.basis.columns(),
                                            dec.manifold.mass))


def _projection(basis, u, w, k):
    """backward(forward(u, k) * native(w, k), k): u projected on the leading
    k modes, mode j weighted by w[..., j]."""
    return basis.backward(basis.forward(u, k) * basis.native(w, k), k)


def _assert_basis_matches_its_columns(base, u, ks):
    """At every k in ks, columns(k) is the explicit columns' prefix, forward
    inverts backward, and the weighted projection (one row of weights per
    member, or one for all) of the matrix u and of its first row equals the
    products with the explicit columns to 1e-12; so do f(H), the row sums
    of f(lambda)^2 and the 2->inf norms, on shifted views too."""
    fs = [heat_multiplier(t) for t in (1e-3, 0.05, 1.0)]
    rng = np.random.default_rng(7)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for dec in (base, base.shifted(-1.0), base.shifted(-1.0).shifted(1.0)):
        basis, explicit = dec.basis, _explicit(dec)
        phi = explicit.basis.phi
        for k in ks:
            phik = phi[:, :k]
            assert np.array_equal(basis.columns(k), phik)
            z = basis.native(rng.standard_normal((len(u), phik.shape[1])), k)
            assert close(basis.forward(basis.backward(z, k), k), z)
            for w in (rng.uniform(0.5, 2.0, (len(u), phik.shape[1])),
                      rng.uniform(0.5, 2.0, phik.shape[1])):
                want = _projection(explicit.basis, u, w, k)
                assert close(_projection(basis, u, w, k), want)
                assert close(_projection(basis, u[:1], w[:1] if w.ndim > 1
                                         else w, k), want[:1])
        for f in fs + [np.sqrt, lambda lam: lam]:
            assert close(apply_function(dec, f, u), apply_function(explicit, f, u))
        fw2 = np.stack([spectral._multiplier(dec, f) ** 2 for f in fs], axis=1)
        assert close(basis.row_sums(fw2), explicit.basis.row_sums(fw2))
        want = spectral._op_norms_2_to_inf(explicit, fs)
        assert np.all(np.abs(spectral._op_norms_2_to_inf(dec, fs) - want)
                      <= 1e-12 * want)


@pytest.mark.parametrize("text", FOURIER_SPECS)
def test_fourier_basis_matches_its_explicit_columns(text):
    """The per-axis transforms, for all modes and for the leading ones,
    f(H), row sums and 2->inf norms equal the products with the
    closed-form columns, on tori and boxes and on shifted views too."""
    m = build(text)
    base = decompose(m, constant_potential(m, 1.0))
    assert isinstance(base.basis, spectral.FourierBasis)
    n = m.num_nodes
    u = np.random.default_rng(6).standard_normal((4, n))
    _assert_basis_matches_its_columns(base, u, (None, n // 3,
                                                _ensemble_modes(base)))
    spec = EnsembleSpec(seed=9, size=60, generator="mixed")
    a = generate_ensemble(m, spec, dec=base)
    b = generate_ensemble(m, spec, dec=_explicit(base))
    assert np.all(np.max(np.abs(a - b), axis=1)
                  <= 1e-9 * np.max(np.abs(b), axis=1))


@pytest.mark.parametrize("text", ["torus:n=2,res=56", "torus:n=3,res=8"])
def test_leading_mode_transforms_use_fewer_columns(text, monkeypatch):
    """At the ensemble's K the transforms apply fewer than res Fourier
    columns per axis and still equal the products with the explicit K
    columns."""
    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    res = dec.basis.q.shape[0]
    factors, per_axis = [], spectral._per_axis

    def recording(a, u, dim):
        factors.append(a.shape)
        return per_axis(a, u, dim)

    monkeypatch.setattr(spectral, "_per_axis", recording)
    generate_ensemble(m, EnsembleSpec(seed=2, size=6, generator="band-limited"),
                      dec=dec)
    assert len(factors) == 2  # one forward and one backward product
    assert all(min(shape) < res and max(shape) == res for shape in factors)
    k = _ensemble_modes(dec)
    phi = dec.basis.columns(k)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((7, m.num_nodes))
    w = rng.uniform(0.5, 2.0, (7, k))
    b = 1 + np.max(np.unravel_index(dec.basis.order[:k], (res,) * m.dim))
    assert b < res and dec.basis.forward(u, k).shape == (7, b ** m.dim)
    want = ((u * m.mass) @ phi * w) @ phi.T
    assert np.max(np.abs(_projection(dec.basis, u, w, k) - want)) \
        <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(_projection(dec.basis, u[:1], w[:1], k) - want[:1])) \
        <= 1e-12 * np.max(np.abs(want))


def test_fourier_transforms_peak_below_three_member_matrices():
    """forward and backward on a 200-member 56^2 torus matrix each hold at
    most two member-sized arrays at once: every axis product frees its
    input, the caller's matrix aside."""
    import tracemalloc

    m = build("torus:n=2,res=56")
    dec = decompose(m, constant_potential(m, 1.0))
    u = np.random.default_rng(8).standard_normal((200, m.num_nodes))
    c = dec.basis.forward(u)
    for transform, arg in ((dec.basis.forward, u), (dec.basis.backward, c)):
        tracemalloc.start()
        try:
            transform(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * arg.nbytes, transform.__name__


@pytest.mark.parametrize("text", ["torus:n=2,res=4", "box:n=1,res=2",
                                  "sphere:r=1,subdiv=1"])
def test_no_leading_modes_give_no_columns_and_zero_rows(text):
    """At k = 0 a basis has no columns, and the projection of any rows on
    the leading 0 modes is zero."""
    m = build(text)
    basis = decompose(m, constant_potential(m, 1.0)).basis
    assert basis.columns(0).shape == (m.num_nodes, 0)
    u = np.random.default_rng(4).standard_normal((3, m.num_nodes))
    for w in (np.ones((3, 0)), np.ones(0)):
        rows = _projection(basis, u, w, 0)
        assert rows.shape == u.shape and not np.any(rows)


def _perturbed_torus():
    """A torus whose first grid cell weight is 1e-6 relative too large."""
    m = build("torus:n=2,res=8")
    weights = m.grad.weights.copy()
    weights[0] *= 1.0 + 1e-6
    return replace(m, grad=replace(m.grad, weights=weights))


def _spy_eigh(monkeypatch):
    """Record (size, exactly symmetric) of every numpy eigh call."""
    seen = []
    original = np.linalg.eigh

    def spy(a, *args, **kw):
        seen.append((a.shape[0], np.array_equal(a, a.T)))
        return original(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


def _one_call_per_block(seen, m, mirrors):
    """2^mirrors calls on exactly symmetric blocks whose sizes sum to N."""
    return (len(seen) == 2 ** mirrors and all(ok for _, ok in seen)
            and sum(size for size, _ in seen) == m.num_nodes)


@pytest.mark.parametrize("case", ["perturbed-torus", "sphere", "box",
                                  "varying-potential"])
def test_non_separable_models_fall_back_to_dense(case, monkeypatch):
    """A perturbed torus and a sphere are not separable grids; a box with a
    Psi even about its centre, and a torus with Psi = 1 + x, are separable
    grids with a non-constant Psi."""
    if case in ("perturbed-torus", "sphere"):
        m = (_perturbed_torus() if case == "perturbed-torus"
             else build("sphere:r=1,subdiv=1"))
        psi = constant_potential(m, 1.0)
    else:
        m, psi = _mirror_case({"box": "box:n=2,res=6",
                               "varying-potential": "torus:n=2,res=8,psi=1+x"}[case])
    seen = _spy_eigh(monkeypatch)
    dec = decompose(m, psi)
    mirrors = {"perturbed-torus": 0, "sphere": 3, "box": 2,
               "varying-potential": 1}[case]
    assert _one_call_per_block(seen, m, mirrors)
    assert _max_residual(dec) <= 1e-10 * np.max(np.abs(dec.eigenvalues))
    assert (spectral._fourier_grid(m) is None) == (case in ("perturbed-torus",
                                                            "sphere"))


def _reference_dense_eigenpairs(m, psi):
    """The dense reduction as it was before divide and conquer: a
    symmetrised copy handed to the default scipy eigh (MRRR, dsyevr)."""
    sqrt_m = np.sqrt(m.mass)
    a = m.physical(m.stiffness.toarray(), -2.0)
    a[np.diag_indices(m.num_nodes)] += m.mass * psi.values
    a /= sqrt_m[:, None]
    a /= sqrt_m[None, :]
    a = 0.5 * (a + a.T)
    w, v = scipy.linalg.eigh(a)
    # a decomposition holds mu, the spectrum of l^2 H here (its shift is 0)
    return SpectralDecomposition(spectral._clip(m.physical(w, 2.0)),
                                 ExplicitBasis(v / sqrt_m[:, None], m.mass),
                                 psi, m)


@pytest.mark.parametrize("text", ["sphere:r=1,subdiv=2", "sphere:r=1,subdiv=3",
                                  "box:n=2,res=12", "box:n=3,res=6",
                                  "torus:n=2,res=8,varying-psi"])
def test_dense_divide_and_conquer_matches_the_reference_eigh(text, monkeypatch):
    """The divide-and-conquer solve gives the reference's spectrum,
    clusters and ensembles, a mass-orthonormal basis to 1e-13, and hands
    numpy's eigh one exactly symmetric block per mirror character.  Boxes
    reach the dense path through a Psi even about their centre."""
    m, psi = _mirror_case(text.replace(",varying-psi", ",psi=1+x"))
    ref = _reference_dense_eigenpairs(m, psi)
    seen = _spy_eigh(monkeypatch)
    dec = decompose(m, psi)
    assert _one_call_per_block(seen, m, len(spectral._mirrors(m, psi)))
    lam_max = np.max(np.abs(ref.eigenvalues))
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-12 * lam_max
    assert np.array_equal(dec.cluster_bounds(), ref.cluster_bounds())
    phi = dec.basis.columns()
    gram = phi.T @ (m.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(m.num_nodes))) <= 1e-13
    for generator in ("band-limited", "eigen-mix", "mixed"):
        spec = EnsembleSpec(seed=11, size=40, generator=generator)
        a = generate_ensemble(m, spec, dec=dec)
        b = generate_ensemble(m, spec, dec=ref)
        assert np.all(np.max(np.abs(a - b), axis=1)
                      <= 1e-9 * np.max(np.abs(b), axis=1)), generator


# The mirror-block solve against the unsplit solve of the same matrix.  A box
# with a constant Psi takes the per-axis path, so a box case reaches the
# mirror blocks through Psi = 1 + |x - centre|^2, which every axis mirror
# keeps.

MIRROR_CASES = [("sphere:r=1,subdiv=1", 3), ("sphere:r=1,subdiv=2", 3),
                ("sphere:r=1,subdiv=3", 3), ("box:n=2,res=12", 2),
                ("box:n=2,res=15", 2), ("box:n=3,res=6", 3),
                ("torus:n=2,res=8,psi=1+x", 1)]


# A random Psi breaks every mirror: the trivial group, one whole block.
NO_MIRROR_CASES = ["sphere:r=1,subdiv=2,psi=random", "box:n=2,res=7,psi=random"]


def _mirror_case(text):
    m = build(text.split(",psi=")[0])
    if "psi=1+x" in text:
        psi = PotentialField(1.0 + m.points[:, 0])
    elif "psi=random" in text:
        psi = PotentialField(np.random.default_rng(3).uniform(1, 2, m.num_nodes))
    elif text.startswith("box") and ",psi=" not in text:
        psi = _even_potential(m)
    else:
        psi = constant_potential(m, 1.0)
    return m, psi


def _even_potential(m):
    """Psi = 1 + |x - centre|^2, even under every axis mirror of a box."""
    p = m.points
    centre = 0.5 * (p.min(axis=0) + p.max(axis=0))
    return PotentialField(1.0 + np.sum((p - centre) ** 2, axis=1))


def _assert_dense_eigenpairs(dec):
    """The residual and Gram bounds every dense solve meets."""
    m = dec.manifold
    assert _max_residual(dec) <= 1e-10 * np.max(np.abs(dec.eigenvalues))
    phi = dec.basis.columns()
    gram = phi.T @ (m.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(m.num_nodes))) <= 1e-13


@pytest.mark.parametrize("text, mirrors", MIRROR_CASES,
                         ids=[text for text, _ in MIRROR_CASES])
def test_mirror_blocks_match_the_unsplit_solve(text, mirrors, monkeypatch):
    """Spheres, boxes (odd res puts nodes on the mirror planes) and a torus
    whose Psi keeps only the y mirror split into 2^k blocks summing to N,
    with the unsplit solve's spectrum, clusters and ensembles."""
    m, psi = _mirror_case(text)
    assert len(spectral._mirrors(m, psi)) == mirrors
    seen = _spy_eigh(monkeypatch)
    dec = decompose(m, psi)
    assert _one_call_per_block(seen, m, mirrors)
    monkeypatch.setattr(spectral, "_mirrors", lambda m, psi: [])
    whole = decompose(m, psi)
    assert seen[2 ** mirrors:] == [(m.num_nodes, True)]
    lam_max = np.max(np.abs(whole.eigenvalues))
    assert np.max(np.abs(dec.eigenvalues - whole.eigenvalues)) <= 1e-12 * lam_max
    assert np.array_equal(dec.cluster_bounds(), whole.cluster_bounds())
    _assert_dense_eigenpairs(dec)
    for generator in ("band-limited", "eigen-mix", "mixed"):
        spec = EnsembleSpec(seed=11, size=40, generator=generator)
        a = generate_ensemble(m, spec, dec=dec)
        b = generate_ensemble(m, spec, dec=whole)
        assert np.all(np.max(np.abs(a - b), axis=1)
                      <= 1e-9 * np.max(np.abs(b), axis=1)), generator


@pytest.mark.parametrize("text", [text for text, _ in MIRROR_CASES]
                         + NO_MIRROR_CASES)
def test_mirror_basis_matches_its_explicit_columns(text):
    """The block transforms (gather over the orbit images, one character
    product, one product per block, scatter) equal the products with the
    explicit columns, for all modes and for the ensemble's K leading ones,
    and so does f(H) in the blocks' own order; with no mirror too, where
    the one block is the whole matrix."""
    m, psi = _mirror_case(text)
    base = decompose(m, psi)
    assert isinstance(base.basis, spectral.MirrorBasis)
    u = np.random.default_rng(6).standard_normal((7, m.num_nodes))
    _assert_basis_matches_its_columns(base, u, (None, _ensemble_modes(base)))


def _traced_decompose(m, psi):
    """decompose(m, psi) and its traced peak in N x N float matrices."""
    m.stiffness_entries  # built once per mesh, before the solve
    tracemalloc.start()
    try:
        dec = decompose(m, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dec, peak / (m.num_nodes ** 2 * 8)


def test_mirror_decomposition_holds_no_dense_eigenvector_matrix():
    """The split solve keeps its blocks apart and lets the character sums
    go before the first block solve: a traced decompose of the 642-node
    sphere peaks below 0.45 N x N float matrices (about 0.38)."""
    m, psi = _mirror_case("sphere:r=1,subdiv=3")
    dec, peak = _traced_decompose(m, psi)
    assert dec.basis.mirrors == 3
    assert peak < 0.45


def test_no_mirror_decomposition_holds_what_an_unsplit_solve_does():
    """The trivial group's one block traces no more than an unsplit solve
    of the matrix: its character sum, the rows it is read from and one
    image of them, about 3.03 N x N float matrices on the 642-node sphere.
    numpy's eigh copies and workspace are outside the trace."""
    m, psi = _mirror_case("sphere:r=1,subdiv=3,psi=random")
    dec, peak = _traced_decompose(m, psi)
    assert dec.basis.mirrors == 0
    assert peak <= 3.1


RSS_SCRIPT = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from sobolab.manifold import build
from sobolab.spectral import PotentialField, decompose
def peak_rss():
    with open('/proc/self/status') as f:
        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))
m = build(sys.argv[2])
psi = PotentialField(np.random.default_rng(3).uniform(1, 2, m.num_nodes))
m.stiffness_entries
before = peak_rss()
dec = decompose(m, psi)
print(json.dumps([dec.basis.chi.shape[0], m.num_nodes, (peak_rss() - before) * 1024]))
"""


def _rss_decompose(text):
    """The group and node count of decompose(m, psi) under a random Psi,
    and its peak RSS rise in N x N float matrices, from a fresh
    interpreter: numpy's eigh holds a copy of the block and dsyevd's
    workspace outside Python's allocator, so tracing misses them.  The
    rise is read from the process's own high-water mark (VmHWM):
    ru_maxrss after exec starts from the RSS of the process that spawned
    it."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    src = str(Path(sobolab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", RSS_SCRIPT, src,
                          text.split(",psi=")[0]],
                         check=True, capture_output=True, text=True).stdout
    group, n, rise = json.loads(out)
    return group, n, rise / (n * n * 8)


@pytest.mark.parametrize("text, group", [("sphere:r=1,subdiv=3,psi=random", 1),
                                         ("box:n=2,res=30", 4),
                                         ("sphere:r=1,subdiv=3", 8)])
def test_budget_prediction_bounds_the_traced_decomposition(text, group):
    """The budget's prediction of a dense solve from its variant (o = N/|G|
    orbits) holds the decompose peak and is within 1.5 times of it, for
    the trivial group, 4 mirror blocks and 8.  The split solves peak in
    their traced character sums; the one block peaks in numpy's eigh,
    measured by peak RSS in a fresh interpreter (about 5.5 N x N)."""
    if group == 1:
        seen, n, peak = _rss_decompose(text)
    else:
        m, psi = _mirror_case(text)
        dec, peak = _traced_decompose(m, psi)
        seen, n = dec.basis.chi.shape[0], m.num_nodes
    assert seen == group
    predicted = _check_budget("", n, group, n / group, 0) / (n * n * 8)
    assert predicted / 1.5 < peak <= predicted


def test_diagnostics_read_the_mirrors_from_the_basis(monkeypatch):
    m = build("sphere:r=1,subdiv=2")
    dec = decompose(m, constant_potential(m, 1.0))
    calls = []
    monkeypatch.setattr(spectral, "_mirrors",
                        lambda *args: calls.append(args) or [])
    assert spectral.diagnostics(dec)["mirrors"] == 3
    assert calls == []


@pytest.mark.parametrize("case", ["random-potential", "perturbed-torus"])
def test_meshes_without_a_mirror_make_one_whole_solve(case, monkeypatch):
    """A random Psi on a sphere, or one perturbed element weight, breaks
    every mirror: the trivial group makes one N x N solve, and diagnostics
    report no mirror."""
    if case == "perturbed-torus":
        m = _perturbed_torus()
        psi = constant_potential(m, 1.0)
    else:
        m, psi = _mirror_case("sphere:r=1,subdiv=2,psi=random")
    assert spectral._mirrors(m, psi) == []
    seen = _spy_eigh(monkeypatch)
    dec = decompose(m, psi)
    assert seen == [(m.num_nodes, True)]
    assert np.array_equal(dec.basis.chi, [[1.0]])
    assert np.array_equal(dec.basis.images, [np.arange(m.num_nodes)])
    _assert_dense_eigenpairs(dec)
    assert spectral.diagnostics(dec)["mirrors"] == 0


@pytest.mark.parametrize("text, mirrors", [
    ("sphere:r=1,subdiv=2", 3), ("box:n=1,res=7", 1), ("box:n=2,res=6", 2),
    ("box:n=3,res=5", 3), ("torus:n=2,res=8", 0), ("torus:n=3,res=4", 0),
    ("box:n=1,res=7,psi=1", 0), ("box:n=2,res=6,psi=1", 0),
    ("box:n=3,res=5,psi=1", 0)])
def test_diagnostics_count_the_mirrors_of_the_solve(text, mirrors):
    """Boxes reach the dense path through a Psi even about their centre,
    which keeps every axis mirror (odd res puts nodes on the planes); with
    Psi = 1 they take the per-axis path, as tori do."""
    m, psi = _mirror_case(text)
    diag = spectral.diagnostics(decompose(m, psi))
    assert diag["mirrors"] == mirrors
    assert diag["decomposition"] == ("dense" if mirrors else "fourier")


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called on the per-axis path")
    return refuse


def test_boxes_with_a_constant_potential_make_no_dense_solve(tmp_path,
                                                            monkeypatch):
    """With a constant Psi a box looks for no mirror and calls neither
    numpy's eigh nor the mirror solve: not on box:n=12,res=2 (4096 one-node
    mirror blocks on the dense path) and not in an estimate on the 8000
    nodes of box:n=3,res=20."""
    from sobolab.cli import main

    for name in ("_mirrors", "_mirror_eigenpairs"):
        monkeypatch.setattr(spectral, name, _refuse(name))
    monkeypatch.setattr(np.linalg, "eigh", _refuse("numpy.linalg.eigh"))
    m = build("box:n=12,res=2")
    dec = decompose(m, constant_potential(m, 1.0))
    assert isinstance(dec.basis, spectral.FourierBasis)
    lam = dec.eigenvalues - 1.0
    expected = _tensor_sum(m, parse_model_spec("box:n=12,res=2").sides)
    assert np.max(np.abs(lam - expected)) <= 1e-12 * np.max(lam)
    assert main(["estimate", "--model", "box:n=3,res=20", "--p", "1.5",
                 "--seed", "7", "--out", str(tmp_path)]) == 0


def test_a_potential_keeps_the_mirrors_it_is_even_under():
    """On a box, Psi = 1 + x loses the x mirror and keeps the y mirror;
    Psi even in x about the box centre keeps both."""
    m = build("box:n=2,res=6")
    x = m.points[:, 0]
    [r] = spectral._mirrors(m, PotentialField(1.0 + x))
    assert np.array_equal(m.points[r, 0], x)
    even = PotentialField(1.0 + (x - 0.5 * (x.min() + x.max())) ** 2)
    assert len(spectral._mirrors(m, even)) == 2


def _searched_mirrors(m, psi):
    """The geometric search the declared reflections replaced: the points
    centred on their bounding box and rounded to 1e-9 of its extent, axis
    d's reflection matched by sorting the nodes and their images, and kept
    when every image is a node, it is not the identity and H is invariant."""
    p = m.points
    n = p.shape[0]
    lo, hi = np.min(p, axis=0), np.max(p, axis=0)
    tol = 1e-9 * np.max(hi - lo)
    if not tol > 0:
        return []
    keys = np.rint((p - 0.5 * (lo + hi)) / tol).astype(np.int64)
    order = np.lexsort(keys.T)
    ranked = keys[order]
    if np.any(np.all(ranked[1:] == ranked[:-1], axis=1)):
        return []
    entries = m.stiffness_entries
    found = []
    for d in range(p.shape[1]):
        keys[:, d] *= -1
        by_image = np.lexsort(keys.T)
        matched = np.array_equal(keys[by_image], ranked)
        keys[:, d] *= -1
        r = np.empty(n, dtype=np.intp)
        r[by_image] = order
        if (matched and np.any(r != np.arange(n))
                and spectral._within(m.mass[r] - m.mass, m.mass)
                and spectral._within(psi.values[r] - psi.values, psi.values)
                and spectral._within(spectral._permuted_gap(entries, r),
                                     entries[2])):
            found.append(r)
    return found


REFLECTION_MESHES = [
    "sphere:r=1,subdiv=1", "sphere:r=1,subdiv=2", "sphere:r=1,subdiv=3",
    "sphere:r=1,subdiv=4", "sphere:r=2,subdiv=5", "torus:n=1,res=7",
    "torus:n=2,res=6", "torus:n=3,res=5", "torus:n=2,res=4,L=1x3",
    "box:n=1,res=5", "box:n=2,res=6", "box:n=3,res=4", "box:n=2,res=5,L=1x2"]


@pytest.mark.parametrize("text", REFLECTION_MESHES)
def test_declared_reflections_are_those_the_geometric_search_found(text):
    """Every builder declares the reflections the search matched, in the
    same order, a metric scaling keeps them, and the invariance test keeps
    the same ones under Psi = 1, Psi = 1 + x and a seeded random Psi."""
    m = build(text)
    one = constant_potential(m, 1.0)
    searched = _searched_mirrors(m, one)
    axes = 3 if text.startswith("sphere") else m.dim
    assert len(m.reflections) == len(searched) == axes
    assert all(np.array_equal(r, s) for r, s in zip(m.reflections, searched))
    assert scale_metric(m, 2.5).reflections is m.reflections
    rng = np.random.default_rng(5)
    counts = []
    for psi in (one, PotentialField(1.0 + m.points[:, 0]),
                PotentialField(rng.uniform(1.0, 2.0, m.num_nodes))):
        kept, searched = spectral._mirrors(m, psi), _searched_mirrors(m, psi)
        assert len(kept) == len(searched)
        assert all(np.array_equal(r, s) for r, s in zip(kept, searched))
        counts.append(len(kept))
    assert counts == [axes, axes - 1, 0]  # 1 + x loses the x reflection


def test_mirrors_read_no_coordinates():
    """The invariance test reads the declared reflections, not the points."""
    m = build("sphere:r=1,subdiv=2")
    hidden = replace(m, points=np.full_like(m.points, np.nan))
    psi = constant_potential(m, 1.0)
    assert len(spectral._mirrors(hidden, psi)) == 3
    assert spectral._mirrors(replace(m, reflections=()), psi) == []


@pytest.mark.slow
def test_mirror_blocks_at_subdivision_four(monkeypatch):
    """The 2562-node icosphere splits into 8 blocks within the dense bounds."""
    m = build("sphere:r=1,subdiv=4")
    seen = _spy_eigh(monkeypatch)
    dec = decompose(m, constant_potential(m, 1.0))
    assert _one_call_per_block(seen, m, 3)
    _assert_dense_eigenpairs(dec)


@pytest.mark.parametrize("text", ["torus:n=2,res=12", "sphere:r=1,subdiv=2",
                                  "box:n=2,res=9"])
def test_chunked_images_match_whole_images(text, monkeypatch):
    """apply_functions transforms the members a chunk at a time (here 7 rows
    over 30) with the multipliers formed once and measures each chunk's
    images; the values match the images
    of apply_function measured whole to 1e-12, in the layout (fs, measure's
    axes, members), and one node function gives one value per f."""
    from sobolab import manifold
    from sobolab.norms import grad_lp_norm

    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    u = generate_ensemble(m, EnsembleSpec(seed=2, size=30), dec=dec)
    fs = [heat_multiplier(0.01), heat_multiplier(1.0), np.sqrt,
          power_multiplier(-0.5)]

    def measure(v):
        return (lp_norm(m, v, 1.5), lp_norm(m, v, np.inf),
                grad_lp_norm(m, v, 2.0))

    monkeypatch.setattr(manifold, "CHUNK_BYTES", 7 * 8 * m.num_nodes)
    weights = spectral.multipliers(dec, iter(fs))
    got = spectral.apply_functions(dec, weights, u, measure)
    want = np.array([measure(apply_function(dec, f, u)) for f in fs])
    assert got.shape == want.shape == (4, 3, 30)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    one = spectral.apply_functions(dec, weights, u[5],
                                   lambda v: lp_norm(m, v, 2.0))
    assert one.shape == (4,)
    assert np.all(np.abs(one - [lp_norm(m, apply_function(dec, f, u[5]), 2.0)
                                for f in fs]) <= 1e-12 * one)


@pytest.mark.parametrize("rows", [30, 7, 1])
def test_each_scan_forms_its_multipliers_once(rows, monkeypatch):
    """A scan forms f(lambda) once per function, whatever the number of
    chunks (30 members in chunks of 30, 7 and 1 rows), and its values do
    not depend on the chunking."""
    from sobolab import manifold, semigroup

    m = build("torus:n=2,res=6")
    dec = decompose(m, constant_potential(m, 1.0))
    u = generate_ensemble(m, EnsembleSpec(seed=4, size=30), dec=dec)
    calls = []
    original = spectral._multiplier
    monkeypatch.setattr(spectral, "_multiplier",
                        lambda dec, f: calls.append(f) or original(dec, f))
    monkeypatch.setattr(manifold, "CHUNK_BYTES", rows * 8 * m.num_nodes)
    heat = semigroup.heat_contraction_check(m, dec, [0.1, 1.0, 3.0],
                                            [1.0, 2.0], u)
    assert len(calls) == 3
    pairs = semigroup.bessel_equivalence_constants(dec.shifted(-1.0), 0.5,
                                                   1.5, u)
    assert len(calls) == 3 + 3
    monkeypatch.setattr(manifold, "CHUNK_BYTES", 30 * 8 * m.num_nodes)
    assert semigroup.heat_contraction_check(m, dec, [0.1, 1.0, 3.0],
                                            [1.0, 2.0], u) == heat
    assert semigroup.bessel_equivalence_constants(dec.shifted(-1.0), 0.5,
                                                  1.5, u) == pairs
