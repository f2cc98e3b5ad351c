import math
import tracemalloc

import numpy as np
import pytest

from sobolab import (EnsembleSpec, bessel_equivalence_constants, build,
                     check_heat_kernel_bounds, constant_potential, decompose,
                     estimate_sobolev_AB, generate_ensemble,
                     heat_contraction_check, mapping_norm, riesz_ratio,
                     scaling_transfer_check, tau_closed_form,
                     ultracontractivity_fit)
from sobolab.constants import _worst_ratio, single_constant_from_pair
from sobolab.manifold import CHUNK_BYTES
from sobolab.norms import grad_lp_norm, lp_norm
from sobolab.semigroup import OPERATOR_POWERS
from sobolab.spectral import PotentialField, apply_function, power_multiplier


def test_contraction_torus(torus2, torus2_dec1, torus2_members):
    rep = heat_contraction_check(torus2, torus2_dec1, [0.01, 0.1, 1.0],
                                 [1.0, 2.0, math.inf], torus2_members[:100])
    assert rep.violations == 0
    assert rep.worst_ratio <= 1.0 + 1e-8


def test_contraction_check_holds_one_evolved_matrix_at_a_time(torus2_fit,
                                                            torus2_fit_dec1):
    """The times share one transform of each chunk of members, and each
    e^{-tH} u of a chunk is measured and let go before the next is formed,
    so the check's peak is about four chunks (the coefficients, their
    product with one multiplier and two per-axis products), below the 4.8 MB
    member matrix and whatever the ensemble's size."""
    members = np.random.default_rng(3).standard_normal(
        (200, torus2_fit.num_nodes))
    tracemalloc.start()
    try:
        heat_contraction_check(torus2_fit, torus2_fit_dec1, [0.01, 0.1, 1.0],
                               [1.0, 2.0, math.inf], members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * CHUNK_BYTES < members.nbytes


def test_contraction_constant_is_exact_exponential(torus2, torus2_dec1):
    u = np.ones((1, torus2.num_nodes))
    rep = heat_contraction_check(torus2, torus2_dec1, [0.25], [2.0], u)
    assert rep.worst_ratio == pytest.approx(math.exp(-0.25), rel=1e-12)


def test_contraction_rejects_negative_potential(torus2):
    psi = PotentialField(np.full(torus2.num_nodes, -0.5))
    dec = decompose(torus2, psi)
    with pytest.raises(ValueError):
        heat_contraction_check(torus2, dec, [0.1], [2.0],
                               np.ones((1, torus2.num_nodes)))


def test_contraction_sphere_max_principle_surrogate(sphere3, sphere3_dec1,
                                                    sphere3_members):
    rep = heat_contraction_check(sphere3, sphere3_dec1, [0.01, 0.1, 1.0],
                                 [1.0, 2.0, math.inf], sphere3_members)
    assert rep.violations == 0


def test_op_norm_matches_continuum_theta_oracle(torus2_fit, torus2_fit_dec1):
    """||e^{-tH}||_{2->inf} vs the analytic flat-torus heat kernel diagonal."""
    from sobolab import heat_multiplier, spectral
    ks = np.arange(-80, 81)
    for t in (0.02, 0.05, 0.1):
        s = 2.0 * t
        theta = np.sum(np.exp(-s * ks ** 2))  # side length 2 pi: modes k^2
        diag = np.exp(-s) * theta ** 2 / torus2_fit.volume
        oracle = math.sqrt(diag)
        got = spectral._op_norms_2_to_inf(torus2_fit_dec1, [heat_multiplier(t)])[0]
        assert got == pytest.approx(oracle, rel=0.03)


def test_ultra_fit_torus_window(torus2_fit_dec1):
    fit = ultracontractivity_fit(torus2_fit_dec1, 1e-3, 1e-2)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    assert fit.mu_hat == pytest.approx(2.0, abs=0.4)
    assert fit.truncation_flagged  # lower endpoint sits under 4/lambda_max
    assert fit.c_hat > 0


def test_ultra_fit_sphere_legal_window(sphere3_dec1):
    fit = ultracontractivity_fit(sphere3_dec1, 0.0125, 0.05)
    assert fit.mu_hat == pytest.approx(2.0, abs=0.4)
    assert not fit.truncation_flagged


def test_ultra_fit_rejects_fully_truncated_window(sphere3_dec1):
    # 4/lambda_max of the subdiv-3 sphere sits above this whole window
    with pytest.raises(ValueError):
        ultracontractivity_fit(sphere3_dec1, 1e-3, 1e-2)


def test_ultra_fit_rejects_ground_state_regime(torus2_dec1):
    with pytest.raises(ValueError):
        ultracontractivity_fit(torus2_dec1, 1.0, 10.0)


def test_heat_kernel_bounds_chain(torus3, torus3_dec1, torus3_members):
    est = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    a_single = single_constant_from_pair(est, torus3.volume, torus3.dim)
    tau = lambda t: tau_closed_form(t, a_single, 3.0)
    rep = check_heat_kernel_bounds(torus3, torus3_dec1, tau, [0.05, 0.1, 0.5],
                                   torus3_members[:100])
    assert rep.violations == 0
    assert rep.worst_ratio < 1.0


def test_heat_kernel_bounds_point_mass(torus3, torus3_dec1, torus3_members):
    """The L1 bound controls the kernel diagonal (normalized point masses)."""
    est = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    a_single = single_constant_from_pair(est, torus3.volume, torus3.dim)
    tau = lambda t: tau_closed_form(t, a_single, 3.0)
    masses = np.zeros((3, torus3.num_nodes))
    for row, node in zip(masses, (0, 7, 100)):
        row[node] = 1.0 / torus3.mass[node]  # unit L1 norm
    rep = check_heat_kernel_bounds(torus3, torus3_dec1, tau, [0.05, 0.1], masses)
    assert rep.violations == 0


def test_heat_kernel_bounds_mixed_sign_potential(torus3, torus3_members):
    """Negative potential floor enters through the exp(-(3t/4) inf Psi^-) factor.

    The entropy bound for Q with Psi = -1/2 follows from the Psi = 1 bound by
    beta(sigma) -> beta(sigma) + (3/2) sigma, i.e. tau(t) -> tau(t) + 3t/8.
    """
    est = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    a_single = single_constant_from_pair(est, torus3.volume, torus3.dim)
    psi = PotentialField(np.full(torus3.num_nodes, -0.5))
    dec = decompose(torus3, psi)
    assert dec.potential.inf_minus == -0.5
    tau = lambda t: tau_closed_form(t, a_single, 3.0) + 1.5 * t / 4.0
    rep = check_heat_kernel_bounds(torus3, dec, tau, [0.05, 0.1, 0.5],
                                   torus3_members[:60])
    assert rep.violations == 0


def test_heat_kernel_bounds_respects_sigma_star(torus3, torus3_dec1):
    tau = lambda t: 0.0
    with pytest.raises(ValueError):
        check_heat_kernel_bounds(torus3, torus3_dec1, tau, [1.0],
                                 np.ones((1, torus3.num_nodes)),
                                 sigma_star=2.0)


def _plain_scan(dec, label, p_in, p_out, members):
    """The ensemble scan alone, without the refinement mapping_norm runs
    from its witness: the worst ||Op u||_p_out / ||u||_p_in."""
    m = dec.manifold
    power = OPERATOR_POWERS[label.removeprefix("grad ")]
    out = apply_function(dec, power_multiplier(power), members)
    norm = grad_lp_norm if label.startswith("grad ") else lp_norm
    return _worst_ratio(norm(m, out, p_out), lp_norm(m, members, p_in)).ratio


def test_mapping_norm_identity(torus2, torus2_dec1, torus2_members):
    scan = mapping_norm(torus2_dec1, "H^0", 2.0, 2.0, torus2_members[:20])
    assert scan.estimate == pytest.approx(1.0, rel=1e-12)


def test_mapping_norm_p2_exact_resolvent_bound(torus2, torus2_dec1,
                                               torus2_members):
    """At p_in = p_out = 2 the true norm of H^-1/2 is 1/sqrt(lambda_0) = 1.

    A flat member attains it, and the sharpened estimate must not exceed it.
    """
    members = np.vstack([torus2_members[:40], np.ones(torus2.num_nodes)])
    scan = mapping_norm(torus2_dec1, "H^-1/2", 2.0, 2.0, members)
    assert scan.estimate <= 1.0 + 1e-10
    assert scan.estimate == pytest.approx(1.0, abs=1e-10)


def test_contraction_neumann_box():
    box = build("box:n=2,res=12,L=1")
    dec1 = decompose(box, constant_potential(box, 1.0))
    members = generate_ensemble(
        box, EnsembleSpec(seed=14, size=40, generator="mixed"), dec=dec1)
    rep = heat_contraction_check(box, dec1, [0.01, 0.1, 1.0],
                                 [1.0, 2.0, math.inf], members)
    assert rep.violations == 0


def test_mapping_norm_scale_invariance(torus3_coarse, torus3_coarse_dec1,
                                       torus3_members):
    members = generate_ensemble(
        torus3_coarse, EnsembleSpec(seed=9, size=40, generator="mixed"),
        dec=torus3_coarse_dec1)
    a = mapping_norm(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, members)
    b = mapping_norm(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, 1e3 * members)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-9)


def test_mapping_norm_monotone_in_ensemble(torus3_coarse, torus3_coarse_dec1):
    members = generate_ensemble(
        torus3_coarse, EnsembleSpec(seed=10, size=60, generator="mixed"),
        dec=torus3_coarse_dec1)
    small = _plain_scan(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, members[:30])
    full = _plain_scan(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, members)
    assert full >= small


def test_mapping_norm_refinement_only_sharpens(torus3_coarse,
                                               torus3_coarse_dec1):
    members = generate_ensemble(
        torus3_coarse, EnsembleSpec(seed=11, size=30, generator="mixed"),
        dec=torus3_coarse_dec1)
    plain = _plain_scan(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, members)
    sharp = mapping_norm(torus3_coarse_dec1, "H^-1/2", 1.5, 3.0, members)
    assert sharp.estimate >= plain


def test_mapping_norm_singular_and_exponent_guards(torus2, torus2_dec0,
                                                   torus2_members):
    with pytest.raises(ValueError):
        mapping_norm(torus2_dec0, "H^-1/2", 1.5, 3.0, torus2_members)
    dec1 = decompose(torus2, constant_potential(torus2, 1.0))
    with pytest.raises(ValueError):
        mapping_norm(dec1, "H^-1", 1.5, -6.0, torus2_members)  # mu = 2p
    with pytest.raises(ValueError):
        mapping_norm(dec1, "H^-3", 1.5, 3.0, torus2_members)


def test_grad_composite_adjoint_identity(torus2, torus2_dec1):
    """<grad H^(-1/2) u, s>_elements equals <u, pullback(s)>_mass on the
    reference mesh."""
    from sobolab import apply_function, power_multiplier
    rng = np.random.default_rng(19)
    m = torus2.reference
    u = rng.standard_normal(m.num_nodes)
    s = rng.standard_normal((m.grad.num_elements, m.grad.ncomp))
    fwd = power_multiplier(-0.5)
    forward = np.sum(m.grad.weights[:, None]
                     * m.grad.vectors(apply_function(torus2_dec1, fwd, u)) * s)
    back = m.mass_inner(u, apply_function(torus2_dec1, fwd,
                                          m.grad.pullback(s) / m.mass))
    assert forward == pytest.approx(back, rel=1e-10)


def test_refined_inverse_reaches_first_nonzero_eigenvalue(torus2, torus2_dec1):
    """On zero-mean members ||H^-1||_{2->2} is 1/lambda_1; the scan alone falls short."""
    members = generate_ensemble(
        torus2, EnsembleSpec(seed=7, size=40, generator="mixed"),
        dec=torus2_dec1)
    members -= (members @ torus2.mass / torus2.reference.volume)[:, None]
    exact = 1.0 / torus2_dec1.eigenvalues[1]
    plain = _plain_scan(torus2_dec1, "H^-1", 2.0, 2.0, members)
    sharp = mapping_norm(torus2_dec1, "H^-1", 2.0, 2.0, members)
    assert plain < 0.99 * exact
    assert sharp.estimate == pytest.approx(exact, rel=1e-3)


def test_riesz_p2_energy_identity_bound(torus2, torus2_dec1, torus2_members):
    scan = riesz_ratio(torus2_dec1, 2.0, torus2_members)
    assert scan.estimate <= 1.0 + 1e-8


def test_riesz_constant_contributes_zero(torus2, torus2_dec1):
    """A constant's Riesz ratio is roundoff (about 1e-16), and so is grad
    H^-1/2 of it, within VALIDATE_RTOL of grad.bound() times the constant.
    The refinement stops before its first step rather than follow that
    noise (it reached 0.989, 0.969 and 1.22 on these meshes), so the
    estimate is the scan's."""
    cases = [(torus2, 2.0), (build("torus:n=2,res=16"), 2.0),
             (build("sphere:r=1,subdiv=2"), 1.5)]
    for m, p in cases:
        dec = (torus2_dec1 if m is torus2
               else decompose(m, constant_potential(m, 1.0)))
        u = np.ones((1, m.num_nodes))
        scan = _plain_scan(dec, "grad H^-1/2", p, p, u)
        assert scan < 1e-12
        assert riesz_ratio(dec, p, u).estimate == scan


def test_riesz_sphere_mesh_stable():
    ests = []
    for subdiv in (2, 3):
        sph = build(f"sphere:r=1,subdiv={subdiv}")
        dec1 = decompose(sph, constant_potential(sph, 1.0))
        members = generate_ensemble(
            sph, EnsembleSpec(seed=21, size=80, generator="mixed"), dec=dec1)
        ests.append(riesz_ratio(dec1, 1.5, members).estimate)
    assert abs(ests[1] - ests[0]) / ests[0] < 0.25


def test_gradient_bessel_constant_finite(sphere3, sphere3_dec1, sphere3_members):
    c = bessel_equivalence_constants(sphere3_dec1.shifted(-1.0), 0.0, 1.5,
                                     sphere3_members)["gradient_bessel_C"]
    assert 0 < c < math.inf


def test_bessel_equivalence_p2_two_sided(torus2, torus2_dec0, torus2_members):
    eq = bessel_equivalence_constants(torus2_dec0, 1.0, 2.0, torus2_members)
    assert eq["c1_hat"] >= 1.0 / math.sqrt(2.0) - 1e-6
    assert eq["c2_hat"] <= math.sqrt(2.0) + 1e-6
    assert eq["c1_hat"] <= eq["c2_hat"]


def test_bessel_equivalence_a_zero_identity(torus2, torus2_dec0, torus2_members):
    eq = bessel_equivalence_constants(torus2_dec0, 0.0, 1.5, torus2_members)
    assert eq["c1_hat"] == pytest.approx(1.0, rel=1e-9)
    assert eq["c2_hat"] == pytest.approx(1.0, rel=1e-9)


def test_bessel_equivalence_degenerate_ensemble(torus2, torus2_dec0):
    constants = np.ones((4, torus2.num_nodes))
    with pytest.raises(ValueError):
        bessel_equivalence_constants(torus2_dec0, 0.0, 1.5, constants)


def test_bessel_equivalence_measured_finite(torus2, torus2_dec0, torus2_members):
    eq = bessel_equivalence_constants(torus2_dec0, 1.0, 1.5, torus2_members)
    assert 0 < eq["c1_hat"] <= eq["c2_hat"] < math.inf


@pytest.mark.parametrize("check", [
    lambda dec, u: bessel_equivalence_constants(dec.shifted(-1.0), 1.0, 1.5, u),
    lambda dec, u: scaling_transfer_check(dec.manifold, 2.0, 3.0, 1.5, u, dec),
], ids=["bessel_equivalence", "scaling_transfer"])
def test_operator_images_are_measured_one_at_a_time(torus2_fit, torus2_fit_dec1,
                                                    check):
    """Each operator image of a chunk of members is measured and let go
    before the next is formed: the peak is about four chunks, as in the
    contraction check."""
    members = np.random.default_rng(3).standard_normal(
        (200, torus2_fit.num_nodes))
    tracemalloc.start()
    try:
        check(torus2_fit_dec1, members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * CHUNK_BYTES < members.nbytes


def test_scaling_transfer_identity(torus3_coarse, torus3_coarse_dec1):
    members = generate_ensemble(
        torus3_coarse, EnsembleSpec(seed=12, size=40, generator="mixed"),
        dec=torus3_coarse_dec1)
    rep = scaling_transfer_check(torus3_coarse, 1.0, 3.0, 1.5, members,
                                 torus3_coarse_dec1)
    assert rep["violations"] == 0
    assert rep["C_transferred"] == pytest.approx(rep["C_scaled"], rel=1e-12)


def test_scaling_transfer_lambda2(torus3_coarse, torus3_coarse_dec1):
    members = generate_ensemble(
        torus3_coarse, EnsembleSpec(seed=13, size=60, generator="mixed"),
        dec=torus3_coarse_dec1)
    rep = scaling_transfer_check(torus3_coarse, 2.0, 3.0, 1.5, members,
                                 torus3_coarse_dec1)
    assert rep["scaling_error"] < 1e-10
    assert rep["violations"] == 0
    # n = 3, q = 3: the scaled q-norm is exactly 2x the original
    u = members[0]
    from sobolab import lp_norm, scale_metric
    scaled = scale_metric(torus3_coarse, 2.0)
    assert lp_norm(scaled, u, 3.0) == pytest.approx(
        2.0 * lp_norm(torus3_coarse, u, 3.0), rel=1e-12)


def test_scaling_transfer_rejects_shrinking(torus3_coarse, torus3_coarse_dec1,
                                            torus3_members):
    with pytest.raises(ValueError):
        scaling_transfer_check(torus3_coarse, 0.5, 3.0, 1.5,
                               torus3_members[:5], torus3_coarse_dec1)
    with pytest.raises(ValueError, match="Psi = 1"):
        scaling_transfer_check(torus3_coarse, 2.0, 3.0, 1.5, torus3_members[:5],
                               torus3_coarse_dec1.shifted(-1.0))


def test_contraction_witness_is_stable_on_tied_ratios(torus2_fit,
                                                      torus2_fit_dec1):
    """The README heat example (seed 7): positive members and constants all
    contract by exactly e^{-t} in L^1, so the top ratios agree to roundoff
    and a 1-ULP change of the members must not move the witness."""
    m, dec = torus2_fit, torus2_fit_dec1
    members = generate_ensemble(m, EnsembleSpec(seed=7), dec=dec)
    args = (m, dec, [0.01, 0.1, 1.0], [1.0, 2.0, math.inf])
    rep = heat_contraction_check(*args, members)
    nudged = heat_contraction_check(*args, np.nextafter(members, np.inf))
    assert nudged.worst_case == rep.worst_case
    assert (nudged.violations, nudged.cases) == (rep.violations, rep.cases) \
        == (0, 1800)
    assert nudged.worst_ratio == pytest.approx(rep.worst_ratio, rel=1e-14)


def test_refine_starts_from_the_streamed_witness_row(torus3_coarse,
                                                    torus3_coarse_dec1,
                                                    monkeypatch):
    """A MemberStream gives _refine its witness row by drawing the members
    again up to the witness's chunk: the row equals the one the scan
    measured, bit for bit, and so does the estimate a matrix gives."""
    from sobolab import manifold
    from sobolab import semigroup as sg
    from sobolab.constants import MemberStream

    m, dec = torus3_coarse, torus3_coarse_dec1
    monkeypatch.setattr(manifold, "CHUNK_BYTES", 4 * 8 * m.num_nodes)
    spec = EnsembleSpec(seed=12, size=30, generator="mixed")
    members = generate_ensemble(m, spec, dec=dec)
    measure, _ = sg._mapping_scan(dec, "grad H^-1/2", 1.5, 1.5, members)
    witness = _worst_ratio(*measure(members)).witness
    assert witness >= 4  # past the first chunk
    starts, refine = [], sg._refine
    monkeypatch.setattr(sg, "_refine", lambda *args: starts.append(args[-1])
                        or refine(*args))
    streamed = riesz_ratio(dec, 1.5, MemberStream(m, spec, dec))
    assert streamed == riesz_ratio(dec, 1.5, members)
    assert len(starts) == 2
    assert np.array_equal(starts[0], members[witness])
    assert np.array_equal(starts[1], members[witness])
