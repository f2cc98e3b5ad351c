"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not configured elsewhere.  Criteria that carry a
runtime budget time the complete fresh computation inside the test.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sobolab import (EnsembleSpec, alpha_scaling_bound, apply_function, build,
                     bessel_equivalence_constants, chain_constants,
                     check_heat_kernel_bounds, constant_potential, decompose,
                     estimate_sobolev_AB, generate_ensemble,
                     heat_contraction_check, iterate_ladder,
                     mapping_norm, riesz_ratio, scale_metric,
                     scaling_transfer_check, shrinking_sphere_flow,
                     step_constants, tau_closed_form, tau_of_t, track,
                     ultracontractivity_fit, verify_inequality)
from sobolab.bootstrap import p_next
from sobolab.constants import beta_from_sobolev, single_constant_from_pair
from sobolab.norms import grad_lp_norm, lp_norm
from sobolab.reporting import canonical_json


def ok(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_ladder_exactness():
    start = time.perf_counter()
    vals = iterate_ladder(3, 2.0, 200)
    assert vals[1] == pytest.approx(18.0 / 7.0, abs=1e-12)
    assert vals[2] == pytest.approx(float(Fraction(1134, 387)), abs=1e-12)
    arr = np.array(vals)
    assert np.all(arr < 3.0)
    cap = math.nextafter(3.0, 0.0)
    pre = arr[arr < cap]
    assert np.all(np.diff(pre) > 0)       # strictly increasing until saturation
    assert np.all(np.diff(arr) >= 0)
    assert abs(vals[200] - 3.0) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"ladder-exactness ({elapsed * 1e3:.1f} ms)")


def test_02_closed_form_step_constants():
    c1, c2 = step_constants(4, 2.0, 8.0 / 3.0, 1.0, 0.0)
    assert c1 == pytest.approx(8.0, abs=1e-12)
    assert c2 == 0.0
    for n, p0, a, b, target in [(3, 2.0, 1.0, 1.0, 2.9), (3, 2.0, 0.5, 2.0, 2.8),
                                (4, 2.0, 2.0, 0.5, 3.4)]:
        p1 = p_next(n, p0)
        c1a, c2a = step_constants(n, p0, p1, a, b)
        c1b, c2b = step_constants(n, p1, target, c1a, c2a)
        chain = chain_constants(n, p0, a, b, target)
        assert chain.C1 == pytest.approx(c1b, rel=1e-10)
        assert chain.C2 == pytest.approx(c2b, rel=1e-10)
    ok(2, "closed-form-step-constants")


def test_03_alpha_scaling_grid():
    start = time.perf_counter()
    failures = 0
    cases = 0
    targets = {3: (2.5, 2.9), 4: (3.0, 3.7)}
    for n in (3, 4):
        for target in targets[n]:
            for a1 in (0.5, 1.0, 2.0):
                for b1 in (0.5, 1.0, 2.0):
                    for alpha in (1.0, 2.0, 10.0):
                        cases += 1
                        try:
                            alpha_scaling_bound(n, 2.0, target, a1, b1, alpha)
                        except AssertionError:
                            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0 and cases == 108
    assert elapsed < 5.0
    ok(3, f"alpha-scaling-bound ({cases} cases, {elapsed:.2f} s)")


def test_04_spectral_fidelity():
    start = time.perf_counter()
    sph = build("sphere:r=1,subdiv=3")
    assert sph.num_nodes <= 2000
    dec0 = decompose(sph, constant_potential(sph, 0.0))
    w = dec0.eigenvalues
    for ell, lo, hi in [(1, 1, 4), (2, 4, 9), (3, 9, 16)]:
        target = ell * (ell + 1)
        cluster = w[lo:hi]
        assert np.max(np.abs(cluster - target)) / target < 0.02
    assert w[4] - w[3] > 5 * (w[3] - w[1])   # multiplicity clustering
    assert w[9] - w[8] > 5 * (w[8] - w[4])
    dec1 = decompose(sph, constant_potential(sph, 1.0))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(sph.num_nodes)
    twice = apply_function(dec1, np.sqrt, apply_function(dec1, np.sqrt, u))
    once = apply_function(dec1, lambda lam: lam, u)
    assert np.max(np.abs(twice - once)) <= 1e-8 * max(1.0, np.max(np.abs(once)))
    half = apply_function(dec1, np.sqrt, u)
    lhs = sph.mass_inner(half, half)
    rhs = sph.dirichlet_energy(u) + sph.mass_inner(u, u)
    assert lhs == pytest.approx(rhs, rel=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(4, f"spectral-fidelity ({elapsed:.1f} s, {sph.num_nodes} nodes)")


def test_05_heat_semigroup(torus2_fit, torus2_fit_dec1):
    spec = EnsembleSpec(seed=17, size=100, generator="mixed")
    members = generate_ensemble(torus2_fit, spec, dec=torus2_fit_dec1)
    rep = heat_contraction_check(torus2_fit, torus2_fit_dec1,
                                 [0.01, 0.1, 1.0], [1.0, 2.0, math.inf],
                                 members, tol=1e-8)
    assert rep.violations == 0
    fit = ultracontractivity_fit(torus2_fit_dec1, 1e-3, 1e-2)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    ok(5, f"heat-semigroup (worst contraction {rep.worst_ratio:.6f}, "
          f"slope {fit.slope:.3f})")


def test_06_heat_kernel_bound_chain(torus3, torus3_dec1, torus3_members):
    mu = 3.0
    est = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    a_single = single_constant_from_pair(est, torus3.volume, torus3.dim)
    quad_tau = tau_of_t(0.1, lambda s: beta_from_sobolev(a_single, mu, s))
    closed = tau_closed_form(0.1, a_single, mu)
    assert quad_tau == pytest.approx(closed, rel=1e-6)
    tau = lambda t: tau_closed_form(t, a_single, mu)
    rep = check_heat_kernel_bounds(torus3, torus3_dec1, tau, [0.05, 0.1, 0.5],
                                   torus3_members[:100])
    assert rep.violations == 0
    ok(6, f"heat-kernel-bound-chain (worst ratio {rep.worst_ratio:.4f})")


def test_07_end_to_end_bootstrap(torus2_unit, torus2_unit_dec1, torus3,
                                 torus3_dec1, torus3_members):
    spec = EnsembleSpec(seed=42, size=200, generator="mixed")
    members2 = generate_ensemble(torus2_unit, spec, dec=torus2_unit_dec1)
    est2 = estimate_sobolev_AB(torus2_unit, 1.2, members2)
    chain2 = chain_constants(2, 1.2, est2.A_est, est2.B_est, 1.5)
    rep2 = verify_inequality(torus2_unit, 1.5, chain2.C1, chain2.C2, members2)
    assert rep2.violations == 0

    est3 = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    chain3 = chain_constants(3, 2.0, est3.A_est, est3.B_est, 2.5)
    rep3 = verify_inequality(torus3, 2.5, chain3.C1, chain3.C2, torus3_members)
    assert rep3.violations == 0
    ok(7, f"end-to-end-bootstrap (worst ratios {rep2.worst_ratio:.3f}, "
          f"{rep3.worst_ratio:.3f})")


def test_08_scaling_laws(torus3_coarse, torus3_coarse_dec1):
    spec = EnsembleSpec(seed=23, size=60, generator="mixed")
    members = generate_ensemble(torus3_coarse, spec, dec=torus3_coarse_dec1)
    n = torus3_coarse.dim
    for lam in (1.0, 2.0, 10.0):
        scaled = scale_metric(torus3_coarse, lam)
        for u in members[:20]:
            for q in (1.0, 1.5, 2.0, 3.0):
                got = lp_norm(scaled, u, q)
                want = lam ** (n / q) * lp_norm(torus3_coarse, u, q)
                assert got == pytest.approx(want, rel=1e-10)
            got = grad_lp_norm(scaled, u, 1.5)
            want = lam ** (n / 1.5 - 1.0) * grad_lp_norm(torus3_coarse, u, 1.5)
            assert got == pytest.approx(want, rel=1e-10)
    worst = -np.inf
    for lam in (1.0, 2.0):
        rep = scaling_transfer_check(torus3_coarse, lam, 3.0, 1.5, members,
                                     torus3_coarse_dec1)
        assert rep["violations"] == 0
        worst = max(worst, rep["worst_ratio"])
    ok(8, f"scaling-laws (transfer worst ratio {worst:.3f})")


def test_09_mapping_norms(torus3, torus3_dec1, torus3_coarse,
                          torus3_coarse_dec1):
    spec = EnsembleSpec(seed=42, size=200, generator="mixed")
    scans = {}
    for label, m, dec in (("res10", torus3_coarse, torus3_coarse_dec1),
                          ("res14", torus3, torus3_dec1)):
        members = generate_ensemble(m, spec, dec=dec)
        scans[label, "half"] = mapping_norm(dec, "H^-1/2", 1.5, 3.0,
                                            members).estimate
        scans[label, "full"] = mapping_norm(dec, "H^-1", 1.2, 6.0,
                                            members).estimate
    for op in ("half", "full"):
        lo, hi = scans["res10", op], scans["res14", op]
        assert math.isfinite(lo) and math.isfinite(hi) and lo > 0
        assert abs(hi - lo) / lo < 0.25
    members14 = generate_ensemble(torus3, spec, dec=torus3_dec1)
    riesz = riesz_ratio(torus3_dec1, 2.0, members14)
    assert riesz.estimate <= 1.0 + 1e-8
    ok(9, f"mapping-norms (H^-1/2 {scans['res10', 'half']:.3f}->"
          f"{scans['res14', 'half']:.3f}, H^-1 {scans['res10', 'full']:.3f}->"
          f"{scans['res14', 'full']:.3f}, riesz@2 {riesz.estimate:.4f})")


def test_10_bessel_equivalence(torus2, torus2_dec0, torus2_members):
    eq = bessel_equivalence_constants(torus2_dec0, 1.0, 2.0, torus2_members)
    assert eq["c1_hat"] >= 1.0 / math.sqrt(2.0) - 1e-6
    assert eq["c2_hat"] <= math.sqrt(2.0) + 1e-6
    ok(10, f"bessel-equivalence (c1 {eq['c1_hat']:.4f}, c2 {eq['c2_hat']:.4f})")


def test_11_flow_tracking():
    start = time.perf_counter()
    flow = shrinking_sphere_flow(r0=1.0, subdiv=3, t_max=0.45)
    times = np.arange(0.0, 0.401, 0.05)
    spec = EnsembleSpec(seed=7, size=100, generator="mixed")
    traj = track(flow, times, "a2", 1.5, spec, p0=1.2)
    mesh_ratio = flow.base.volume / (4 * np.pi)
    assert abs(mesh_ratio - 1.0) < 0.01
    for rec in traj.records:
        t = rec["t"]
        assert rec["vol"] == pytest.approx(4 * np.pi * (1 - 2 * t), rel=0.01)
        assert rec["r_max_plus"] == pytest.approx(2.0 / (1.0 - 2.0 * t),
                                                  rel=0.01)
        assert rec["kappa"] == 0.0
        assert rec["lambda0"] == pytest.approx(1.0 / (2.0 * (1.0 - 2.0 * t)),
                                               abs=1e-4)
        assert rec["violations"] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    ok(11, f"flow-tracking ({elapsed:.1f} s, worst ratio "
           f"{traj.worst_ratio:.2e})")


def test_12_determinism(torus2, torus2_dec1):
    spec = EnsembleSpec(seed=31, size=80, generator="mixed")
    runs = []
    for _ in range(2):
        members = generate_ensemble(torus2, spec, dec=torus2_dec1)
        est = estimate_sobolev_AB(torus2, 1.2, members)
        scan = mapping_norm(torus2_dec1, "H^-1/2", 1.2, 1.5, members)
        runs.append(canonical_json({"estimate": est, "scan": scan}))
    assert runs[0] == runs[1]
    ok(12, "determinism (byte-identical reruns)")
