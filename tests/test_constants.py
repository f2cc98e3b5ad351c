import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import sobolab
from sobolab import constants as ct
from sobolab import (EnsembleSpec, SpectralDecomposition, beta_from_sobolev,
                     build, constant_potential, decompose,
                     entropy, estimate_single_A, estimate_sobolev_AB,
                     generate_ensemble, lp_norm, measure_log_sobolev_beta,
                     scale_metric, tau_closed_form, tau_of_t,
                     ultracontractivity_constant, verify_inequality)
from sobolab.constants import (LogSobolevProfile, derived_profile,
                               single_constant_from_pair)


def test_ensemble_bit_identical(torus2, torus2_dec1):
    spec = EnsembleSpec(seed=123, size=30, generator="mixed")
    a = generate_ensemble(torus2, spec, dec=torus2_dec1)
    b = generate_ensemble(torus2, spec, dec=torus2_dec1)
    assert np.array_equal(a, b)


def test_ensemble_requires_decomposition_for_spectral_kinds(torus2):
    with pytest.raises(ValueError):
        generate_ensemble(torus2, EnsembleSpec(seed=1, size=5,
                                               generator="band-limited"))


def test_estimate_feasible_and_reproducible(torus2, torus2_dec1, torus2_members):
    est = estimate_sobolev_AB(torus2, 1.2, torus2_members)
    assert est.max_ratio <= 1.0 + 1e-9
    assert est.B_est >= 1.0  # forced by constant members on any volume
    again = estimate_sobolev_AB(torus2, 1.2, torus2_members)
    assert (est.A_est, est.B_est) == (again.A_est, again.B_est)


def test_estimate_base_exponent_one(torus2, torus2_members):
    est = estimate_sobolev_AB(torus2, 1.0, torus2_members)
    assert est.target_exponent == pytest.approx(2.0)
    assert est.max_ratio <= 1.0 + 1e-9


def test_estimate_rejects_bad_input(torus2, torus2_members):
    with pytest.raises(ValueError):
        estimate_sobolev_AB(torus2, 2.0, torus2_members)  # p = n
    with pytest.raises(ValueError):
        estimate_sobolev_AB(torus2, 1.2, torus2_members[:0])
    with pytest.raises(ValueError, match="empty B grid"):
        estimate_sobolev_AB(torus2, 1.2, torus2_members, b_grid=())
    # a negative B is no pair verify accepts, so estimate never reports one
    for b_grid in ((-1.0,), (1.0, -0.5), (float("nan"),)):
        with pytest.raises(ValueError, match="B >= 0"):
            estimate_sobolev_AB(torus2, 1.2, torus2_members, b_grid=b_grid)


def test_constant_member_forces_B_at_least_one(torus2_unit):
    u = np.ones((1, torus2_unit.num_nodes))
    assert estimate_sobolev_AB(torus2_unit, 1.2, u, b_grid=(1.0,)).A_est == 0.0
    with pytest.raises(ValueError, match="no feasible"):
        estimate_sobolev_AB(torus2_unit, 1.2, u, b_grid=(0.5,))


def test_min_feasible_A_monotone_in_ensemble(torus2, torus2_members):
    half = torus2_members[:100]
    a_half = estimate_sobolev_AB(torus2, 1.2, half, b_grid=(1.0,)).A_est
    a_full = estimate_sobolev_AB(torus2, 1.2, torus2_members, b_grid=(1.0,)).A_est
    assert a_full >= a_half


def test_single_constant_merge(torus3, torus3_members):
    est = estimate_sobolev_AB(torus3, 2.0, torus3_members)
    merged = single_constant_from_pair(est, torus3.volume, torus3.dim)
    assert merged == max(est.A_est, est.B_est / torus3.volume ** (2.0 / 3.0))


def test_entropy_jensen_floor_unit_volume(torus2_unit, torus2_unit_dec1):
    spec = EnsembleSpec(seed=2, size=40, generator="mixed")
    members = generate_ensemble(torus2_unit, spec, dec=torus2_unit_dec1)
    members /= lp_norm(torus2_unit, members, 2.0)[:, None]
    # on unit volume, int u^2 ln u^2 >= 0 for every unit-L2 member
    for u in members:
        assert entropy(torus2_unit, u) >= -1e-10
    # the flat member attains -ln vol exactly
    flat = np.full(torus2_unit.num_nodes, torus2_unit.volume ** -0.5)
    assert entropy(torus2_unit, flat) == pytest.approx(
        -math.log(torus2_unit.volume), abs=1e-12)


def test_measured_beta_nonincreasing(torus2_unit, torus2_unit_dec1):
    spec = EnsembleSpec(seed=3, size=60, generator="mixed")
    members = generate_ensemble(torus2_unit, spec, dec=torus2_unit_dec1)
    members /= lp_norm(torus2_unit, members, 2.0)[:, None]
    grid = np.geomspace(1e-3, 2.0, 20)
    prof = measure_log_sobolev_beta(torus2_unit,
                                    constant_potential(torus2_unit, 1.0),
                                    grid, members)
    assert np.all(np.diff(prof.beta_values) <= 1e-12)


def test_measure_rejects_unnormalized(torus2):
    grid = np.array([0.1, 1.0])
    members = 2.0 * np.ones((1, torus2.num_nodes))
    with pytest.raises(ValueError):
        measure_log_sobolev_beta(torus2, constant_potential(torus2, 1.0),
                                 grid, members)


def test_beta_closed_form_values():
    assert beta_from_sobolev(1.0, 2.0, 1.0) == pytest.approx(-1.0, abs=1e-14)
    b1 = beta_from_sobolev(1.0, 3.0, 0.5)
    b2 = beta_from_sobolev(1.0, 3.0, 1.0)
    assert b1 - b2 == pytest.approx((3.0 / 2.0) * math.log(2.0), rel=1e-12)
    a1 = beta_from_sobolev(math.e * 2.0, 3.0, 1.0)
    a2 = beta_from_sobolev(2.0, 3.0, 1.0)
    assert a1 - a2 == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(ValueError):
        beta_from_sobolev(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        beta_from_sobolev(1.0, 2.0, 0.0)


def test_tau_closed_form_mu2_A1():
    for t in (0.01, 0.1, 1.0):
        assert tau_closed_form(t, 1.0, 2.0) == pytest.approx(
            -0.5 * math.log(t), abs=1e-12)


def test_tau_constant_beta():
    assert tau_of_t(0.4, lambda s: 3.25) == pytest.approx(3.25 / 2.0, rel=1e-10)


def test_tau_quadrature_matches_closed_form():
    mu, a, t = 3.0, 2.0, 0.1
    quad_val = tau_of_t(t, lambda s: beta_from_sobolev(a, mu, s))
    assert quad_val == pytest.approx(tau_closed_form(t, a, mu), rel=1e-6)


@pytest.mark.parametrize("mu, a, t", [(3.0, 2.0, 0.1), (3.0, 0.18, 0.1),
                                      (2.5, 0.25, 1e-3), (3.0, 0.5, 5.0)])
def test_tau_gauss_legendre_rule_is_near_exact(mu, a, t):
    """The fixed rule after sigma = t v^6 integrates the logarithmic beta
    to roundoff, well inside the 1e-6 the chain checks ask for."""
    got = tau_of_t(t, lambda s: beta_from_sobolev(a, mu, s))
    assert got == pytest.approx(tau_closed_form(t, a, mu), rel=1e-12)


def test_tau_of_a_profile_integrates_its_interpolant_exactly():
    """beta held at 4 below sigma = 1, linear through (1, 4), (2, 2), (3, 3)
    and held at 3 above: int_0^2.5 = 4 + 3 + 1.125 = 8.125, and past the grid
    the held value adds 3 per unit."""
    prof = LogSobolevProfile(np.array([1.0, 2.0, 3.0]),
                             np.array([4.0, 2.0, 3.0]))
    assert tau_of_t(2.5, prof) == pytest.approx(8.125 / 5.0, rel=1e-15)
    assert tau_of_t(4.0, prof) == pytest.approx(12.5 / 8.0, rel=1e-15)
    assert tau_of_t(0.5, prof) == pytest.approx(2.0, rel=1e-15)


def test_tau_respects_sigma_star():
    with pytest.raises(ValueError):
        tau_of_t(2.0, lambda s: 1.0, sigma_star=1.0)
    with pytest.raises(ValueError):
        tau_of_t(-1.0, lambda s: 1.0)


def test_tau_from_measured_profile(torus2_unit, torus2_unit_dec1):
    spec = EnsembleSpec(seed=4, size=30, generator="mixed")
    members = generate_ensemble(torus2_unit, spec, dec=torus2_unit_dec1)
    members /= lp_norm(torus2_unit, members, 2.0)[:, None]
    grid = np.geomspace(1e-4, 1.0, 30)
    prof = measure_log_sobolev_beta(torus2_unit,
                                    constant_potential(torus2_unit, 1.0),
                                    grid, members)
    val = tau_of_t(0.5, prof)
    assert math.isfinite(val)


def test_ultracontractivity_constant_values():
    assert ultracontractivity_constant(1.0, 2.0)["c"] == pytest.approx(1.0)
    assert ultracontractivity_constant(1.0, 2.0)["exponent"] == 0.5
    assert (ultracontractivity_constant(2.0, 3.0)["c"]
            > ultracontractivity_constant(1.0, 3.0)["c"])
    expected = 2.0 * math.sqrt(math.e)  # A0 = 2 ln 2 - 1 at mu=4, A=1
    assert ultracontractivity_constant(1.0, 4.0)["c"] == pytest.approx(
        expected, rel=1e-12)


def test_verify_tautological_estimate(torus2, torus2_members):
    est = estimate_sobolev_AB(torus2, 1.2, torus2_members)
    rep = verify_inequality(torus2, 1.2, est.A_est, est.B_est, torus2_members)
    assert rep.violations == 0
    assert rep.worst_ratio <= 1.0 + 1e-9


def test_verify_reports_halved_A(torus2, torus2_members):
    est = estimate_sobolev_AB(torus2, 1.2, torus2_members)
    rep = verify_inequality(torus2, 1.2, est.A_est / 2, est.B_est / 2,
                            torus2_members)
    # reported, not asserted: a rich ensemble is expected to expose this
    assert rep.worst_ratio > 1.0
    assert 0 <= rep.witness < len(torus2_members)


def test_verify_invariant_under_metric_scaling(torus2, torus2_members):
    """The vol^{p/n} convention makes constants scale-invariant."""
    est = estimate_sobolev_AB(torus2, 1.2, torus2_members)
    rep = verify_inequality(torus2, 1.2, est.A_est, est.B_est, torus2_members)
    scaled = scale_metric(torus2, 2.0)
    rep_scaled = verify_inequality(scaled, 1.2, est.A_est, est.B_est,
                                   torus2_members)
    assert rep_scaled.worst_ratio == pytest.approx(rep.worst_ratio, rel=1e-9)
    assert rep_scaled.violations == rep.violations


def test_chain_consistency_measured_beta_below_derived(torus2_unit,
                                                       torus2_unit_dec1):
    """Measured entropy profile sits under the Sobolev-derived profile."""
    mu = 4.0
    spec = EnsembleSpec(seed=11, size=100, generator="mixed")
    members = generate_ensemble(torus2_unit, spec, dec=torus2_unit_dec1)
    members /= lp_norm(torus2_unit, members, 2.0)[:, None]
    psi = constant_potential(torus2_unit, 1.0)
    a_single = estimate_single_A(torus2_unit, mu, members, psi)
    grid = np.geomspace(1e-3, 1.0, 25)
    measured = measure_log_sobolev_beta(torus2_unit, psi, grid, members)
    derived = derived_profile(a_single, mu, grid)
    assert np.all(measured.beta_values <= derived.beta_values + 1e-6)


def test_profile_validation():
    with pytest.raises(ValueError):
        LogSobolevProfile(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        LogSobolevProfile(np.array([0.5, 1.0]), np.array([np.inf, 0.0]))


def test_estimate_single_A_requires_positive_energy(torus2_unit):
    members = np.ones((1, torus2_unit.num_nodes))
    psi0 = constant_potential(torus2_unit, 0.0)
    with pytest.raises(ValueError):
        estimate_single_A(torus2_unit, 4.0, members, psi0)


_THREADED_ENSEMBLES = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from sobolab import EnsembleSpec, build, constant_potential, decompose, generate_ensemble
out = {}
for text in sys.argv[3:]:
    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    out[text] = generate_ensemble(m, EnsembleSpec(seed=31, size=80), dec=dec)
np.savez(sys.argv[2], **out)
"""


def test_ensembles_agree_across_blas_thread_counts(tmp_path):
    """Spectral members project noise onto whole eigenvalue clusters, so the
    solver's basis inside a degenerate eigenspace (which LAPACK picks
    differently at different thread counts) does not reach them."""
    src = str(Path(sobolab.__file__).resolve().parents[1])
    models = ["sphere:r=1,subdiv=3", "torus:n=2,res=32", "box:n=2,res=16"]
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADED_ENSEMBLES, src,
                        str(path), *models], env=env, check=True)
        runs.append(np.load(path))
    for text in models:
        a, b = runs[0][text], runs[1][text]
        assert np.all(np.max(np.abs(a - b), axis=1)
                      <= 1e-9 * np.max(np.abs(b), axis=1)), text


@pytest.mark.parametrize("text", ["torus:n=2,res=8", "sphere:r=1,subdiv=1"])
def test_spectral_members_leave_the_bump_stream_alone(text):
    """Spectral members draw their node noise (N values, so a mesh-dependent
    count) from child generators: the bumps of a mixed ensemble are the
    bumps-only ensemble's members, whatever the mesh."""
    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    mixed = generate_ensemble(m, EnsembleSpec(seed=4, size=9), dec=dec)
    bumps = generate_ensemble(m, EnsembleSpec(seed=4, size=3, generator="bumps"))
    assert np.array_equal(mixed[1::3], bumps)


# Reference: the member-at-a-time construction that generate_ensemble
# replaced.  Each spectral member took its own coefficient and synthesis
# product over the leading eigenvector columns, and each bump member read
# the bounding box and summed its wrapped squared distances node by node.

def _reference_bump(m, rng):
    count = 1 + int(rng.integers(0, ct.BUMP_COUNT))
    lo = m.points.min(axis=0)
    span = m.points.max(axis=0) - lo
    diam = float(np.linalg.norm(span)) or 1.0
    u = np.zeros(m.num_nodes)
    for _ in range(ct.BUMP_COUNT):
        frac = rng.random(m.points.shape[1])
        width = diam * (0.03 + 0.17 * rng.random())
        amp = rng.standard_normal()
        if count > 0:
            d = m.points - (lo + frac * span)[None, :]
            if m.periods is not None:
                per = np.asarray(m.periods)[None, :]
                d = d - per * np.round(d / per)
            u += amp * np.exp(-np.sum(d * d, axis=1) / (2.0 * width ** 2))
        count -= 1
    return u


def _reference_mass_noise(dec, rng, k):
    xi = rng.standard_normal(dec.manifold.num_nodes)
    return (xi * np.sqrt(dec.manifold.mass)) @ dec.basis.columns(k)


def _reference_band_limited(dec, rng):
    bounds = dec.cluster_bounds()
    k = bounds[np.searchsorted(bounds, min(ct.SPECTRAL_MODES, bounds[-1]))]
    weights = (1.0 + dec.eigenvalues[:k]) ** (-ct.BAND_DECAY / 2.0)
    return dec.basis.columns(k) @ (_reference_mass_noise(dec, rng, k) * weights)


def _reference_eigen_mix(dec, rng):
    bounds = dec.cluster_bounds()
    count = np.searchsorted(bounds[:-1], min(ct.SPECTRAL_MODES, bounds[-1]))
    picked = rng.integers(0, count, size=3)
    k = bounds[picked.max() + 1]
    keep = np.zeros(k)
    for c in picked:
        keep[bounds[c]:bounds[c + 1]] = 1.0
    return dec.basis.columns(k) @ (_reference_mass_noise(dec, rng, k) * keep)


def _reference_ensemble(m, spec, dec):
    rng = np.random.default_rng(spec.seed)
    members = np.empty((spec.size, m.num_nodes))
    for i in range(spec.size):
        kind = (("band-limited", "bumps", "eigen-mix")[i % 3]
                if spec.generator == "mixed" else spec.generator)
        if kind == "bumps":
            u = _reference_bump(m, rng)
        elif kind == "band-limited":
            u = _reference_band_limited(dec, rng.spawn(1)[0])
        else:
            u = _reference_eigen_mix(dec, rng.spawn(1)[0])
        members[i] = u if np.any(u) else np.ones(m.num_nodes)
    return members


@pytest.mark.parametrize("text", ["torus:n=3,res=8", "sphere:r=1,subdiv=2",
                                  "box:n=2,res=16"])
def test_ensemble_matches_member_at_a_time_reference(text, monkeypatch):
    """One projection of all spectral members gives the reference's members:
    bumps bit for bit, spectral members up to the order of the sums, with
    one cluster_bounds call per ensemble."""
    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    specs = [EnsembleSpec(seed, 31, gen)
             for gen in ct.GENERATORS for seed in (3, 17)]
    expected = [_reference_ensemble(m, spec, dec) for spec in specs]
    bounds, calls = SpectralDecomposition.cluster_bounds, []

    def counting(self):
        calls.append(self)
        return bounds(self)

    monkeypatch.setattr(SpectralDecomposition, "cluster_bounds", counting)
    for spec, want in zip(specs, expected):
        del calls[:]
        got = generate_ensemble(m, spec, dec=dec)
        assert len(calls) == (spec.generator != "bumps"), spec
        for i, (a, b) in enumerate(zip(got, want)):
            if spec.generator == "bumps" or (spec.generator == "mixed"
                                             and i % 3 == 1):
                assert np.array_equal(a, b), (spec, i)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (spec, i)


def test_worst_ratio_witness_is_the_earliest_tie():
    top = 1.0 + 4e-15
    worst = ct._worst_ratio([0.5, 1.0, top, 1.0 - 1e-9], [1.0, 1.0, 1.0, 1.0])
    assert (worst.ratio, worst.witness) == (top, 1)  # the maximum, tied earlier
    worst = ct._worst_ratio([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])  # two inf ratios
    assert (worst.ratio, worst.witness, worst.used) == (math.inf, 1, 3)
    worst = ct._worst_ratio([-2.0, -1.0 - 1e-13, -1.0], [1.0, 1.0, 1.0])
    assert (worst.ratio, worst.witness) == (-1.0, 1)
    assert ct._worst_ratio([0.0], [0.0]) == (-math.inf, -1, 0, 0)


def test_estimate_is_homogeneous_in_each_member(torus2, torus2_members):
    """Every term of the two-term form is p-homogeneous in u, so scaling each
    member by its own factor (down to values near 1e-12, where a fixed
    absolute floor once made a bump look gradient-free) moves no estimate."""
    factors = 10.0 ** np.random.default_rng(4).uniform(
        -12, 6, len(torus2_members))
    factors[:3] = 1e-12, 1e6, 1.0
    for p in (1.2, 1.5):
        want = estimate_sobolev_AB(torus2, p, torus2_members)
        got = estimate_sobolev_AB(torus2, p, factors[:, None] * torus2_members)
        assert got.B_est == want.B_est
        assert got.A_est == pytest.approx(want.A_est, rel=1e-12, abs=0.0)
        assert got.max_ratio == pytest.approx(want.max_ratio, rel=1e-12)


@pytest.mark.parametrize("text", ["torus:n=2,res=8", "sphere:r=1,subdiv=1",
                                  "box:n=2,res=6"])
def test_streamed_members_do_not_depend_on_the_chunk_size(text, monkeypatch):
    """The stream draws the same members in one-row chunks as in one chunk
    of every row: bumps bit for bit, spectral members up to the order of
    the projection's sums; each chunk has the rows _chunks gives it."""
    from sobolab import manifold

    m = build(text)
    dec = decompose(m, constant_potential(m, 1.0))
    spec = EnsembleSpec(seed=8, size=10)
    drawn = {}
    for rows in (1, spec.size):
        monkeypatch.setattr(manifold, "CHUNK_BYTES", rows * 8 * m.num_nodes)
        chunks = list(ct.MemberStream(m, spec, dec))
        assert [len(c) for c in chunks] == [rows] * (spec.size // rows)
        drawn[rows] = np.concatenate(chunks)
    one, whole = drawn[1], drawn[spec.size]
    assert np.array_equal(one[1::3], whole[1::3])  # bumps
    spectral = np.arange(spec.size) % 3 != 1
    assert np.max(np.abs(one[spectral] - whole[spectral])) <= 1e-12 * np.max(
        np.abs(whole[spectral]))


def _heat_grid_stream(m, dec, before=None):
    """The 200 members of seed 1 as a MemberStream; before(k), when given,
    runs after chunk k is drawn and before it is yielded."""
    class Stream(ct.MemberStream):
        def __iter__(self):
            for k, chunk in enumerate(super().__iter__()):
                before(k)
                yield chunk
    spec = EnsembleSpec(seed=1, size=200)
    return (ct.MemberStream if before is None else Stream)(m, spec, dec)


def test_sweep_draws_ahead_with_the_values_of_a_serial_pass(torus2_fit,
                                                            torus2_fit_dec1):
    """The next chunk of a stream is drawn while the current one is
    measured, and every value is the one a serial loop over the same
    chunks, and _sweep of the same members as a matrix, give; no thread
    outlives the sweep."""
    from sobolab import semigroup as sg

    m, dec = torus2_fit, torus2_fit_dec1
    stream = _heat_grid_stream(m, dec)
    measures = [sg._contraction_scan(m, dec, [0.01, 0.1, 1.0],
                                     [1.0, 2.0, math.inf])[0],
                ct._sobolev_measure(m, (1.5,))]
    threads = threading.active_count()
    got = ct._sweep(stream, *measures)
    assert threading.active_count() == threads
    chunks = list(stream)
    assert len(chunks) == 5
    serial = [[np.concatenate(v, axis=-1)
               for v in zip(*(measure(c) for c in chunks))]
              for measure in measures]
    matrix = ct._sweep(generate_ensemble(m, stream.spec, dec), *measures)
    for values in zip(got, serial, matrix):
        for a, b, c in zip(*values):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def _overflow(k):
    if k == 2:
        np.array([1e308]) * 10.0


@pytest.mark.parametrize("fault, errstate, error", [
    (lambda k: 1 / (k - 2), {}, ZeroDivisionError),
    pytest.param(_overflow, {"over": "raise"}, FloatingPointError,
                 marks=pytest.mark.skipif(
                     np.lib.NumpyVersion(np.__version__) < "2.0.0",
                     reason="errstate is per thread before numpy 2")),
    (_overflow, {}, RuntimeWarning),
], ids=["exception", "caller-errstate", "warning-as-error"])
def test_an_error_in_the_draw_reaches_the_caller(torus2_fit, torus2_fit_dec1,
                                                 fault, errstate, error):
    """What the draw of a later chunk raises on the worker thread is raised
    in the caller: the draw runs under the caller's numpy errstate and
    warning filters, and no thread outlives the sweep."""
    stream = _heat_grid_stream(torus2_fit, torus2_fit_dec1, fault)
    threads = threading.active_count()
    with warnings.catch_warnings(), np.errstate(**errstate):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            ct._sweep(stream, lambda rows: (rows[:, 0],))
    assert threading.active_count() == threads


def test_an_error_in_a_measure_stops_the_draw(torus2_fit, torus2_fit_dec1):
    """A measure that raises on the first chunk leaves the second, drawn
    meanwhile, as the last chunk drawn; the error reaches the caller and
    no thread outlives the sweep."""
    drawn = []
    stream = _heat_grid_stream(torus2_fit, torus2_fit_dec1, drawn.append)

    def measure(rows):
        raise KeyError("measure")
    threads = threading.active_count()
    with pytest.raises(KeyError, match="measure"):
        ct._sweep(stream, measure)
    assert threading.active_count() == threads
    assert drawn == [0, 1]


def test_a_row_and_a_member_matrix_start_no_draw_thread(torus2_fit,
                                                        torus2_fit_dec1,
                                                        monkeypatch):
    """_row draws a stream serially up to its chunk, and a member matrix's
    chunks are slices: neither draws on a worker thread."""
    stream = _heat_grid_stream(torus2_fit, torus2_fit_dec1)
    members = generate_ensemble(torus2_fit, stream.spec, torus2_fit_dec1)

    def refuse(chunks):
        raise AssertionError("a draw thread was started")
    monkeypatch.setattr(ct, "_NextChunk", refuse)
    assert np.array_equal(ct._row(stream, 150), members[150])
    values, = ct._sweep(members, lambda rows: (rows[:, 7],))
    assert np.array_equal(values[0], members[:, 7])
