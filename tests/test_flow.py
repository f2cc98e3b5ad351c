from dataclasses import replace

import numpy as np
import pytest

from sobolab import (EnsembleSpec, HypothesisError, apply_function,
                     constant_potential, decompose, gamma_integral,
                     generate_ensemble, geometric_summary, grad_lp_norm,
                     lp_norm, metric_at, shrinking_sphere_flow, track,
                     verify_inequality)
from sobolab import flow as flow_module
from sobolab.bootstrap import chain_constants
from sobolab.constants import RELATIVE_SLACK, _worst_ratio
from sobolab.flow import SELECTORS, ExactFlow, parse_flow_spec, scale_factor
from sobolab.manifold import build, scale_metric


@pytest.fixture(scope="module")
def sphere_flow():
    return shrinking_sphere_flow(r0=1.0, subdiv=3, t_max=0.45)


@pytest.fixture(scope="module")
def torus_flow():
    return parse_flow_spec("torus:n=3,res=8", t_max=1.0)


def test_metric_at_zero_is_base(sphere_flow):
    assert metric_at(sphere_flow, 0.0) is sphere_flow.base


def test_sphere_quarter_time_closed_form(sphere_flow):
    m = metric_at(sphere_flow, 0.25)
    mesh_ratio = sphere_flow.base.volume / (4 * np.pi)
    assert m.volume == pytest.approx(2 * np.pi * mesh_ratio, rel=1e-12)
    assert np.allclose(m.scalar_curvature, 4.0)


def test_static_torus_is_constant(torus_flow):
    m0 = metric_at(torus_flow, 0.0)
    m1 = metric_at(torus_flow, 0.7)
    assert m0 is m1  # identity scaling returns the same object


def test_flow_consistency_field_by_field(sphere_flow):
    t = 0.3
    direct = metric_at(sphere_flow, t)
    rescaled = scale_metric(metric_at(sphere_flow, 0.0), scale_factor(sphere_flow, t))
    assert np.allclose(direct.mass, rescaled.mass, rtol=1e-12)
    assert np.allclose(direct.stiffness.toarray(), rescaled.stiffness.toarray(),
                       rtol=1e-12)
    assert np.allclose(direct.scalar_curvature, rescaled.scalar_curvature,
                       rtol=1e-12)
    assert np.allclose(direct.grad.weights, rescaled.grad.weights, rtol=1e-12)


def test_horizon_validation():
    with pytest.raises(ValueError):
        shrinking_sphere_flow(r0=1.0, subdiv=2, t_max=0.5)  # singular time
    flow = shrinking_sphere_flow(r0=1.0, subdiv=2, t_max=0.4)
    with pytest.raises(ValueError):
        metric_at(flow, 0.41)
    with pytest.raises(ValueError):
        metric_at(flow, -0.1)


def _lambda0_series(flow, times, p, selector):
    spec = EnsembleSpec(seed=3, size=5, generator="mixed")
    traj = track(flow, times, selector, p, spec)
    return [rec["lambda0"] for rec in traj.records]


def test_lambda0_series_closed_forms(sphere_flow, torus_flow):
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    series = _lambda0_series(sphere_flow, times, 1.5, "d2")
    assert len(series) == len(times)
    for t, lam in zip(times, series):
        assert lam == pytest.approx(1.0 / (2.0 * (1.0 - 2.0 * t)), abs=1e-6)
    assert all(a < b for a, b in zip(series, series[1:]))  # increasing here
    flat = _lambda0_series(torus_flow, [0.0, 0.5, 1.0], 2.5, "d3")
    assert np.allclose(flat, 0.0, atol=1e-9)


def test_track_a2_shrinking_sphere(sphere_flow):
    times = np.arange(0.0, 0.401, 0.05)
    spec = EnsembleSpec(seed=7, size=80, generator="mixed")
    traj = track(sphere_flow, times, "a2", 1.5, spec, p0=1.2)
    assert traj.total_violations == 0
    assert traj.worst_ratio <= 1.0 + 1e-9
    mesh_ratio = sphere_flow.base.volume / (4 * np.pi)
    for rec in traj.records:
        t = rec["t"]
        assert rec["vol"] == pytest.approx(4 * np.pi * (1 - 2 * t) * mesh_ratio,
                                           rel=1e-12)
        assert rec["r_max_plus"] == pytest.approx(2.0 / (1.0 - 2.0 * t), rel=1e-12)
        assert rec["kappa"] == 0.0
        assert rec["bracket"] == pytest.approx(
            (2.0 / (1.0 - 2.0 * t) + 1.0) * rec["vol"], rel=1e-12)


def test_track_hypothesis_error_on_flat_start(torus_flow):
    spec = EnsembleSpec(seed=3, size=10, generator="mixed")
    with pytest.raises(HypothesisError):
        track(torus_flow, [0.0, 0.5], "a2", 2.5, spec)
    with pytest.raises(HypothesisError):
        track(torus_flow, [0.0, 0.5], "d2", 2.5, spec)


def test_track_static_torus_records_identical(torus_flow):
    spec = EnsembleSpec(seed=3, size=40, generator="mixed")
    for sel in ("a3", "b3", "d3", "e3"):
        traj = track(torus_flow, [0.0, 0.5, 1.0], sel, 2.5, spec)
        assert traj.total_violations == 0
        ratios = [r["worst_ratio"] for r in traj.records]
        assert max(ratios) - min(ratios) < 1e-12


def test_track_sphere_other_families(sphere_flow):
    spec = EnsembleSpec(seed=5, size=40, generator="mixed")
    for sel in ("b2", "d2", "e2"):
        traj = track(sphere_flow, [0.0, 0.2, 0.4], sel, 1.5, spec, p0=1.2)
        assert traj.total_violations == 0, sel


def test_track_validates_inputs(sphere_flow):
    spec = EnsembleSpec(seed=5, size=5, generator="mixed")
    with pytest.raises(ValueError):
        track(sphere_flow, [0.1, 0.1], "a2", 1.5, spec, p0=1.2)
    with pytest.raises(ValueError):
        track(sphere_flow, [], "a2", 1.5, spec, p0=1.2)
    with pytest.raises(ValueError):
        track(sphere_flow, [0.0], "z9", 1.5, spec, p0=1.2)
    with pytest.raises(ValueError):
        track(sphere_flow, [0.0], "a2", 2.5, spec, p0=1.2)  # p >= n


def test_parse_flow_spec():
    """The rate R/n is read from the base mesh: on a round sphere of radius
    r0, g(t) = (1 - 2t/r0^2) g(0), singular at t = r0^2/2."""
    for r0 in (1.0, 2.0, 1.3):
        flow = parse_flow_spec(f"sphere:r0={r0:g},subdiv=1",
                               t_max=0.45 * r0 ** 2)
        assert flow.variant == "shrinking-sphere"
        for t in (0.0, 0.2 * r0 ** 2):
            assert scale_factor(flow, t) == pytest.approx(
                np.sqrt(1.0 - 2.0 * t / r0 ** 2), rel=1e-15, abs=0.0)
        with pytest.raises(ValueError, match="smooth interval"):
            ExactFlow(base=flow.base, t_max=r0 ** 2 / 2.0)
    flow = parse_flow_spec("torus:n=3,res=6")
    assert flow.variant == "static-torus" and scale_factor(flow, 0.5) == 1.0
    with pytest.raises(ValueError):
        parse_flow_spec("klein:res=3")
    with pytest.raises(ValueError, match="horizon .* smooth interval"):
        parse_flow_spec("torus:n=2,res=4", t_max=0.0)


# ---------------------------------------------------------------------------
# one decomposition per run: every time-t spectrum is a view of the t = 0 one

SMALL_FLOWS = {
    "sphere": (lambda: shrinking_sphere_flow(r0=1.0, subdiv=2, t_max=0.45),
               [0.0, 0.2, 0.4], 1.5, 1.2),
    "torus": (lambda: parse_flow_spec("torus:n=3,res=6", t_max=1.0),
              [0.0, 0.5, 1.0], 2.5, None),
}


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("name", sorted(SMALL_FLOWS))
def test_track_decomposes_once(name, selector, decompose_calls, monkeypatch):
    make, times, p, p0 = SMALL_FLOWS[name]
    flow = make()
    spec = EnsembleSpec(seed=11, size=12, generator="mixed")
    seen = []  # the chunks of each draw of the members

    class Capture(flow_module.MemberStream):
        def __iter__(self):
            seen.append([])
            for chunk in super().__iter__():
                seen[-1].append(chunk.copy())
                yield chunk

    monkeypatch.setattr(flow_module, "MemberStream", Capture)
    if name == "torus" and selector.endswith("2"):  # lambda0(g(0)) = 0
        with pytest.raises(HypothesisError):
            track(flow, times, selector, p, spec, p0=p0)
    else:
        track(flow, times, selector, p, spec, p0=p0)
        assert len(seen) == 1
    assert decompose_calls == [flow.base.num_nodes]
    if seen:
        base = flow.base
        expected = generate_ensemble(
            base, spec, dec=decompose(base, constant_potential(base, 1.0)))
        assert np.array_equal(np.concatenate(seen[0]), expected)


def _direct_sides(family, m, members, p):
    """The per-member sides of the b, d or e form measured on m itself,
    before the constant: the Bessel image from m's own decomposition, the
    defect from m's own curvature."""
    lhs = lp_norm(m, members, m.dim * p / (m.dim - p))
    if family == "b":
        image = apply_function(decompose(m, constant_potential(m, 1.0)),
                               np.sqrt, members)
        return lhs, lp_norm(m, image, p)
    defect = (geometric_summary(m)["kappa"] if family == "d"
              else gamma_integral(m, 0.0, flow_module.GAMMA_EPS))
    return lhs, (grad_lp_norm(m, members, p)
                 + (1.0 + defect) * lp_norm(m, members, p))


@pytest.mark.parametrize("family", "abde")
@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_records_match_a_direct_measurement_on_g_t(name, family):
    """g(t) = lam^2 g(0) rescales every g(0) norm by a power of lam, so each
    record equals the same form measured on metric_at(flow, t) with the
    same members and the record's constants."""
    if name == "sphere":
        flow, sel = parse_flow_spec("sphere:r0=1,subdiv=1", t_max=0.45), "2"
        times, p = [0.0, 0.1, 0.25, 0.4], 1.5
    else:
        flow, sel = parse_flow_spec("torus:n=3,res=4", t_max=1.0), "3"
        times, p = [0.0, 0.5, 1.0], 2.5
    spec = EnsembleSpec(seed=5, size=30, generator="mixed")
    traj = track(flow, times, family + sel, p, spec)
    base = flow.base
    members = generate_ensemble(
        base, spec, dec=decompose(base, constant_potential(base, 1.0)))
    for rec in traj.records:
        mt = metric_at(flow, rec["t"])
        if family == "a":
            rep = verify_inequality(mt, p, rec["C1"], rec["C2"], members)
            ratio, violations = rep.worst_ratio, rep.violations
        else:
            lhs, rhs = _direct_sides(family, mt, members, p)
            ratio, _, violations, _ = _worst_ratio(lhs, rec["C"] * rhs,
                                                   slack=RELATIVE_SLACK)
        assert rec["worst_ratio"] == pytest.approx(ratio, rel=1e-13)
        assert rec["violations"] == violations


@pytest.mark.parametrize("selector", ["a2", "b2"])
def test_track_measures_each_member_norm_once(selector, norm_calls):
    """The gradient magnitudes are formed once, for both exponents, and
    ||u||_{p*} is measured once on the members (20 rows of 42 nodes are one
    chunk), however many times are sampled."""
    flow = shrinking_sphere_flow(r0=1.0, subdiv=1, t_max=0.45)
    spec = EnsembleSpec(seed=5, size=20, generator="mixed")
    counts = []
    for times in ([0.0, 0.3], [0.05 * i for i in range(9)]):
        norm_calls.clear()
        track(flow, times, selector, 1.5, spec, p0=1.2)
        members = [u for name, q, u in norm_calls if q == 6.0]  # p* of 1.5
        grads = [(name, q) for name, q, _ in norm_calls if "grad" in name]
        assert len(members) == 1 and members[0].shape == (20, 42)
        counts.append(grads)
    assert counts[0] == counts[1] == (
        [("_grad_lp_norms", (1.2, 1.5))] if selector == "a2" else [])


def test_flow_b_forms_one_bessel_image_per_distinct_scale(monkeypatch):
    """Sample 0 and t = 0 share lam = 1, so --times 0:0.4:0.05 (nine times,
    ten samples) forms nine full-width Bessel images per chunk, not ten."""
    from sobolab.cli import _parse_times
    from sobolab.spectral import MirrorBasis

    flow = shrinking_sphere_flow(r0=1.0, subdiv=1, t_max=0.45)
    spec = EnsembleSpec(seed=5, size=20, generator="mixed")  # one chunk
    full_width = []
    backward = MirrorBasis.backward

    def spy(self, c, k=None):
        full_width.append(k is None)
        return backward(self, c, k)

    monkeypatch.setattr(MirrorBasis, "backward", spy)
    times = _parse_times("0:0.4:0.05")
    assert len(times) == 9 and times[0] == 0.0
    track(flow, times, "b2", 1.5, spec, p0=1.2)
    assert full_width.count(True) == 9


def test_lambda0_series_decomposes_once(sphere_flow, decompose_calls):
    series = _lambda0_series(sphere_flow, [0.0, 0.1, 0.4], 1.5, "d2")
    assert decompose_calls == [sphere_flow.base.num_nodes]
    assert series[2] == pytest.approx(series[0] * 5.0, rel=1e-14)


def test_track_e_family_integral_curvature(sphere_flow):
    """gamma vanishes on the sphere (e reduces to d) and is closed-form on a
    flat torus given ric_min = -1: the integrand is 1, so gamma = vol^(1/2)."""
    spec = EnsembleSpec(seed=3, size=20, generator="mixed")
    d2, e2 = (track(sphere_flow, [0.0, 0.4], sel, 1.5, spec) for sel in ("d2", "e2"))
    assert [r["gamma"] for r in e2.records] == [0.0, 0.0]
    assert [r["C"] for r in e2.records] == [r["C"] for r in d2.records]
    torus = build("torus:n=3,res=6")
    base = replace(torus, ric_min=np.full(torus.num_nodes, -1.0))
    flow = ExactFlow(base=base, t_max=1.0)
    traj = track(flow, [0.0, 1.0], "e3", 2.5, spec)
    for rec in traj.records:
        assert rec["gamma"] == pytest.approx(np.sqrt(base.volume), rel=1e-12)
        assert 0 < rec["C"] < np.inf
    assert traj.total_violations == 0


def test_exact_flow_rejects_nonconstant_curvature():
    base = build("torus:n=2,res=6")
    curved = replace(base, scalar_curvature=np.linspace(0.0, 1.0, 36))
    with pytest.raises(ValueError, match="constant scalar curvature"):
        ExactFlow(base=curved, t_max=1.0)


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_record_constants_are_composed_from_the_base_constants(name):
    """b, d, e: each record's C is C0 * transfer * sqrt(1 + R+max(t)), and
    the worst ratio at t = 0 is 1 / (transfer sqrt(1 + R+max(0))), since C0
    is that ratio's numerator (1/sqrt(3) on the unit sphere).  a: C1 and C2
    are the chain from (alpha A, alpha B), alpha = max(1, bracket) for a2
    and max(1, 1 + bracket) for a3."""
    if name == "sphere":
        flow, sel = parse_flow_spec("sphere:r0=1,subdiv=1", t_max=0.45), "2"
        times, p, p0 = [0.0, 0.1, 0.25, 0.4], 1.5, 1.2
    else:
        flow, sel = parse_flow_spec("torus:n=3,res=4", t_max=1.0), "3"
        times, p, p0 = [0.0, 0.5, 1.0], 2.5, 2.0
    spec = EnsembleSpec(seed=5, size=30, generator="mixed")
    for family in "bde":
        traj = track(flow, times, family + sel, p, spec, p0=p0)
        c0, transfer = (traj.base_constants[k] for k in ("C0", "transfer"))
        assert traj.base_constants["C"] == c0 * transfer
        for rec in traj.records:
            assert rec["C"] == c0 * transfer * np.sqrt(1.0 + rec["r_max_plus"])
        first = traj.records[0]
        assert first["worst_ratio"] == pytest.approx(
            1.0 / (transfer * np.sqrt(1.0 + first["r_max_plus"])),
            rel=1e-12, abs=0.0)
        if name == "sphere":
            assert first["worst_ratio"] == pytest.approx(1.0 / np.sqrt(3.0),
                                                         rel=1e-12, abs=0.0)
    for sel in ("a2", "a3") if name == "sphere" else ("a3",):
        traj = track(flow, times, sel, p, spec, p0=p0)
        a, b = traj.base_constants["A"], traj.base_constants["B"]
        for rec in traj.records:
            alpha = max(1.0, rec["bracket"] if sel == "a2"
                        else 1.0 + rec["bracket"])
            chain = chain_constants(flow.base.dim, p0, alpha * a, alpha * b, p)
            assert rec["alpha"] == alpha
            assert (rec["C1"], rec["C2"], rec["m_p"]) == (
                chain.C1, chain.C2, chain.m_p)
