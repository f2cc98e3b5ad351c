import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolab import (alpha_scaling_bound, build_ladder, chain_constants,
                     iterate_ladder, p_next, r_p, step_constants)


def exact_ladder(n: int, p0, count: int):
    """Independent rational-arithmetic oracle for the first few iterates."""
    vals = [Fraction(p0)]
    for _ in range(count):
        p = vals[-1]
        vals.append(n * n * p / ((n - p) ** 2 + n * p))
    return vals


def test_p_next_known_values():
    assert p_next(3, 2.0) == pytest.approx(18.0 / 7.0, abs=1e-14)
    assert p_next(3, 18.0 / 7.0) == pytest.approx(1134.0 / 387.0, abs=1e-12)


def test_p_next_matches_rational_oracle():
    for n in (3, 4, 5):
        oracle = exact_ladder(n, 2, 6)
        p = 2.0
        for k in range(1, 7):
            p = p_next(n, p)
            assert p == pytest.approx(float(oracle[k]), rel=1e-13)


def test_p_next_no_interior_fixed_point():
    for n in (3, 4, 5):
        assert abs(p_next(n, n - 0.1) - (n - 0.1)) > 0
    with pytest.raises(ValueError):
        p_next(3, 0.5)
    with pytest.raises(ValueError):
        p_next(3, 3.0)


def test_build_ladder_interval_lookup():
    lad = build_ladder(3, 2.0, 2.5)
    assert lad.k_for(2.5) == 0 and lad.m_for(2.5) == 2
    lad = build_ladder(3, 2.0, 2.9)
    assert lad.k_for(2.9) == 1 and lad.m_for(2.9) == 4
    with pytest.raises(ValueError):
        build_ladder(3, 2.0, 3.0)
    with pytest.raises(ValueError):
        build_ladder(3, 0.5, 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("p0", [1.0, 1.5, 2.0])
def test_ladder_invariants(n, p0):
    if p0 >= n:
        pytest.skip("base exponent must stay below the dimension")
    vals = iterate_ladder(n, p0, 200)
    arr = np.array(vals)
    assert np.all(arr >= 1.0) and np.all(arr < n)
    assert np.all(np.diff(arr) >= 0)
    # strictly increasing until saturation at the float cap
    cap = math.nextafter(float(n), 0.0)
    pre = arr[arr < cap]
    assert np.all(np.diff(pre) > 0)
    assert abs(vals[200] - n) < 1e-6
    # 50-step probe: already saturated to within 1e-3
    assert abs(vals[50] - n) < 1e-3


def test_r_p_values():
    assert r_p(3, 2.0, 2.0) == 1.0
    assert r_p(4, 2.0, 8.0 / 3.0) == pytest.approx(2.0, rel=1e-14)
    assert r_p(3, 2.0, 2.5) == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(ValueError):
        r_p(3, 2.0, 3.0)


def test_step_constants_closed_form():
    c1, c2 = step_constants(4, 2.0, 8.0 / 3.0, 1.0, 0.0)
    assert c1 == pytest.approx(8.0, abs=1e-12)
    assert c2 == 0.0


def test_step_constants_zero_B_and_homogeneity():
    n, p0, p = 3, 2.0, 2.4
    _, c2 = step_constants(n, p0, p, 0.7, 0.0)
    assert c2 == 0.0
    c1a, _ = step_constants(n, p0, p, 1.0, 0.5)
    c1b, _ = step_constants(n, p0, p, 2.0, 0.5)
    assert c1b / c1a == pytest.approx(2.0 ** (p / p0), rel=1e-12)


def test_step_constants_continuity_at_base():
    n, p0, A, B = 3, 2.0, 1.3, 0.8
    c1, c2 = step_constants(n, p0, p0 + 1e-8, A, B)
    assert c1 == pytest.approx(A * (1.0 + B), rel=1e-6)
    assert c2 == pytest.approx(B ** 2, rel=1e-6)


def test_step_constants_reach_guard():
    with pytest.raises(ValueError):
        step_constants(3, 2.0, 2.8, 1.0, 1.0)  # beyond 18/7
    with pytest.raises(ValueError):
        step_constants(3, 2.0, 2.5, -1.0, 0.0)


def test_chain_single_step_reduces_to_step_constants():
    chain = chain_constants(3, 2.0, 1.0, 1.0, 2.5)
    direct = step_constants(3, 2.0, 2.5, 1.0, 1.0)
    assert (chain.C1, chain.C2) == pytest.approx(direct, rel=1e-14)
    assert chain.m_p == 2 and len(chain.steps) == 1


def test_chain_two_steps_matches_hand_composition():
    n, p0, A, B, target = 3, 2.0, 1.0, 1.0, 2.9
    p1 = p_next(n, p0)
    c1a, c2a = step_constants(n, p0, p1, A, B)
    c1b, c2b = step_constants(n, p1, target, c1a, c2a)
    chain = chain_constants(n, p0, A, B, target)
    assert chain.C1 == pytest.approx(c1b, rel=1e-10)
    assert chain.C2 == pytest.approx(c2b, rel=1e-10)
    assert chain.m_p == 4 and len(chain.steps) == 2


def test_chain_monotone_in_A():
    grid = [0.5, 1.0, 2.0, 4.0]
    outs = [chain_constants(3, 2.0, a, 1.0, 2.9).C1 for a in grid]
    assert all(x < y for x, y in zip(outs, outs[1:]))


def test_chain_high_precision_agrees():
    lo = chain_constants(3, 2.0, 1.3, 0.7, 2.9)
    hi = chain_constants(3, 2.0, 1.3, 0.7, 2.9, precision=40)
    assert hi.C1 == pytest.approx(lo.C1, rel=1e-10)
    assert hi.C2 == pytest.approx(lo.C2, rel=1e-10)


@pytest.mark.parametrize("precision", [-5, 0])
def test_chain_refuses_precision_below_one_digit(precision):
    with pytest.raises(ValueError, match="at least 1 decimal digit"):
        chain_constants(3, 2.0, 1.3, 0.7, 2.9, precision=precision)


@pytest.mark.parametrize("A, hop", [(1e150, "hop 1 "), (1e60, "hop 2 "),
                                    (1e30, "hop 3 ")])
def test_chain_names_the_hop_whose_constants_overflow(A, hop):
    """Each hop raises the constants to a power p/p0 > 1, so a large A
    overflows a float at some hop; the error names it, whether math.pow
    raised or a product reached inf."""
    with pytest.raises(ValueError, match=hop + ".*overflow a float"):
        chain_constants(3, 2.0, A, A, 2.99)
    with pytest.raises(ValueError, match="finite A > 0"):
        chain_constants(3, 2.0, math.inf, 1.0, 2.99)


def test_alpha_bound_equality_at_one():
    rec = alpha_scaling_bound(3, 2.0, 2.5, 1.0, 1.0, 1.0)
    assert rec["margins"][0] == pytest.approx(0.0, abs=1e-9)
    assert rec["margins"][1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("target,m_expected", [(2.5, 2), (2.9, 4)])
def test_alpha_bound_holds(target, m_expected):
    rec = alpha_scaling_bound(3, 2.0, target, 1.0, 1.0, 2.0)
    assert rec["m_p"] == m_expected
    assert rec["margins"][0] >= -1e-9 and rec["margins"][1] >= -1e-9


def test_alpha_bound_rejects_small_alpha():
    with pytest.raises(ValueError):
        alpha_scaling_bound(3, 2.0, 2.5, 1.0, 1.0, 0.5)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5]),
       a=st.floats(min_value=0.1, max_value=5.0),
       b=st.floats(min_value=0.0, max_value=5.0),
       alpha=st.floats(min_value=1.0, max_value=50.0),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_alpha_bound_property(n, a, b, alpha, frac):
    p0 = 2.0
    target = p0 + frac * (n - p0) * 0.999
    alpha_scaling_bound(n, p0, target, a, b, alpha)
