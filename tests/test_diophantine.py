import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expsum_kit.diophantine import (ApproximationError, RationalApprox,
                                    alternate_approx, as_fraction, convergents,
                                    coordinates, dirichlet_approx)


def test_convergents_of_rational():
    # 3/10 = [0; 3, 3]
    assert list(convergents(Fraction(3, 10))) == [(0, 1), (1, 3), (3, 10)]
    assert list(convergents(Fraction(7, 2))) == [(3, 1), (7, 2)]


def test_exact_rational_examples():
    ap = dirichlet_approx(Fraction(1, 2), Q=10, x=1000)
    assert (ap.a, ap.q, ap.delta, ap.delta0) == (1, 2, 0.0, 1.0)
    # Largest convergent denominator under the cap wins; for rational
    # alpha with q <= Q that is alpha itself (delta = 0). The smaller
    # convergent 1/3 also satisfies |3/10 - 1/3| = 1/30 <= 1/(3*10),
    # but the best-approximation convention prefers q = 10.
    ap2 = dirichlet_approx(Fraction(3, 10), Q=10, x=1000)
    assert (ap2.a, ap2.q, ap2.delta) == (3, 10, 0.0)
    assert abs(Fraction(3, 10) - Fraction(1, 3)) <= Fraction(1, 30)
    ap3 = dirichlet_approx(Fraction(3, 10), Q=9, x=1000)
    assert (ap3.a, ap3.q) == (1, 3)


def test_delta0_definition():
    alpha = Fraction(1, 3) + Fraction(8, 10**4)
    ap = dirichlet_approx(alpha, Q=100, x=10**4)
    assert (ap.a, ap.q) == (1, 3)
    assert abs(ap.delta - 8.0) < 1e-9
    assert ap.delta0 == 2.0  # max(1, 8/4)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=0, max_value=499))
def test_rational_alpha_recovered_exactly(q, a_raw):
    a = a_raw % q
    if math.gcd(a, q) != 1:
        a = 1 if q > 1 else 0
    ap = dirichlet_approx(Fraction(a, q), Q=q, x=10**6)
    assert (ap.a, ap.q, ap.delta) == (a, q, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False,
                 exclude_max=True),
       st.floats(min_value=2.0, max_value=1e4))
def test_construction_invariants_random_alpha(alpha, Q):
    # construction re-checks gcd, the cap, and |delta|/x <= 1/(qQ)
    ap = dirichlet_approx(alpha, Q=Q, x=10**5)
    assert math.gcd(ap.a, ap.q) == 1 and ap.q <= Q
    assert abs(float(ap.alpha - Fraction(ap.a, ap.q))) <= 1 / (ap.q * Q) * (1 + 1e-12)
    assert ap.delta0 == max(1.0, abs(ap.delta) / 4.0)


def test_alternate_approx_crafted_window():
    # alpha = 1/3 + 10/10^4: q' must land in [10^4/60, 10^4/30]
    y = 10**4
    alpha = Fraction(1, 3) + Fraction(10, y)
    ap = dirichlet_approx(alpha, Q=y / 35, x=y)
    assert ap.q == 3 and abs(ap.delta - 10.0) < 1e-9
    alt = alternate_approx(ap)
    q_cap = y / (abs(ap.delta) * ap.q)
    assert q_cap / 2 <= alt.q <= q_cap * (1 + 1e-12)
    assert abs(float(alt.alpha - Fraction(alt.a, alt.q))) <= (
        1 / (alt.q * q_cap) * (1 + 1e-12))


def test_alternate_approx_golden_ratio():
    y = 10**5
    golden_frac = (math.sqrt(5) - 1) / 2
    ap = dirichlet_approx(golden_frac, Q=y ** 0.8, x=y)
    assert ap.delta != 0
    alt = alternate_approx(ap)
    q_cap = y / (abs(ap.delta) * ap.q)
    assert q_cap / 2 * (1 - 1e-12) <= alt.q <= q_cap * (1 + 1e-12)
    err = abs(float(alt.alpha - Fraction(alt.a, alt.q)))
    assert err <= 1 / (alt.q * q_cap) * (1 + 1e-12)


def test_alternate_approx_random_windows():
    import numpy as np
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = Fraction(int(rng.integers(1, 10**6)), 10**6)
        y = float(rng.integers(10**4, 10**6))
        ap = dirichlet_approx(alpha, Q=y ** 0.6, x=y)
        if ap.delta == 0:
            continue
        alt = alternate_approx(ap)
        q_cap = y / (abs(ap.delta) * ap.q)
        assert q_cap / 2 * (1 - 1e-12) <= alt.q <= q_cap * (1 + 1e-12)
        err = abs(float(alt.alpha - Fraction(alt.a, alt.q)))
        assert err <= 1 / (alt.q * q_cap) * (1 + 1e-12)


_ALPHAS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(Fraction, st.integers(0, 10**12), st.integers(1, 10**12)),
    st.builds(lambda a, q, eps: Fraction(a, q) + Fraction(eps),
              st.integers(0, 10**4), st.integers(1, 10**4),
              st.floats(min_value=-1e-6, max_value=1e-6)))


@settings(max_examples=500, deadline=None)
@given(_ALPHAS, st.floats(min_value=1e2, max_value=1e8),
       st.floats(min_value=1.0, max_value=1e7))
def test_alternate_approx_lands_in_window(alpha, x, Q):
    # floats, rationals up to 1e12 and a/q plus a tiny offset: one of the
    # two candidates (last convergent under the cap, a/q) is admissible,
    # unless the window's cap overflows a float. The cap is checked exactly:
    # q' Q' overflows a float from |alpha - a/q| ~ 1e-154 on.
    ap = dirichlet_approx(alpha, Q=Q, x=x)
    assume(ap.delta != 0)
    q_cap = ap.x / (abs(ap.delta) * ap.q)
    if math.isinf(q_cap):
        with pytest.raises(ApproximationError):
            alternate_approx(ap)
        return
    alt = alternate_approx(ap)
    assert q_cap / 2 * (1 - 1e-12) <= alt.q <= q_cap * (1 + 1e-12)
    err = abs(alt.alpha - Fraction(alt.a, alt.q))
    assert err * alt.q * Fraction(q_cap) <= 1 + 1e-12


def test_alternate_requires_nonzero_delta():
    ap = dirichlet_approx(Fraction(1, 2), Q=10, x=100)
    with pytest.raises(ValueError):
        alternate_approx(ap)


def test_u_coordinates_examples():
    x = 10**6
    ap = dirichlet_approx(Fraction(0, 1), Q=10, x=x)
    assert coordinates(ap.x, ap.q, ap.delta0) == (0.0, 0.0)
    # delta0 = q: u0 = log+(1) = 0
    ap2 = RationalApprox(a=1, q=3, delta=12.0, delta0=3.0, Q=30.0, x=float(x),
                         alpha=Fraction(1, 3) + Fraction(12, x))
    u, u0 = coordinates(ap2.x, ap2.q, ap2.delta0)
    assert u0 == 0.0 and abs(u - math.log(9) / math.log(x)) < 1e-15
    # q = x^0.1, delta0 = x^0.15 -> (0.25, 0.05)
    q = round(x ** 0.1)
    d0 = x ** 0.15
    delta = Fraction(4 * d0).limit_denominator(10**9)
    ap3 = RationalApprox(a=1, q=q, delta=float(delta), delta0=d0,
                         Q=x / (float(delta) * q) * 0.99, x=float(x),
                         alpha=Fraction(1, q) + delta / x)
    u, u0 = coordinates(ap3.x, ap3.q, ap3.delta0)
    assert abs(u - (math.log(d0 * q) / math.log(x))) < 1e-12
    assert abs(u0 - (math.log(d0 / q) / math.log(x))) < 1e-12
    assert 0 <= u0 <= u
    with pytest.raises(ValueError):
        coordinates(1.0, 2, 1.0)


def test_as_fraction_float_resolution():
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def test_invariant_violation_raises():
    with pytest.raises(ApproximationError):
        RationalApprox(a=1, q=3, delta=500.0, delta0=125.0, Q=100.0, x=100.0,
                       alpha=Fraction(1, 3) + Fraction(5))


def test_cap_slack_is_1e_12():
    # |alpha - a/q| q Q may exceed 1 by the float cap's 1e-12 relative
    # slack, and by no more: 1 + 1e-13 constructs, 1 + 1e-9 raises
    def approx(excess):
        alpha = Fraction(3, 7) + (1 + excess) / Fraction(7 * 1000)
        return RationalApprox(a=3, q=7, delta=float(alpha - Fraction(3, 7)) * 1e4,
                              delta0=1.0, Q=1000.0, x=1e4, alpha=alpha)

    assert approx(Fraction(1, 10**13)).q == 7
    with pytest.raises(ApproximationError):
        approx(Fraction(1, 10**9))
