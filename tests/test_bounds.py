import math

import numpy as np
import pytest

from expsum_kit import bounds as b
from expsum_kit.arith import totient

ETA = 1.0 / 15.0


def test_integral_trivial_cases():
    assert b.integral_sqrt_ratio(0.2, 0.7, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert b.integral_sqrt_ratio(0.3, 0.3, 0.1) == 0.0
    assert b.integral_sqrt_ratio(0.0, 0.8, 0.0) == pytest.approx(0.8)


def test_integral_example():
    val = b.integral_sqrt_ratio(0.366519, 0.6, 1.0 / 3.0)
    assert val == pytest.approx(0.454442, abs=1e-5)


def test_integral_closed_form_vs_quadrature():
    rng = np.random.default_rng(42)
    for i in range(200):
        u = float(rng.uniform(0.0, 0.5))
        A = u if i % 5 == 0 else u + float(rng.uniform(0.0, 1.0))
        B = A + float(rng.uniform(0.0, 1.0))
        closed = b.integral_sqrt_ratio(A, B, u)
        quadr = b.integral_sqrt_ratio_quadrature(A, B, u)
        assert abs(closed - quadr) <= 1e-9 * max(abs(closed), 1e-30)


def test_integral_domain_errors():
    with pytest.raises(b.BoundDomainError):
        b.integral_sqrt_ratio(0.1, 0.5, 0.2)  # A < u
    with pytest.raises(b.BoundDomainError):
        b.integral_sqrt_ratio(0.5, 0.4, 0.1)  # B < A


def test_F_at_origin_matches_substitution():
    # u = 0 makes the integrand identically 1
    expected = 1.01 + 14.41 / (1 - ETA / 2) * ((2 + ETA) / 4 - (ETA - ETA**3) / 2)
    assert b.F_eta(0.0, 0.0, ETA) == pytest.approx(expected, rel=1e-14)
    assert b.F_eta(0.0, 0.0, ETA) == pytest.approx(8.22, abs=0.01)


def test_F_corner_values():
    assert b.F_eta(0.2 + ETA, 0.2 + ETA, ETA) == pytest.approx(50.98, abs=0.05)
    assert b.F_eta(0.4 - ETA, 0.0, ETA) == pytest.approx(50.12, abs=0.05)


def test_G_values():
    assert b.G_eta(1.0 / 3.0, 0.0, ETA) == pytest.approx(14.04, abs=0.05)
    expected = 4.01 * (1 + ETA**3 - ETA / 2) / (1 - ETA / 2)
    assert b.G_eta(0.0, 0.0, ETA) == pytest.approx(expected, rel=1e-14)


def test_F_G_monotone_in_u():
    # along u0 = 0 and along u0 = u (capped), on a fine grid
    for curve in ("zero", "diag"):
        prev_f = prev_g = -math.inf
        for i in range(1001):
            if curve == "zero":
                u = (0.4 - ETA) * i / 1000
                u0 = 0.0
            else:
                u = (0.2 + ETA) * i / 1000
                u0 = u
            f, g = b.F_eta(u, u0, ETA), b.G_eta(u, u0, ETA)
            assert f >= prev_f - 1e-12 and g >= prev_g - 1e-12
            prev_f, prev_g = f, g


def test_G_monotone_in_u0():
    for u in (0.05, 0.1, 0.2):
        vals_f = [b.F_eta(u, u0, ETA) for u0 in np.linspace(0, min(u, 0.2 + ETA), 50)]
        vals_g = [b.G_eta(u, u0, ETA) for u0 in np.linspace(0, min(u, 0.2 + ETA), 50)]
        assert all(x <= y + 1e-12 for x, y in zip(vals_f, vals_f[1:]))
        assert all(x <= y + 1e-12 for x, y in zip(vals_g, vals_g[1:]))


def test_input_domain_checks():
    with pytest.raises(b.BoundDomainError):
        b.F_eta(0.4, 0.0, ETA)  # u beyond 2/5 - eta
    with pytest.raises(b.BoundDomainError):
        b.F_eta(0.1, 0.2, ETA)  # u0 > u
    with pytest.raises(b.BoundDomainError):
        b.F_eta(0.1, 0.0, 0.2)  # eta out of range


def test_corollary_constants():
    max_f, max_g = b.corollary_constants(ETA)
    assert max_f == pytest.approx(50.97, abs=0.05)
    assert max_g == pytest.approx(14.04, abs=0.05)
    assert math.ceil(max_f) == 51 and math.ceil(max_g) == 15


def test_choose_params_formulas():
    x, eta = 1e6, ETA
    pc = b.choose_params(x, 1, 1.0, eta)
    assert pc.Delta == 1.0
    assert pc.V == pytest.approx(x ** ((eta - eta**3) / 2), rel=1e-12)
    assert pc.U == pytest.approx(x ** ((1 - eta / 2) / 2), rel=1e-12)
    assert pc.R == pytest.approx(x ** ((1 - eta / 2) / 4) / 3, rel=1e-12)
    assert pc.R1 == pc.R and pc.U1 == pytest.approx(pc.U * pc.R)
    # Delta < 1 exactly when delta0 > q, and log Delta/log x = -u0/2
    pc2 = b.choose_params(1e6, 2, 8.0, eta)
    assert pc2.Delta == pytest.approx(math.sqrt(2 / 8))
    _, u0 = b.coordinates(1e6, 2, 8.0)
    assert math.log(pc2.Delta) / math.log(1e6) == pytest.approx(-u0 / 2)


def test_choose_params_overflow_is_domain_error():
    # (delta0 q)^(5/2) past the float range is a domain error, and a large
    # in-range delta0 q keeps the formula's bits
    for q, d0 in ((1, 2.5e299), (5, 1e200), (5, 1e308)):
        with pytest.raises(b.BoundDomainError, match="overflows"):
            b.choose_params(1e6, q, d0, ETA)
    x, q, d0 = 1e6, 5, 1e120
    pc = b.choose_params(x, q, d0, ETA)
    cap = min(1.0, math.sqrt(q / d0))
    assert pc.R == (x ** (1.0 - ETA / 2.0) * cap / (d0 * q) ** 2.5) ** 0.25 / 3.0


def test_condition_flags_q10_all_true():
    pc = b.choose_params(1e6, 10, 1.0, ETA)
    assert pc.all_flags, pc.condition_flags


def test_condition_flags_oversized_q():
    pc = b.choose_params(1e6, 10**5, 1.0, ETA)
    assert not pc.condition_flags["qVR_le_Q"]


def test_condition_flags_survive_exact_equality():
    # the canonical choice has U = 9 R^2 delta0 q exactly
    for q in (1, 2, 7, 24):
        pc = b.choose_params(1e6, q, 1.0, ETA)
        assert pc.condition_flags["U_ge_9R2_d0q"]


def test_error_budget_reported_not_flagged():
    pc = b.choose_params(1e6, 1, 1.0, ETA)
    rep = b.error_budget_report(pc, 1e6, 1, 1.0)
    assert rep["non_binding"] and rep["ratio"] > 1  # fails at desk scale
    assert "UVRR1" not in pc.condition_flags


def test_error_budget_ratio_closed_form():
    # with choose_params' canonical choice, U V R R1 = x^(1 - eta^3/2) Delta
    # / (9 sqrt(delta0 q)), so the budget ratio is (8/9) x^(-eta^3/2) log^2 x
    # for every q and delta0: 279 at 5e7 and eta = 1/15
    worst = 0.0
    for x in (1e3, 1e6, 5e7, 1e12, 1e100, 1e300):
        for q in (1, 7, 100, 1000):
            for delta0 in (1.0, 8.0, 100.0):
                for eta in (1e-3, 0.05, ETA, 0.1):
                    pc = b.choose_params(x, q, delta0, eta)
                    got = b.error_budget_report(pc, x, q, delta0)["ratio"]
                    want = 8 / 9 * x ** (-eta**3 / 2) * math.log(x) ** 2
                    worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12, worst
    pc = b.choose_params(5e7, 1, 1.0, ETA)
    assert round(b.error_budget_report(pc, 5e7, 1, 1.0)["ratio"], 1) == 278.6


def test_main_bound_values():
    x = 1e6
    assert b.main_bound("mangoldt", x, 1, 1.0, ETA) == pytest.approx(
        b.F_eta(0.0, 0.0, ETA) * x)
    assert b.main_bound("mobius", x, 1, 1.0, ETA) == pytest.approx(
        b.G_eta(0.0, 0.0, ETA) * x)
    # depends on delta only through delta0 = max(1, |delta|/4)
    for d in (8.0, -8.0):
        assert b.main_bound("mangoldt", x, 3, max(1.0, abs(d) / 4), ETA) == \
            b.main_bound("mangoldt", x, 3, 2.0, ETA)


def test_main_bound_corollary_envelope():
    # F-based bound <= 51 x sqrt(q)/(phi(q) sqrt(delta0)) up to q = x^{1/3}
    x = 1e6
    for q in range(1, 101):
        got = b.main_bound("mangoldt", x, q, 1.0, ETA)
        envelope = 51 * x * math.sqrt(q) / totient(q)
        assert got <= envelope * (1 + 1e-12)
        got_mu = b.main_bound("mobius", x, q, 1.0, ETA)
        assert got_mu <= 15 * x / math.sqrt(totient(q)) * (1 + 1e-12)


def test_main_bound_range_errors():
    with pytest.raises(b.BoundDomainError):
        b.main_bound("mangoldt", 1e6, 10**4, 1.0, ETA)  # q > x^{2/5-eta}


def test_theorem_bound_components():
    x, q, d0 = 1e6, 1, 1.0
    pc = b.choose_params(x, q, d0, ETA)
    rep = b.theorem_bound_components(x, q, d0, ETA, pc)
    assert rep.ti1_main == pytest.approx(x)
    # at u = 0 the type-II integrand is 1, so the integral is the width
    log_x = math.log(x)
    width = math.log(x / pc.U) / log_x - math.log(pc.V) / log_x
    expected = 3.6 * x * log_x / math.sqrt(
        math.log(pc.R) * math.log(pc.R1)) * width
    assert rep.tii_mangoldt == pytest.approx(expected, rel=1e-12)
    assert rep.tii_mobius > 0
    # mu type-II term decreases as R grows with everything else fixed
    pc_bigger_r = b.ParamChoice(U=pc.U, U1=pc.U1, R=pc.R * 2, R1=pc.R1,
                                V=pc.V, Delta=pc.Delta)
    rep2 = b.theorem_bound_components(x, q, d0, ETA, pc_bigger_r,
                                      require_flags=False)
    assert rep2.tii_mobius < rep.tii_mobius
    # consistency ratios are computed and logged, never asserted:
    # the 14.41 coefficient absorbs the -log 3 shift in log R only as
    # x -> infinity, so at desk scale the ratio exceeds 1.
    assert math.isfinite(rep.consistency_ratio_mangoldt)


def test_theorem_bound_components_flag_gate():
    pc = b.choose_params(1e6, 80, 1.0, ETA)
    assert not pc.all_flags
    with pytest.raises(b.BoundDomainError):
        b.theorem_bound_components(1e6, 80, 1.0, ETA, pc)


def test_bound_report_shape():
    rep = b.bound_report(1e6, 2, 1.0, ETA)
    assert set(rep) >= {"x", "q", "delta0", "eta", "u", "u0", "F", "G",
                        "bound_mangoldt", "bound_mobius", "params", "flags",
                        "disclaimer"}
    assert set(rep["params"]) == {"U", "U1", "R", "V", "Delta"}
