import cmath
import hashlib
import json
import math

import mpmath
import numpy as np
import pytest

from expsum_kit.audit import (_GCD_V_END, LemmaAudit, _check_gcd_squarefree,
                              _gcd_period, _phi_e_integral, inequality_audit,
                              van_der_corput_report)

EXPECTED_LEMMAS = {
    "window_min_sum", "window_nondivisible", "weighted_min_sum",
    "weighted_nondivisible", "shifted_log_sums", "abel", "gcd_squarefree",
    "squarefree_count", "dyadic",
}


def test_audit_runs_clean(tables_2m):
    report = inequality_audit(seed=12345, tables=tables_2m, n_instances=60)
    assert report.total_violations == 0
    assert set(report.lemmas) == EXPECTED_LEMMAS
    for lemma in report.lemmas.values():
        assert lemma.n_instances >= 60
        assert 0 <= lemma.max_ratio <= 1.0 + 1e-9
        assert lemma.tightest is not None


def test_audit_deterministic(tables_2m):
    r1 = inequality_audit(seed=99, tables=tables_2m, n_instances=20)
    r2 = inequality_audit(seed=99, tables=tables_2m, n_instances=20)
    assert r1.as_dict() == r2.as_dict()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_audit_report_golden(tables_2m):
    """The report is a bit-stable function of the seed: every float in the
    lemma block (ratios, witnesses, sums) is pinned, so a change in
    rounding shows."""
    report = inequality_audit(seed=12345, tables=tables_2m, n_instances=60)
    lemmas = {k: v for k, v in report.as_dict().items() if k != "non_binding"}
    assert _digest(lemmas) == (
        "5d13f3791da71af324c0ef77bec3a58e7a12758e1e77c77ca8503eda76761c07")


def test_audit_non_binding_golden(tables_2m):
    # the van der Corput rows, pinned apart from the lemma block: their
    # integrals are checked against a 40-digit closed form below
    report = inequality_audit(seed=12345, tables=tables_2m, n_instances=60)
    assert len(report.non_binding) == 20
    assert _digest(report.non_binding) == (
        "f05c0158f72f015790dc30998877d46c568a14ff546d7fda9df4cf24cadd072c")


def _log1p_e_integral(beta: float, a: float, b: float) -> complex:
    """int_a^b log(1+t) e(beta t) dt at 40 digits: by parts with w = 2 pi
    beta, [log(1+t) e(beta t)/(iw)]_a^b - (1/(iw)) e(-beta) int_{1+a}^{1+b}
    e^{iws}/s ds, the last integral Ci(|w|s) + i sign(w) Si(|w|s)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if beta == 0:
            prim = lambda t: (1 + t) * mpmath.log(1 + t) - t
            return complex(prim(b) - prim(a))
        w = 2 * mpmath.pi * mpmath.mpf(beta)
        sign = 1 if w > 0 else -1
        e_int = lambda s: mpmath.ci(abs(w) * s) + 1j * sign * mpmath.si(abs(w) * s)
        edge = lambda t: mpmath.log(1 + t) * mpmath.expj(w * t)
        iw = 1j * w
        return complex((edge(b) - edge(a)) / iw
                       - mpmath.expj(-w) * (e_int(1 + b) - e_int(1 + a)) / iw)


@pytest.mark.parametrize("length", [5, 500])
def test_vdc_integral_against_closed_form(length):
    # beta near 0 and at the half-period limit |beta| = 1/2, where a panel
    # of length 1 spans half a period
    worst = 0.0
    for beta in (0.0, 1e-9, -1e-6, 0.17, -0.3, 0.4999999, 0.5, -0.5):
        for a in (1.0, 7.3, 49.9):
            b = a + length
            got = _phi_e_integral(np.log1p, beta, a, b)
            err = abs(got - _log1p_e_integral(beta, a, b)) / math.log1p(b)
            worst = max(worst, err)
    assert worst <= 1e-10, worst


def test_vdc_closed_form_reference():
    # the reference against mpmath's own quadrature at 40 digits
    beta, a, b = -0.5, 7.3, 12.3
    with mpmath.workdps(40):
        w = 2 * mpmath.pi * beta
        want = mpmath.quad(lambda t: mpmath.log(1 + t) * mpmath.expj(w * t),
                           mpmath.linspace(a, b, 11))
    assert cmath.isclose(_log1p_e_integral(beta, a, b), complex(want),
                         rel_tol=1e-14)


def test_violation_raises_with_witness():
    audit = LemmaAudit(name="synthetic")
    audit.record(lhs=2.0, rhs=1.0, params={"tag": 7})
    assert audit.violations == [{"lhs": 2.0, "rhs": 1.0, "tag": 7}]


def test_small_table_rejected(tables_small):
    with pytest.raises(ValueError):
        inequality_audit(seed=1, tables=tables_small, n_instances=5)


def test_vdc_report_non_binding():
    import numpy as np
    rows = van_der_corput_report(np.random.default_rng(5))
    assert all(r["non_binding"] for r in rows)
    assert all(r["ratio"] >= 0 for r in rows)


def test_report_serializable(tables_2m):
    report = inequality_audit(seed=7, tables=tables_2m, n_instances=10)
    payload = json.dumps(report.as_dict(), sort_keys=True)
    assert "window_min_sum" in payload


@pytest.mark.parametrize("qs", [range(1, 2000), (6561, 8192, 9240, 9973)],
                         ids=["q<2000", "powers-and-primes"])
def test_gcd_period_is_np_gcd(qs):
    # 6561 = 3^8 and 8192 = 2^13 need every power of p, 9240 = 2^3*3*5*7*11
    # has five primes, 9973 is prime
    for q in qs:
        want = np.gcd(np.arange(1, q + 1), q).astype(np.float64)
        got = _gcd_period(q)
        assert got.dtype == want.dtype and np.array_equal(got, want), q


class _Draws:
    """An rng stand-in whose integers() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, lo, hi):
        return self.values.pop(0)


class _Records:
    """A LemmaAudit stand-in that keeps (form, lhs) of every record."""

    def __init__(self):
        self.rows = []

    def record(self, lhs, rhs, params):
        self.rows.append((params["form"], lhs))


@pytest.mark.parametrize("q, V", [(1, 99_999), (2, 10), (3, 12_345), (4, 77),
                                  (12, 50_000), (9240, 99_999), (9973, 9_973)])
def test_gcd_check_matches_np_gcd_and_mask(tables_2m, q, V):
    # both sums, bit for bit, against the period from np.gcd, repeated by
    # np.resize and masked by the bool mu(l) != 0
    terms = np.resize(np.gcd(np.arange(1, q + 1), q).astype(np.float64), V)
    terms *= tables_2m.mobius[1:V + 1] != 0
    plain = float(np.sum(terms))
    terms /= np.arange(1.0, V + 1)
    over_l = float(np.sum(terms))
    audit = _Records()
    squarefree = (tables_2m.mobius[1:_GCD_V_END] != 0).astype(np.float64)
    _check_gcd_squarefree(_Draws(q, V), audit, np.arange(1.0, _GCD_V_END),
                          squarefree)
    assert audit.rows == [("over_l", over_l), ("plain", plain)]
