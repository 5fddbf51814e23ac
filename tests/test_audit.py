import hashlib
import json

import pytest

from expsum_kit.audit import (LemmaAudit, inequality_audit,
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


def test_audit_report_golden(tables_2m):
    """The report is a bit-stable function of the seed: every float in it
    (ratios, witnesses, sums) is pinned, so a change in rounding shows."""
    report = inequality_audit(seed=12345, tables=tables_2m, n_instances=60)
    payload = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "ba8b53e59f05bd34f9a83aade3001f594701e9f02c13a3a2daf820cae8911f90")


def test_violation_raises_with_witness():
    audit = LemmaAudit(name="synthetic")
    audit.record(lhs=2.0, rhs=1.0, params={"tag": 7})
    assert audit.violations == [{"lhs": 2.0, "rhs": 1.0, "tag": 7}]


def test_small_table_rejected(tables_small):
    with pytest.raises(ValueError):
        inequality_audit(seed=1, tables=tables_small, n_instances=5)


def test_vdc_report_non_binding():
    import numpy as np
    rows = van_der_corput_report(np.random.default_rng(5), n_instances=5)
    assert all(r["non_binding"] for r in rows)
    assert all(r["ratio"] >= 0 for r in rows)


def test_report_serializable(tables_2m):
    report = inequality_audit(seed=7, tables=tables_2m, n_instances=10)
    payload = json.dumps(report.as_dict(), sort_keys=True)
    assert "window_min_sum" in payload
