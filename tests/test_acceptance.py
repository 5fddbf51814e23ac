"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 10's all-condition-flags clause is checked where the canonical
parameter choice meets its conditions. At delta0 = 1 and q <= 100 every
flag holds once x >= x* = (3 * 100^{5/8})^{4/(1 - 3 eta/2)} ~ 4.743e7,
where R >= x^{eta/4} binds at q = 100. At x = 1e6 the flags are false
exactly for 25 <= q <= 100, and the test checks that false set against the
closed-form inequalities.
"""

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expsum_kit import bounds as bnd
from expsum_kit.audit import inequality_audit
from expsum_kit.cli import RunConfig, run
from expsum_kit.expsum import l2_profiles, recombine
from expsum_kit.identity import (RESIDUAL_BUDGET, decompose_mangoldt, decompose_mobius,
                                 weight_sums)
from expsum_kit.partition import partition_integers, partition_primes, separation_bound
from expsum_kit.weights import (RAMARE_C1, RAMARE_C1_PRIME, RAMARE_C2,
                                RAMARE_C2_PRIME, WeightConfig, WeightSystem,
                                mobius_partial, verify_lbcr, verify_lbsum_a)

ETA = 1.0 / 15.0
FIXTURES = Path(__file__).parent / "fixtures"


def _line(num, ok, name, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name} {detail}")


# -- 1: identity certification ------------------------------------------------

IDENTITY_CONFIGS = [(2, 4, 3, 5, 1), (10, 40, 5, 30, 3), (10, 30, 8, 20, 4)]


@pytest.mark.parametrize("cfg_tuple", IDENTITY_CONFIGS)
def test_criterion_1_identity_certification(cfg_tuple, tables_10k):
    U, U1, R, V, q = cfg_tuple
    ws = WeightSystem(WeightConfig(U=U, U1=U1, R=R, V=V, q=q), tables_10k)
    t0 = time.perf_counter()
    sums = weight_sums(ws, 10_000)
    worst_l, arg_l = decompose_mangoldt(10_000, ws, tables_10k, sums).max_residual(tables_10k)
    worst_m, arg_m = decompose_mobius(10_000, ws, tables_10k, sums).max_residual(tables_10k)
    elapsed = time.perf_counter() - t0
    ok = worst_l < RESIDUAL_BUDGET and worst_m < RESIDUAL_BUDGET and elapsed < 120
    _line(1, ok, f"identity residuals {cfg_tuple}",
          f"Lambda {worst_l:.2e}@n={arg_l}, mu {worst_m:.2e}@n={arg_m}, {elapsed:.1f}s")
    assert worst_l < RESIDUAL_BUDGET and worst_m < RESIDUAL_BUDGET
    assert elapsed < 120


# -- 2, 3: exact Selberg-weight identities -------------------------------------

LBCR_CONFIGS = [(q, R) for q in (1, 2, 3, 5, 6) for R in (10, 30, 50)]


def test_criterion_2_lbcr_exact(tables_small):
    t0 = time.perf_counter()
    for q, R in LBCR_CONFIGS:
        ws = WeightSystem(WeightConfig(U=2, U1=4, R=R, V=5, q=q), tables_small)
        for n in range(1, 2001):
            rep = verify_lbcr(n, ws)
            assert rep.equal, (q, R, rep.witness())
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _line(2, ok, "Selberg/Ramanujan identity exact",
          f"n <= 2000, {len(LBCR_CONFIGS)} configs, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_3_lbsum_a_exact(tables_small):
    t0 = time.perf_counter()
    for q, R in LBCR_CONFIGS:
        ws = WeightSystem(WeightConfig(U=2, U1=4, R=R, V=5, q=q), tables_small)
        for r in range(1, R + 21):  # includes the empty cases r > R
            rep = verify_lbsum_a(r, ws)
            assert rep.equal, (q, R, rep.witness())
            if r <= R and math.gcd(r, q) > 1:
                assert rep.rhs == 0
    elapsed = time.perf_counter() - t0
    _line(3, True, "lambda divisibility sums exact",
          f"all r, zero cases included, {elapsed:.1f}s")


# -- 4, 5: bound functions ------------------------------------------------------

def test_criterion_4_corollary_constants():
    t0 = time.perf_counter()
    max_f, max_g = bnd.corollary_constants(ETA)
    elapsed = time.perf_counter() - t0
    ok = (abs(max_f - 50.97) <= 0.05 and abs(max_g - 14.04) <= 0.05
          and math.ceil(max_f) == 51 and math.ceil(max_g) == 15
          and elapsed < 1.0)
    _line(4, ok, "corollary constants",
          f"maxF={max_f:.4f} maxG={max_g:.4f} ceilings=({math.ceil(max_f)},"
          f"{math.ceil(max_g)}) {elapsed:.2f}s")
    assert abs(max_f - 50.97) <= 0.05
    assert abs(max_g - 14.04) <= 0.05
    assert math.ceil(max_f) == 51 and math.ceil(max_g) == 15
    assert elapsed < 1.0


def test_criterion_5_integral_dual_route():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        u = float(rng.uniform(0.0, 0.5))
        A = u if i % 5 == 0 else u + float(rng.uniform(0.0, 1.0))
        B = A + float(rng.uniform(0.0, 1.0))
        closed = bnd.integral_sqrt_ratio(A, B, u)
        quadr = bnd.integral_sqrt_ratio_quadrature(A, B, u)
        rel = abs(closed - quadr) / max(abs(closed), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-9, (A, B, u, closed, quadr)
    elapsed = time.perf_counter() - t0
    _line(5, elapsed < 10, "closed form vs quadrature",
          f"1000 triples incl A=u, worst rel {worst:.1e}, {elapsed:.1f}s")
    assert elapsed < 10


# -- 6: recombination -----------------------------------------------------------

RECOMBINE_CONFIGS = [
    (2, 4, 3, 5, 1),
    (10, 40, 5, 30, 3),
    (10, 30, 8, 20, 4),
    (10, 10, 1, 10, 1),   # classical Vaughan weights
    (6, 36, 6, 15, 2),
]
RECOMBINE_ALPHAS = [
    Fraction(1, 3) + Fraction(2, 100_000),
    math.sqrt(2) - 1,                       # irrational
]


def test_criterion_6_recombination(tables_100k):
    x = 100_000
    t0 = time.perf_counter()
    worst = 0.0
    n_checks = 0
    for cfg_tuple in RECOMBINE_CONFIGS:
        U, U1, R, V, q = cfg_tuple
        ws = WeightSystem(WeightConfig(U=U, U1=U1, R=R, V=V, q=q), tables_100k)
        for alpha in RECOMBINE_ALPHAS:
            for f in ("mangoldt", "mobius"):
                rep = recombine(f, alpha, x, ws, tables_100k)  # raises past budget
                worst = max(worst, rep.residual)
                n_checks += 1
    elapsed = time.perf_counter() - t0
    ok = n_checks == 20 and worst < 1e-9 * x and elapsed < 300
    _line(6, ok, "recombination residuals",
          f"{n_checks} (alpha, config, f) runs, worst {worst:.2e} "
          f"vs budget {1e-9 * x:.1e}, {elapsed:.1f}s")
    assert n_checks == 20 and worst < 1e-9 * x
    assert elapsed < 300


# -- 7: partitions ----------------------------------------------------------------

def test_criterion_7_partitions(tables_2m):
    t0 = time.perf_counter()
    checked = 0
    for M in (10**3, 10**4, 10**5):
        for q in (1, 7, 30):
            ls = [L for L in (3.0, 10.0, M / q) if 3 <= L <= M / q]
            for L in ls:
                p = partition_primes(M, q, L, tables_2m)
                assert p.spacing_violations() == []
                assert p.class_count <= math.ceil(separation_bound(L, q, tables_2m))
                checked += 1
            ls_int = [L for L in (2.0, 10.0, M / q) if 2 <= L <= M / q]
            for L in ls_int:
                p = partition_integers(M, q, L, tables_2m)
                assert p.spacing_violations() == []
                assert p.class_count <= math.ceil(L)
                assert len(p.members()) == M
                checked += 1
    elapsed = time.perf_counter() - t0
    _line(7, elapsed < 120, "partition spacing and class caps",
          f"{checked} partitions verified pairwise, {elapsed:.1f}s")
    assert elapsed < 120


# -- 8: Mobius partial-sum constants ----------------------------------------------

def test_criterion_8_partial_sum_constants(tables_2m):
    t0 = time.perf_counter()
    xs = np.geomspace(10, 10**6, 50)
    gamma = np.euler_gamma
    for X in xs:
        X = float(X)
        log_x = math.log(X)
        m1 = mobius_partial(1, X, 1, tables_2m)
        m2 = mobius_partial(1, X, 2, tables_2m)
        assert abs(m1 - 1.0) <= RAMARE_C1 / log_x, X
        assert abs(m1) <= RAMARE_C1_PRIME, X
        assert abs(m2 - 2 * log_x + 2 * gamma) <= RAMARE_C2 / log_x, X
        assert abs(m2) <= RAMARE_C2_PRIME * log_x, X
    elapsed = time.perf_counter() - t0
    _line(8, elapsed < 180, "partial-sum constants",
          f"50 sample points in [10, 1e6], {elapsed:.1f}s")
    assert elapsed < 180


# -- 9: inequality audit -------------------------------------------------------------

def test_criterion_9_inequality_audit(tables_2m):
    t0 = time.perf_counter()
    report = inequality_audit(seed=20260810, tables=tables_2m,
                              n_instances=1000)
    elapsed = time.perf_counter() - t0
    ok = report.total_violations == 0 and elapsed < 300
    worst = max((l.max_ratio, name) for name, l in report.lemmas.items())
    _line(9, ok, "inequality audit",
          f"9 checks x 1000 instances, 0 violations, tightest "
          f"{worst[1]}={worst[0]:.4f}, {elapsed:.1f}s")
    assert report.total_violations == 0
    assert elapsed < 300


# -- 10: bound-vs-actual sweep ---------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    t0 = time.perf_counter()
    code = run(RunConfig(command="sweep", x=1e6, eta=ETA, q_range=(1, 100),
                         output=str(out), workers=2, seed=0))
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# expsum-kit v1"
    rows = list(csv.DictReader(lines[1:]))
    return rows, elapsed


def test_criterion_10_sweep_completes_and_emits(sweep_output):
    rows, elapsed = sweep_output
    phis = sum(1 if q == 1 else len([a for a in range(1, q)
                                     if math.gcd(a, q) == 1])
               for q in range(1, 101))
    ratios = [float(r["ratio"]) for r in rows]
    findings = [r for r in rows if float(r["ratio"]) > 1.0]
    ok = (len(rows) == 2 * phis and all(math.isfinite(v) for v in ratios)
          and elapsed < 1800)
    _line(10, ok, "sweep completes, ratio table emitted",
          f"{len(rows)} rows, max ratio {max(ratios):.3f}, "
          f"{len(findings)} findings (> 1), {elapsed:.1f}s")
    assert len(rows) == 2 * phis
    assert all(math.isfinite(v) for v in ratios)
    # ratios above 1 are findings, logged, never failures
    for r in findings:
        print(f"    finding: ratio {r['ratio']} at {r['function']} "
              f"q={r['q']} a={r['a']}")
    assert elapsed < 1800


# Closed form of the canonical choice at delta0 = 1 <= q, where Delta = 1:
#   log V = (eta - eta^3)/2 log x + log q,
#   log U = (1 - eta/2)/2 log x - (1/4) log q,
#   log R = (1 - eta/2)/4 log x - (5/8) log q - log 3.
# R >= x^{eta/4} then reads x^{(1 - 3 eta/2)/4} >= 3 q^{5/8}; for q <= 100 it
# is the last flag to turn true, at x*.
X_STAR = (3.0 * 100.0 ** (5.0 / 8.0)) ** (4.0 / (1.0 - 1.5 * ETA))


def _closed_form_false_flags(x, q):
    """Flags that the condition inequalities, written in the exponents above,
    predict false at delta0 = 1. Independent of bounds.choose_params.

    U = 9 R^2 q holds with equality by construction, so each inequality gets
    the same 1e-9 slack in log space that the flags get relatively.
    """
    lx, lq = math.log(x), math.log(q)
    log_v = (ETA - ETA**3) / 2 * lx + lq
    log_u = (1 - ETA / 2) / 2 * lx - lq / 4
    log_r = (1 - ETA / 2) / 4 * lx - 5 / 8 * lq - math.log(3)
    slack = 1e-9
    margins = {
        "V_ge_x_eta3_d0q": log_v - (ETA / 3 * lx + lq),
        "R_ge_x_eta4": log_r - ETA / 4 * lx,
        "U_ge_9d0_Rq": log_u - (math.log(9) + (1 + ETA / 2) * (log_r + lq)),
        "U_ge_9R2_d0q": log_u - (math.log(9) + 2 * log_r + lq),
        "U1VR_le_x_8d0": lx - math.log(8) - (log_u + 2 * log_r + log_v),
        "qVR_le_Q": (0.8 - ETA) * lx - (lq + log_v + log_r),
        "UV_lt_x_9": lx - math.log(9) - (log_u + log_v),
    }
    return {name for name, m in margins.items() if m < -slack}


def _bound_flags(x, q, out):
    assert run(RunConfig(command="bound", x=x, eta=ETA, q_range=(q, q),
                         format="json", output=str(out))) == 0
    return json.loads(out.read_text())["flags"]


def test_criterion_10_every_condition_flag_true(sweep_output, tmp_path):
    """The flags clause, checked where the method promises it.

    At x = 1e6 the emitted flags must be false exactly where the closed-form
    inequalities say: R >= x^{eta/4} for 25 <= q <= 100 and
    U >= 9 delta0 (Rq)^{1+eta/2} for 30 <= q <= 100. Just above x* every
    flag of the bound command is true for every q <= 100; just below x*,
    R >= x^{eta/4} is false at q = 100.
    """
    rows, _ = sweep_output
    bad_q = sorted({int(r["q"]) for r in rows if r["all_flags"] != "1"})
    emitted = {}
    for r in rows:
        false = {kv.split("=")[0] for kv in r["flags"].split(";")
                 if kv.endswith("=0")}
        emitted.setdefault(int(r["q"]), set()).update(false)
    predicted = {q: _closed_form_false_flags(1e6, q) for q in range(1, 101)}
    predicted_bad = sorted(q for q, f in predicted.items() if f)
    assert predicted_bad == list(range(25, 101))
    assert bad_q == predicted_bad, (
        f"all_flags false for q in {bad_q}, closed form predicts 25..100")
    assert emitted == predicted, (
        "per-flag values differ from the closed form at x = 1e6")

    out = tmp_path / "bound.json"
    above = X_STAR * (1 + 1e-6)
    false_above = [(q, k) for q in range(1, 101)
                   for k, v in _bound_flags(above, q, out).items() if not v]
    below_r = _bound_flags(X_STAR * (1 - 1e-6), 100, out)["R_ge_x_eta4"]
    ok = not false_above and not below_r
    _line(10, ok, "every condition flag true above x*",
          f"x* = {X_STAR:.4e}; at x = 1e6 flags false exactly for q in "
          f"{bad_q[0]}..{bad_q[-1]} ({len(bad_q)} moduli), as predicted")
    assert not false_above, (
        f"flags false at x = x*(1 + 1e-6) = {above:.6e}: {false_above}")
    assert not below_r, "R >= x^{eta/4} holds at q = 100 below x*"


# -- 11: L2 profiles ----------------------------------------------------------------

def test_criterion_11_l2_profiles(tables_100k):
    bands = json.loads((FIXTURES / "l2_bands.json").read_text())
    X = bands["pilot"]["X"]
    ws = WeightSystem(WeightConfig(U=bands["pilot"]["U"], U1=bands["pilot"]["U1"],
                                   R=bands["pilot"]["R"], V=2,
                                   q=bands["pilot"]["q"]), tables_100k)
    theta_l2, lambda_l2, graham, selberg = l2_profiles(ws, X, tables_100k)
    theta_ratio = theta_l2 / graham
    lambda_ratio = lambda_l2 / selberg
    lo_t, hi_t = bands["theta_ratio_band"]
    lo_l, hi_l = bands["lambda_ratio_band"]
    ok = (lo_t <= theta_ratio <= hi_t and lo_l <= lambda_ratio <= hi_l
          and lambda_l2 <= bands["lambda_hard_cap"] * selberg)
    _line(11, ok, "L2 profile bands",
          f"theta {theta_ratio:.4f} in [{lo_t}, {hi_t}], "
          f"lambda {lambda_ratio:.5f} in [{lo_l}, {hi_l}]")
    assert lo_t <= theta_ratio <= hi_t
    assert lo_l <= lambda_ratio <= hi_l
    assert lambda_l2 <= bands["lambda_hard_cap"] * selberg
