import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from expsum_kit import weights
from expsum_kit.arith import MAX_N_MAX, TableRangeError, build_tables
from expsum_kit.bounds import choose_params
from expsum_kit.identity import P
from expsum_kit.weights import (RAMARE_C1, WeightConfig, WeightSystem, g_series,
                                gq_lower_bound_holds, lbsum_b_report,
                                lbsum_c_report, mobius_partial,
                                mobius_partial_bounds_hold, selberg_lambda,
                                thtsum_report, verify_lbcr, verify_lbsum_a)
from oracles import lcm_dict_loop


@pytest.fixture(scope="module")
def ws_small(tables_small):
    return WeightSystem(WeightConfig(U=2, U1=4, R=3, V=5, q=1), tables_small)


def test_g_series_examples(tables_small):
    assert g_series(1, 1, tables_small) == 1
    assert g_series(1, 3, tables_small) == Fraction(5, 2)
    assert g_series(2, 3, tables_small) == Fraction(3, 2)
    with pytest.raises(TableRangeError):
        g_series(1, tables_small.n_max + 10, tables_small)


def test_selberg_lambda_examples(tables_small):
    cfg = WeightConfig(U=2, U1=4, R=3, V=5, q=1)
    assert selberg_lambda(1, cfg, tables_small) == 1
    assert selberg_lambda(2, cfg, tables_small) == Fraction(-4, 5)
    cfg6 = WeightConfig(U=2, U1=4, R=10, V=5, q=6)
    assert selberg_lambda(2, cfg6, tables_small) == 0  # gcd(d, q) > 1
    assert selberg_lambda(4, cfg6, tables_small) == 0  # not squarefree
    assert selberg_lambda(11, cfg6, tables_small) == 0  # d > R


def test_barban_vehov_branches(tables_small):
    ws = WeightSystem(WeightConfig(U=10, U1=90, R=3, V=5, q=1), tables_small)
    for d in (2, 3, 5, 7, 10):
        mu = int(tables_small.mobius[d])
        assert ws.theta_prime(d) == mu
    # beyond U1 theta' vanishes, here at mu(91) = 1
    assert ws.theta_prime(91) == 0
    # midpoint of the log-linear ramp: d = sqrt(U*U1) = 30, mu(30) = -1
    assert abs(ws.theta_prime(30) - (-0.5)) < 1e-14
    with workdps(50):
        assert abs(ws.theta_prime(30, mpf) - mpf(-0.5)) < mpf(10) ** -45
    with pytest.raises(ValueError):
        ws.theta_prime(0)


@pytest.mark.parametrize("num", [float, mpf])
def test_theta_plus_theta_prime_is_mu(tables_small, num):
    cfg = WeightConfig(U=7, U1=23, R=3, V=5, q=1)
    ws = WeightSystem(cfg, tables_small)
    tol = mpf(10) ** -30 if num is mpf else 1e-15
    log = math.log if num is float else mp.log

    def theta(d):
        # 0 up to U, mu(d) log(d/U)/log(U1/U) on the ramp, mu(d) beyond U1
        mu = int(tables_small.mobius[d])
        if d <= cfg.U:
            return num(0)
        if d > cfg.U1:
            return num(mu)
        return mu * log(num(d) / num(cfg.U)) / log(num(cfg.U1) / num(cfg.U))

    with workdps(50):
        for d in range(1, 231):
            s = ws.theta_prime(d, num) + theta(d)
            assert type(s) is num
            assert abs(s - int(tables_small.mobius[d])) < tol


def test_combined_h_against_pair_oracle(tables_small, ws_small):
    # brute-force double loop over (d1 <= R, d2 <= U1), accumulated at lcm
    cfg = ws_small.cfg
    oracle = {}
    for d1 in range(1, int(cfg.R) + 1):
        for d2 in range(1, int(cfg.U1) + 1):
            lam = float(ws_small.lam(d1))
            tp = ws_small.theta_prime(d2)
            if lam == 0.0 or tp == 0.0:
                continue
            l = d1 * d2 // math.gcd(d1, d2)
            oracle[l] = oracle.get(l, 0.0) + lam * tp
    h = ws_small.h_float()
    support = {d for d, v in oracle.items() if abs(v) > 1e-15}
    for d in range(1, len(h)):
        assert abs(h[d] - oracle.get(d, 0.0)) < 1e-12
    assert support == {d for d in range(1, len(h)) if abs(h[d]) > 1e-15}


def _dirichlet_oracle(pairs, n, dtype, b=None, lo=1, p=0):
    """(g*b)(k) term by term: for each (d, g(d)) in increasing d, each
    m >= lo on b with dm <= n adds g(d) b(m) (g(d) when b is None) as a
    scalar; with p, each product and the row are reduced mod p."""
    out = np.zeros(n + 1, dtype=dtype)
    for d, v in pairs:
        m = lo
        while d * m <= n and (b is None or m < len(b)):
            out[d * m] += v if b is None else v * b[m] % p if p else v * b[m]
            m += 1
    return out % p if p else out


@pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
@pytest.mark.parametrize("b_len, lo", [(None, 1), (None, 3), (301, 1), (41, 1),
                                       (301, 4), (29, 5)])
def test_one_star_matches_term_by_term_loop(dtype, b_len, lo):
    # every entry adds its terms in increasing d, one at a time from 0, so
    # a float row has the oracle's bits; b ends early at 41 and 29; g holds
    # d > n, d with n // d < lo (150 at lo 3, 97 at lo 4 and 5), and a
    # nonzero g[0], which is not read
    rng = np.random.default_rng(7)
    n = 300
    ds = np.concatenate([np.arange(1, 60), [97, 150, 299, 300, 301, 450]])
    g = np.zeros(451, dtype=dtype)
    if dtype is bool:
        g[ds], b = rng.random(len(ds)) < 0.7, rng.random(b_len or 1) < 0.6
    elif dtype is np.int64:
        g[ds] = rng.integers(-2**40, 2**40, len(ds))
        b = rng.integers(-2**20, 2**20, b_len or 1)
    else:
        g[ds], b = rng.normal(size=len(ds)), rng.normal(size=b_len or 1)
    g[0] = 1
    b = None if b_len is None else b
    got = weights._one_star(g, n, dtype, b, lo)
    want = _dirichlet_oracle([(d, g[d]) for d in range(1, len(g)) if g[d]],
                             n, dtype, b, lo)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got[1:].any()  # the rows are not trivially 0


@pytest.mark.parametrize("dtype, p", [(np.float64, 0), (bool, 0),
                                      (np.int64, 2_147_483_647)])
@pytest.mark.parametrize("extra", [-1, 0, 1, weights._ROW_CHUNK + 1])
def test_one_star_chunk_edges(dtype, p, extra):
    # d = 1's slice of b is 2^13 + extra long: one entry short of a chunk,
    # one chunk, one entry past it, and two chunks and one, from lo = 3,
    # ended by n, and then by a b cut short (where d = 2 is cut too); the
    # scratch buffer is as long as that slice, up to one chunk. A chunk or
    # buffer end off by one moves an entry or raises.
    rng = np.random.default_rng(11)
    lo, length = 3, weights._ROW_CHUNK + extra
    for n, b_len in ((length + lo - 1, length + lo + 9), (3 * length, length + lo)):
        ds = [1, 2, 3, 5, n // (lo + 1), n // lo]
        g = np.zeros(n // lo + 2, dtype=dtype)
        if dtype is bool:
            g[ds], b = rng.random(len(ds)) < 0.9, rng.random(b_len) < 0.6
        elif p:
            g[ds], b = rng.integers(0, p, len(ds)), rng.integers(0, p, b_len)
        else:
            g[ds], b = rng.normal(size=len(ds)), rng.normal(size=b_len)
        g[0] = g[-1] = 1  # neither is read: n // lo + 1 has no m >= lo
        got = weights._one_star(g, n, dtype, b, lo, p)
        want = _dirichlet_oracle([(d, g[d]) for d in range(1, n // lo + 1) if g[d]],
                                 n, dtype, b, lo, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n
        assert got[lo:lo + length].any()


def test_one_star_h_factorizes(tables_small):
    # (1*h)(n) = (1*theta')(n) (1*lambda)(n) at 50 digits, n <= U1 R
    cfg = WeightConfig(U=3, U1=9, R=5, V=5, q=2)
    ws = WeightSystem(cfg, tables_small)
    n_max = cfg.h_support_bound
    with workdps(50):
        h = ws.h_mp()
        one_h = [mpf(0)] * (n_max + 1)
        for d in range(1, len(h)):
            for k in range(d, n_max + 1, d):
                one_h[k] += h[d]
        lam_mp = {d: mpf(f.numerator) / mpf(f.denominator)
                  for d, f in ws.lambda_table.items()}
        for n in range(1, n_max + 1):
            tp = mpf(0)
            lm = mpf(0)
            for d in [d for d in range(1, n + 1) if n % d == 0]:
                tp += ws.theta_prime(d, mpf)
                lm += lam_mp.get(d, mpf(0))
            assert abs(one_h[n] - tp * lm) < mpf(10) ** -30


@pytest.mark.parametrize("params", [(10, 40, 5, 30, 3), (10, 10, 1, 30, 1),
                                    (3, 9, 5, 5, 2), "choose_params"])
def test_h_arrays_match_dict_loop(tables_100k, params):
    # h in each number type against the per-pair dict loop over {d: value}
    # inputs: float64 bit for bit, mpf and the dyadic integers exactly
    if params == "choose_params":
        pc = choose_params(1e6, 3, 1.0, 1.0 / 15.0)
        params = (pc.U, pc.U1, pc.R, pc.V, 3)
    U, U1, R, V, q = params
    ws = WeightSystem(WeightConfig(U=U, U1=U1, R=R, V=V, q=q), tables_100k)
    bound = ws.cfg.h_support_bound
    squarefree = [d for d in range(1, int(U1) + 1) if tables_100k.mobius[d]]

    h = ws.h_float()
    want = lcm_dict_loop({d: float(f) for d, f in ws.lambda_table.items()},
                         {d: ws.theta_prime(d) for d in squarefree}, bound, 0.0)
    dense = np.zeros(bound + 1)
    dense[list(want)] = list(want.values())
    assert h.dtype == np.float64 and h.tobytes() == dense.tobytes()

    with workdps(50):
        want = lcm_dict_loop({d: mpf(f.numerator) / mpf(f.denominator)
                              for d, f in ws.lambda_table.items()},
                             {d: ws.theta_prime(d, mpf) for d in squarefree},
                             bound, mpf(0))
    h = ws.h_mp()
    assert len(h) == bound + 1
    assert all(h[d] == want.get(d, 0) for d in range(1, bound + 1))
    assert all(type(h[d]) is mpf for d in want)

    lam, theta_prime, h = ws.dyadic(P)
    lam_p = {d: round(f * (1 << P)) for d, f in ws.lambda_table.items()}
    tp_p = {d: round(math.ldexp(ws.theta_prime(d), P)) for d in squarefree}
    want = lcm_dict_loop(lam_p, tp_p, bound, 0)
    for got, table in ((lam, lam_p), (theta_prime, tp_p), (h, want)):
        assert got.dtype == np.int64
        assert got[1:].tolist() == [table.get(d, 0) for d in range(1, len(got))]
    assert len(h) == bound + 1


# sha256 of the float64 bytes of h and of (1*theta)(1*lambda) on [0, 5000]
FLOAT_TABLE_SHA256 = {
    (10, 40, 5, 30, 3): (
        "3987ed6ff6d384692091b292a6fc05f719f65ee033875f387353f2a27127fbba",
        "dfa6dfd5412a7cffbcad378c52830a31476217acf9e140d41a8ae2ef41a0be29"),
    (100, 1000, 30, 200, 4): (
        "4aec35763c7bca4278c32ef32403b3ca71817aabc8ab1122e12b99cd4241ae41",
        "07a09cb490dfae544db6a6a29fd4e13638ec2f5a2e9cb77ad54b0600e542d692"),
}


@pytest.mark.parametrize("params", sorted(FLOAT_TABLE_SHA256))
def test_float_tables_pinned(tables_100k, params):
    U, U1, R, V, q = params
    ws = WeightSystem(WeightConfig(U=U, U1=U1, R=R, V=V, q=q), tables_100k)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (ws.h_float(), ws.conv_theta_lambda(5000)))
    assert digests == FLOAT_TABLE_SHA256[params]


def test_lbsum_a_examples(ws_small):
    r1 = verify_lbsum_a(1, ws_small)
    assert r1.equal and r1.lhs == 1 / ws_small.g_q_R
    r2 = verify_lbsum_a(2, ws_small)
    assert r2.equal and r2.lhs == Fraction(-2, 5)
    big = verify_lbsum_a(7, ws_small)  # r > R: empty support
    assert big.equal and big.lhs == 0


def test_lbsum_a_gcd_and_squarefree_zero_cases(tables_small):
    ws = WeightSystem(WeightConfig(U=2, U1=4, R=10, V=5, q=6), tables_small)
    for r in range(1, 25):
        rep = verify_lbsum_a(r, ws)
        assert rep.equal, rep.witness()
        if r <= 10 and math.gcd(r, 6) > 1:
            assert rep.rhs == 0


def test_lbcr_examples(tables_small, ws_small):
    rep1 = verify_lbcr(1, ws_small)
    assert rep1.equal
    rep2 = verify_lbcr(2, ws_small)
    assert rep2.equal and rep2.lhs == Fraction(1, 2)
    for n in range(1, 201):
        assert verify_lbcr(n, ws_small).equal


@pytest.mark.parametrize("n", [0, -1, -7])
def test_verify_lbcr_rejects_n_below_1(ws_small, n):
    # every d divides 0, so a support sum at n = 0 would add up all of lambda
    with pytest.raises(ValueError):
        verify_lbcr(n, ws_small)


def test_verify_lbcr_above_the_tables(tables_small, ws_small):
    # lambda's support and c_r(n) need no table entry at n
    for n in (tables_small.n_max + 1, 2 * 3 * 5 * 7 * 11 * 13, 10**6 + 3):
        assert n > tables_small.n_max
        assert verify_lbcr(n, ws_small).equal, n


def test_gq_lower_bound(tables_small):
    for q in (1, 2, 3, 5, 6):
        for R in (10, 30, 50):
            ws = WeightSystem(WeightConfig(U=2, U1=4, R=R, V=5, q=q),
                              tables_small)
            assert gq_lower_bound_holds(ws)


def test_lambda_size_findings_logged(tables_small):
    # |lambda(d)| <= 1 is measured, not assumed: log findings, never fail.
    findings = []
    for q in (1, 2, 3, 5, 6):
        ws = WeightSystem(WeightConfig(U=2, U1=4, R=50, V=5, q=q), tables_small)
        findings.extend((q, d, v) for d, v in ws.lambda_findings())
    if findings:
        warnings.warn(f"|lambda| > 1 at {findings[:5]} (finding, not failure)")


def test_classic_vaughan_mode(tables_small):
    # U1 = U and R = 1 give the classical Vaughan weights
    cfg = WeightConfig(U=10, U1=40, R=5, V=10, q=1)
    classic = WeightSystem(dataclasses.replace(cfg, U1=cfg.U, R=1.0), tables_small)
    assert classic.cfg.U1 == classic.cfg.U == 10 and classic.cfg.R == 1
    assert classic.lambda_table == {1: Fraction(1)}
    h = classic.h_float()
    for d in range(1, len(h)):
        expected = float(tables_small.mobius[d]) if d <= 10 else 0.0
        assert h[d] == expected
    # (1*theta) = (1 * mu_{>U}) under the classic weights
    one_theta = classic.one_star_theta(200)
    for n in range(1, 201):
        direct = sum(int(tables_small.mobius[d])
                     for d in range(11, n + 1) if n % d == 0)
        assert abs(one_theta[n] - direct) < 1e-12


def test_mobius_partial_examples(tables_small):
    assert mobius_partial(1, 1, 1, tables_small) == 0.0
    assert abs(mobius_partial(1, 2, 1, tables_small) - math.log(2)) < 1e-15
    m = mobius_partial(1, 1000, 1, tables_small)
    assert abs(m - 1.0) <= RAMARE_C1 / math.log(1000)
    assert mobius_partial_bounds_hold(1000, tables_small) == {
        "m_check_asymptotic": True, "m_check_absolute": True,
        "mm_check_asymptotic": True, "mm_check_absolute": True}
    with pytest.raises(ValueError):
        mobius_partial(4, 100, 1, tables_small)  # v not squarefree
    with pytest.raises(ValueError):
        mobius_partial(1, 100, 3, tables_small)


def test_mobius_partial_coprimality(tables_small):
    # direct oracle for v = 6, X = 50
    t = tables_small
    expected = math.fsum(
        int(t.mobius[n]) / n * math.log(50 / n)
        for n in range(1, 51) if t.mobius[n] != 0 and math.gcd(n, 6) == 1)
    assert abs(mobius_partial(6, 50, 1, t) - expected) < 1e-14


def _mobius_partial_loop(v, X, power, tables):
    # the per-n loop that mobius_partial replaced, kept as its oracle
    log_x = math.log(X)
    terms = []
    for n in range(1, int(math.floor(X)) + 1):
        mu = tables.mobius[n]
        if mu == 0 or (v != 1 and math.gcd(n, v) != 1):
            continue
        t = (log_x - math.log(n)) ** power / n
        terms.append(t if mu > 0 else -t)
    return math.fsum(terms)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("v, X", [(30, 1e4), (1, 1e6)])
def test_mobius_partial_matches_loop(tables_2m, v, X, power):
    expected = _mobius_partial_loop(v, X, power, tables_2m)
    assert abs(mobius_partial(v, X, power, tables_2m) - expected) < 1e-12


def _mobius_partial_expr(v, X, power, tables):
    # the out-of-place numpy expression that the in-place steps replaced,
    # kept as their oracle
    mu = tables.mobius[1:int(math.floor(X)) + 1]
    n = np.flatnonzero(mu) + 1
    if v != 1:
        n = n[np.gcd(n, v) == 1]
    terms = (math.log(X) - np.log(n)) ** power / n
    terms *= mu[n - 1]
    return math.fsum(terms)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("X", [1, 2, 10.5, 1e3, 1e5, 999999.5, 2e6])
@pytest.mark.parametrize("v", [1, 6, 30])
def test_mobius_partial_matches_expression_bitwise(tables_2m, v, X, power):
    expected = _mobius_partial_expr(v, X, power, tables_2m)
    assert mobius_partial(v, X, power, tables_2m) == expected


@pytest.mark.parametrize("X", [1e5, 1e6, 12345.5])
def test_partial_bounds_take_both_powers_in_one_pass(tables_2m, X, monkeypatch):
    # one read of mu's support and of log(X/n) serves both powers, with
    # the bits of two mobius_partial calls
    passes, partials = [], weights._mobius_partials

    def spy(v, X, powers, tables):
        passes.append((v, X, tuple(powers), partials(v, X, powers, tables)))
        return passes[-1][-1]
    two_calls = [mobius_partial(1, X, power, tables_2m) for power in (1, 2)]
    assert two_calls == [_mobius_partial_expr(1, X, power, tables_2m)
                         for power in (1, 2)]
    monkeypatch.setattr(weights, "_mobius_partials", spy)
    assert all(mobius_partial_bounds_hold(X, tables_2m).values())
    assert passes == [(1, X, (1, 2), two_calls)]


def test_mobius_partial_rejects_v_out_of_range(tables_small):
    # v indexes mu's table: below 1 it would wrap to mu(n_max + 1 + v),
    # so v = -4 could pass as squarefree; above n_max it is past the sieve
    for v in (0, -3, -4):
        with pytest.raises(ValueError, match="at least 1"):
            mobius_partial(v, 100, 1, tables_small)
    with pytest.raises(TableRangeError):
        mobius_partial(tables_small.n_max + 1, 100, 1, tables_small)
    top = int(np.flatnonzero(tables_small.mobius)[-1])  # largest squarefree v
    assert mobius_partial(top, 100, 1, tables_small) == \
        _mobius_partial_expr(top, 100, 1, tables_small)


def _chunked(terms):
    return (terms[lo:lo + weights._PARTIAL_CHUNK]
            for lo in range(0, len(terms), weights._PARTIAL_CHUNK))


def _adversarial_sums():
    rng = np.random.default_rng(34)
    tiny = 2.0 ** -1074
    yield "empty", np.array([])
    yield "zeros", np.zeros(7)
    yield "negative zeros", np.full(3, -0.0)
    yield "signed zeros", np.array([0.0, -0.0, -0.0])
    yield "five subnormals", np.full(5, tiny)
    yield "subnormal mix", np.array([tiny, -3 * tiny, 2.0 ** -1022, -tiny])
    yield "huge cancels", np.array([1e308, 5e-324, -1e308])
    yield "huge cancels, tiny last", np.array([1e308, -1e308, 5e-324])
    yield "1e16 + 1 - 1e16", np.array([1e16, 1.0, -1e16, 2.0 ** -60])
    yield "half-way tie", np.array([1.0, 2.0 ** -53])
    yield "past the tie", np.array([1.0, 2.0 ** -53, 2.0 ** -1074])
    yield "2^53 + 1", np.array([2.0 ** 53, 1.0])
    yield "max float", np.array([np.finfo(float).max, -1.0])
    for k in range(6):
        mant = rng.standard_normal(3_000)
        yield f"mixed exponents {k}", np.ldexp(mant, rng.integers(-1074, 960, 3_000))
        yield f"narrow exponents {k}", np.ldexp(mant, rng.integers(-60, 8, 3_000))
        yield f"cancelling {k}", np.concatenate([mant, -mant[::-1], [tiny]])
    for size in (weights._PARTIAL_CHUNK - 1, weights._PARTIAL_CHUNK,
                 weights._PARTIAL_CHUNK + 1, 2 * weights._PARTIAL_CHUNK + 1):
        yield f"{size} terms", rng.standard_normal(size) * 1e10 + 1e-3
        # all in one bin: 2^53 - 1 at 2^(e - 53), so the high parts carry
        yield f"{size} full mantissas", np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("name, terms", list(_adversarial_sums()),
                         ids=[name for name, _ in _adversarial_sums()])
def test_exact_sum_is_fsum_bitwise(name, terms):
    got = weights._exact_sum(_chunked(terms))
    want = math.fsum(terms.tolist())
    assert got.hex() == want.hex() and math.copysign(1, got) == math.copysign(1, want)


def test_exact_sum_bins_stay_below_2_53():
    # a power's terms are squarefree n <= MAX_N_MAX, none a multiple of 4
    # or 9: fewer than 2^26, so every bin sums exactly
    n = MAX_N_MAX
    assert n - n // 4 - n // 9 + n // 36 < 1 << 26


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("v", [1, 6, 7, 30])
def test_mobius_partial_across_chunk_edges(tables_2m, v, power):
    # the support's length crosses a multiple of the chunk: the terms of
    # the last one, two or three n, against the out-of-place expression
    mu = tables_2m.mobius
    support = [n for n in range(1, 60_000) if mu[n] and math.gcd(n, v) == 1]
    for k in (1, 2):
        for top in support[k * weights._PARTIAL_CHUNK - 2:k * weights._PARTIAL_CHUNK + 1]:
            X = top + 0.5
            assert mobius_partial(v, X, power, tables_2m) == \
                _mobius_partial_expr(v, X, power, tables_2m)


def test_mobius_partials_peak_memory():
    # two float arrays of mu's support (16 B a term) and the chunk
    # buffers: the terms, frexp's two outputs and the split, 64 KiB each,
    # plus the two 16 KiB bin arrays and np.bincount's output. Measured:
    # 16 B a term + 324 KiB. math.fsum over tolist() chunks, with the
    # signs applied after the float copy, peaked at 16 B a term + 675 KiB
    tables = build_tables(1_000_000)
    support = int(np.count_nonzero(tables.mobius))
    weights._mobius_partials(1, 1e6, (1, 2), tables)
    tracemalloc.start()
    try:
        weights._mobius_partials(1, 1e6, (1, 2), tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * support + (352 << 10)


def test_conv_theta_lambda_built_once(ws_small):
    conv = ws_small.conv_theta_lambda(500)
    assert ws_small.conv_theta_lambda(500) is conv
    assert not conv.flags.writeable
    assert np.array_equal(conv[:301], ws_small.conv_theta_lambda(300))


def test_theta_prime_floats_built_once(tables_small, monkeypatch):
    # h_float, one_star_theta and dyadic read one read-only float theta'
    # table, built by one call of theta_prime per d <= U1; mpf is not cached
    ws = WeightSystem(WeightConfig(U=3, U1=9, R=5, V=5, q=2), tables_small)
    calls = []
    theta_prime = ws.theta_prime
    monkeypatch.setattr(ws, "theta_prime",
                        lambda d, num=float: calls.append(num) or theta_prime(d, num))
    ws.h_float()
    ws.one_star_theta(100)
    ws.dyadic(P)
    assert calls == [float] * 9
    assert not ws._theta_prime_support(float).flags.writeable
    with workdps(50):
        ws.h_mp()
    assert calls == [float] * 9 + [mpf] * 9


def test_report_only_sums_run(ws_small):
    # O-term displays: computed and reported, nothing asserted.
    assert lbsum_b_report(2, ws_small)["r"] == 2
    assert lbsum_c_report(2, ws_small)["lhs"] >= 0
    rep = thtsum_report(2, ws_small)
    assert math.isfinite(rep["sum_over_d"])


def test_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(U=0.5, U1=4, R=3, V=5, q=1)
    with pytest.raises(ValueError):
        WeightConfig(U=2, U1=1.5, R=3, V=5, q=1)
    with pytest.raises(ValueError):
        WeightConfig(U=2, U1=4, R=0.5, V=5, q=1)


def test_h_range_error(tables_small):
    with pytest.raises(TableRangeError):
        WeightSystem(WeightConfig(U=2, U1=4000, R=3000, V=5, q=1), tables_small)
