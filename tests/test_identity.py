import dataclasses
import functools
import math

import numpy as np
import pytest
from mpmath import mpf, workdps

from expsum_kit import identity
from expsum_kit.arith import TableRangeError, factorize
from expsum_kit.identity import (MODULI, P, RESIDUAL_BUDGET, _log_map,
                                 _mangoldt_inputs, _mobius_inputs, _terms,
                                 decompose_mangoldt, decompose_mobius,
                                 residual_report, weight_sums)
from expsum_kit.weights import WeightConfig, WeightSystem, _one_star

DECOMPOSE = {"mangoldt": decompose_mangoldt, "mobius": decompose_mobius}
INPUTS = {"mangoldt": _mangoldt_inputs, "mobius": _mobius_inputs}


@pytest.fixture(scope="module")
def ws_small(tables_small):
    return WeightSystem(WeightConfig(U=2, U1=4, R=3, V=5, q=1), tables_small)


@pytest.fixture(scope="module")
def ws_crit(tables_small):
    # criterion 1's second config
    return WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_small)


def test_mangoldt_residual_zero_small_config(tables_small, ws_small):
    dec = decompose_mangoldt(500, ws_small, tables_small, weight_sums(ws_small, 500))
    worst, arg = dec.max_residual(tables_small)
    assert worst < RESIDUAL_BUDGET, f"residual {worst} at n={arg}"
    assert dec.nonzero_count == 0


def test_mobius_residual_zero_small_config(tables_small, ws_small):
    dec = decompose_mobius(500, ws_small, tables_small, weight_sums(ws_small, 500))
    worst, arg = dec.max_residual(tables_small)
    assert worst < RESIDUAL_BUDGET, f"residual {worst} at n={arg}"
    assert dec.nonzero_count == 0


def test_trivial_values(tables_small, ws_small):
    for p in MODULI:
        t1, t2, t3, f = _terms(_mangoldt_inputs, 50, ws_small, tables_small, p,
                               weight_sums(ws_small, 50))
        # n = 1: log 1 = 0 and Lambda(1) = 0, so every term is 0
        assert t1[1] == t2[1] == t3[1] == f[1] == 0
        # a prime q: the three terms cancel at q <= V = 5, and above V they
        # combine to 2^(2P) log q -> 2^(2P) r_q, which f_{>V} carries
        r = _log_map(50, p)
        for q in (2, 3, 5, 7, 11, 13):
            want = (int(r[q]) << 2 * P) % p if q > 5 else 0
            assert f[q] == want
            assert (t1[q] - t2[q] + t3[q]) % p == want


# The three terms and 2^(2P) f_{>V} by raw divisor sums over the dyadic integer
# weights, each rebuilt here: lambda_P from the Fractions, theta'_P from
# the float theta', h_P by a brute-force lcm, theta_P as mu 2^P - theta'_P.
# f(l) and (1*f)(m) are {coordinate: int}: the log basis from the
# factorization for Lambda, the coordinate 1 for mu.
def _mangoldt_oracle(l, tables):
    factors = factorize(l)
    return {factors[0][0]: 1} if len(factors) == 1 else {}


ORACLE_FUNCTIONS = {
    "mangoldt": (_mangoldt_oracle, lambda m, t: dict(factorize(m))),
    "mobius": (lambda l, t: {1: int(t.mobius[l])} if t.mobius[l] else {},
               lambda m, t: {1: 1} if m == 1 else {}),
}


def _divisors(n):
    """The divisors of n >= 1, by brute force."""
    return [d for d in range(1, n + 1) if n % d == 0]


def _dyadic_oracle(ws):
    """(lambda_P, theta_P, h_P) as functions of d."""
    scale = 1 << P
    lam = {d: round(v * scale) for d, v in ws.lambda_table.items()}
    u1 = int(ws.cfg.U1)
    tp = {d: round(ws.theta_prime(d) * scale) for d in range(1, u1 + 1)}

    @functools.lru_cache(maxsize=None)
    def h(d):
        return sum(lam.get(d1, 0) * tp.get(d2, 0) for d1 in _divisors(d)
                   for d2 in _divisors(d) if d1 * d2 // math.gcd(d1, d2) == d)

    def theta(d):
        return int(ws.tables.mobius[d]) * scale - tp.get(d, 0)

    return lambda d: lam.get(d, 0), theta, h


def _oracle_terms(f, one_f, n, ws, tables, oracle):
    """T1, T2, T3 and 2^(2P) f_{>V} at n as {coordinate: int}, over the
    weights oracle = _dyadic_oracle(ws)."""
    lam, theta, h = oracle

    def one(g, k):
        return sum(g(d) for d in _divisors(k))

    def add(total, coeffs, weight):
        for key, c in coeffs.items():
            total[key] = total.get(key, 0) + c * weight

    terms = [{} for _ in range(4)]
    for d in _divisors(n):
        add(terms[0], one_f(n // d, tables), h(d))
        k = n // d
        if d <= ws.cfg.V:
            add(terms[1], f(d, tables), one(h, k))
        else:
            add(terms[2], f(d, tables), one(theta, k) * one(lam, k))
    if n > ws.cfg.V:
        add(terms[3], f(n, tables), 1 << 2 * P)
    return terms


def _residue(coeffs, r, p):
    """A {coordinate: int} value mod p: log q -> r_q, and 1 -> 1."""
    return sum(c * (1 if key == 1 else int(r[key])) for key, c in coeffs.items()) % p


@pytest.mark.parametrize("name", sorted(ORACLE_FUNCTIONS))
def test_terms_against_independent_oracle(name, tables_small, ws_small):
    n_max = 400
    f, one_f = ORACLE_FUNCTIONS[name]
    oracle = _dyadic_oracle(ws_small)
    want = [_oracle_terms(f, one_f, n, ws_small, tables_small, oracle)
            for n in range(1, n_max + 1)]
    for terms in want:  # the identity itself, in exact integers
        total = {}
        for sign, term in zip((1, -1, 1, -1), terms):
            for key, c in term.items():
                total[key] = total.get(key, 0) + sign * c
        assert not any(total.values())
    for p in MODULI:
        r = _log_map(n_max, p)
        got = list(_terms(INPUTS[name], n_max, ws_small, tables_small, p,
                          weight_sums(ws_small, n_max)))
        assert len(got) == 4
        for i in range(4):
            assert got[i][0] == 0
            assert got[i][1:].tolist() == [_residue(terms[i], r, p)
                                           for terms in want], (p, i)


def _corrupted(tables, name):
    """A copy of tables with Lambda's base of 49 zeroed, or mu(30) flipped."""
    if name == "mangoldt":
        base = tables.mangoldt_base.copy()
        base[49] = 0
        return dataclasses.replace(tables, mangoldt_base=base)
    mobius = tables.mobius.copy()
    mobius[30] *= -1
    return dataclasses.replace(tables, mobius=mobius)


@pytest.mark.parametrize("name", sorted(ORACLE_FUNCTIONS))
def test_residual_is_the_exact_residual_of_the_tables(name, tables_small, ws_small):
    # on a corrupted table, the n that the certificate marks are the n
    # where the exact residual of the oracle's divisor sums is not 0
    n_max = 400
    bad = _corrupted(tables_small, name)
    f, one_f = ORACLE_FUNCTIONS[name]
    if name == "mangoldt":
        def f(l, t):
            return {int(t.mangoldt_base[l]): 1} if t.mangoldt_base[l] else {}
    oracle = _dyadic_oracle(ws_small)
    want = []
    for n in range(1, n_max + 1):
        total = {}
        for sign, term in zip((1, -1, 1, -1),
                              _oracle_terms(f, one_f, n, ws_small, bad, oracle)):
            for key, c in term.items():
                total[key] = total.get(key, 0) + sign * c
        if any(total.values()):
            want.append(n)
    assert want
    dec = DECOMPOSE[name](n_max, ws_small, bad, weight_sums(ws_small, n_max))
    assert (dec.nonzero_count, dec.first_nonzero) == (len(want), want[0])
    assert dec.max_residual(bad) == (2.0 ** (-2 * P), want[0])


def test_corrupted_table_is_caught(tables_small, ws_small):
    n_max = tables_small.n_max
    bad = _corrupted(tables_small, "mangoldt")
    sums = weight_sums(ws_small, n_max)
    assert decompose_mangoldt(n_max, ws_small, bad, sums).nonzero_count > 0
    assert decompose_mobius(n_max, ws_small, bad, sums).nonzero_count == 0
    # 30 is squarefree and above V = 5
    bad = _corrupted(tables_small, "mobius")
    dec = decompose_mobius(n_max, ws_small, bad, sums)
    assert dec.nonzero_count > 0 and dec.first_nonzero == 30


@pytest.mark.parametrize("name", sorted(DECOMPOSE))
@pytest.mark.parametrize("which", ["small", "crit"])
def test_edges(name, which, tables_small, ws_small, ws_crit):
    # 1 and 2; V and the first l above it; the squares round 49 and 1600;
    # round the first nonzero u of (1*theta_P)(1*lambda_P), where T3's
    # loop starts (below u the table is all 0 and the loop is empty); and a
    # range below U1*R, where h's support is cut
    ws = ws_small if which == "small" else ws_crit
    v = math.floor(ws.cfg.V)
    u = int(np.flatnonzero(weight_sums(ws, 1600)[2])[0])
    below = ws.cfg.h_support_bound - 1
    for n_max in (1, 2, v, v + 1, 48, 49, 50, 1599, 1600, 1601, u - 1, u,
                  u + 1, below):
        dec = DECOMPOSE[name](n_max, ws, tables_small, weight_sums(ws, n_max))
        assert dec.nonzero_count == 0, n_max
        assert dec.max_residual(tables_small) == (0.0, 1)


@pytest.mark.parametrize("name, count", [("mangoldt", 44), ("mobius", 103)])
def test_slip_in_conv_below_U_is_caught(name, count, tables_small, ws_crit):
    # (1*theta_P)(1*lambda_P) is 0 up to U = 10 and first nonzero at
    # u = 11. A 1 slipped in at k = 2 adds f_{>V}(n/2) to T3 at even n, so
    # the residual marks the n = 2m with m in (V, n_max/2] = (30, 200] and
    # f(m) != 0: 44 prime powers, 103 squarefree m, first at n = 62. A T3
    # that read the table from floor(U) + 1 would mark none
    n_max = 400
    h, one_h, conv = weight_sums(ws_crit, n_max)
    assert not conv[:11].any() and conv[11]
    conv[2] += 1
    nonzero = np.zeros(n_max + 1, dtype=bool)
    for p in MODULI:
        terms = _terms(INPUTS[name], n_max, ws_crit, tables_small, p,
                       (h, one_h, conv))
        residual = sum(sign * t for sign, t in zip((1, -1, 1, -1), terms)) % p
        nonzero |= residual != 0
    bad = np.flatnonzero(nonzero)
    assert (len(bad), bad[0]) == (count, 62)


def test_constants_certify():
    # a nonzero residual is at least 2^(-2P), above the budget, and the
    # moduli's product exceeds 2B = 2^(2P+27) (module docstring)
    assert 2.0 ** (-2 * P) > RESIDUAL_BUDGET
    assert math.prod(MODULI) > 2 ** (2 * P + 27)
    assert all(p < 2**31 and all(p % q for q in range(2, math.isqrt(p) + 1))
               for p in MODULI)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_residue_inputs_one_star_is_divisor_sum(name, tables_small):
    # each f's two inputs agree: 1*f is the divisor sum of f, mod p, on
    # 1*f's own length, and that sum is 0 past it; mu's 1*f = [m = 1] is
    # held as its two entries [0, 1]
    n_max = tables_small.n_max
    for p in MODULI:
        f, one_f = INPUTS[name](n_max, tables_small, p)
        assert len(f) == n_max + 1
        assert len(one_f) == (2 if name == "mobius" else n_max + 1)
        want = np.zeros(n_max + 1, dtype=np.int64)
        for d in range(1, n_max + 1):
            want[d::d] += f[d]
        want %= p
        assert want[:len(one_f)].tolist() == one_f.tolist()
        assert not want[len(one_f):].any()


def _brute_convolve(n_max, a, b, p, lo):
    """sum_{dm = n, m >= lo} a(d) b(m) mod p for n <= n_max, pair by pair."""
    out = [0] * (n_max + 1)
    for d in range(1, min(len(a) - 1, n_max) + 1):
        for m in range(lo, min(len(b) - 1, n_max // d) + 1):
            out[d * m] += int(a[d]) * int(b[m])
    return [c % p for c in out]


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_convolve_matches_brute_force(k):
    # _one_star's mod-p path: n_max round k^2; a and b shorter and longer
    # than n_max + 1; lo = u for u in {1, 2, k, k + 1}. Entries at index 0
    # are never read; about a third of the rest are 0, so some d are skipped
    # and some products are 0
    p = MODULI[0]
    rng = np.random.default_rng(k)

    def residues(n):
        x = rng.integers(0, p, size=n)
        x[rng.random(n) < 0.3] = 0
        return x

    for n_max in (k * k - 1, k * k, k * k + 1):
        for len_a in (2, k + 1, k + 2, n_max // 2 + 1, n_max + 1, n_max + 4):
            for len_b in (2, k + 2, n_max + 1, n_max + 4):
                a, b = residues(len_a), residues(len_b)
                for lo in (1, 2, k, k + 1):
                    got = _one_star(a, n_max, np.int64, b, lo, p)
                    assert got.dtype == np.int64
                    assert got.tolist() == _brute_convolve(n_max, a, b, p, lo), (
                        n_max, len_a, len_b, lo)


def test_mobius_term1_is_h(tables_small, ws_small):
    # T1 = h_P for mu, and h_P 2^(-2P) is the 50-digit h up to the rounding
    # of lambda and theta' to 2^(-P): at most 2^(-P) per pair (d1, d2)
    n_max = ws_small.cfg.h_support_bound
    _, _, h_p = ws_small.dyadic(P)
    for p in MODULI:
        t1 = next(_terms(_mobius_inputs, n_max, ws_small, tables_small, p,
                         weight_sums(ws_small, n_max)))
        assert t1.tolist() == (h_p % p).tolist()
    h = ws_small.h_mp()
    with workdps(50):
        for d in range(1, n_max + 1):
            pairs = sum(1 for d1 in ws_small.lambda_table for d2 in _divisors(d)
                        if d1 * d2 // math.gcd(d1, d2) == d)
            err = abs(mpf(int(h_p[d])) / 2 ** (2 * P) - h[d])
            assert err <= pairs * 2.0 ** -P, d


def test_term1_left_factor_is_the_shorter_input(tables_small, ws_small, monkeypatch):
    # T1's left factor is the input with the shorter support, so mu's T1
    # is one add of h_P (1*mu = [0, 1]) and Lambda's one add per d of h_P
    n_max = 1000
    sums = weight_sums(ws_small, n_max)
    h_len = len(sums[0])
    assert h_len < n_max + 1
    lengths = []
    original = identity._one_star

    def recorded(g, n, dtype, b=None, lo=1, p=0):
        lengths.append((len(g), len(b)))
        return original(g, n, dtype, b, lo, p)
    monkeypatch.setattr(identity, "_one_star", recorded)
    for inputs in (_mobius_inputs, _mangoldt_inputs):
        next(_terms(inputs, n_max, ws_small, tables_small, MODULI[0], sums))
    assert lengths == [(2, h_len), (h_len, n_max + 1)]


def test_mobius_prime_above_v_carried_by_term3(tables_small, ws_small):
    # next prime above V = 5 is 7; the identity must still be exact there
    for p in MODULI:
        t1, t2, t3, f = _terms(_mobius_inputs, 7, ws_small, tables_small, p,
                               weight_sums(ws_small, 7))
        assert f[5] == 0 and f[7] != 0  # f_{>V}, with 5 <= V < 7
        assert (t1[7] - t2[7] + t3[7] - f[7]) % p == 0
    assert decompose_mobius(7, ws_small, tables_small, weight_sums(ws_small, 7)).nonzero_count == 0


def test_classic_mode_matches_general_degenerate(tables_small):
    cfg = WeightConfig(U=10, U1=40, R=5, V=10, q=1)
    classic = WeightSystem(dataclasses.replace(cfg, U1=cfg.U, R=1.0), tables_small)
    general = WeightSystem(WeightConfig(U=10, U1=10, R=1, V=10, q=1),
                           tables_small)
    assert classic.h_mp().tolist() == general.h_mp().tolist()
    assert classic.lambda_table == general.lambda_table


def test_classic_mode_residual_zero(tables_small):
    ws = WeightSystem(WeightConfig(U=10, U1=10, R=1, V=10, q=1), tables_small)
    dec_l = decompose_mangoldt(500, ws, tables_small, weight_sums(ws, 500))
    assert dec_l.max_residual(tables_small)[0] < RESIDUAL_BUDGET
    dec_m = decompose_mobius(500, ws, tables_small, weight_sums(ws, 500))
    assert dec_m.max_residual(tables_small)[0] < RESIDUAL_BUDGET


def test_residual_report(tables_small, ws_small):
    dec = decompose_mobius(100, ws_small, tables_small, weight_sums(ws_small, 100))
    report = residual_report(dec, ws_small, tables_small)
    assert set(report) == {"config", "n_max", "max_abs_residual", "argmax_n",
                           "budget", "budget_ratio", "nonzero_count"}
    assert report["n_max"] == 100
    assert report["config"]["V"] == 5
    assert report["budget"] == RESIDUAL_BUDGET
    assert (report["max_abs_residual"], report["argmax_n"]) == (0.0, 1)
    assert report["budget_ratio"] == report["nonzero_count"] == 0
    bad = _corrupted(tables_small, "mobius")
    dec = decompose_mobius(100, ws_small, bad, weight_sums(ws_small, 100))
    report = residual_report(dec, ws_small, bad)
    assert report["max_abs_residual"] == 2.0 ** (-2 * P)
    assert report["argmax_n"] == 30 and report["nonzero_count"] > 0
    assert report["budget_ratio"] == report["max_abs_residual"] / RESIDUAL_BUDGET > 1


def test_range_errors(tables_small, ws_small):
    n_max = tables_small.n_max
    with pytest.raises(TableRangeError):
        weight_sums(ws_small, n_max + 1)
    with pytest.raises(TableRangeError):
        decompose_mangoldt(n_max + 1, ws_small, tables_small, weight_sums(ws_small, n_max))
