import dataclasses
import math
from fractions import Fraction

import pytest
from mpmath import ldexp, mp, mpf, workdps

from expsum_kit.arith import LogVector, TableRangeError, factorize
from expsum_kit.identity import (RESIDUAL_BUDGET, decompose_mangoldt,
                                 decompose_mobius, residual_report)
from expsum_kit.weights import WeightConfig, WeightSystem


@pytest.fixture(scope="module")
def ws_small(tables_small):
    return WeightSystem(WeightConfig(U=2, U1=4, R=3, V=5, q=1), tables_small)


def test_mangoldt_residual_zero_small_config(tables_small, ws_small):
    dec = decompose_mangoldt(500, ws_small, tables_small)
    worst, arg = dec.max_residual(tables_small)
    assert worst < RESIDUAL_BUDGET, f"residual {worst} at n={arg}"


def test_mobius_residual_zero_small_config(tables_small, ws_small):
    dec = decompose_mobius(500, ws_small, tables_small)
    worst, arg = dec.max_residual(tables_small)
    assert worst < RESIDUAL_BUDGET, f"residual {worst} at n={arg}"


def test_trivial_values(tables_small, ws_small):
    dec = decompose_mangoldt(50, ws_small, tables_small)
    # n = 1: every term empty, residual 0
    assert not dec.term1[1] and not dec.term4[1]
    assert not dec.residual(1, tables_small)
    # prime p <= V: the four terms combine to {p: 1}
    for p in (2, 3, 5):
        combo = (dec.term1[p] - dec.term2[p] + dec.term3[p] + dec.term4[p])
        assert abs(Fraction(combo.coeffs[p], 2 ** dec.bits) - 1) < 1e-30


# Exact f(l), exact (1*f)(m) and the zero of the value type, written
# independently of the engine's own description of each function.
def _mangoldt_oracle(l, tables):
    """Lambda(l) from the factorization: {p: 1} when l = p^k."""
    factors = factorize(l)
    return LogVector({factors[0][0]: 1}) if len(factors) == 1 else LogVector()


ORACLE_FUNCTIONS = {
    "mangoldt": (decompose_mangoldt, _mangoldt_oracle,
                 lambda m, t: LogVector(dict(factorize(m))), LogVector),
    "mobius": (decompose_mobius, lambda l, t: mpf(int(t.mobius[l])),
               lambda m, t: mpf(1) if m == 1 else mpf(0), lambda: mpf(0)),
}


def _divisors(n):
    """The divisors of n >= 1, by brute force."""
    return [d for d in range(1, n + 1) if n % d == 0]


def _size(v):
    return float(abs(v)) if isinstance(v, LogVector) else abs(float(v))


def _unscaled(v, bits):
    """A term value, an integer numerator over 2^bits, as mpf (a LogVector
    of mpf for Lambda)."""
    if isinstance(v, LogVector):
        return LogVector({p: ldexp(mpf(c), -bits) for p, c in v.coeffs.items()})
    return ldexp(mpf(v), -bits)


def _fraction(v):
    """An mpf as the exact Fraction man * 2^exp."""
    man, exp = v.man_exp
    return Fraction(-man if v < 0 else man) * Fraction(2) ** exp


def _oracle_terms(name, n, ws, tables):
    """Independent evaluation of the four terms by raw divisor sums,
    recomputing h from the lambda fractions and the theta' formula."""
    _, f, one_f, zero = ORACLE_FUNCTIONS[name]
    cfg = ws.cfg
    with workdps(50):
        def theta_prime(d):
            mu = int(tables.mobius[d])
            if mu == 0 or d > cfg.U1:
                return mpf(0)
            if d <= cfg.U:
                return mpf(mu)
            return mu * mp.log(mpf(cfg.U1) / d) / mp.log(mpf(cfg.U1) / mpf(cfg.U))

        def h(m):
            total = mpf(0)
            for d1, lam in ws.lambda_table.items():
                for d2 in range(1, int(cfg.U1) + 1):
                    if d1 * d2 // math.gcd(d1, d2) == m:
                        total += (mpf(lam.numerator) / lam.denominator
                                  * theta_prime(d2))
            return total

        def one(g, m):
            return sum((g(d) for d in _divisors(m)), mpf(0))

        def lam_at(d):
            fr = ws.lambda_table.get(d)
            return mpf(fr.numerator) / fr.denominator if fr else mpf(0)

        def theta(d):
            return int(tables.mobius[d]) - theta_prime(d)

        t1 = zero()
        for d in _divisors(n):
            t1 = t1 + one_f(n // d, tables) * h(d)
        t2, t3 = zero(), zero()
        for l in _divisors(n):
            k = n // l
            if l <= cfg.V:
                t2 = t2 + f(l, tables) * one(h, k)
            else:
                t3 = t3 + f(l, tables) * (one(theta, k) * one(lam_at, k))
        t4 = f(n, tables) if n <= cfg.V else zero()
        return t1, t2, t3, t4


@pytest.mark.parametrize("name", sorted(ORACLE_FUNCTIONS))
def test_terms_against_independent_oracle(name, tables_small, ws_small):
    dec = ORACLE_FUNCTIONS[name][0](80, ws_small, tables_small)
    with workdps(50):
        for n in (1, 2, 6, 12, 30, 36, 60, 64, 77):
            o1, o2, o3, o4 = _oracle_terms(name, n, ws_small, tables_small)
            for got, want in ((dec.term1[n], o1), (dec.term2[n], o2),
                              (dec.term3[n], o3), (dec.term4[n], o4)):
                got = _unscaled(got, dec.bits)
                assert _size(got - want) < 1e-30, (n, got, want)


# f(l) and (1*f)(m) as {coordinate: int}, from the factorization alone
FRACTION_FUNCTIONS = {
    "mangoldt": (decompose_mangoldt,
                 lambda l, t: _mangoldt_oracle(l, t).coeffs,
                 lambda m, t: dict(factorize(m))),
    "mobius": (decompose_mobius,
               lambda l, t: {1: int(t.mobius[l])} if t.mobius[l] else {},
               lambda m, t: {1: 1} if m == 1 else {}),
}


def _fraction_residual(name, n, ws, tables, n_max):
    """T1 - T2 + T3 + T4 - f(n) at n as {coordinate: Fraction}, summed over
    the divisors of n in Fractions from the converted integer tables."""
    _, f, one_f = FRACTION_FUNCTIONS[name]
    bits, h, one_h, conv = ws.identity_tables(n_max)
    unit = Fraction(1, 2 ** bits)
    total = {}

    def add(coeffs, weight):
        for key, c in coeffs.items():
            total[key] = total.get(key, 0) + c * weight

    for d in _divisors(n):
        add(one_f(n // d, tables), h.get(d, 0) * unit)
        if d <= ws.cfg.V:
            add(f(d, tables), -one_h[n // d] * unit)
        else:
            add(f(d, tables), conv[n // d] * unit)
    if n <= ws.cfg.V:
        add(f(n, tables), 1)
    add(f(n, tables), -1)
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize("name", sorted(FRACTION_FUNCTIONS))
def test_residual_is_the_exact_residual_of_the_tables(name, tables_small, ws_small):
    # the engine sums in its own order; an independent divisor sum in
    # Fractions over the same converted tables must give the same residual
    # at every n, and the report must round the largest of them once
    n_max = 400
    dec = FRACTION_FUNCTIONS[name][0](n_max, ws_small, tables_small)
    unit = Fraction(1, 2 ** dec.bits)
    sizes = {}
    for n in range(1, n_max + 1):
        r = dec.residual(n, tables_small)
        got = {key: c * unit for key, c in
               (r.coeffs.items() if isinstance(r, LogVector) else [(1, r)]) if c}
        want = _fraction_residual(name, n, ws_small, tables_small, n_max)
        assert got == want, n
        sizes[n] = max(map(abs, want.values()), default=Fraction(0))
    worst = max(sizes.values())
    assert worst > 0
    arg = min(n for n, size in sizes.items() if size == worst)
    assert dec.max_residual(tables_small) == (float(worst), arg)


def test_mobius_term1_is_h(tables_small, ws_small):
    dec = decompose_mobius(60, ws_small, tables_small)
    h = ws_small.h_mp()
    for n in range(1, 61):
        assert Fraction(dec.term1[n], 2 ** dec.bits) == _fraction(h.get(n, mpf(0)))


def test_mobius_prime_above_v_carried_by_term3(tables_small, ws_small):
    # next prime above V = 5 is 7; the identity must still be exact there
    dec = decompose_mobius(7, ws_small, tables_small)
    assert abs(math.ldexp(dec.residual(7, tables_small), -dec.bits)) < RESIDUAL_BUDGET
    assert dec.term4[7] == 0  # 7 > V


def test_classic_mode_matches_general_degenerate(tables_small):
    cfg = WeightConfig(U=10, U1=40, R=5, V=10, q=1)
    classic = WeightSystem(dataclasses.replace(cfg, U1=cfg.U, R=1.0), tables_small)
    general = WeightSystem(WeightConfig(U=10, U1=10, R=1, V=10, q=1),
                           tables_small)
    assert classic.h_mp() == general.h_mp()
    assert classic.lambda_table == general.lambda_table


def test_classic_mode_residual_zero(tables_small):
    ws = WeightSystem(WeightConfig(U=10, U1=10, R=1, V=10, q=1), tables_small)
    dec_l = decompose_mangoldt(500, ws, tables_small)
    assert dec_l.max_residual(tables_small)[0] < RESIDUAL_BUDGET
    dec_m = decompose_mobius(500, ws, tables_small)
    assert dec_m.max_residual(tables_small)[0] < RESIDUAL_BUDGET


def test_residual_report(tables_small, ws_small):
    dec = decompose_mobius(100, ws_small, tables_small)
    report = residual_report(dec, ws_small, tables_small)
    assert set(report) == {"config", "n_max", "max_abs_residual", "argmax_n",
                           "budget", "budget_ratio"}
    assert report["n_max"] == 100
    assert report["config"]["V"] == 5
    assert report["budget"] == RESIDUAL_BUDGET
    assert report["budget_ratio"] == report["max_abs_residual"] / RESIDUAL_BUDGET


def test_range_errors(tables_small, ws_small):
    with pytest.raises(TableRangeError):
        decompose_mangoldt(tables_small.n_max + 1, ws_small, tables_small)
