import cmath
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum_kit.arith import (_CHUNK, _SEGMENT, _WHEEL, FUNCTIONS, MANGOLDT,
                              MOBIUS, ArithTables, TableRangeError,
                              _primes_upto, _sieve_segment, _wheel_row,
                              arith_function, build_tables, divisor_count,
                              factorize, ramanujan_sum, segments, totient)
from expsum_kit.bounds import main_bound
from expsum_kit.expsum import direct_sum
from oracles import (LogVector, dirichlet_convolve, mangoldt_table,
                     mobius_table, unit_table)


def _sieved_primes(t):
    """The n >= 2 whose Mangoldt base is n (index 0 is a filler)."""
    return np.flatnonzero(t.mangoldt_base[2:] == np.arange(2, t.n_max + 1)) + 2


def _divisors(n):
    """The divisors of n >= 1, by brute force."""
    return [d for d in range(1, n + 1) if n % d == 0]


def test_table_examples(tables_small):
    t = tables_small
    assert t.mobius[6] == 1 and t.mobius[4] == 0 and t.mobius[7] == -1
    assert totient(9) == 6 and totient(10) == 4
    assert _sieved_primes(t)[:10].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert t.mangoldt_base[8] == 2 and t.mangoldt_base[6] == 0


def test_factorize_is_product_of_sieved_primes(tables_10k):
    # increasing primes of the sieve whose powers multiply back to n: by
    # unique factorization, that is the factorization
    primeset = set(_sieved_primes(tables_10k).tolist())
    for n in range(1, tables_10k.n_max + 1):
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors) == n, n
        assert all(p in primeset and e >= 1 for p, e in factors), n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors}), n


def test_mobius_and_totient_divisor_identities(tables_small):
    t = tables_small
    phi = _whole_range_sieve(2000)[1]
    for n in range(1, 2001):
        divs = _divisors(n)
        assert sum(int(t.mobius[d]) for d in divs) == (1 if n == 1 else 0)
        assert sum(totient(d) for d in divs) == n
        assert totient(n) == phi[n], n


def test_mangoldt_base_iff_prime_power(tables_small):
    t = tables_small
    for n in range(2, 2001):
        factors = factorize(n)
        assert (t.mangoldt_base[n] != 0) == (len(factors) == 1)
        if len(factors) == 1:
            assert t.mangoldt_base[n] == factors[0][0]


def test_allocation_cap():
    with pytest.raises(ValueError):
        build_tables(10**10)
    with pytest.raises(ValueError):
        build_tables(0)


def _whole_range_sieve(n_max):
    """The per-prime whole-range sieve that the chunked and then the
    segmented build replaced, kept as their oracle: (mobius, totient,
    mangoldt_base, primes)."""
    idx = np.arange(n_max + 1, dtype=np.int64)
    spf = np.zeros(n_max + 1, dtype=np.int32)
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == 0:
            spf[i] = i
            block = spf[i * i :: i]
            block[block == 0] = i
    rest = (spf == 0) & (idx >= 2)
    spf[rest] = idx[rest].astype(np.int32)
    primes = idx[(idx >= 2) & (spf == idx)]
    mobius = np.ones(n_max + 1, dtype=np.int8)
    totient = idx.copy()
    mangoldt_base = np.zeros(n_max + 1, dtype=np.int32)
    for p in map(int, primes):
        mobius[p::p] *= -1
        if p * p <= n_max:
            mobius[p * p :: p * p] = 0
        totient[p::p] = totient[p::p] // p * (p - 1)
        pk = p
        while pk <= n_max:
            mangoldt_base[pk] = p
            pk *= p
    mobius[0] = 0
    totient[0] = 0
    return mobius, totient, mangoldt_base, primes


def _assert_same_as_oracle(t):
    mobius, _, mangoldt_base, primes = _whole_range_sieve(t.n_max)
    for name, want in (("mobius", mobius), ("mangoldt_base", mangoldt_base)):
        got = getattr(t, name)
        assert got.dtype == want.dtype, (t.n_max, name, got.dtype)
        assert np.array_equal(got, want), (t.n_max, name)
    assert np.array_equal(_sieved_primes(t), primes), t.n_max


def test_tables_match_whole_range_sieve_small():
    # every n_max through the first eight dyadic passes, and past 13^2,
    # below which 13 is listed above sqrt(n_max)
    for n_max in range(1, 401):
        _assert_same_as_oracle(build_tables(n_max))


@pytest.mark.parametrize("n_max", [2**17 - 1, 2**17, 2**17 + 1, 2**18 + 1,
                                   100_000, _SEGMENT - 1, _SEGMENT,
                                   _SEGMENT + 1, 2 * _SEGMENT + 1,
                                   168, 169, 170, _WHEEL - 1, _WHEEL, _WHEEL + 1])
def test_tables_match_whole_range_sieve(n_max):
    # the former build's 2^17-entry chunk edges, the segment edges (the
    # second segment starts on 2^19, a prime power), 13^2, and the
    # wheel's period
    _assert_same_as_oracle(build_tables(n_max))


@pytest.mark.parametrize("n_max", [1, 2, 3, 2**17 + 1, _SEGMENT - 1, _SEGMENT,
                                   _SEGMENT + 1, 2 * _SEGMENT + 1, 169, _WHEEL + 1])
def test_build_tables_is_the_concatenated_stream(n_max):
    # the stream's segments tile [0, n_max] at the multiples of _SEGMENT,
    # in one reused pair of buffers, and put end to end they are
    # build_tables' arrays, which are sieved through the same loop
    t = build_tables(n_max)
    seen, buffers = [], set()
    for segment in segments(n_max):
        seen.append((segment.lo, segment.hi, segment.mobius.copy(),
                     segment.mangoldt_base.copy()))
        buffers.add((id(segment.mobius.base), id(segment.mangoldt_base.base)))
    assert [(lo, hi) for lo, hi, _, _ in seen] == [
        (lo, min(lo + _SEGMENT, n_max + 1)) for lo in range(0, n_max + 1, _SEGMENT)]
    assert len(buffers) == 1
    for name, column in (("mobius", 2), ("mangoldt_base", 3)):
        got = np.concatenate([part[column] for part in seen])
        want = getattr(t, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_build_tables_peak_is_tables_and_one_segment():
    # the sieve's scratch is one int32 prod per build plus cache-sized
    # temporaries, whatever n_max: tables + prod + 0.5 MiB (tracemalloc)
    n_max = 2**20 + 1
    tracemalloc.start()
    try:
        t = build_tables(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prod = 4 * _SEGMENT
    assert peak <= t.mobius.nbytes + t.mangoldt_base.nbytes + prod + (1 << 19)


@pytest.mark.parametrize("lo, hi", [
    (2**19, 2**19 + 5_000),             # a prime power
    (3**2 * 5**2 * 7**2 * 53, 590_000),  # a multiple of p^2, not a p^k
    (510_511, 515_000),                 # squarefree: 19 * 97 * 277
    (2**19 - 1, 2**19 + 5_000),         # a prime past the list
    (1_001, 1_000_001),                 # just past sqrt(1e6)
    (20 * _WHEEL - 100, 20 * _WHEEL + 5_000),   # across a multiple of the wheel
    (21 * _WHEEL - 1, 21 * _WHEEL + 20_000),    # shorter than it, from -1 mod it
    (2, 2 * _SEGMENT + 7),                      # longer than _SEGMENT, from 2
    (_SEGMENT, _SEGMENT + 3 * _CHUNK + 1),      # one entry into a last chunk
    (2, 170),                           # 13 listed, though 13^2 >= hi
])
def test_segment_matches_whole_range_sieve_at_any_start(lo, hi):
    # the segment sieve alone, started off the _SEGMENT grid: mu on
    # [lo, hi), and the base of every prime there above the listed primes,
    # in a scratch prod that is longer than the segment and holds stale
    # values, as build_tables passes it
    mobius, _, mangoldt_base, _ = _whole_range_sieve(hi - 1)
    primes = _primes_upto(max(math.isqrt(hi - 1), 13))
    mu = np.full(hi, 7, dtype=np.int8)
    base = np.zeros(hi, dtype=np.int32)
    prod = np.full(max(hi - lo, _SEGMENT) + 3, 99, dtype=np.int32)
    _sieve_segment(lo, hi, primes, mu[lo:], base[lo:], prod, _wheel_row())
    n = np.arange(lo, hi)
    want_base = np.where((mangoldt_base[lo:] == n) & (n > primes[-1]), n, 0)
    assert np.array_equal(mu[lo:], mobius[lo:])
    assert np.array_equal(base[lo:], want_base)
    assert (mu[:lo] == 7).all() and not base[:lo].any()  # nothing below lo


def test_tables_2m_match_whole_range_sieve(tables_2m):
    _assert_same_as_oracle(tables_2m)


def test_ramanujan_examples(tables_small):
    t = tables_small
    assert ramanujan_sum(1, 5, t) == 1
    assert ramanujan_sum(6, 6, t) == totient(6) == 2
    assert ramanujan_sum(4, 2, t) == -2


def test_ramanujan_against_brute_force(tables_small):
    t = tables_small
    for r in range(1, 61):
        for n in range(1, 61):
            direct = sum(cmath.exp(2j * cmath.pi * a * n / r)
                         for a in range(1, r + 1) if math.gcd(a, r) == 1)
            assert abs(direct.imag) < 1e-9
            assert ramanujan_sum(r, n, t) == round(direct.real)


def test_ramanujan_multiplicative(tables_small):
    t = tables_small
    for r in range(1, 41):
        for s in range(1, 41):
            if math.gcd(r, s) != 1:
                continue
            for n in (1, 7, 12, 30):
                assert (ramanujan_sum(r * s, n, t)
                        == ramanujan_sum(r, n, t) * ramanujan_sum(s, n, t))


def test_convolution_mobius_inversion_identity(tables_small):
    t = tables_small
    n_max = 500
    conv = dirichlet_convolve(unit_table(n_max), mobius_table(n_max, t), n_max)
    assert conv[1] == 1
    assert all(conv[n] == 0 for n in range(2, n_max + 1))


def test_convolution_log_identity(tables_small):
    # (1 * Lambda)(12) = 2 log 2 + log 3
    t = tables_small
    conv = dirichlet_convolve(unit_table(12), mangoldt_table(12, t), 12)
    assert conv[12] == LogVector({2: 2, 3: 1})
    # brute force over the divisors of 12
    lam = mangoldt_table(12, t)
    brute = LogVector()
    for d in _divisors(12):
        brute = brute + lam[d]
    assert conv[12] == brute


def test_convolution_mu_musq_example(tables_small):
    # mu(1)mu^2(4) + mu(2)mu^2(2) + mu(4)mu^2(1) = 0 - 1 + 0 = -1
    t = tables_small
    n_max = 16
    mu = mobius_table(n_max, t)
    musq = [Fraction(0)] + [Fraction(int(t.mobius[n]) ** 2) for n in range(1, n_max + 1)]
    conv = dirichlet_convolve(mu, musq, n_max)
    brute = sum(Fraction(int(t.mobius[d]) * int(t.mobius[4 // d]) ** 2)
                for d in _divisors(4))
    assert conv[4] == brute == -1


def test_mobius_inversion_round_trip_full(tables_small):
    # ((f * 1) * mu) = f exactly for a pseudorandom rational f on [1, 2000]
    t = tables_small
    n_max = 2000
    rng = np.random.default_rng(20260810)
    f = [Fraction(0)] + [Fraction(int(rng.integers(-50, 51)),
                                  int(rng.integers(1, 20)))
                         for _ in range(n_max)]
    g = dirichlet_convolve(f, unit_table(n_max), n_max)
    back = dirichlet_convolve(g, mobius_table(n_max, t), n_max)
    assert back[1:] == f[1:]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30),
                min_size=1, max_size=60))
def test_mobius_inversion_round_trip_property(values):
    t = build_tables(len(values))
    f = [Fraction(0)] + values
    n_max = len(values)
    g = dirichlet_convolve(f, unit_table(n_max), n_max)
    back = dirichlet_convolve(g, mobius_table(n_max, t), n_max)
    assert back[1:] == f[1:]


def test_logvector_arithmetic():
    a = LogVector({2: Fraction(1), 3: Fraction(2)})
    b = LogVector({3: Fraction(2), 5: Fraction(-1)})
    assert (a - b) == LogVector({2: Fraction(1), 5: Fraction(1)})
    assert not (a - a)
    assert not a.scale(Fraction(0))
    assert abs(a.to_float() - (math.log(2) + 2 * math.log(3))) < 1e-12


def test_table_free_phi_and_tau(tables_10k):
    # phi against the oracle's, and tau against a divisor-count sieve
    t = tables_10k
    phi = _whole_range_sieve(t.n_max)[1]
    tau = np.zeros(t.n_max + 1, dtype=np.int64)
    for d in range(1, t.n_max + 1):
        tau[d::d] += 1
    for n in range(1, t.n_max + 1):
        assert totient(n) == phi[n], n
        assert divisor_count(n) == tau[n], n
    assert factorize(2**31 - 1) == [(2**31 - 1, 1)]
    assert totient(10**6 + 3) == 10**6 + 2  # a prime past the tables


@pytest.mark.parametrize("n", [0, -1, -7])
def test_table_free_factorize_rejects_n_below_1(n):
    # [] for n <= 0 made phi(0) = tau(0) = phi(-7) = 1
    for f in (factorize, totient, divisor_count):
        with pytest.raises(ValueError):
            f(n)


def test_tables_hold_only_the_read_columns(tables_small):
    # mu and the Mangoldt base: 5 bytes per n; phi and the primes are
    # derived (arith.totient, base(n) = n), and nothing factorizes through
    # the tables (arith.factorize is the one factorization)
    names = [f.name for f in dataclasses.fields(ArithTables)]
    assert names == ["n_max", "mobius", "mangoldt_base"]
    arrays = [getattr(tables_small, name) for name in names[1:]]
    assert all(a.shape == (tables_small.n_max + 1,) for a in arrays)
    assert sum(a.itemsize for a in arrays) == 5
    for name in ("spf", "factorize", "divisors"):
        assert not hasattr(tables_small, name), name


def test_range_errors(tables_small):
    with pytest.raises(TableRangeError):
        ramanujan_sum(tables_small.n_max + 1, 1, tables_small)
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1, tables_small)


def test_registry_floats_match_exact_values(tables_10k):
    t = tables_10k
    lam, mu = MANGOLDT.floats(t), MOBIUS.floats(t)
    assert lam.dtype == mu.dtype == np.float64
    assert len(lam) == len(mu) == t.n_max + 1
    exact = mangoldt_table(t.n_max, t)
    for n in range(1, t.n_max + 1):
        assert math.isclose(lam[n], exact[n].to_float(), rel_tol=1e-15), n
        assert mu[n] == int(t.mobius[n]), n
    assert list(FUNCTIONS) == ["mangoldt", "mobius"]
    assert all(FUNCTIONS[name].name == name for name in FUNCTIONS)


def test_registry_floats_to_a_top_index(tables_10k):
    # a table built up to top holds the full table's bits on [0, top]
    t = tables_10k
    for f in (MANGOLDT, MOBIUS):
        full = f.floats(t)
        for top in (0, 1, 30, 4_999, t.n_max):
            part = f.floats(t, top)
            assert len(part) == top + 1
            assert part.tobytes() == full[:top + 1].tobytes()
        with pytest.raises(TableRangeError):
            f.floats(t, t.n_max + 1)


def test_registry_support_from_a_lo_index(tables_10k):
    # the support of a block [lo, top] of an f with no int_table, scattered
    # into zeros, holds the full table's bits there, entry i at n = lo + i:
    # at a block of one n, at a prime power (8, 9973) and at a squarefree n
    # (30) on either end, and empty past top
    t = tables_10k
    for f in (f for f in FUNCTIONS.values() if f.int_table is None):
        full = f.floats(t)
        for lo, top in ((0, 10), (1, 1), (8, 8), (8, 30), (9, 29), (31, 9_973),
                        (9_973, t.n_max), (5_001, 5_000)):
            n, values, got_top = f.support(t, top, lo)
            assert got_top == top and np.all(n >= lo), (f.name, lo, top)
            part = np.zeros(top + 1 - lo)
            part[n - lo] = values
            assert part.tobytes() == full[lo:top + 1].tobytes(), (f.name, lo, top)
        with pytest.raises(TableRangeError):
            f.support(t, t.n_max + 1, t.n_max)


def test_support_scatters_to_floats(tables_10k, tables_100k):
    # the support, scattered into zeros, is floats bit for bit, and holds
    # every n where f is nonzero, in increasing order
    for t in (tables_10k, tables_100k):
        for f in (MANGOLDT, MOBIUS):
            for top in (None, 4_999):
                n, values, got_top = f.support(t, top)
                want = f.floats(t, top)
                assert got_top == len(want) - 1
                assert n.dtype == np.int64 and values.dtype == np.float64
                assert np.all(np.diff(n) > 0) and np.all(values != 0.0)
                dense = np.zeros(len(want))
                dense[n] = values
                assert dense.tobytes() == want.tobytes(), (t.n_max, f.name, top)
        with pytest.raises(TableRangeError):
            f.support(t, t.n_max + 1)


def test_registry_unknown_name(tables_small):
    for call in (lambda: arith_function("liouville"),
                 lambda: direct_sum("liouville", 0, 10, tables_small),
                 lambda: main_bound("liouville", 1e6, 3, 1.0, 1.0 / 15.0)):
        with pytest.raises(ValueError, match="liouville"):
            call()

