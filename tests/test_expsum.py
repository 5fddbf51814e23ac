import cmath
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import expjpi, expm1, mpf, pi, workdps

from expsum_kit import bounds as bnd
from expsum_kit import expsum
from expsum_kit.arith import (MANGOLDT, MOBIUS, Support, TableRangeError,
                              arith_function, build_tables)
from expsum_kit.expsum import (_geometric_sum, _phase_blocks, _total,
                               direct_sum, h_only_sum, l2_profiles,
                               rational_sum_from_residues, recombine,
                               residue_weight_sums, symmetric_fracs, type_I_1,
                               twisted_weights, type_I_2, type_II)
from expsum_kit.weights import WeightConfig, WeightSystem, _one_star


def unit_exponentials(alpha, n):
    """The twists' dense oracle: e(k*alpha) for k = 1..n in one complex
    array, from the whole symmetric_fracs array."""
    arg = (2 * np.pi) * symmetric_fracs(alpha, np.arange(1, n + 1))
    out = np.empty(n, dtype=np.complex128)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _phase_arrays(alpha, n):
    """The kernel's dense oracle: (block starts, e(k*alpha) for k = 1..n in
    one complex array), the blocks of _phase_blocks concatenated."""
    starts, blocks = [], []
    for start, e in _phase_blocks(Fraction(alpha), n):
        starts.append(start)
        blocks.append(e.copy())
    return starts, np.concatenate(blocks)


def _block_sum(values):
    """The dense route's sum: pairwise np.sum over each 2^16-block of one
    full-length complex array, the partials combined exactly."""
    starts = range(0, len(values), 65_536)
    return _total([float(np.sum(values.real[i:i + 65_536])) for i in starts],
                  [float(np.sum(values.imag[i:i + 65_536])) for i in starts],
                  len(values)).value


@pytest.fixture(scope="module")
def ws_mid(tables_10k):
    return WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_10k)


def test_direct_sum_hand_values(tables_small):
    s = direct_sum("mangoldt", 0, 10, tables_small)
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert s.real_part == pytest.approx(expected, abs=1e-12)
    assert s.imag_part == pytest.approx(0.0, abs=1e-12)
    s2 = direct_sum("mangoldt", Fraction(1, 2), 10, tables_small)
    expected2 = 3 * math.log(2) - 2 * math.log(3) - math.log(5) - math.log(7)
    assert s2.real_part == pytest.approx(expected2, abs=1e-12)


def test_direct_sum_periodicity(tables_small):
    a = Fraction(3, 7)
    s1 = direct_sum("mobius", a, 2000, tables_small)
    s2 = direct_sum("mobius", a + 1, 2000, tables_small)
    assert abs(s1.value - s2.value) < 1e-12


def test_direct_sum_conjugation(tables_small):
    for alpha in (Fraction(3, 7), Fraction(41, 137), 0.318309886):
        s_pos = direct_sum("mangoldt", alpha, 2000, tables_small)
        s_neg = direct_sum("mangoldt", -Fraction(alpha) if isinstance(alpha, Fraction)
                           else -alpha, 2000, tables_small)
        assert abs(s_pos.value.conjugate() - s_neg.value) < 1e-12


def _dist(r: Fraction) -> Fraction:
    """Distance from r to the nearest integer."""
    r %= 1
    return min(r, 1 - r)


def test_symmetric_fracs_exact():
    # n*alpha mod 1 in [-1/2, 1/2] (the 1/2 case can come out as either
    # end): correctly rounded at n = 1, within two roundings where a block
    # re-anchors, within 5e-13 elsewhere, and bitwise odd in alpha
    rng = np.random.default_rng(3)
    for alpha in (Fraction(17, 31), Fraction(int(rng.integers(1, 10**6))),
                  Fraction(1, 2), Fraction(0.7182818), Fraction(7, 2**20 + 1)):
        fr = symmetric_fracs(alpha, np.arange(1, 301))
        assert np.all(np.abs(fr) <= 0.5)
        assert abs(fr[0]) == float(_dist(alpha))
        for n in (2, 7, 131, 299, 300):
            gap = Fraction(fr[n - 1]) - n * alpha
            assert abs(gap - round(gap)) < 5e-13
        neg = symmetric_fracs(-alpha, np.arange(1, 301))
        half = np.abs(fr) == 0.5  # e(1/2) = e(-1/2): either end will do
        assert np.array_equal(neg[~half], -fr[~half])
        assert np.all(np.abs(neg[half]) == 0.5)
    alpha = Fraction(355, 113)
    big = symmetric_fracs(alpha, np.arange(1, 200_001))
    for n in (65_537, 131_073, 196_609):  # a block start: anchor plus beta
        assert abs(abs(big[n - 1]) - _dist(n * alpha)) < 1e-15


def test_symmetric_fracs_in_block_drift():
    # within a 2^16-block beta's rounding times j, and the roundings of
    # j*beta and of the anchor sum, reach 2^-38 each: over two full blocks,
    # at odd denominators (no half-integer k*alpha), every value is within
    # the docstring's 2^-37 + 2^-55 of the exact k*alpha mod 1 (to the
    # 2^-52 of this float check), and the drift is far above one ulp
    n = 2 * 65_536
    k = np.arange(1, n + 1, dtype=np.int64)
    worst = 0.0
    for alpha in (Fraction(1, 3), Fraction(2, 7), Fraction(-2, 7),
                  Fraction(17, 31), Fraction(355, 113)):
        fr = symmetric_fracs(alpha, k)
        gap = fr - (k * alpha.numerator % alpha.denominator) / alpha.denominator
        err = np.abs(gap - np.round(gap)).max()
        assert err <= 2.0**-37 + 2.0**-55 + 2.0**-52, (alpha, err)
        worst = max(worst, err)
    assert worst >= 2.0**-39, worst


@pytest.mark.parametrize("k", [
    *(pytest.param(np.arange(first, hi + 1), id=f"{first}-{hi}")
      for first, hi in ((1, 200_000), (65_530, 65_540), (65_536, 65_600),
                        (65_537, 131_072), (100, 100), (131_000, 200_000))),
    pytest.param(np.array([1, 65_535, 65_536, 65_537, 131_072, 131_073, 199_999]),
                 id="sparse"),
    pytest.param(np.array([], dtype=np.int64), id="empty")])
def test_symmetric_fracs_window_bitwise(k):
    # the value at k keeps its 2^16-block anchor and in-block index: a
    # window or a sparse k has the bits of the dense array's entries at k,
    # inside a block, across block boundaries, and starting on a block's
    # last or first k
    alpha = Fraction(355, 113) + Fraction(8, 10**6)
    full = symmetric_fracs(alpha, np.arange(1, 200_001))
    got = symmetric_fracs(alpha, k)
    assert got.shape == k.shape
    assert got.tobytes() == full[k - 1].tobytes()


def test_rational_fast_path_matches_direct(tables_10k):
    # the sweep's route to S(a/q): one residue aggregation, then a dot
    for (a, q) in ((2, 7), (1, 2), (5, 12), (0, 1)):
        sa = direct_sum("mangoldt", Fraction(a, q), 5000, tables_10k)
        sb = rational_sum_from_residues(
            residue_weight_sums(MANGOLDT.support(tables_10k), q, 5000), a, q, 5000)
        assert abs(sa.value - sb.value) < 1e-7


def test_rational_sum_unit_roots_same_bits():
    # the per-q table of e(r/q) gives each a the phases it made for itself
    rng = np.random.default_rng(5)
    for q in range(1, 130):
        per_residue = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        for a in range(q):
            phases = np.exp(2j * np.pi * ((a * np.arange(q, dtype=np.int64)) % q) / q)
            want = complex(np.dot(per_residue, phases))
            got = rational_sum_from_residues(per_residue, a, q, 0)
            assert (got.real_part.hex(), got.imag_part.hex()) == (
                want.real.hex(), want.imag.hex()), (a, q)


def _bincount_residue_sums(w, q, x, twist=None):
    """The residue-array route the fold replaced, kept as its oracle."""
    n = int(math.floor(x))
    residues = np.arange(1, n + 1, dtype=np.int64) % q
    v = w[1:n + 1]
    if twist is None:
        return np.bincount(residues, weights=v, minlength=q)
    re = np.bincount(residues, weights=v * twist.real, minlength=q)
    return re + 1j * np.bincount(residues, weights=v * twist.imag, minlength=q)


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_residue_fold_bytes_match_bincount(f, tables_10k):
    # same bits as bincount: each class summed in increasing n from 0.0;
    # delta = -0.25 keeps every imaginary twist negative, so the classes
    # where mu vanishes are sums of -0.0
    w = arith_function(f).floats(tables_10k)
    support = arith_function(f).support(tables_10k)
    for x in (10_000, 7_777.5):
        n = int(x)
        for delta in (None, 8, -0.25):
            twist = (None if delta is None
                     else unit_exponentials(Fraction(delta) / Fraction(x), n))
            weights = (support if delta is None
                       else twisted_weights(support, Fraction(delta) / Fraction(x)))
            for q in range(1, 41):
                got = residue_weight_sums(weights, q, x)
                want = _bincount_residue_sums(w, q, x, twist)
                assert got.dtype == want.dtype and got.shape == (q,)
                assert got.tobytes() == want.tobytes(), (x, delta, q)
    # q > n, and n divisible by q (an empty tail)
    for x, q in ((100, 101), (100, 150), (100, 1), (100, 20), (9_996, 7),
                 (10_000, 16)):
        got = residue_weight_sums(support, q, x)
        assert got.tobytes() == _bincount_residue_sums(w, q, x).tobytes(), (x, q)
    with pytest.raises(TableRangeError, match=r"^residue sum cutoff 10001 exceeds "
                       r"sieved range n_max=10000$"):
        residue_weight_sums(support, 3, tables_10k.n_max + 1)


def _int_table_sums(table, q, x):
    """mu's class sums mod q on n <= x by one IntegerClassSums fold."""
    fold = expsum.IntegerClassSums(q)
    fold.add(table[:int(math.floor(x)) + 1], 0)
    return fold.sums(q)


@pytest.mark.parametrize("n_max", [10_000, 1_000_000])
def test_int_table_fold_bytes_match_bincount(n_max, tables_10k):
    # mu's partial sums are integers below 2^53, so the int8 table's
    # integer fold has the dense float bincount's bits in every case:
    # cut at the table's end and inside it, x + 1 a multiple of the fold
    # width W (an empty tail), x < W (no full rows), and q > x
    tables = tables_10k if n_max == 10_000 else build_tables(n_max)
    table = MOBIUS.int_table(tables)
    assert table.dtype == np.int8 and len(table) == n_max + 1
    w = MOBIUS.floats(tables)
    for q in (1, 2, 3, 7, 16, 97, 100, 4096, 5000):
        width = q * max(1, 4096 // q)
        aligned = (n_max + 1) // width * width - 1
        for x in (n_max, n_max - 0.5, aligned, aligned + 1, width // 2 + 0.5,
                  width - 1):
            got = _int_table_sums(table, q, x)
            want = _bincount_residue_sums(w, q, x)
            assert got.dtype == np.float64 and got.shape == (q,)
            assert got.tobytes() == want.tobytes(), (n_max, q, x)
    for x, q in ((100, 101), (100, 150), (1, 2), (4_095, 5_000)):
        got = _int_table_sums(table, q, x)
        assert got.shape == (q,)
        assert got.tobytes() == _bincount_residue_sums(w, q, x).tobytes(), (x, q)


def test_unit_exponentials_bitwise():
    for alpha in (Fraction(3, 7), Fraction(-3, 7), Fraction(41, 137),
                  Fraction(-41, 137), Fraction(1, 4), Fraction(8, 10_007)):
        got = unit_exponentials(alpha, 70_000)
        arg = (2 * np.pi) * symmetric_fracs(alpha, np.arange(1, 70_001))
        want = np.cos(arg) + 1j * np.sin(arg)
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes(), alpha
    assert np.array_equal(unit_exponentials(Fraction(-3, 7), 999),
                          np.conj(unit_exponentials(Fraction(3, 7), 999)))


def test_direct_sum_is_the_plain_blocked_sum(tables_10k):
    # the kernel returns the bits of the blocked sum of w times its phases
    for f in ("mangoldt", "mobius"):
        w = arith_function(f).floats(tables_10k)[1:9_001]
        for alpha in (Fraction(2, 7), Fraction(-2, 7), Fraction(0), 0.318309886):
            got = direct_sum(f, alpha, 9_000.5, tables_10k)
            want = _block_sum(w * _phase_arrays(alpha, 9_000)[1])
            assert (got.real_part, got.imag_part, got.n_terms) == (
                want.real, want.imag, 9_000)


_STREAM_CUTOFFS = (65_535, 65_536, 65_537, 131_072.5, 1_000_000)


def _stream_alphas(x):
    return (Fraction(2, 7), Fraction(-2, 7), Fraction(0), Fraction(1, 2),
            Fraction(1, 3) + Fraction(8) / Fraction(x), 0.318309886)


def _oracle_sum(w, alpha, n):
    want = _block_sum(w[:n] * _phase_arrays(alpha, n)[1])
    return repr((want.real, want.imag, n))


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_direct_sum_bits_match_dense_oracle(f, tables_2m):
    # the streamed pass has the bits of the blocked sum over one full-length
    # array of _phase_blocks' phases, on both sides of a 2^16-block edge
    # and at 1e6
    w = arith_function(f).floats(tables_2m, 1_000_000)[1:]
    for x in _STREAM_CUTOFFS:
        n = int(x)
        for alpha in _stream_alphas(x):
            got = direct_sum(f, alpha, x, tables_2m)
            assert repr((got.real_part, got.imag_part, got.n_terms)) == (
                _oracle_sum(w, alpha, n)), (x, alpha)


def test_h_only_sum_bits_match_dense_oracle(tables_2m):
    # an h that reaches past 1e6, so every cutoff is inside its range
    ws = WeightSystem(WeightConfig(U=10, U1=4_000, R=300, V=30, q=3), tables_2m)
    h = ws.h_float()
    assert len(h) > 1_000_001 and np.count_nonzero(h[65_537:]) > 0
    for x in _STREAM_CUTOFFS:
        for alpha in _stream_alphas(x):
            got = h_only_sum(alpha, x, ws)
            assert repr((got.real_part, got.imag_part, got.n_terms)) == (
                _oracle_sum(h[1:], alpha, int(x))), (x, alpha)


def test_direct_sum_peak_memory(tables_2m):
    # _phase_blocks' one reused 2^16-block buffer, w multiplied into it in
    # place and no array of length n: the peak stays under 2 MiB and does
    # not grow from 2e5 to 1e6
    alpha = Fraction(8, 1_000_003)
    direct_sum("mangoldt", alpha, 1_000, tables_2m)  # first-call caches
    peaks = []
    for x in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            direct_sum("mangoldt", alpha, x, tables_2m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * 2**20, peaks
    assert peaks[1] - peaks[0] <= 2**20, peaks


def test_direct_sum_reads_mu_table_in_place(tables_2m):
    # mu's blocks are views of its int8 table: a call at 2e5 holds the 1 MiB
    # phase buffer, numpy's 64 KiB buffer for the int8-to-float cast in the
    # product, and _phase_blocks' 17 KiB step table; a float copy of a
    # block (512 KiB) fails this
    alpha = Fraction(8, 1_000_003)
    direct_sum("mobius", alpha, 1_000, tables_2m)  # first-call caches
    tracemalloc.start()
    try:
        direct_sum("mobius", alpha, 200_000, tables_2m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20 + 96 * 1024, peak


def test_type_I_1_row_build_peak_memory(tables_2m):
    # type I1's row at 2e5 is built beside its inputs with at most one
    # 64 KiB chunk of products and 4 KiB of per-d lists; a product of
    # length n/d (1.6 MB at d = 1) fails this
    x = 200_000
    h = WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_2m).h_float()
    logs = np.arange(x + 1.0)
    np.log(logs, out=logs, where=logs > 0)
    _one_star(h, 1_000, np.float64, logs)  # first-call caches
    tracemalloc.start()
    try:
        _one_star(h, x, np.float64, logs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (x + 1) + 64 * 1024 + 4 * 1024, peak


def _centred(num, den):
    """num/den mod 1 in (-1/2, 1/2] as an mpf: no digit is lost at a tiny
    num/den, nor next to an integer."""
    r = num % den
    return mpf(r - den if 2 * r > den else r) / den


def _geometric_mp(k, den, n):
    """sum_{j<=n} e(jk/den) at 50 digits, as e(b)(e(nb) - 1)/(e(b) - 1),
    b and nb reduced exactly, each e(t) - 1 an expm1, which keeps its
    digits even at t below 2^-1074."""
    if k % den == 0:
        return complex(n)
    with workdps(50):
        b, nb = _centred(k, den), _centred(n * k, den)
        return complex(expjpi(2 * b) * expm1(2j * pi * nb) / expm1(2j * pi * b))


def test_geometric_sum_matches_mpmath():
    eps = np.finfo(float).eps
    assert _geometric_sum(21, 7, 1000) == 1000  # k = 0 mod den
    assert _geometric_sum(-14, 7, 5) == 5
    assert _geometric_sum(3, 8, 16) == 0  # nk = 0 mod den
    assert _geometric_sum(-5, 12, 36) == 0
    assert _geometric_sum(3, 7, 0) == 0
    near = 2**45 + 3
    root2 = Fraction(math.sqrt(2) - 1)  # exact dyadic, den 2^54
    twisted = root2 + Fraction(8, 10**6)  # den beyond int64
    assert twisted.denominator > 2**63
    cases = [(1, 2, 7), (1, 2, 8), (3, 7, 1), (-3, 7, 1), (-3, 7, 100),
             (5, 12, 35), (1, near, 10**6), (-1, near, 10**6),
             (near - 1, near, 10**6), (2 * near + 1, near, 999_999)]
    for frac in (root2, twisted):
        for m in (1, 2, 7_919):
            for sign in (1, -1):
                cases.append((sign * m * frac.numerator, frac.denominator,
                              10**6 // m))
    for k, den, n in cases:
        got, want = _geometric_sum(k, den, n), _geometric_mp(k, den, n)
        assert abs(got - want) <= 32 * eps * max(abs(want), 1), (k, den, n)
    # reduced arguments below 2^-1022, to 32 eps of G itself: b subnormal,
    # b rounding to 0, b next to an odd integer, and nb (not b) subnormal
    # where G = n^2 2^-1060 is a normal float
    tiny = 2**1030 + 1
    edge = Fraction(1, 2**20) + Fraction(1, 2**1060)
    assert float(Fraction(1, 2**1100)) == 0.0
    for k, den, n in [(1, tiny, 10**6), (-1, tiny, 1000), (1, 2**1100, 10**6),
                      (-3, 2**1100, 999), (2**1100 + 1, 2**1100, 10**6),
                      (edge.numerator, edge.denominator, 2**20)]:
        got, want = _geometric_sum(k, den, n), _geometric_mp(k, den, n)
        assert abs(got - want) <= 32 * eps * abs(want), (k, den, n)


def test_geometric_sum_matches_block_sum():
    for n in (10_000, 100_000):
        for alpha in (Fraction(1, 3) + Fraction(8, n), Fraction(7, 2**20 + 1),
                      Fraction(math.sqrt(2) - 1), Fraction(-5, 12)):
            num, den = alpha.numerator, alpha.denominator
            for m in (1, 2, 5, 36):
                want = _block_sum(unit_exponentials(
                    Fraction(m * num % den, den), n // m))
                got = _geometric_sum(m * num, den, n // m)
                assert abs(got - want) <= 1e-12 * n, (n, alpha, m)


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_twisted_residue_sums_match_direct(f, tables_10k):
    # e(n(a/q + t/x)) = e(na/q) e(nt/x): the twisted per-residue sums,
    # dotted with e(ar/q), give the direct sum at a/q + t/x
    for x in (10_000, 7_777.5):
        for a, q, t in ((0, 1, 8), (2, 7, -20), (5, 12, 250), (3, 10, 2.5)):
            beta = Fraction(t) / Fraction(x)
            per_residue = residue_weight_sums(
                twisted_weights(arith_function(f).support(tables_10k), beta), q, x)
            phases = np.exp(2j * np.pi * a * np.arange(q) / q)
            got = complex(np.dot(per_residue, phases))
            want = direct_sum(f, Fraction(a, q) + beta, x, tables_10k).value
            assert abs(got - want) <= 1e-9 * x, (x, a, q, t)


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_twisted_weights_bytes_match_unit_exponentials(f, tables_2m):
    # w(n) e(n beta) on the support has the bits of the dense product with
    # unit_exponentials, on both sides of every 2^16-block anchor up to
    # 2^18 (65,536 = 2^16 is j = 2^16 of block 0 and 65,537 is j = 1 of
    # block 1, both prime powers), for a beta whose denominator exceeds
    # 2^63, and on a support cut at the floor of an x that is not an integer
    w = arith_function(f).floats(tables_2m, 300_000)
    for x in (65_536.5, 100_000, 262_200.5):
        top = int(x)
        support = arith_function(f).support(tables_2m, top)
        for beta in (Fraction(8) / Fraction(x), Fraction(-20, 100_003),
                     Fraction(1, 3), Fraction(math.sqrt(2) - 1) + 8 / Fraction(x)):
            got = twisted_weights(support, beta)
            n = got.n
            assert got.top == top
            assert np.array_equal(n, support.n)
            e = unit_exponentials(beta, top)[n - 1]
            assert got.values.dtype == np.complex128 and got.values.shape == (len(n),)
            assert got.values.real.tobytes() == (w[n] * e.real).tobytes(), (x, beta)
            assert got.values.imag.tobytes() == (w[n] * e.imag).tobytes(), (x, beta)
    assert (Fraction(math.sqrt(2) - 1) + 8 / Fraction(x)).denominator > 2**63
    if f == "mangoldt":
        assert {65_536, 65_537} <= set(n.tolist())
    for edge in range(65_536, top, 65_536):
        assert np.any((n > edge - 40) & (n <= edge))
        assert np.any((n > edge) & (n <= edge + 40))


def test_residue_sums_cut_at_a_support_n(tables_10k):
    # floor(x) itself in the support is summed: 9973 is prime, 7777 and
    # 9997 squarefree
    for f, x in (("mangoldt", 9_973), ("mangoldt", 9_973.9), ("mobius", 7_777),
                 ("mobius", 9_997.5)):
        w = arith_function(f).floats(tables_10k)
        support = arith_function(f).support(tables_10k)
        assert w[int(x)] != 0.0
        beta = Fraction(8) / Fraction(x)
        for q in (1, 2, 7, 12):
            got = residue_weight_sums(support, q, x)
            assert got.tobytes() == _bincount_residue_sums(w, q, x).tobytes()
            got = residue_weight_sums(twisted_weights(support, beta), q, x)
            want = _bincount_residue_sums(w, q, x, unit_exponentials(beta, int(x)))
            assert got.tobytes() == want.tobytes(), (f, x, q)


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_twist_of_a_window_has_the_whole_twists_bits(f, tables_2m):
    # a twist starts at the 2^16-block of its support's first n, so a
    # window that starts on, one past or one before a block edge, or
    # inside a block, gets the whole support's phases at its n
    x = 300_000
    support = arith_function(f).support(tables_2m, x)
    beta = Fraction(8) / Fraction(x)
    whole = twisted_weights(support, beta).values
    for lo, hi in ((1 << 16, 3 << 16), ((1 << 16) + 1, 150_001),
                   ((2 << 16) - 1, x + 1), (70_000, 70_100)):
        a, b = np.searchsorted(support.n, (lo, hi))
        top = int(support.n[b - 1])
        window = Support(support.n[a:b], support.values[a:b], top)
        got = twisted_weights(window, beta)
        assert np.array_equal(got.n, support.n[a:b])
        assert got.values.tobytes() == whole[a:b].tobytes(), (lo, hi)


def test_residue_sums_dtype_without_terms():
    # no n <= 1.5 is a prime power: an empty bincount is int64, so the sums
    # are cast to float64; a twist with no n left below x is complex all
    # the same
    tables = build_tables(100)
    for f in ("mangoldt", "mobius"):
        support = arith_function(f).support(tables)
        for x in (1.5, 2):
            real = residue_weight_sums(support, 3, x)
            twisted = residue_weight_sums(
                twisted_weights(support, Fraction(8, 100)), 3, x)
            assert real.dtype == np.float64 and real.shape == (3,), (f, x)
            assert twisted.dtype == np.complex128 and twisted.shape == (3,), (f, x)
    empty = residue_weight_sums(MANGOLDT.support(tables), 3, 1.5)
    assert empty.tobytes() == np.zeros(3).tobytes()


def test_twisted_weights_peak_memory():
    # the result's 16 bytes per support n, the support's index at each
    # 2^16-block edge, and 4 KiB for array and object headers: no phase
    # array, no temporary and no ufunc buffer is made
    tables = build_tables(200_000)
    beta = Fraction(8, 200_000)
    for f in ("mangoldt", "mobius"):
        support = arith_function(f).support(tables)
        twisted_weights(support, beta)  # first-call caches
        tracemalloc.start()
        try:
            out = twisted_weights(support, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == 16 * len(support.n)
        edges = 8 * (200_000 // 65_536 + 2)
        assert peak <= 16 * len(support.n) + edges + 4096, (f, peak)


def test_type_I_1_collapses_when_h_is_delta(tables_small):
    # U = U1 = 1, R = 1: h = delta_{m=1}, so S_I1 = sum log(n) e(n alpha)
    ws = WeightSystem(WeightConfig(U=1, U1=1, R=1, V=5, q=1), tables_small)
    h = ws.h_float()
    assert h[1] == 1.0 and np.all(h[2:] == 0.0)
    alpha = Fraction(2, 9)
    got = type_I_1(alpha, 500, ws)
    logs = np.log(np.arange(1, 501))
    expected = complex(np.sum(logs * unit_exponentials(alpha, 500)))
    assert abs(got.value - expected) < 1e-10


def test_type_I_1_alpha_zero_oracle(tables_small, ws_mid):
    ws = WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_small)
    x = 2000
    got = type_I_1(0, x, ws)
    h = ws.h_float()
    expected = 0.0
    for m in range(1, len(h)):
        if h[m]:
            expected += h[m] * math.fsum(math.log(n) for n in range(1, x // m + 1))
    assert got.real_part == pytest.approx(expected, rel=1e-12)
    assert got.imag_part == pytest.approx(0.0, abs=1e-9)


def test_type_I_1_conjugation(tables_small):
    ws = WeightSystem(WeightConfig(U=4, U1=16, R=4, V=10, q=2), tables_small)
    alpha = Fraction(5, 13)
    s_pos = type_I_1(alpha, 1000, ws)
    s_neg = type_I_1(-alpha, 1000, ws)
    assert abs(s_pos.value.conjugate() - s_neg.value) < 1e-10


# type_I_1 at x = 1e4, alpha = 2/7 + 8/1e4 as (re.hex(), im.hex(), n_terms).
# At q = 1 and q = 4 these are the bits from when the q | m and q not| m
# rows were summed apart and an empty one was skipped (h vanishes off the
# squarefree m, so one part was empty there); q = 6 was re-pinned when the
# two rows became one, against the 40-digit sum of that row
I1_BITS = {
    1: ("0x1.1e39a03907facp+4", "0x1.65ebebf766790p+5", 36682),
    4: ("0x1.75a5b9345a06cp+4", "0x1.7d765e2a90998p+5", 35997),
    6: ("0x1.2ef010b3e04a0p+4", "0x1.9dc73551705fap+5", 34469),
}


@pytest.mark.parametrize("q", sorted(I1_BITS))
def test_type_I_1_zero_part_skipped_same_bits(q, tables_10k):
    ws = WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=q), tables_10k)
    alpha = Fraction(2, 7) + Fraction(8, 10_000)
    v = type_I_1(alpha, 10_000, ws)
    assert (v.real_part.hex(), v.imag_part.hex(), v.n_terms) == I1_BITS[q]


# type_I_2 at x = 1e4, q = 6, alpha = 2/7 + 8/1e4 as (re.hex(), im.hex(),
# n_terms), re-pinned when the q | k and q not| k rows became one row,
# against the per-pair loop. Under the classical weights (U = U1, R = 1)
# Lambda's c(p^2) = Lambda(p) mu(p) + Lambda(p^2) is exactly 0, yet its
# floor(x/p^2) terms count.
I2_BITS = {
    ("mangoldt", (10, 40, 5, 30)):
        ("0x1.18d12c2bf01d0p+5", "-0x1.0e586bf3762f5p+4", 46791),
    ("mobius", (10, 40, 5, 30)):
        ("-0x1.da92b5f461815p+3", "-0x1.ab7ad6b754c65p-3", 51545),
    ("mangoldt", (10, 10, 1, 30)):
        ("0x1.e15aa06086c92p+1", "-0x1.59386ecb2b942p+3", 38035),
}


@pytest.mark.parametrize("f, weights", sorted(I2_BITS))
def test_type_I_2_strided_coefficients_same_bits(f, weights, tables_10k):
    ws = WeightSystem(WeightConfig(*weights, q=6), tables_10k)  # U, U1, R, V
    alpha = Fraction(2, 7) + Fraction(8, 10_000)
    v = type_I_2(f, alpha, 10_000, ws, tables_10k)
    assert (v.real_part.hex(), v.imag_part.hex(), v.n_terms) == I2_BITS[f, weights]


@pytest.mark.parametrize("f", ["mangoldt", "mobius"])
def test_type_I_2_rows_end_at_largest_lm(f, tables_2m):
    # c and its hit row end at the largest k = lm, V (U1 R) = 30 * 200 here:
    # rows of length x would take 9 bytes per k, 18 MB at x = 2e6
    ws = WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_2m)
    ws.h_float()  # cached before the trace
    tracemalloc.start()
    try:
        type_I_2(f, Fraction(1, 3), 2_000_000, ws, tables_2m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


# sha256 over (re.hex(), im.hex(), n_terms) of type I1, and of type I2 and
# type II for both f, at four alpha on each config below, re-pinned when
# each piece became one row summed once
PIECES_DIGEST = "0aa1421ce5827376fc970a1f8c3fa9a3044cb50bcd1320b4c18222174864e3ad"


def test_type_I_and_II_pieces_digest(tables_100k):
    configs = [(10_000, WeightConfig(10, 40, 5, 30, q=3)),
               (30_000, WeightConfig(100, 1000, 30, 200, q=4))]
    for q in (1, 3):
        pc = bnd.choose_params(100_000, q, 1.0, 1 / 15)
        configs.append((100_000, WeightConfig(pc.U, pc.U1, pc.R, pc.V, q=q)))
    digest = hashlib.sha256()
    for x, cfg in configs:
        ws, q = WeightSystem(cfg, tables_100k), cfg.q
        for alpha in (Fraction(1, q), Fraction(1, q) + Fraction(8, x),
                      Fraction(2, 7), 0.318309886):
            values = [type_I_1(alpha, x, ws)]
            values += [piece(f, alpha, x, ws, tables_100k)
                       for piece in (type_I_2, type_II) for f in ("mangoldt", "mobius")]
            for v in values:
                digest.update(f"{v.real_part.hex()} {v.imag_part.hex()} "
                              f"{v.n_terms}\n".encode())
    assert digest.hexdigest() == PIECES_DIGEST


def test_type_I_2_empty_and_l1_cases(tables_small):
    # Lambda vanishes below 2, so V < 2 kills the sum
    ws = WeightSystem(WeightConfig(U=4, U1=16, R=4, V=1.5, q=1), tables_small)
    got = type_I_2("mangoldt", Fraction(1, 3), 500, ws, tables_small)
    assert got.value == 0
    # mu keeps only l = 1: sum h(m) sum_{mn <= x} e(mn alpha)
    got_mu = type_I_2("mobius", Fraction(1, 3), 500, ws, tables_small)
    h = ws.h_float()
    expected = complex(0)
    for m in range(1, len(h)):
        if h[m] and m <= 500:
            expected += h[m] * complex(
                np.sum(unit_exponentials(Fraction(m, 3) % 1, 500 // m)))
    assert abs(got_mu.value - expected) < 1e-10


def test_type_I_2_triple_loop_oracle(tables_small):
    ws = WeightSystem(WeightConfig(U=3, U1=9, R=3, V=8, q=2), tables_small)
    x = 400
    alpha = Fraction(3, 11)
    t = tables_small
    lam = MANGOLDT.floats(t)
    h = ws.h_float()
    # independent loop order: iterate n outermost
    expected = complex(0)
    for l in range(1, 9):
        if lam[l] == 0:
            continue
        for m in range(1, len(h)):
            if h[m] == 0:
                continue
            for n in range(1, x // (l * m) + 1):
                expected += (lam[l] * h[m]
                             * cmath.exp(2j * cmath.pi
                                         * float(Fraction(l * m * n * 3, 11) % 1)))
    got = type_I_2("mangoldt", alpha, x, ws, tables_small)
    assert abs(got.value - expected) < 1e-10


def _type_I_2_pair_loop(f0, alpha, x, ws, tables):
    """The per-(l, m) type-I2 loop that the k = l*m grouping replaced: one
    inner sum per pair."""
    n = int(math.floor(x))
    af = Fraction(alpha)
    h = ws.h_float()
    w = arith_function(f0).floats(tables)
    acc = complex(0.0)
    for l in range(1, min(int(math.floor(ws.cfg.V)), n) + 1):
        if w[l] == 0.0:
            continue
        x_l = n // l
        for m in range(1, min(len(h) - 1, x_l) + 1):
            if h[m] == 0.0:
                continue
            beta = Fraction(l * m * af.numerator % af.denominator, af.denominator)
            inner = _block_sum(unit_exponentials(beta, x_l // m))
            acc += w[l] * h[m] * inner
    return acc


@pytest.mark.parametrize("x,cfg", [
    (10_000, WeightConfig(U=10, U1=40, R=5, V=30, q=6)),
    (100_000, WeightConfig(U=10, U1=40, R=5, V=200, q=12)),
])
def test_type_I_2_k_grouping_matches_pair_loop(x, cfg, tables_10k, tables_100k):
    tables = tables_10k if x <= 10_000 else tables_100k
    ws = WeightSystem(cfg, tables)
    for f in ("mangoldt", "mobius"):
        for alpha in (Fraction(5, cfg.q), Fraction(1, 3) + Fraction(-20, x),
                      Fraction(7, 12) + Fraction(8, x)):
            whole = type_I_2(f, alpha, x, ws, tables)
            want = _type_I_2_pair_loop(f, alpha, x, ws, tables)
            assert abs(whole.value - want) <= 1e-9 * x, (f, alpha)
            # n_terms counts one inner sum per distinct k = l*m
            w, h = arith_function(f).floats(tables), ws.h_float()
            ks = {l * m for l in range(1, int(cfg.V) + 1) if w[l]
                  for m in range(1, len(h)) if h[m] and l * m <= x}
            assert whole.n_terms == sum(x // k for k in ks)


def test_type_II_empty_range(tables_small):
    # x/U < V leaves no outer m
    ws = WeightSystem(WeightConfig(U=50, U1=100, R=2, V=30, q=1), tables_small)
    got = type_II("mangoldt", Fraction(1, 3), 1000, ws, tables_small)
    assert got.value == 0 and got.n_terms == 0


def test_one_star_theta_vanishes_up_to_U(tables_small):
    ws = WeightSystem(WeightConfig(U=10, U1=40, R=5, V=30, q=3), tables_small)
    conv = ws.one_star_theta(200)
    assert np.all(conv[1:11] == 0.0)


def test_type_II_loop_order_oracle(tables_small):
    ws = WeightSystem(WeightConfig(U=3, U1=9, R=3, V=8, q=2), tables_small)
    x = 600
    alpha = Fraction(3, 11)
    t = tables_small
    conv = ws.conv_theta_lambda(x)
    w = MOBIUS.floats(t)
    expected = complex(0)
    for n in range(1, x + 1):
        if conv[n] == 0:
            continue
        for m in range(9, x // n + 1):  # m > V = 8
            if w[m]:
                expected += (w[m] * conv[n]
                             * cmath.exp(2j * cmath.pi
                                         * float(Fraction(m * n * 3, 11) % 1)))
    got = type_II("mobius", alpha, x, ws, tables_small)
    assert abs(got.value - expected) < 1e-10


def _per_m_sums(alpha, ms, coeffs, inner, n):
    """The per-m weighted route that the coefficient rows replaced:
    sum_i coeffs[i] sum_{j <= n/ms[i]} inner[j-1] e(ms[i] j alpha), one
    phase array per m."""
    af = Fraction(alpha)
    num, den = af.numerator, af.denominator
    sums = [_block_sum(inner[:n // m] * unit_exponentials(
        Fraction(m * num % den, den), n // m)) for m in ms]
    return sum((c * s for c, s in zip(coeffs, sums) if c), complex(0.0))


_ORACLE_CASES = [  # h vanishes off the squarefree m, so q is squarefree
    (10_000, WeightConfig(U=10, U1=40, R=5, V=30, q=6)),
    (100_000, WeightConfig(U=10, U1=40, R=5, V=200, q=10)),
]


@pytest.mark.parametrize("x,cfg", _ORACLE_CASES)
def test_type_I_1_rows_match_per_m_route(x, cfg, tables_10k, tables_100k):
    tables = tables_10k if x <= 10_000 else tables_100k
    ws = WeightSystem(cfg, tables)
    h = ws.h_float()
    ms = [m for m in range(1, min(len(h) - 1, x) + 1) if h[m]]
    logs = np.log(np.arange(1, x + 1, dtype=np.float64))
    for alpha in (Fraction(5, cfg.q), Fraction(1, 3) + Fraction(-20, x),
                  Fraction(7, 12) + Fraction(8, x)):
        want = _per_m_sums(alpha, ms, [h[m] for m in ms], logs, x)
        whole = type_I_1(alpha, x, ws)
        assert abs(whole.value - want) <= 1e-9 * x, alpha
        assert whole.n_terms == sum(x // m for m in ms)


@pytest.mark.parametrize("x,cfg", _ORACLE_CASES)
def test_type_II_row_matches_per_m_route(x, cfg, tables_10k, tables_100k):
    # the oracle takes every m > V up to x/U from the definition; the
    # inner factor vanishes on [1, U], so larger m add nothing
    tables = tables_10k if x <= 10_000 else tables_100k
    ws = WeightSystem(cfg, tables)
    conv = ws.conv_theta_lambda(x)[1:]
    for f in ("mangoldt", "mobius"):
        w = arith_function(f).floats(tables)
        ms = [m for m in range(1, x // int(cfg.U) + 1) if m > cfg.V and w[m]]
        for alpha in (Fraction(5, cfg.q), Fraction(1, 3) + Fraction(-20, x),
                      Fraction(7, 12) + Fraction(8, x)):
            want = _per_m_sums(alpha, ms, [w[m] for m in ms], conv, x)
            got = type_II(f, alpha, x, ws, tables)
            assert abs(got.value - want) <= 1e-9 * x, (f, alpha)
            assert got.n_terms == sum(x // m for m in ms if x // m > cfg.U)


@pytest.mark.parametrize("n", [1_000, 3 * 1024 + 517, 2 * 65_536 + 5 * 1024 + 3])
def test_phase_blocks_negation_symmetric(n):
    # below one anchor step, a tail that is not a multiple of 2^10, and
    # past two 2^16-blocks; no k alpha here is a half-integer, so -alpha
    # gives the same cos bits and the negated sin bits (0.0 stays 0.0)
    for alpha in (Fraction(5, 13), Fraction(1, 3) + Fraction(8, n),
                  Fraction(math.sqrt(2) - 1)):
        starts, e = _phase_arrays(alpha, n)
        cos, sin = e.real, e.imag
        assert starts == list(range(0, n, 65_536)) and len(e) == n
        _, ne = _phase_arrays(-alpha, n)
        ncos, nsin = ne.real, ne.imag
        assert ncos.tobytes() == cos.tobytes(), (alpha, n)
        assert np.array_equal(nsin, -sin), (alpha, n)
        nonzero = sin != 0
        assert nsin[nonzero].tobytes() == (-sin[nonzero]).tobytes()
        # against e(k alpha) from the exact {k alpha}: a block phase is
        # within 40u, and this reference within 11u
        exact = (np.arange(1, n + 1, dtype=object) * alpha.numerator
                 % alpha.denominator / alpha.denominator).astype(np.float64)
        err = np.abs(cos + 1j * sin - np.exp(2j * np.pi * exact))
        assert err.max() <= 51 * 2.0**-53, (alpha, n)


def _coef_sum_reference(row, alpha, bits=150):
    """sum_k row[k-1] e(k alpha) to 40 digits and more: e(alpha) from
    mpmath at 50 digits, then Horner's rule on the exact float
    coefficients in 2^-bits fixed point (each step truncates by 2^-bits)."""
    af = Fraction(alpha)
    scale = 1 << bits
    with workdps(50):
        z = expjpi(2 * mpf(af.numerator) / af.denominator)
        zr, zi = int(mpf(z.real) * scale), int(mpf(z.imag) * scale)
    ar = ai = 0
    for c in row[::-1].tolist():
        ar += int(c * 2.0 ** bits)
        ar, ai = (ar * zr - ai * zi) >> bits, (ar * zi + ai * zr) >> bits
    return complex(ar / scale, ai / scale)


def test_coef_sums_match_40_digit_reference(tables_100k, monkeypatch):
    # every row recombine sums (direct, Lambda's type-I1 row or mu's h-only
    # first term, II and tail) against the same float weights summed to 40
    # digits: |err| <= 83u sum_k |w(k)|, the bound _coef_sum derives
    x = 20_000
    ws = WeightSystem(WeightConfig(U=20, U1=100, R=5, V=100, q=3), tables_100k)
    h_top = min(len(ws.h_float()) - 1, x)
    captured = []
    real_coef_sum = expsum._coef_sum

    def capture(weights, alpha, n, count):
        row = np.concatenate([weights(lo, min(lo + 65_536, n))
                              for lo in range(0, n, 65_536)])
        value = real_coef_sum(weights, alpha, n, count)
        captured.append((row, value))
        return value

    monkeypatch.setattr(expsum, "_coef_sum", capture)
    for alpha in (Fraction(1, 3), Fraction(1, 3) + Fraction(8, x),
                  Fraction(3, 4) - Fraction(20, x), Fraction(2, 7) + Fraction(1, 2 * x),
                  Fraction(math.sqrt(2) - 1)):
        for f, lengths in (("mangoldt", [x, x, x, 100]),
                           ("mobius", [x, h_top, x, 100])):
            captured.clear()
            recombine(f, alpha, x, ws, tables_100k)
            assert [len(row) for row, _ in captured] == lengths, f
            for row, value in captured:
                assert np.count_nonzero(row) > 0
                err = abs(value.value - _coef_sum_reference(row, alpha))
                assert err <= 83 * 2.0**-53 * np.sum(np.abs(row)), (f, alpha, err)


@pytest.mark.parametrize("cfg", [
    WeightConfig(U=10, U1=40, R=5, V=30, q=6),
    WeightConfig(U=20, U1=100, R=8, V=300, q=4),
    WeightConfig(U=10, U1=40, R=5, V=30, q=1)])
def test_recombine_phase_passes(cfg, tables_10k, monkeypatch):
    # one kernel pass each for the direct sum, Lambda's type-I1 row or mu's
    # h-only first term, II and the tail, at every q; none per m, whatever
    # the h or f support
    calls = []
    real_coef_sum = expsum._coef_sum

    def counting(weights, alpha, n, count):
        calls.append(n)
        return real_coef_sum(weights, alpha, n, count)

    monkeypatch.setattr(expsum, "_coef_sum", counting)
    ws = WeightSystem(cfg, tables_10k)
    alpha = Fraction(1, 3) + Fraction(8, 10_000)
    for f in ("mangoldt", "mobius"):
        calls.clear()
        recombine(f, alpha, 10_000, ws, tables_10k)
        assert len(calls) == 4, (f, calls)
        assert calls[0] == 10_000 and calls[-1] == int(cfg.V), (f, calls)


def test_recombine_classic_config(tables_10k):
    ws = WeightSystem(WeightConfig(U=10, U1=10, R=1, V=10, q=1), tables_10k)
    rep = recombine("mangoldt", Fraction(2, 7), 10_000, ws, tables_10k)
    assert rep.residual < 1e-9 * 10_000


def test_recombine_spec_config(tables_10k, ws_mid):
    x = 10_000
    alpha = Fraction(1, 3) + Fraction(2, x)
    for f in ("mangoldt", "mobius"):
        rep = recombine(f, alpha, x, ws_mid, tables_10k)
        assert rep.residual < 1e-9 * x
    rep_irr = recombine("mangoldt", math.sqrt(2) - 1, x, ws_mid, tables_10k)
    assert rep_irr.residual < 1e-9 * x


def test_recombine_mu_first_term_is_h_only(tables_10k, ws_mid):
    x = 5000
    alpha = Fraction(2, 7)
    rep = recombine("mobius", alpha, x, ws_mid, tables_10k)
    assert abs(rep.s_I1.value - h_only_sum(alpha, x, ws_mid).value) == 0.0


def test_recombine_rows_schema(tables_10k, ws_mid):
    rep = recombine("mangoldt", Fraction(2, 7), 5000, ws_mid, tables_10k)
    rows = rep.rows(2, 7, 0.0, 1.0)
    assert [r["component"] for r in rows] == ["direct", "I1", "I2", "II", "tail"]
    assert all(set(r) == {"x", "a", "q", "delta", "delta0", "re", "im", "abs",
                          "component"} for r in rows)


def test_l2_profiles_support(tables_100k):
    ws = WeightSystem(WeightConfig(U=100, U1=1000, R=30, V=2, q=1), tables_100k)
    theta_l2, lambda_l2, graham, selberg = l2_profiles(ws, 90, tables_100k)
    assert theta_l2 == 0.0
    assert lambda_l2 > 0 and selberg > 0


def test_l2_profiles_ratios(tables_100k):
    ws = WeightSystem(WeightConfig(U=100, U1=1000, R=30, V=2, q=1), tables_100k)
    theta_l2, lambda_l2, graham, selberg = l2_profiles(ws, 10_000, tables_100k)
    assert 0.3 < theta_l2 / graham < 2.0
    assert lambda_l2 <= 1.05 * selberg
