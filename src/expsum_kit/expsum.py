"""Exponential sums: direct evaluation, the type-I/type-II decomposition,
recombination, and the L^2 weight profiles.

alpha is held as an exact Fraction (floats become their exact dyadic
value). Every sum_k w(k) e(k alpha) (the direct and h-only sums, and the
type-I1 and type-II sums, each one alpha-free Dirichlet row made by
weights._one_star) runs through one kernel, _coef_sum: a streamed pass
over 2^16-blocks, each phase an exact anchor e(s alpha), s = 0 mod 2^10,
times an exact step e(j alpha), j <= 2^10, with no array of length n and
an error of at most 83u sum|w|. Type-I2's weight-1 inner sums are
closed-form geometric sums, their arguments reduced exactly. Sums are
accumulated blockwise (pairwise within blocks, exactly rounded across them).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from .arith import MANGOLDT, ArithTables, Support, TableRangeError, arith_function
from .diophantine import as_fraction
from .weights import WeightSystem, _one_star

_BLOCK = 1 << 16
_ANCHOR = 1 << 10
_STEP = 1 << 5  # _ANCHOR = _STEP^2
#: An integer table's residue fold views it as rows of about this many n.
_FOLD_WIDTH = 1 << 12
#: Below this a sine in _geometric_sum may come from a subnormal argument.
_TINY_SIN = 2.0 ** -1000


class RecombinationError(RuntimeError):
    """Residual between the direct sum and its decomposition exceeded the
    float-error budget; the identity makes the true residual zero."""


@dataclass(frozen=True)
class ExpSumValue:
    real_part: float
    imag_part: float
    n_terms: int

    def __post_init__(self):
        object.__setattr__(self, "real_part", float(self.real_part))
        object.__setattr__(self, "imag_part", float(self.imag_part))
        object.__setattr__(self, "n_terms", int(self.n_terms))

    @property
    def value(self) -> complex:
        return complex(self.real_part, self.imag_part)

    def __abs__(self) -> float:
        return abs(self.value)


def _signed_rep(num: int, den: int) -> float:
    """num/den mod 1 mapped into (-1/2, 1/2], correctly rounded.

    Exactly negation-symmetric: swapping num for -num flips the sign of
    the returned float bit for bit, except at 1/2, which maps to itself.
    """
    k = num % den
    if 2 * k > den:
        return -((den - k) / den)
    return k / den


def _fracs_at(alpha, k: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = symmetric_fracs(alpha, k), k an increasing int array >= 1;
    scratch, as long as k, takes each value's nearest integer.

    Per 2^16-block (s, s + 2^16] holding some k, with j = k - s and beta,
    anchor = {alpha}, {s alpha} reduced exactly: out = v - rint(v) (ties to
    even, as np.round), v = anchor + j*beta, each step rounded as written
    and made in place.
    """
    if not len(k):
        return
    num, den = as_fraction(alpha).as_integer_ratio()  # _signed_rep reduces mod 1
    beta = _signed_rep(num, den)
    lo = 0
    for s in range((int(k[0]) - 1) // _BLOCK * _BLOCK, int(k[-1]), _BLOCK):
        hi = int(k.searchsorted(s + _BLOCK, side="right"))
        v = out[lo:hi]
        v[:] = k[lo:hi]  # a cast by assignment takes no ufunc buffer
        v -= s
        v *= beta
        v += _signed_rep(s * num, den)
        np.rint(v, out=scratch[lo:hi])
        v -= scratch[lo:hi]
        lo = hi


def symmetric_fracs(alpha, k: np.ndarray) -> np.ndarray:
    """k*alpha mod 1 in [-1/2, 1/2] at each k of an increasing int array
    k >= 1 (a half-integer k*alpha may land on either end).

    The fractional part is re-anchored by exact integer arithmetic at every
    2^16-block (_fracs_at). Within a block (j <= 2^16) beta's rounding times
    j, and the roundings of j*beta (below 2^15) and of the anchor sum (below
    2^16), add <= 2^-39, 2^-39 and 2^-38, the anchor 2^-55: each value is
    within 2^-37 + 2^-55 < 7.3e-12 of the exact k*alpha mod 1 (2^-38 is
    reached at 1/3 and 2/7), not one ulp. All operations are
    negation-symmetric, so the array for -alpha is exactly the negation of
    the one for alpha wherever k*alpha is not a half-integer (and
    conjugation identities hold bitwise downstream when no k*alpha is).

    The value at k depends on k alone, through its block anchor and
    in-block index, so k has the same bits in every array that holds it.
    """
    out = np.empty(len(k), dtype=np.float64)
    _fracs_at(alpha, k, out, np.empty_like(out))
    return out


def _total(re: List[float], im: List[float], count: int) -> ExpSumValue:
    """Exactly rounded totals of the block partials, of count terms; the 0.0
    start turns an exact -0.0 into 0.0."""
    return ExpSumValue(0.0 + math.fsum(re), 0.0 + math.fsum(im), count)


def _exact_phases(af: Fraction, ks) -> np.ndarray:
    """e(k af) for each int k in ks, from {k af} reduced exactly."""
    t = np.array([_signed_rep(k * af.numerator, af.denominator) for k in ks],
                 dtype=np.float64)
    t *= 2 * np.pi
    out = np.empty(len(t), dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def _phase_blocks(af: Fraction, n: int):
    """Yield (start, e): e[i] = e((start + 1 + i) af), blocks of 2^16.

    The phase is re-anchored exactly at every s = 0 mod 2^10: the block
    row for s is e(s af) times the steps e(j af), j = 1..2^10, and each
    step is e(32 i af) e(r af) (j = 32 i + r), every factor taken from an
    exact reduction. One complex product per term, no trig. Every
    operation is negation-symmetric: for -af the real parts are the same
    bits and the imaginary parts the negated bits (up to the sign of a
    zero), wherever k af is not a half-integer. e is a view of a buffer
    that the caller may write and the next block overwrites.
    """
    fine = _exact_phases(af, range(_STEP))
    coarse = _exact_phases(af, range(0, _ANCHOR + 1, _STEP))
    steps = (coarse[:, None] * fine).reshape(-1)[1:_ANCHOR + 1]
    buf = np.empty((-(-min(n, _BLOCK) // _ANCHOR), _ANCHOR), dtype=np.complex128)
    for start in range(0, n, _BLOCK):
        ln = min(_BLOCK, n - start)
        anchors = _exact_phases(af, range(start, start + ln, _ANCHOR))
        for anchor, row in zip(anchors, buf):  # a 2-D broadcast takes 256 KiB
            np.multiply(anchor, steps, out=row)  # of ufunc buffers per block
        yield start, buf.reshape(-1)[:ln]


def _coef_sum(weights: Callable[[int, int], np.ndarray], alpha, n: int,
              count: int) -> ExpSumValue:
    """sum_{k <= n} w(k) e(k alpha), w on (lo, hi] from weights(lo, hi) for
    one 2^16-block at a time, with count as n_terms. w, float64 or an
    integer type that float64 holds exactly, is multiplied into
    _phase_blocks' buffer in place, and a pairwise np.sum of each part is
    the block's partial; the partials are combined exactly (_total).

    Error, with u = 2^-53, taking cos and sin within 2u each. An exact
    phase has {k alpha} correctly rounded (<= u/2), times 2 pi (<= 2 pi u
    with the rounding of 2 pi): within 8u + 2 sqrt2 u < 11u of e(k alpha).
    A complex product adds <= sqrt5 u, so a step is within 25u and a block
    phase within 40u. Each product w Re(e), w Im(e) rounds by u|w|, the
    pairwise sum of a block adds <= 28u sum|w| and the exact combination
    u|S| per component, together <= sqrt2 30u sum|w|. In all,
    |S^ - S| <= 83u sum_k |w(k)| < 1e-14 sum_k |w(k)|.
    """
    re, im = [], []
    for start, e in _phase_blocks(as_fraction(alpha), n):
        w = weights(start, start + len(e))
        for part, partials in ((e.real, re), (e.imag, im)):
            partials.append(float(np.sum(np.multiply(part, w, out=part))))
    return _total(re, im, count)


def _by_k(row: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """_coef_sum's weights from a row indexed by k (row[0] unused)."""
    return lambda lo, hi: row[lo + 1:hi + 1]


def _sin_pi(num: int, den: int) -> float:
    """sin(pi num/den), num/den reduced exactly to m + t, t in (-1/2, 1/2]."""
    m, r = divmod(num, den)
    if 2 * r > den:
        m, r = m + 1, r - den
    return math.sin(math.pi * (r / den)) * (-1.0 if m & 1 else 1.0)


def _sin_pi_scaled(num: int, den: int) -> Tuple[float, Fraction]:
    """sin(pi num/den) as s c, c exact: s = _sin_pi and c = 1, or, for a
    reduced t within 2^-30 of 0, s = +-pi and c = t, since there
    sin(pi t) = pi t (1 - (pi t)^2/6 + ...) is pi t to within 2^-58."""
    m, r = divmod(num, den)
    if 2 * r > den:
        m, r = m + 1, r - den
    if abs(r) << 30 >= den:
        return _sin_pi(num, den), Fraction(1)
    return (-math.pi if m & 1 else math.pi), Fraction(r, den)


def _geometric_sum(k: int, den: int, n: int) -> complex:
    """G = sum_{j<=n} e(jb), b = k/den: n if b is an integer, else
    e((n+1)b/2) sin(pi nb)/sin(pi b), with no 1 - e(b) to cancel, so b
    near an integer needs no threshold. Each argument is reduced exactly to
    one correctly rounded t in (-1/2, 1/2], where |pi t cot pi t| <= 1. With
    u = 2^-53 each sine is off by <= 5u relative (t, pi, product, sin), the
    quotient by <= 11u, the phase e(t') by <= 3 pi u + 2u, the product by
    2u: |G^ - G| <= 25u |G|, about 12 ulps; G^ = 0 exactly if nb is integer.
    A sine below _TINY_SIN (t subnormal, or rounded to 0) takes the quotient
    from _sin_pi_scaled: at a tiny b, n times a sinc ratio 1 to within u."""
    if k % den == 0:
        return complex(n)
    arg = 2 * math.pi * _signed_rep((n + 1) * k, 2 * den)
    phase = complex(math.cos(arg), math.sin(arg))
    s_nb, s_b = _sin_pi(n * k, den), _sin_pi(k, den)
    if abs(s_b) < _TINY_SIN or (abs(s_nb) < _TINY_SIN and n * k % den):
        (s_nb, c_nb), (s_b, c_b) = _sin_pi_scaled(n * k, den), _sin_pi_scaled(k, den)
        return phase * float(Fraction(s_nb / s_b) * c_nb / c_b)
    return phase * (s_nb / s_b)


def direct_sum(f: str, alpha, x: float, tables: ArithTables) -> ExpSumValue:
    """S_f(alpha; x) = sum_{n <= x} f(n) e(n alpha), f read a block at a
    time with no copy per block: an f with an integer table (mu) as views of
    it, which _coef_sum's product casts to float exactly, any other f as
    its support in the block, scattered into one zeroed block buffer."""
    n = int(math.floor(x))
    tables.check_range(n, "direct sum cutoff")
    fn = arith_function(f)
    if fn.int_table is not None:
        return _coef_sum(_by_k(fn.int_table(tables)), alpha, n, n)
    buf = np.empty(min(n, _BLOCK))

    def weights(lo: int, hi: int) -> np.ndarray:
        k, values, _ = fn.support(tables, hi, lo + 1)
        w = buf[:hi - lo]
        w.fill(0.0)
        w[k - (lo + 1)] = values
        return w
    return _coef_sum(weights, alpha, n, n)


def twisted_weights(weights: Support, beta) -> Support:
    """The Support of w(n) e(n beta), complex128, for a real weight w.

    Its real parts are w(n) cos, its imaginary parts w(n) sin, of
    2 pi symmetric_fracs(beta, weights.n), made by symmetric_fracs' own
    routine at the support n only, so a Support on a window (a sieve
    segment's, arith.ArithFunction.on_segment) costs its own blocks only,
    and its twist has the bits of the whole support's twist at the same n.
    Every step writes into the result's .real and .imag views, and each
    part is multiplied by w in place (a complex-by-float product would turn
    the imaginary -0.0 of a sine of 0 times a negative w into +0.0), so no
    array is made past its 16 bytes per support n.
    """
    out = np.empty(len(weights.n), dtype=np.complex128)
    re, im = out.real, out.imag
    _fracs_at(beta, weights.n, im, re)  # the phases, then their sines in place
    im *= 2 * np.pi
    np.cos(im, out=re)
    np.sin(im, out=im)
    re *= weights.values
    im *= weights.values
    return Support(weights.n, out, weights.top)


def residue_weight_sums(weights: Support, q: int, x: float) -> np.ndarray:
    """Sum of the weight over n <= x in each residue class mod q: float
    for a real weight, complex for a twisted one (twisted_weights).

    e(n a/q) depends only on n mod q, so one aggregation serves every
    numerator a. For the weights twisted_weights(support, delta/x), the
    dot with e(ar/q) is the sum at alpha = a/q + delta/x, since
    e(n alpha) = e(na/q) e(n delta/x).

    Each class is np.bincount's sum of its support terms (of each part of
    a complex weight) in increasing n from 0.0, which has the bits of
    bincount over every n <= x: under round to nearest a running sum from
    +0.0 is never -0.0, so the +-0.0 terms off the support leave it
    unchanged. The sweep makes the same running sums one sieve segment at
    a time (np.add.at, which adds in index order, each part of a complex
    sum apart). A cutoff past the weights' range raises TableRangeError.
    """
    top = int(math.floor(x))
    if top > weights.top:
        raise TableRangeError(f"residue sum cutoff {top} exceeds sieved range "
                              f"n_max={weights.top}")
    cut = np.searchsorted(weights.n, top, side="right")
    classes, values = weights.n[:cut] % q, weights.values[:cut]
    if np.iscomplexobj(values):
        return (np.bincount(classes, weights=values.real, minlength=q)
                + 1j * np.bincount(classes, weights=values.imag, minlength=q))
    sums = np.bincount(classes, weights=values, minlength=q)
    return sums.astype(np.float64, copy=False)  # an empty bincount is int64


class IntegerClassSums:
    """The class sums mod W (totals) of an integer weight with values in
    {-1, 0, 1} (ArithFunction.int_table), fed a window [lo, lo + len) at a
    time, in any order, as exact int64; W = q max(1, 4096 // q) for the
    modulus q.

    add views its first `full` entries, a multiple of W, as (rows, W) and
    sums them down the columns in int32 (a column has fewer than 2^31
    terms of size <= 1), and adds the entries past `full` to the first
    columns: the entry at i has n = lo + i, and full = 0 mod W. Column j
    holds the class lo + j mod W, so the columns are added to the sums
    rolled by lo mod W, as two slice adds, with no loop per row.
    sums(d) folds the classes mod W to the classes mod a divisor d of q,
    as float64 (exact below 2^53).
    """

    def __init__(self, q: int):
        self.totals = np.zeros(q * max(1, _FOLD_WIDTH // q), dtype=np.int64)

    def add(self, values: np.ndarray, lo: int) -> None:
        width = len(self.totals)
        full = len(values) // width * width
        cols = values[:full].reshape(-1, width).sum(axis=0, dtype=np.int32)
        cols[:len(values) - full] += values[full:]
        shift = lo % width
        self.totals[shift:] += cols[:width - shift]
        self.totals[:shift] += cols[width - shift:]

    def sums(self, d: int) -> np.ndarray:
        return self.totals.reshape(-1, d).sum(axis=0).astype(np.float64)


@functools.lru_cache(maxsize=256)
def _unit_roots(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """(r, e(r/q)) for r < q, read-only, shared by every a of one q: each
    e(r/q) has the bits of e(((a r) mod q)/q) made for one a."""
    r = np.arange(q, dtype=np.int64)
    roots = np.exp(2j * np.pi * r / q)
    r.setflags(write=False)
    roots.setflags(write=False)
    return r, roots


def rational_sum_from_residues(per_residue: np.ndarray, a: int, q: int,
                               n_terms: int) -> ExpSumValue:
    r, roots = _unit_roots(q)
    total = complex(np.dot(per_residue, roots[(a * r) % q]))
    return ExpSumValue(total.real, total.imag, n_terms)


# ---------------------------------------------------------------------------
# Type-I and type-II sums


def type_I_1(alpha, x: float, ws: WeightSystem) -> ExpSumValue:
    """S_I1 = sum_m h(m) sum_{mn <= x} log(n) e(mn alpha), summed as
    sum_{k <= x} (h * log)(k) e(k alpha): one coefficient row over every m
    in h's support, one phase pass."""
    n = int(math.floor(x))
    h = ws.h_float()
    ms = 1 + np.flatnonzero(h[1:min(len(h) - 1, n) + 1])
    logs = np.arange(n + 1.0)  # log m at m, in place; 0.0 at 0, which is not read
    np.log(logs, out=logs, where=logs > 0)
    row = _one_star(h, n, np.float64, logs)
    return _coef_sum(_by_k(row), alpha, n, sum(n // m for m in map(int, ms)))


def type_I_2(f0: str, alpha, x: float, ws: WeightSystem,
             tables: ArithTables) -> ExpSumValue:
    """S_I2,f = sum_{l <= V} f(l) sum_m h(m) sum_{mn <= x/l} e(lmn alpha).

    The inner sum depends only on k = l*m (floor(floor(x/l)/m) = floor(x/k),
    {m{l alpha}} = {k alpha}): each k = lm with a pair w(l) h(m) != 0
    costs one closed-form geometric sum G(k) (_geometric_sum), and n_terms
    counts the floor(x/k) terms they represent. The row c = (w 1_{<= V}) * h
    (_one_star: each c(k) adds its pairs in increasing l) ends at the
    largest k = lm; the terms c(k) G(k) are added in increasing k, one at a
    time from 0.0 (np.cumsum, which never reorders).
    """
    n = int(math.floor(x))
    h = ws.h_float()
    w = arith_function(f0).floats(tables, min(int(math.floor(ws.cfg.V)), n))
    top = min(n, (len(w) - 1) * (len(h) - 1))
    c = _one_star(w, top, np.float64, h)
    # every k = lm with a pair, even if c(k) = 0
    ks = np.flatnonzero(_one_star(w != 0, top, bool, h != 0))
    c = c[ks]  # the full row is freed before the closed forms, which set the peak
    af = as_fraction(alpha)
    sums = np.array([_geometric_sum(k * af.numerator, af.denominator, n // k)
                     for k in map(int, ks)], dtype=np.complex128)
    re, im = (np.cumsum(np.concatenate(([0.0], c * part)))[-1]
              for part in (sums.real, sums.imag))
    return ExpSumValue(re, im, sum(n // k for k in map(int, ks)))


def type_II(f: str, alpha, x: float, ws: WeightSystem,
            tables: ArithTables) -> ExpSumValue:
    """S_II,f = sum_{m > V} f(m) sum_{n <= x/m} (1*theta)(n)(1*lambda)(n) e(mn alpha).

    The inner factor vanishes for n <= U, so the outer range is
    effectively V < m < x/U. Summed as sum_{k <= x} c(k) e(k alpha) with
    the coefficient row c = (f 1_(V, x/U]) * (1*theta)(1*lambda).
    """
    n = int(math.floor(x))
    u_floor = int(math.floor(ws.cfg.U))
    m_lo = int(math.floor(ws.cfg.V)) + 1
    m_hi = n // (u_floor + 1)  # beyond this the inner range sits inside [1, U]
    if m_lo > m_hi:
        return ExpSumValue(0.0, 0.0, 0)
    conv = ws.conv_theta_lambda(n // m_lo)
    w = arith_function(f).floats(tables, m_hi)
    w[:m_lo] = 0.0
    c = _one_star(w, n, np.float64, conv, u_floor + 1)
    ms = np.flatnonzero(w)
    return _coef_sum(_by_k(c), alpha, n, sum(n // m for m in map(int, ms)))


def h_only_sum(alpha, x: float, ws: WeightSystem) -> ExpSumValue:
    """sum_m h(m) e(m alpha): the first term of the mu decomposition."""
    h = ws.h_float()
    n = min(len(h) - 1, int(math.floor(x)))
    return _coef_sum(_by_k(h), alpha, n, n)


@dataclass(frozen=True)
class DecompositionReport:
    f: str
    alpha: float
    x: float
    s_direct: ExpSumValue
    s_I1: ExpSumValue
    s_I2: ExpSumValue
    s_II: ExpSumValue
    s_tail: ExpSumValue

    @property
    def combined(self) -> complex:
        return (self.s_I1.value - self.s_I2.value + self.s_II.value
                + self.s_tail.value)

    @property
    def residual(self) -> float:
        """|direct - (I1 - I2 + II + tail)|, pure float error."""
        return abs(self.s_direct.value - self.combined)

    def rows(self, a: int, q: int, delta: float, delta0: float):
        """CSV rows (x, a, q, delta, delta0, re, im, abs, component)."""
        parts = [("direct", self.s_direct), ("I1", self.s_I1),
                 ("I2", self.s_I2), ("II", self.s_II), ("tail", self.s_tail)]
        return [
            {"x": self.x, "a": a, "q": q, "delta": delta, "delta0": delta0,
             "re": v.real_part, "im": v.imag_part, "abs": abs(v),
             "component": name}
            for name, v in parts
        ]


def recombine(f: str, alpha, x: float, ws: WeightSystem, tables: ArithTables,
              tol: float = 1e-9) -> DecompositionReport:
    """Evaluate the direct sum and its four-piece decomposition; the
    residual |direct - (I1 - I2 + II + tail)| is pure float error and a
    value above tol*x raises (it would mean a decomposition bug)."""
    s_direct = direct_sum(f, alpha, x, tables)
    s1 = (type_I_1(alpha, x, ws) if arith_function(f) is MANGOLDT
          else h_only_sum(alpha, x, ws))
    s2 = type_I_2(f, alpha, x, ws, tables)
    s_ii = type_II(f, alpha, x, ws, tables)
    tail = direct_sum(f, alpha, min(ws.cfg.V, x), tables)
    report = DecompositionReport(f=f, alpha=float(as_fraction(alpha)), x=float(x),
                                 s_direct=s_direct, s_I1=s1, s_I2=s2,
                                 s_II=s_ii, s_tail=tail)
    if report.residual > tol * x:
        raise RecombinationError(
            f"residual {report.residual:.3e} exceeds budget {tol * x:.3e} "
            f"for f={f}, alpha={float(as_fraction(alpha))!r}, x={x}")
    return report


def l2_profiles(ws: WeightSystem, X: float,
                tables: ArithTables) -> Tuple[float, float, float, float]:
    """(theta_l2, lambda_l2, graham_main, selberg_main) at scale X.

    theta_l2 sums (1*theta)(n)^2, the type-II factor (zero for all
    n <= U); its main term is X log(min(X,U1)/U)/log^2(U1/U). lambda_l2
    sums (1*lambda)(n)^2 against the sieve main term X/G_q(R).
    """
    n = int(math.floor(X))
    tables.check_range(n, "L2 profile cutoff")
    cfg = ws.cfg
    one_theta = ws.one_star_theta(n)
    one_lambda = ws.one_star_lambda(n)
    theta_l2 = float(np.dot(one_theta, one_theta))
    lambda_l2 = float(np.dot(one_lambda, one_lambda))
    if X > cfg.U and cfg.U1 > cfg.U:
        graham_main = (X * math.log(min(X, cfg.U1) / cfg.U)
                       / math.log(cfg.U1 / cfg.U) ** 2)
    else:
        graham_main = 0.0
    selberg_main = X / float(ws.g_q_R)
    return theta_l2, lambda_l2, graham_main, selberg_main
