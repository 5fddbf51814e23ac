"""Exponential sums: direct evaluation, the type-I/type-II decomposition,
recombination, and the L^2 weight profiles.

Phases e(n alpha) are computed from the reduced fractional part of
n*alpha. alpha is held as an exact Fraction (floats become their exact
dyadic value), the fractional part is re-anchored by exact integer
arithmetic every 2^16 terms, and only the in-block products run in
float64, so phase drift stays near one ulp out to n ~ 1e7. Sums are
accumulated blockwise (pairwise within blocks, exactly rounded across
block partials), a Kahan-grade compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .arith import MANGOLDT, ArithTables, arith_function
from .diophantine import as_fraction
from .weights import WeightSystem

_BLOCK = 1 << 16


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


def reduced_fracs(alpha, n: int) -> np.ndarray:
    """{k*alpha} for k = 1..n, with exact re-anchoring every 2^16 steps."""
    out = symmetric_fracs(alpha, n)
    neg = out < 0
    out[neg] += 1.0
    return out


def _signed_rep(num: int, den: int) -> float:
    """num/den mod 1 mapped into (-1/2, 1/2], correctly rounded.

    Exactly negation-symmetric: swapping num for -num flips the sign of
    the returned float bit for bit.
    """
    k = num % den
    if 2 * k > den:
        return -((den - k) / den)
    return k / den


def symmetric_fracs(alpha, n: int) -> np.ndarray:
    """k*alpha mod 1 in (-1/2, 1/2] for k = 1..n.

    The fractional part is re-anchored by exact integer arithmetic every
    2^16 steps; within a block only the j*beta product rounds, keeping
    the phase error near one ulp. All operations are negation-symmetric,
    so the array for -alpha is exactly the negation of the one for alpha
    (and conjugation identities hold bitwise downstream).
    """
    af = as_fraction(alpha) % 1
    num, den = af.numerator, af.denominator
    beta = _signed_rep(num, den)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        ln = min(_BLOCK, n - start)
        anchor = _signed_rep(start * num, den)
        vals = anchor + np.arange(1, ln + 1, dtype=np.float64) * beta
        out[start:start + ln] = vals - np.round(vals)
    return out


def unit_exponentials(alpha, n: int) -> np.ndarray:
    """e(k*alpha) for k = 1..n."""
    arg = (2 * np.pi) * symmetric_fracs(alpha, n)
    return np.cos(arg) + 1j * np.sin(arg)


def _frac_multiple(alpha: Fraction, m: int) -> Fraction:
    """{m*alpha} as an exact fraction."""
    num, den = alpha.numerator, alpha.denominator
    return Fraction(m * num % den, den)


def _block_sum(values: np.ndarray) -> complex:
    """Blockwise pairwise sums, exactly-rounded combination of partials."""
    re = [float(np.sum(values.real[i:i + _BLOCK]))
          for i in range(0, len(values), _BLOCK)]
    im = [float(np.sum(values.imag[i:i + _BLOCK]))
          for i in range(0, len(values), _BLOCK)]
    return complex(math.fsum(re), math.fsum(im))


def direct_sum(f: str, alpha, x: float, tables: ArithTables) -> ExpSumValue:
    """S_f(alpha; x) = sum_{n <= x} f(n) e(n alpha)."""
    n = int(math.floor(x))
    tables.check_range(n, "direct sum cutoff")
    w = arith_function(f).floats(tables)[1:n + 1]
    total = _block_sum(w * unit_exponentials(alpha, n))
    return ExpSumValue(total.real, total.imag, n)


def residue_weight_sums(f: str, q: int, x: float, tables: ArithTables,
                        twist: Optional[np.ndarray] = None) -> np.ndarray:
    """sum of f(n) over n <= x in each residue class mod q, each term
    times twist[n-1] when a twist is given (then the sums are complex).

    e(n a/q) depends only on n mod q, so one aggregation pass serves
    every numerator a (the sweep reuses it across a). With the twist
    unit_exponentials(delta/x, floor(x)), the dot with e(ar/q) is the sum
    at alpha = a/q + delta/x, since e(n alpha) = e(na/q) e(n delta/x).
    """
    n = int(math.floor(x))
    tables.check_range(n, "direct sum cutoff")
    w = arith_function(f).floats(tables)[1:n + 1]
    residues = np.arange(1, n + 1, dtype=np.int64) % q
    if twist is None:
        return np.bincount(residues, weights=w, minlength=q)
    # one real product at a time, never the complex w*twist
    re = np.bincount(residues, weights=w * twist.real, minlength=q)
    return re + 1j * np.bincount(residues, weights=w * twist.imag, minlength=q)


def rational_sum_from_residues(per_residue: np.ndarray, a: int, q: int,
                               n_terms: int) -> ExpSumValue:
    phases = np.exp(2j * np.pi * ((a * np.arange(q, dtype=np.int64)) % q) / q)
    total = complex(np.dot(per_residue, phases))
    return ExpSumValue(total.real, total.imag, n_terms)


def direct_sum_rational(f: str, a: int, q: int, x: float,
                        tables: ArithTables) -> ExpSumValue:
    """direct_sum at alpha = a/q via residue aggregation, O(x + q) flat."""
    per_residue = residue_weight_sums(f, q, x, tables)
    return rational_sum_from_residues(per_residue, a, q, int(math.floor(x)))


# ---------------------------------------------------------------------------
# Type-I and type-II sums


def type_I_1(alpha, x: float, ws: WeightSystem, tables: ArithTables,
             split: bool = False):
    """S_I1 = sum_m h(m) sum_{mn <= x} log(n) e(mn alpha).

    With split=True returns (part with q | m, part with q not| m), the
    two slices whose bounds are proved separately (the q | m slice is the
    one the contour-integral proposition speaks about; its inequality has
    an unspecified O-constant and is never asserted here).
    """
    n = int(math.floor(x))
    af = as_fraction(alpha)
    h = ws.h_float()
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    acc = {True: complex(0.0), False: complex(0.0)}
    count = 0
    q = ws.cfg.q
    for m in range(1, min(len(h) - 1, n) + 1):
        if h[m] == 0.0:
            continue
        nm = n // m
        inner = _block_sum(logs[:nm] * unit_exponentials(_frac_multiple(af, m), nm))
        acc[m % q == 0] += h[m] * inner
        count += nm
    if split:
        return (ExpSumValue(acc[True].real, acc[True].imag, count),
                ExpSumValue(acc[False].real, acc[False].imag, count))
    total = acc[True] + acc[False]
    return ExpSumValue(total.real, total.imag, count)


def type_I_2(f0: str, alpha, x: float, ws: WeightSystem, tables: ArithTables,
             split: bool = False):
    """S_I2,f = sum_{l <= V} f(l) sum_m h(m) sum_{mn <= x/l} e(lmn alpha).

    With split=True the two returned parts separate m by q_l | m versus
    q_l not| m where q_l = q/(q, l), the split the long type-I bounds use.
    """
    n = int(math.floor(x))
    af = as_fraction(alpha)
    h = ws.h_float()
    w = arith_function(f0).floats(tables)
    q = ws.cfg.q
    v_top = min(int(math.floor(ws.cfg.V)), n)
    acc = {True: complex(0.0), False: complex(0.0)}
    count = 0
    for l in range(1, v_top + 1):
        fl = w[l]
        if fl == 0.0:
            continue
        alpha_l = _frac_multiple(af, l)
        q_l = q // math.gcd(q, l)
        x_l = n // l
        for m in range(1, min(len(h) - 1, x_l) + 1):
            if h[m] == 0.0:
                continue
            nm = x_l // m
            inner = _block_sum(unit_exponentials(_frac_multiple(alpha_l, m), nm))
            acc[m % q_l == 0] += fl * h[m] * inner
            count += nm
    if split:
        return (ExpSumValue(acc[True].real, acc[True].imag, count),
                ExpSumValue(acc[False].real, acc[False].imag, count))
    total = acc[True] + acc[False]
    return ExpSumValue(total.real, total.imag, count)


def type_II(f: str, alpha, x: float, ws: WeightSystem,
            tables: ArithTables) -> ExpSumValue:
    """S_II,f = sum_{m > V} f(m) sum_{n <= x/m} (1*theta)(n)(1*lambda)(n) e(mn alpha).

    The inner factor vanishes for n <= U, so the outer range is
    effectively V < m < x/U.
    """
    n = int(math.floor(x))
    af = as_fraction(alpha)
    u_floor = int(math.floor(ws.cfg.U))
    m_lo = int(math.floor(ws.cfg.V)) + 1
    m_hi = n // (u_floor + 1)  # beyond this the inner range sits inside [1, U]
    if m_lo > m_hi:
        return ExpSumValue(0.0, 0.0, 0)
    conv = ws.conv_theta_lambda(n // m_lo)
    w = arith_function(f).floats(tables)
    support = m_lo + np.flatnonzero(w[m_lo:m_hi + 1])
    acc = complex(0.0)
    count = 0
    for m in support:
        m = int(m)
        nm = n // m
        inner = _block_sum(conv[1:nm + 1] * unit_exponentials(_frac_multiple(af, m), nm))
        acc += w[m] * inner
        count += nm
    return ExpSumValue(acc.real, acc.imag, count)


def h_only_sum(alpha, x: float, ws: WeightSystem) -> ExpSumValue:
    """sum_m h(m) e(m alpha): the first term of the mu decomposition."""
    n = int(math.floor(x))
    af = as_fraction(alpha)
    h = ws.h_float()
    top = min(len(h) - 1, n)
    e = unit_exponentials(af, top)
    total = _block_sum(h[1:top + 1] * e)
    return ExpSumValue(total.real, total.imag, top)


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
    residual: float

    @property
    def combined(self) -> complex:
        return (self.s_I1.value - self.s_I2.value + self.s_II.value
                + self.s_tail.value)

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
    s1 = (type_I_1(alpha, x, ws, tables) if arith_function(f) is MANGOLDT
          else h_only_sum(alpha, x, ws))
    s2 = type_I_2(f, alpha, x, ws, tables)
    s_ii = type_II(f, alpha, x, ws, tables)
    tail = direct_sum(f, alpha, min(ws.cfg.V, x), tables)
    combined = s1.value - s2.value + s_ii.value + tail.value
    residual = abs(s_direct.value - combined)
    report = DecompositionReport(f=f, alpha=float(as_fraction(alpha)), x=float(x),
                                 s_direct=s_direct, s_I1=s1, s_I2=s2,
                                 s_II=s_ii, s_tail=tail, residual=residual)
    if residual > tol * x:
        raise RecombinationError(
            f"residual {residual:.3e} exceeds budget {tol * x:.3e} "
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
