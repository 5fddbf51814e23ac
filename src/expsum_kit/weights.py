"""Selberg weights lambda, Barban-Vehov weights theta/theta', combined weight h.

The Selberg-side quantities (G_l(x), lambda(d), the divisibility sum
B_r = sum_{r|d} lambda(d)/d, and the Ramanujan-sum identity for
G_q(R) sum_{d|n} lambda(d)) are fully rational and verified with exact
Fraction arithmetic. The Barban-Vehov ramp theta'(d) = mu(d) log(U1/d)/log(U1/U)
is irrational. WeightSystem evaluates each weight through one formula, in
float64 for the exponential-sum layer or at 50 digits as a reference, and
rounds lambda and theta' to integers over a power of two, with h the exact
lcm convolution of those, for the identity certificate (identity), each
as an array indexed by d, the input format of _one_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arith import ArithTables, TableRangeError, ramanujan_sum, totient

#: Working precision (decimal digits) of the reference weights (h_mp).
RAMP_DPS = 50

#: Partial-sum constants for the logarithmically weighted Mobius sums
#: m-check and m-double-check (see mobius_partial). Checked at 60,000 X
#: spread evenly over [1.0001, 1e4] and 20,000 spread geometrically over
#: [1.0001, 2]: all four bounds hold but one, a finding. On 1 < X < 2,
#: m-check(X) = log X, and |log X - 1| <= c1/log X fails on (1.3602, 1.9984).
RAMARE_C1 = 0.213
RAMARE_C1_PRIME = 1.00303
RAMARE_C2 = 0.2062
RAMARE_C2_PRIME = 2.0


@dataclass(frozen=True)
class WeightConfig:
    """Parameters (U, U1, R, V, q) for one weight system.

    Generic position is 1 < U < U1 and R > 1; the degenerate equalities
    U = 1, U1 = U, R = 1 are allowed and reproduce the classical Vaughan
    weights (theta' = mu restricted to d <= U, lambda supported at d = 1).
    """

    U: float
    U1: float
    R: float
    V: float
    q: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.U, self.U1, self.R, self.V))):
            raise ValueError("U, U1, R and V must be finite")
        if not self.U >= 1:
            raise ValueError("U must be >= 1")
        if self.U1 < self.U:
            raise ValueError("U1 must be >= U")
        if self.R < 1:
            raise ValueError("R must be >= 1")
        if not self.V > 1:
            raise ValueError("V must exceed 1")
        if self.q < 1:
            raise ValueError("q must be a positive integer")

    @property
    def h_support_bound(self) -> int:
        return int(math.floor(self.U1 * self.R))


def g_series(l: int, x: float, tables: ArithTables,
             cache: Optional[Dict[Tuple[int, int], Fraction]] = None) -> Fraction:
    """G_l(x) = sum_{r <= x, (r,l)=1} mu^2(r)/phi(r), exact.

    G is a step function of x, so the memo key is (l, floor(x)).
    """
    xf = int(math.floor(x))
    if xf < 0:
        return Fraction(0)
    tables.check_range(xf, "G series cutoff")
    key = (l, xf)
    if cache is not None and key in cache:
        return cache[key]
    total = Fraction(0)
    mob = tables.mobius
    for r in range(1, xf + 1):
        if mob[r] != 0 and math.gcd(r, l) == 1:
            total += Fraction(1, totient(r))
    if cache is not None:
        cache[key] = total
    return total


def selberg_lambda(d: int, cfg: WeightConfig, tables: ArithTables,
                   cache: Optional[Dict[Tuple[int, int], Fraction]] = None) -> Fraction:
    """lambda(d) = d mu(d)/phi(d) * G_{qd}(R/d)/G_q(R) for d <= R, (d,q)=1; else 0."""
    if d < 1:
        raise ValueError("d must be positive")
    if d > cfg.R or math.gcd(d, cfg.q) != 1 or tables.mobius[d] == 0:
        return Fraction(0)
    g_top = g_series(cfg.q * d, cfg.R / d, tables, cache)
    g_bot = g_series(cfg.q, cfg.R, tables, cache)
    mu = int(tables.mobius[d])
    return Fraction(d * mu, totient(d)) * g_top / g_bot


#: Entries per product in _one_star: 64 KiB of float64 or int64, so its one
#: scratch buffer stays in cache and below glibc's 128 KiB mmap threshold.
_ROW_CHUNK = 1 << 13


def _one_star(g: np.ndarray, n: int, dtype, b: Optional[np.ndarray] = None,
              lo: int = 1, p: int = 0) -> np.ndarray:
    """(g*b)(k) = sum_{dm = k, m >= lo} g(d) b(m) for k <= n, as dtype (float64,
    int64, or bool: * is and, + is or), from g indexed by d (g[0] is not
    read); b = 1 when None (1*g), else of dtype and 0 past its end. One
    strided add per d with g(d) != 0 and per chunk of its slice, in
    increasing d, so each entry adds its terms in increasing d, one at a
    time from 0.

    Each page of the row is touched fresh once: the row is zeroed by a
    write (np.zeros' mapped zero pages would fault again at the first
    strided add), and the products g(d) b(m) are made _ROW_CHUNK at a time
    in one scratch buffer, no longer than the longest slice, not in a
    temporary of length n/d. A d whose slice fits in one chunk makes one
    multiply and one add.

    With a prime p < 2^31, g and b hold int64 residues mod p: each product,
    below 2^62, is reduced mod p before its add, and the row at the end.
    An entry k <= 1e7 takes at most 448 < 2^9 adds (identity's divisor
    bound), so it stays below 2^40 in between."""
    out = np.empty(n + 1, dtype=dtype)
    out.fill(0)
    ds = 1 + np.flatnonzero(g[1:n // lo + 1])
    if b is not None and len(ds):  # the first d has the longest slice
        nb = len(b)
        buf = np.empty(max(min(_ROW_CHUNK, nb - lo, n // int(ds[0]) + 1 - lo), 0),
                       dtype=dtype)
    multiply = np.multiply  # a local: per d, no more Python work than one product
    for d, v in zip(ds.tolist(), g[ds].tolist()):
        if b is None:
            out[d * lo::d] += v
            continue
        m, end = lo, n // d + 1
        if end > nb:  # past b's end, a slice is cut short
            end = nb
        while m < end:
            top = m + _ROW_CHUNK
            if top > end:
                top = end
            t = multiply(b[m:top], v, buf[:top - m])
            if p:
                t %= p
            out[d * m:d * top:d] += t
            m = top
    if p:
        out %= p
    return out


class WeightSystem:
    """Materialized weight tables for one WeightConfig.

    Immutable after construction. Exact Fractions carry everything on the
    Selberg side. Each irrational weight (theta', h) has one formula,
    evaluated in the number type num: float64 for the exponential sums, or
    mpmath's mpf (RAMP_DPS digits) for the 50-digit reference h (h_mp),
    which alone imports mpmath. dyadic gives the integer weights of the
    identity certificate.
    """

    def __init__(self, cfg: WeightConfig, tables: ArithTables):
        if cfg.h_support_bound > tables.n_max:
            raise TableRangeError(
                f"U1*R = {cfg.U1 * cfg.R:.1f} exceeds sieved range {tables.n_max}")
        self.cfg = cfg
        self.tables = tables
        self.g_cache: Dict[Tuple[int, int], Fraction] = {}
        self.lambda_table: Dict[int, Fraction] = {}
        for d in range(1, int(math.floor(cfg.R)) + 1):
            lam = selberg_lambda(d, cfg, tables, self.g_cache)
            if lam:
                self.lambda_table[d] = lam
        self._h_mp: Optional[np.ndarray] = None
        self._h_float: Optional[np.ndarray] = None
        self._theta_prime_float: Optional[np.ndarray] = None
        self._conv_theta_lambda: Dict[int, np.ndarray] = {}

    # -- weight accessors ---------------------------------------------------

    def lam(self, d: int) -> Fraction:
        return self.lambda_table.get(d, Fraction(0))

    def _lambda(self, value) -> np.ndarray:
        """value(lambda(d)) of the exact Fraction, indexed by d on
        [0, floor(R)]: float64 for float, int64 for int, object for mpf."""
        return np.array([value(self.lam(d)) for d in range(int(math.floor(self.cfg.R)) + 1)])

    @property
    def g_q_R(self) -> Fraction:
        return g_series(self.cfg.q, self.cfg.R, self.tables, self.g_cache)

    def theta_prime(self, d: int, num=float):
        """theta'(d) in the number type num: mu(d) for d <= U,
        mu(d) log(U1/d)/log(U1/U) on (U, U1], 0 beyond; an mpf value has the
        caller's working precision. theta = mu - theta' needs no table of its
        own: it is 0 up to U and mu beyond U1, so 1*theta = [k = 1] - 1*theta'.
        """
        if d < 1:
            raise ValueError("d must be positive")
        cfg = self.cfg
        mu = int(self.tables.mobius[d]) if d <= self.tables.n_max else 0
        if mu == 0 or d > cfg.U1:
            return num(0)
        if d <= cfg.U:
            return num(mu)
        if num is float:
            log = math.log
        else:
            from mpmath import log
        return mu * log(num(cfg.U1) / d) / log(num(cfg.U1) / num(cfg.U))

    def _theta_prime_support(self, num) -> np.ndarray:
        """theta' in the number type num, indexed by d on [0, floor(U1)]:
        float64 for float, built once and read-only, object for mpf."""
        if num is float and self._theta_prime_float is not None:
            return self._theta_prime_float
        u1 = int(math.floor(self.cfg.U1))
        out = np.array([num(0)] + [self.theta_prime(d, num) for d in range(1, u1 + 1)])
        if num is float:
            out.setflags(write=False)
            self._theta_prime_float = out
        return out

    # -- h = lambda *_lcm theta' --------------------------------------------

    def _h(self, lam: np.ndarray, theta_prime: np.ndarray) -> np.ndarray:
        """h = lambda *_lcm theta', indexed by d on [0, floor(U1*R)], from
        lambda and theta' in one dtype (float64, int64, or object for mpf at
        the caller's precision). lambda(d1) theta'(d2) is added at
        lcm(d1, d2) with d1 outer and d2 inner, both ascending, each entry
        from 0: one np.add.at per d1, which adds a repeated index in order."""
        out = np.zeros(self.cfg.h_support_bound + 1, dtype=lam.dtype)
        d2 = 1 + np.flatnonzero(theta_prime[1:])
        tp = theta_prime[d2]
        for d1 in (1 + np.flatnonzero(lam[1:])).tolist():
            l = d2 // np.gcd(d2, d1) * d1
            keep = l < len(out)
            np.add.at(out, l[keep], lam[d1] * tp[keep])
        return out

    def h_mp(self) -> np.ndarray:
        """h as mpf at RAMP_DPS digits, indexed by d on [0, floor(U1*R)]."""
        if self._h_mp is None:
            from mpmath import mpf, workdps
            with workdps(RAMP_DPS):  # mpf takes no Fraction
                lam = self._lambda(lambda f: mpf(f.numerator) / mpf(f.denominator))
                self._h_mp = self._h(lam, self._theta_prime_support(mpf))
        return self._h_mp

    def h_float(self) -> np.ndarray:
        """h as float64, indexed by d on [0, floor(U1*R)]."""
        if self._h_float is None:
            self._h_float = self._h(self._lambda(float), self._theta_prime_support(float))
        return self._h_float

    def dyadic(self, P: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda_P, theta'_P, h_P) as int64 arrays indexed by d: lambda
        rounded to an integer over 2^P from its exact Fraction, so
        lambda_P(1) = 2^P; theta' rounded to one from its float; and
        h_P = lambda_P *_lcm theta'_P, over 2^(2P)."""
        lam = self._lambda(lambda f: round(f * (1 << P)))
        theta_prime = np.rint(np.ldexp(self._theta_prime_support(float), P)).astype(np.int64)
        return lam, theta_prime, self._h(lam, theta_prime)

    # -- float64 convolution tables for the exponential-sum layer -----------

    def one_star_theta(self, n: int) -> np.ndarray:
        """(1 * theta)(k) for k <= n; theta = mu - theta', so this equals
        [k = 1] - (1 * theta')(k)."""
        out = _one_star(self._theta_prime_support(float), n, np.float64)
        np.negative(out, out=out)
        out[1:2] += 1.0  # [k = 1], when n >= 1
        return out

    def one_star_lambda(self, n: int) -> np.ndarray:
        return _one_star(self._lambda(float), n, np.float64)

    def conv_theta_lambda(self, n: int) -> np.ndarray:
        """The type-II inner factor (1*theta)(k) (1*lambda)(k) for k <= n.

        Built once per n and shared (read-only) by every type-II sum on
        this system.
        """
        if n not in self._conv_theta_lambda:
            conv = self.one_star_theta(n)
            conv *= self.one_star_lambda(n)
            conv.setflags(write=False)
            self._conv_theta_lambda[n] = conv
        return self._conv_theta_lambda[n]

    # -- findings -------------------------------------------------------------

    def lambda_findings(self) -> List[Tuple[int, float]]:
        """Weights with |lambda(d)| > 1; measured, never assumed impossible."""
        return [(d, float(v)) for d, v in sorted(self.lambda_table.items())
                if abs(v) > 1]


# ---------------------------------------------------------------------------
# Exact identity checks (rational side)


@dataclass(frozen=True)
class EqualityReport:
    """Two exactly computed sides of an identity, plus the verdict."""

    label: str
    argument: int
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def witness(self) -> Optional[Tuple[int, Fraction, Fraction]]:
        return None if self.equal else (self.argument, self.lhs, self.rhs)


def verify_lbsum_a(r: int, ws: WeightSystem) -> EqualityReport:
    """B_r = sum_{d = 0 mod r} lambda(d)/d against mu(r)/(phi(r) G_q(R)).

    The right side is 0 when r > R or gcd(r, q) > 1 (and when r is not
    squarefree, where mu kills it); the left side is an empty or
    cancelling sum in those cases.
    """
    cfg, tables = ws.cfg, ws.tables
    lhs = sum((ws.lam(d) / d for d in range(r, int(math.floor(cfg.R)) + 1, r)),
              Fraction(0))
    if r <= cfg.R and math.gcd(r, cfg.q) == 1:
        rhs = Fraction(int(tables.mobius[r]), totient(r)) / ws.g_q_R
    else:
        rhs = Fraction(0)
    return EqualityReport("lbsum_a", r, lhs, rhs)


def verify_lbcr(n: int, ws: WeightSystem) -> EqualityReport:
    """G_q(R) sum_{d|n} lambda(d) against sum_{r<=R,(r,q)=1} mu(r) c_r(n)/phi(r)."""
    if n < 1:
        raise ValueError(f"verify_lbcr needs n >= 1, got {n}")
    cfg, tables = ws.cfg, ws.tables
    # over lambda's support: lambda is 0 above R, so these are the d | n, d <= R
    lhs = ws.g_q_R * sum((lam for d, lam in ws.lambda_table.items() if n % d == 0),
                         Fraction(0))
    rhs = Fraction(0)
    for r in range(1, int(math.floor(cfg.R)) + 1):
        mu = int(tables.mobius[r])
        if mu and math.gcd(r, cfg.q) == 1:
            rhs += Fraction(mu * ramanujan_sum(r, n, tables), totient(r))
    return EqualityReport("lbcr", n, lhs, rhs)


def gq_lower_bound_holds(ws: WeightSystem) -> bool:
    """G_q(R) >= phi(q)/q * log R (the type-II normalizer lower bound)."""
    return float(ws.g_q_R) >= totient(ws.cfg.q) / ws.cfg.q * math.log(ws.cfg.R) - 1e-12


# ---------------------------------------------------------------------------
# Report-only sums (their error terms carry unspecified O-constants)


def lbsum_b_report(r: int, ws: WeightSystem) -> Dict[str, float]:
    """sum_{d = 0 mod r} lambda(d) log(d)/d and its |.| <= (1+eps) mu^2(r)/phi(r) * log R/G_q(R) main term."""
    cfg, tables = ws.cfg, ws.tables
    lhs = 0.0
    for d in range(r, int(math.floor(cfg.R)) + 1, r):
        lam = ws.lam(d)
        if lam:
            lhs += float(lam) / d * math.log(d)
    mu2 = 1 if tables.mobius[r] != 0 else 0
    main = mu2 / totient(r) * math.log(cfg.R) / float(ws.g_q_R)
    return {"r": r, "lhs": lhs, "main_term": main,
            "ratio": abs(lhs) / main if main else math.inf if lhs else 0.0}


def lbsum_c_report(g: int, ws: WeightSystem) -> Dict[str, float]:
    """sum_{d = 0 mod g} |lambda(d)| against mu^2(g)/phi(g) * R/G_q(R)."""
    cfg, tables = ws.cfg, ws.tables
    lhs = sum(abs(float(ws.lam(d)))
              for d in range(g, int(math.floor(cfg.R)) + 1, g))
    mu2 = 1 if tables.mobius[g] != 0 else 0
    main = mu2 / totient(g) * cfg.R / float(ws.g_q_R)
    return {"g": g, "lhs": lhs, "main_term": main,
            "ratio": lhs / main if main else math.inf if lhs else 0.0}


def thtsum_report(v: int, ws: WeightSystem) -> Dict[str, float]:
    """The three theta' divisibility sums over d = 0 mod v, with main terms."""
    cfg, tables = ws.cfg, ws.tables
    u1 = int(math.floor(cfg.U1))
    s_plain = s_log = s_abs = 0.0
    for d in range(v, u1 + 1, v):
        t = ws.theta_prime(d)
        if t:
            s_plain += t / d
            s_log += t / d * math.log(d)
            s_abs += abs(t)
    log_ratio = math.log(cfg.U1 / cfg.U) if cfg.U1 > cfg.U else math.nan
    phi_v = totient(v)
    return {
        "v": v,
        "sum_over_d": s_plain,
        "main_sum_over_d": 2 / (phi_v * log_ratio * math.log(cfg.U / v))
        if cfg.U > v and cfg.U1 > cfg.U else math.nan,
        "sum_log_over_d": s_log,
        "main_sum_log_over_d": -int(tables.mobius[v]) / phi_v,
        "sum_abs": s_abs,
        "bound_sum_abs": cfg.U1 / (v * log_ratio) if cfg.U1 > cfg.U else math.nan,
    }


# ---------------------------------------------------------------------------
# Logarithmically weighted Mobius partial sums

#: Terms per chunk of a partial sum, and per chunk that _exact_sum takes.
_PARTIAL_CHUNK = 1 << 13

#: frexp gives a nonzero finite float the exponent e in [-1073, 1024], and
#: 0 the exponent 0; bin e + _EXP_OFFSET holds the terms of exponent e.
_EXP_OFFSET = 1073
_EXP_BINS = 1024 + _EXP_OFFSET + 1


def _exact_sum(chunks: Iterable[np.ndarray]) -> float:
    """The sum of the finite float64 chunks, each at most _PARTIAL_CHUNK
    long and fewer than 2^26 terms in all, correctly rounded: the bits of
    math.fsum over them.

    np.frexp writes each term as M 2^(e - 53) with M = m 2^53 an integer,
    |M| < 2^53. M splits exactly into a high part trunc(M / 2^26) and a low
    part M - 2^26 trunc(M / 2^26), with |high| < 2^27 and |low| < 2^26.
    np.bincount adds each part into bins by e. Every bin is a sum of fewer
    than 2^26 integers below 2^27, so it stays an integer below 2^53 and
    is exact in float64 in any order, chunk after chunk. The bins are
    combined in Python integers and rounded once, by Python's correctly
    rounded int/int division.
    """
    mant = np.empty(_PARTIAL_CHUNK)
    part = np.empty(_PARTIAL_CHUNK)
    exps = np.empty(_PARTIAL_CHUNK, dtype=np.intp)
    high = np.zeros(_EXP_BINS)
    low = np.zeros(_EXP_BINS)
    for chunk in chunks:
        m, p, e = mant[:len(chunk)], part[:len(chunk)], exps[:len(chunk)]
        np.frexp(chunk, out=(m, e))
        m *= 2.0 ** 53
        e += _EXP_OFFSET
        np.multiply(m, 2.0 ** -26, out=p)
        np.trunc(p, out=p)
        high += np.bincount(e, weights=p, minlength=_EXP_BINS)
        p *= 2.0 ** 26
        m -= p
        low += np.bincount(e, weights=m, minlength=_EXP_BINS)
    bins = np.flatnonzero((high != 0) | (low != 0)).tolist()
    if not bins:
        return 0.0
    # the sum is total * 2^(bins[0] - _EXP_OFFSET - 53)
    total = sum(((int(high[k]) << 26) + int(low[k])) << (k - bins[0])
                for k in bins)
    shift = bins[0] - _EXP_OFFSET - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _mobius_partials(v: int, X: float, powers: Sequence[int],
                     tables: ArithTables) -> List[float]:
    """mobius_partial at each power, reading mu's support and taking
    log(X/n) once for all of them.

    Dividing by mu(n) n gives the bits of dividing by n and then
    multiplying by mu(n) = +-1, since negating a divisor negates the rounded
    quotient. _exact_sum rounds the exact sum once, so terms made a chunk
    at a time, in one reused buffer, give the bits of math.fsum over whole
    arrays. Its bins stay exact because a power has fewer than 2^26 terms:
    the squarefree n <= X are neither multiples of 4 nor of 9, and
    n_max <= MAX_N_MAX = 10^8 leaves 10^8 - 25,000,000 - 11,111,111 +
    2,777,777 = 66,666,666 < 2^26 = 67,108,864 such n (there are
    60,792,694 squarefree n <= 10^8). So, as for one power, two float
    arrays of the support (16 B per term) are alive; the signs go on the
    int64 support before its float copy, so set-up holds no more.
    """
    if v < 1:
        raise ValueError(f"v must be at least 1, got {v}")
    tables.check_range(v, "coprimality modulus v")
    if tables.mobius[v] == 0:
        raise ValueError("v must be squarefree")
    tables.check_range(X, "partial-sum cutoff")
    n_top = int(math.floor(X))
    mu = tables.mobius[1:n_top + 1]
    n = np.flatnonzero(mu)  # n - 1, for now
    if v != 1:
        n = n[np.gcd(n + 1, v) == 1]
    signs = mu[n]
    n += 1
    n *= signs
    del signs
    n = n.astype(np.float64)  # mu(n) n, exact below 2^53
    log_ratio = np.abs(n)
    np.log(log_ratio, out=log_ratio)
    np.subtract(math.log(X), log_ratio, out=log_ratio)
    buffer = np.empty(min(len(n), _PARTIAL_CHUNK))

    def terms(power):
        # log(X/n)^power / (mu(n) n)
        for lo in range(0, len(n), _PARTIAL_CHUNK):
            chunk = buffer[:len(n) - lo]
            np.power(log_ratio[lo:lo + _PARTIAL_CHUNK], power, out=chunk)
            np.divide(chunk, n[lo:lo + _PARTIAL_CHUNK], out=chunk)
            yield chunk
    return [_exact_sum(terms(power)) for power in powers]


def mobius_partial(v: int, X: float, power: int, tables: ArithTables) -> float:
    """m-check_v(X) (power=1) or m-double-check_v(X) (power=2).

    sum_{n <= X, (n,v)=1} mu(n)/n * log(X/n)^power, compensated summation.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return _mobius_partials(v, X, (power,), tables)[0]


def mobius_partial_bounds_hold(X: float, tables: ArithTables) -> Dict[str, bool]:
    """The four partial-sum bounds with constants c1, c1', c2, c2' at one
    X >= 1; at X = 1 the asymptotic bounds c/log X read as +inf."""
    if X < 1:
        raise ValueError(f"X must be at least 1, got {X}")
    m1, m2 = _mobius_partials(1, X, (1, 2), tables)
    log_x = math.log(X)
    c1, c2 = (RAMARE_C1 / log_x, RAMARE_C2 / log_x) if log_x else (math.inf, math.inf)
    return {
        "m_check_asymptotic": abs(m1 - 1.0) <= c1,
        "m_check_absolute": abs(m1) <= RAMARE_C1_PRIME,
        "mm_check_asymptotic": abs(m2 - 2 * log_x + 2 * np.euler_gamma) <= c2,
        "mm_check_absolute": abs(m2) <= RAMARE_C2_PRIME * log_x,
    }
