"""Selberg weights lambda, Barban-Vehov weights theta/theta', combined weight h.

The Selberg-side quantities (G_l(x), lambda(d), the divisibility sum
B_r = sum_{r|d} lambda(d)/d, and the Ramanujan-sum identity for
G_q(R) sum_{d|n} lambda(d)) are fully rational and verified with exact
Fraction arithmetic. The Barban-Vehov ramp theta'(d) = mu(d) log(U1/d)/log(U1/U)
is irrational, so every identity that mixes in h is checked in 50-digit
mpmath arithmetic instead; WeightSystem exposes both exact/high-precision
tables and float64 tables for the exponential-sum layer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from mpmath import mp, mpf, workdps

from .arith import ArithTables, TableRangeError, ramanujan_sum

#: Working precision (decimal digits) for identities that involve the
#: irrational ramp weights.
RAMP_DPS = 50

#: Partial-sum constants for the logarithmically weighted Mobius sums
#: m-check and m-double-check (see mobius_partial): valid for all X >= 1.
RAMARE_C1 = 0.213
RAMARE_C1_PRIME = 1.00303
RAMARE_C2 = 0.2062
RAMARE_C2_PRIME = 2.0


@dataclass(frozen=True)
class WeightConfig:
    """Parameters (U, U1, R, V, q, eta) for one weight system.

    Generic position is 1 < U < U1 and R > 1; the degenerate equalities
    U = 1, U1 = U, R = 1 are allowed and reproduce the classical Vaughan
    weights (theta' = mu restricted to d <= U, lambda supported at d = 1).
    """

    U: float
    U1: float
    R: float
    V: float
    q: int
    eta: float = 1.0 / 15.0

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
        if not 0 < self.eta <= 0.1:
            raise ValueError("eta must lie in (0, 1/10]")

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
    tot = tables.totient
    for r in range(1, xf + 1):
        if mob[r] != 0 and math.gcd(r, l) == 1:
            total += Fraction(1, int(tot[r]))
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
    return Fraction(d * mu, int(tables.totient[d])) * g_top / g_bot


@dataclass
class RampValue:
    """A Barban-Vehov weight in branch form, symbolic until evaluated.

    kind is "zero", "unit" (value = mu), "ramp" (theta' ramp:
    mu log(U1/d)/log(U1/U)) or "theta_ramp" (theta ramp:
    mu log(d/U)/log(U1/U)).
    """

    kind: str
    mu: int = 0
    d: int = 0

    def _value(self, cfg: WeightConfig, num, log):
        """The weight in the number type num, with log its logarithm."""
        if self.kind == "unit":
            return num(self.mu)
        if self.kind == "zero":
            return num(0)
        span = log(num(cfg.U1) / num(cfg.U))
        if self.kind == "ramp":
            return self.mu * log(num(cfg.U1) / self.d) / span
        return self.mu * log(num(self.d) / num(cfg.U)) / span

    def as_float(self, cfg: WeightConfig) -> float:
        return self._value(cfg, float, math.log)

    def as_mpf(self, cfg: WeightConfig) -> mpf:
        return self._value(cfg, mpf, mp.log)


def barban_vehov(d: int, cfg: WeightConfig, tables: ArithTables,
                 which: str = "theta_prime") -> RampValue:
    """Branch form of theta'(d) or theta(d) = mu(d) - theta'(d).

    theta'(d): mu(d) for d <= U, mu(d) log(U1/d)/log(U1/U) on (U, U1], 0 beyond.
    theta(d) mirrors it: 0 for d <= U, mu(d) log(d/U)/log(U1/U), mu(d) beyond U1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    mu = int(tables.mobius[d]) if d <= tables.n_max else 0
    if mu == 0:
        return RampValue("zero")
    if which == "theta_prime":
        if d <= cfg.U:
            return RampValue("unit", mu)
        if d <= cfg.U1:
            return RampValue("ramp", mu, d)
        return RampValue("zero")
    if which == "theta":
        if d <= cfg.U:
            return RampValue("zero")
        if d <= cfg.U1:
            # mu - mu*log(U1/d)/log(U1/U) = mu*log(d/U)/log(U1/U)
            return RampValue("theta_ramp", mu, d)
        return RampValue("unit", mu)
    raise ValueError("which must be 'theta' or 'theta_prime'")


class WeightSystem:
    """Materialized weight tables for one WeightConfig.

    Immutable after construction. Exact Fractions carry everything on the
    Selberg side; the h table is kept both at RAMP_DPS digits (for identity
    certification) and as float64 arrays (for exponential sums).
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
        self._h_mp: Optional[Dict[int, mpf]] = None
        self._h_float: Optional[np.ndarray] = None
        self._identity_tables: Dict[int, tuple] = {}

    # -- weight accessors ---------------------------------------------------

    def lam(self, d: int) -> Fraction:
        return self.lambda_table.get(d, Fraction(0))

    def g_value(self, l: int, x: float) -> Fraction:
        return g_series(l, x, self.tables, self.g_cache)

    @property
    def g_q_R(self) -> Fraction:
        return self.g_value(self.cfg.q, self.cfg.R)

    def theta_prime(self, d: int) -> RampValue:
        return barban_vehov(d, self.cfg, self.tables, "theta_prime")

    def theta(self, d: int) -> RampValue:
        return barban_vehov(d, self.cfg, self.tables, "theta")

    def theta_prime_float(self, d: int) -> float:
        return self.theta_prime(d).as_float(self.cfg)

    def theta_prime_mpf(self, d: int) -> mpf:
        return self.theta_prime(d).as_mpf(self.cfg)

    def theta_mpf(self, d: int) -> mpf:
        return self.theta(d).as_mpf(self.cfg)

    # -- h = lambda *_lcm theta' --------------------------------------------

    def _h_pairs(self) -> Iterable[Tuple[int, int, int]]:
        """(d1, d2, lcm) pairs with lambda(d1) != 0, theta'(d2) != 0."""
        bound = self.cfg.h_support_bound
        u1 = int(math.floor(self.cfg.U1))
        for d1 in self.lambda_table:
            for d2 in range(1, u1 + 1):
                if self.tables.mobius[d2] == 0:
                    continue
                l = d1 * d2 // math.gcd(d1, d2)
                if l <= bound:
                    yield d1, d2, l

    def h_mp(self) -> Dict[int, mpf]:
        """h(d) at RAMP_DPS digits, sparse over [1, floor(U1*R)]."""
        if self._h_mp is None:
            with workdps(RAMP_DPS):
                out: Dict[int, mpf] = {}
                lam_mp = {d: mpf(f.numerator) / mpf(f.denominator)
                          for d, f in self.lambda_table.items()}
                for d1, d2, l in self._h_pairs():
                    tp = self.theta_prime(d2)
                    if tp.kind == "zero":
                        continue
                    out[l] = out.get(l, mpf(0)) + lam_mp[d1] * tp.as_mpf(self.cfg)
                self._h_mp = {d: v for d, v in out.items() if v != 0}
        return self._h_mp

    def identity_tables_mp(self, n_max: int
                           ) -> Tuple[Dict[int, mpf], List[mpf], List[mpf]]:
        """(h, 1*h, (1*theta)(1*lambda)) at RAMP_DPS digits up to n_max.

        Built once per n_max and shared by the Lambda and mu identities.
        theta values come straight from the piecewise definition; lambda
        from the exact rational table.
        """
        if n_max not in self._identity_tables:
            with workdps(RAMP_DPS):
                h = self.h_mp()
                theta = {d: rv.as_mpf(self.cfg) for d in range(1, n_max + 1)
                         if (rv := self.theta(d)).kind != "zero"}
                lam = {d: mpf(f.numerator) / mpf(f.denominator)
                       for d, f in self.lambda_table.items()}
                conv_tl = [a * b for a, b in zip(_one_star_mp(theta, n_max),
                                                 _one_star_mp(lam, n_max))]
                self._identity_tables[n_max] = h, _one_star_mp(h, n_max), conv_tl
        return self._identity_tables[n_max]

    def h_float(self) -> np.ndarray:
        """h as a float64 array indexed by d on [0, floor(U1*R)]."""
        if self._h_float is None:
            out = np.zeros(self.cfg.h_support_bound + 1)
            lam_f = {d: float(f) for d, f in self.lambda_table.items()}
            for d1, d2, l in self._h_pairs():
                tp = self.theta_prime(d2)
                if tp.kind == "zero":
                    continue
                out[l] += lam_f[d1] * tp.as_float(self.cfg)
            self._h_float = out
        return self._h_float

    # -- float64 convolution tables for the exponential-sum layer -----------

    def one_star_theta_prime(self, n: int) -> np.ndarray:
        """(1 * theta')(k) for k <= n; support of theta' is d <= U1."""
        out = np.zeros(n + 1)
        for d in range(1, min(int(math.floor(self.cfg.U1)), n) + 1):
            v = self.theta_prime_float(d)
            if v:
                out[d::d] += v
        return out

    def one_star_theta(self, n: int) -> np.ndarray:
        """(1 * theta)(k) for k <= n; theta = mu - theta', so this equals
        [k = 1] - (1 * theta')(k)."""
        out = -self.one_star_theta_prime(n)
        if n >= 1:
            out[1] += 1.0
        return out

    def one_star_lambda(self, n: int) -> np.ndarray:
        out = np.zeros(n + 1)
        for d, lam in self.lambda_table.items():
            if d <= n:
                out[d::d] += float(lam)
        return out

    def conv_theta_lambda(self, n: int) -> np.ndarray:
        """The type-II inner factor (1*theta)(k) (1*lambda)(k) for k <= n."""
        return self.one_star_theta(n) * self.one_star_lambda(n)

    # -- findings -------------------------------------------------------------

    def lambda_findings(self) -> List[Tuple[int, float]]:
        """Weights with |lambda(d)| > 1; measured, never assumed impossible."""
        return [(d, float(v)) for d, v in sorted(self.lambda_table.items())
                if abs(v) > 1]

    def export_csv(self, path) -> None:
        """Weight tables as CSV: d, lambda_num, lambda_den, theta_prime, h."""
        h = self.h_float()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d", "lambda_num", "lambda_den", "theta_prime", "h"])
            for d in range(1, self.cfg.h_support_bound + 1):
                lam = self.lam(d)
                writer.writerow([d, lam.numerator, lam.denominator,
                                 repr(self.theta_prime_float(d)), repr(float(h[d]))])


def _one_star_mp(g: Dict[int, mpf], n_max: int) -> List[mpf]:
    """(1*g)(k) for k <= n_max from the sparse values g = {d: g(d)}."""
    out = [mpf(0)] * (n_max + 1)
    for d, v in g.items():
        for k in range(d, n_max + 1, d):
            out[k] += v
    return out


def combined_h(cfg: WeightConfig, tables: ArithTables) -> Dict[int, float]:
    """h on [1, floor(U1*R)] as a sparse float dict (zero entries absent)."""
    ws = WeightSystem(cfg, tables)
    h = ws.h_float()
    return {d: float(h[d]) for d in range(1, len(h)) if h[d] != 0.0}


def classic_vaughan_mode(ws: WeightSystem) -> WeightSystem:
    """Degenerate system with U1 = U and R = 1.

    Then theta' = mu restricted to d <= U, lambda is supported at d = 1
    only, and h(d) = mu(d) for d <= U: the classical Vaughan weights.
    """
    cfg = replace(ws.cfg, U1=ws.cfg.U, R=1.0)
    return WeightSystem(cfg, ws.tables)


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
        rhs = Fraction(int(tables.mobius[r]), int(tables.totient[r])) / ws.g_q_R
    else:
        rhs = Fraction(0)
    return EqualityReport("lbsum_a", r, lhs, rhs)


def verify_lbcr(n: int, ws: WeightSystem) -> EqualityReport:
    """G_q(R) sum_{d|n} lambda(d) against sum_{r<=R,(r,q)=1} mu(r) c_r(n)/phi(r)."""
    cfg, tables = ws.cfg, ws.tables
    lhs = ws.g_q_R * sum((ws.lam(d) for d in tables.divisors(n) if d <= cfg.R),
                         Fraction(0))
    rhs = Fraction(0)
    for r in range(1, int(math.floor(cfg.R)) + 1):
        mu = int(tables.mobius[r])
        if mu and math.gcd(r, cfg.q) == 1:
            rhs += Fraction(mu * ramanujan_sum(r, n, tables), int(tables.totient[r]))
    return EqualityReport("lbcr", n, lhs, rhs)


def gq_lower_bound_holds(ws: WeightSystem) -> bool:
    """G_q(R) >= phi(q)/q * log R (the type-II normalizer lower bound)."""
    ws.tables.check_range(ws.cfg.q, "q")
    phi_q = int(ws.tables.totient[ws.cfg.q])
    return float(ws.g_q_R) >= phi_q / ws.cfg.q * math.log(ws.cfg.R) - 1e-12


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
    main = mu2 / int(tables.totient[r]) * math.log(cfg.R) / float(ws.g_q_R)
    return {"r": r, "lhs": lhs, "main_term": main,
            "ratio": abs(lhs) / main if main else math.inf if lhs else 0.0}


def lbsum_c_report(g: int, ws: WeightSystem) -> Dict[str, float]:
    """sum_{d = 0 mod g} |lambda(d)| against mu^2(g)/phi(g) * R/G_q(R)."""
    cfg, tables = ws.cfg, ws.tables
    lhs = sum(abs(float(ws.lam(d)))
              for d in range(g, int(math.floor(cfg.R)) + 1, g))
    mu2 = 1 if tables.mobius[g] != 0 else 0
    main = mu2 / int(tables.totient[g]) * cfg.R / float(ws.g_q_R)
    return {"g": g, "lhs": lhs, "main_term": main,
            "ratio": lhs / main if main else math.inf if lhs else 0.0}


def thtsum_report(v: int, ws: WeightSystem) -> Dict[str, float]:
    """The three theta' divisibility sums over d = 0 mod v, with main terms."""
    cfg, tables = ws.cfg, ws.tables
    u1 = int(math.floor(cfg.U1))
    s_plain = s_log = s_abs = 0.0
    for d in range(v, u1 + 1, v):
        t = ws.theta_prime_float(d)
        if t:
            s_plain += t / d
            s_log += t / d * math.log(d)
            s_abs += abs(t)
    log_ratio = math.log(cfg.U1 / cfg.U) if cfg.U1 > cfg.U else math.nan
    phi_v = int(tables.totient[v])
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


def mobius_partial(v: int, X: float, power: int, tables: ArithTables) -> float:
    """m-check_v(X) (power=1) or m-double-check_v(X) (power=2).

    sum_{n <= X, (n,v)=1} mu(n)/n * log(X/n)^power, compensated summation.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if tables.mobius[v] == 0:
        raise ValueError("v must be squarefree")
    tables.check_range(X, "partial-sum cutoff")
    n_top = int(math.floor(X))
    log_x = math.log(X)
    terms: List[float] = []
    mob = tables.mobius
    for n in range(1, n_top + 1):
        mu = mob[n]
        if mu == 0 or (v != 1 and math.gcd(n, v) != 1):
            continue
        t = (log_x - math.log(n)) ** power / n
        terms.append(t if mu > 0 else -t)
    return math.fsum(terms)


def mobius_partial_bounds_hold(X: float, tables: ArithTables) -> Dict[str, bool]:
    """The four partial-sum bounds with constants c1, c1', c2, c2' at one X."""
    m1 = mobius_partial(1, X, 1, tables)
    m2 = mobius_partial(1, X, 2, tables)
    log_x = math.log(X)
    return {
        "m_check_asymptotic": abs(m1 - 1.0) <= RAMARE_C1 / log_x,
        "m_check_absolute": abs(m1) <= RAMARE_C1_PRIME,
        "mm_check_asymptotic": abs(m2 - 2 * log_x + 2 * np.euler_gamma)
        <= RAMARE_C2 / log_x,
        "mm_check_absolute": abs(m2) <= RAMARE_C2_PRIME * log_x,
    }
