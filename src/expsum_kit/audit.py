"""Randomized audit of the fully explicit trigonometric and combinatorial
inequalities: the min(A, 1/sin) window bound, the q0-nondivisible window
bound, the two weighted m-sum bounds, the Euler-summation counting bounds,
Abel's inequality, the gcd-weighted squarefree sums, the squarefree count
over (M, 2M], and the dyadic-sum-to-integral comparison.

Each check draws admissible random instances (alpha always carries an
exact rational approximation a0/q0 + delta/y), evaluates both sides, and
treats LHS > RHS (beyond 1e-9 relative float slack) as a hard violation
with the witness attached. The van der Corput sum-vs-integral comparison
carries an O(|phi(b)|) term with unspecified constant, so it is reported,
never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .arith import ArithTables, coprime_residues, divisor_count, factorize
from .expsum import symmetric_fracs

_SLACK = 1e-9
#: Largest q0 of a random approximation a0/q0 + delta/y.
_Q0_MAX = 50
#: The squarefree-count check's eps and least M.
_SQFREE_EPS = 0.01
_SQFREE_M_MIN = 100_000
#: The gcd check draws V from [10, _GCD_V_END).
_GCD_V_END = 100_000
#: Gauss-Legendre nodes per panel of _phi_e_integral.
_VDC_NODES = 8
#: Random instances in the van der Corput report.
_VDC_INSTANCES = 20


class AuditViolation(AssertionError):
    """An audited inequality failed on a concrete witness."""


@dataclass
class LemmaAudit:
    name: str
    n_instances: int = 0
    max_ratio: float = 0.0
    tightest: Optional[Dict] = None
    violations: List[Dict] = field(default_factory=list)

    def record(self, lhs: float, rhs: float, params: Dict) -> None:
        self.n_instances += 1
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        if ratio > self.max_ratio:
            self.max_ratio = ratio
            self.tightest = {"lhs": lhs, "rhs": rhs, **params}
        if lhs > rhs * (1 + _SLACK):
            self.violations.append({"lhs": lhs, "rhs": rhs, **params})


@dataclass
class AuditReport:
    seed: int
    lemmas: Dict[str, LemmaAudit] = field(default_factory=dict)
    non_binding: List[Dict] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(len(l.violations) for l in self.lemmas.values())

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "total_violations": self.total_violations,
            "lemmas": {
                name: {
                    "n_instances": l.n_instances,
                    "max_ratio": l.max_ratio,
                    "tightest": l.tightest,
                    "violations": l.violations[:20],
                }
                for name, l in self.lemmas.items()
            },
            "non_binding": self.non_binding,
        }


@dataclass(frozen=True)
class _Approx:
    alpha: Fraction
    a0: int
    q0: int
    delta: float
    y: float


def _random_ap0(rng: np.random.Generator) -> _Approx:
    """alpha = a0/q0 + delta/y with (a0,q0)=1, q0 <= _Q0_MAX,
    |delta|/y <= 1/(q0 Q0), and delta = 0 with probability 0.15."""
    q0 = int(rng.integers(1, _Q0_MAX + 1))
    candidates = coprime_residues(q0)
    a0 = int(candidates[rng.integers(0, len(candidates))])
    y = int(rng.integers(1_000, 100_000))
    delta_cap = y / (q0 * max(float(q0), y ** 0.6))  # Q0 = max(q0, y^0.6)
    if rng.random() < 0.15:
        delta = Fraction(0)
    else:
        scale = Fraction(int(rng.integers(-1_000_000, 1_000_001)), 1_000_000)
        delta = scale * Fraction(delta_cap)
    alpha = Fraction(a0, q0) + delta / y
    return _Approx(alpha=alpha, a0=a0, q0=q0, delta=float(delta), y=float(y))


def _inv_sin_norm(alpha: Fraction, ms: np.ndarray) -> np.ndarray:
    """1/|sin(pi m alpha)| at each m of an increasing int array ms >= 1,
    +inf where m alpha is integral."""
    s = np.sin(np.pi * np.abs(symmetric_fracs(alpha, ms)))
    out = np.full(len(s), np.inf)
    nz = s > 0
    out[nz] = 1.0 / s[nz]
    return out


# --- individual checks -------------------------------------------------------


def _check_window_min_sum(rng, audit: LemmaAudit) -> None:
    """sum over a window of length <= q0 of min(A, 1/|sin pi m alpha|)
    <= 2A + (2 q0/pi) log(4 q0)."""
    ap = _random_ap0(rng)
    q0 = ap.q0
    z1 = float(rng.uniform(0.5, ap.y / 3))
    z2 = z1 + float(rng.uniform(0.0, q0))
    A = float(rng.uniform(0.5, 100.0))
    m_lo, m_hi = int(math.floor(z1)) + 1, int(math.floor(z2))
    lhs = 0.0
    if m_hi >= m_lo:
        inv = _inv_sin_norm(ap.alpha, np.arange(m_lo, m_hi + 1))
        lhs = float(np.sum(np.minimum(A, inv)))
    rhs = 2.0 * A + 2.0 * q0 / math.pi * math.log(4.0 * q0)
    audit.record(lhs, rhs, {"q0": q0, "z1": z1, "z2": z2, "A": A,
                            "delta": ap.delta, "y": ap.y})


def _check_window_nondivisible(rng, audit: LemmaAudit) -> None:
    """Same window, m not divisible by q0, 1/|sin| alone: <= q0 log(e q0);
    needs z2 <= y/(2|delta| q0)."""
    ap = _random_ap0(rng)
    q0 = ap.q0
    z_cap = ap.y / (2.0 * abs(ap.delta) * q0) if ap.delta else ap.y
    z2 = float(rng.uniform(1.0, min(ap.y / 2, z_cap)))
    z1 = max(z2 - float(rng.uniform(0.0, q0)), 0.5)
    m_lo, m_hi = int(math.floor(z1)) + 1, int(math.floor(z2))
    lhs = 0.0
    if m_hi >= m_lo:
        ms = np.arange(m_lo, m_hi + 1)
        lhs = float(np.sum(_inv_sin_norm(ap.alpha, ms[ms % q0 != 0])))
    rhs = q0 * math.log(math.e * q0)
    audit.record(lhs, rhs, {"q0": q0, "z1": z1, "z2": z2,
                            "delta": ap.delta, "y": ap.y})


def _check_weighted_min_sum(rng, audit: LemmaAudit) -> None:
    """sum_{m <= Y} log(Y/m)^r min(y/m, 1/|sin pi m alpha|) against the
    log(4q0)(2 r!/pi Y + 2 q0 log^r Y) + (2y/q0) log+(2Y/q0)^r (...) bound."""
    ap = _random_ap0(rng)
    q0, y = ap.q0, ap.y
    r = int(rng.integers(0, 4))
    Y = float(rng.uniform(3.5, 3000.0))
    n = int(math.floor(Y))
    ms = np.arange(1, n + 1)
    weights = np.log(Y / ms) ** r
    inv = _inv_sin_norm(ap.alpha, ms)
    lhs = float(np.sum(weights * np.minimum(y / ms, inv)))
    log_plus = max(math.log(2.0 * Y / q0), 0.0)
    rhs = (math.log(4.0 * q0) * (2.0 * math.factorial(r) / math.pi * Y
                                 + 2.0 * q0 * math.log(Y) ** r)
           + 2.0 * y / q0 * log_plus ** r * (log_plus / (r + 1) + 2.0))
    audit.record(lhs, rhs, {"q0": q0, "Y": Y, "r": r, "delta": ap.delta, "y": y})


def _check_weighted_nondivisible(rng, audit: LemmaAudit) -> None:
    """sum_{m <= Y, q0 not| m} log(Y/m)^r / |sin pi m alpha|
    <= log(e q0)(r! Y + q0 log^r Y), for Y <= y/(2|delta| q0)."""
    ap = _random_ap0(rng)
    q0, y = ap.q0, ap.y
    r = int(rng.integers(0, 4))
    # |delta| <= y/(q0 max(q0, y^0.6)) keeps y/(2|delta| q0) >= y^0.6/2 > 3.5.
    y_cap = y / (2.0 * abs(ap.delta) * q0) if ap.delta else 3000.0
    Y = float(rng.uniform(3.5, min(3000.0, y_cap)))
    n = int(math.floor(Y))
    ms = np.arange(1, n + 1)
    ms = ms[ms % q0 != 0]
    weights = np.log(Y / ms) ** r
    lhs = float(np.sum(weights * _inv_sin_norm(ap.alpha, ms)))
    rhs = math.log(math.e * q0) * (math.factorial(r) * Y
                                   + q0 * math.log(Y) ** r)
    audit.record(lhs, rhs, {"q0": q0, "Y": Y, "r": r, "delta": ap.delta, "y": y})


def _check_shifted_log_sums(rng, audit: LemmaAudit) -> None:
    """Both Euler-summation counting bounds:
    sum_{0 <= m <= X-rho} log(X/(m+rho))^r <= r! X + log(X/rho)^r and the
    1/(m+rho)-weighted version."""
    X = float(rng.uniform(2.0, 10_000.0))
    rho = float(rng.uniform(1e-3, min(5.0, X * 0.9)))
    r = int(rng.integers(0, 4))
    ms = np.arange(0, int(math.floor(X - rho)) + 1, dtype=np.float64)
    logs = np.log(X / (ms + rho))
    log_xr = math.log(X / rho)
    lhs1 = float(np.sum(logs ** r))
    rhs1 = math.factorial(r) * X + log_xr ** r
    audit.record(lhs1, rhs1, {"X": X, "rho": rho, "r": r, "form": "plain"})
    lhs2 = float(np.sum(logs ** r / (ms + rho)))
    rhs2 = log_xr ** (r + 1) / (r + 1) + log_xr ** r / rho
    audit.record(lhs2, rhs2, {"X": X, "rho": rho, "r": r, "form": "weighted"})


def _check_abel(rng, audit: LemmaAudit) -> None:
    """|sum a_n phi(n)| <= phi(b) max_c |sum_{c < n <= b} a_n| for
    nonnegative nondecreasing phi."""
    n = int(rng.integers(2, 400))
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi = np.cumsum(rng.uniform(0.0, 1.0, size=n)) + float(rng.uniform(0.0, 2.0))
    lhs = abs(np.sum(a * phi))
    suffix = np.abs(np.cumsum(a[::-1]))
    rhs = phi[-1] * float(np.max(suffix))
    audit.record(float(lhs), float(rhs), {"n": n})


def _gcd_period(q: int) -> np.ndarray:
    """(l, q) as a float for l = 1..q, from q's factorization: start at 1
    and, for each prime power p^j dividing q, multiply every p^j-th entry
    by p, so l gains p^min(v_p(l), v_p(q)). The products are integers far
    below 2^53, so these are the floats of np.gcd(l, q)."""
    period = np.ones(q)
    for p, e in factorize(q):
        for j in range(1, e + 1):
            period[p ** j - 1::p ** j] *= p
    return period


def _check_gcd_squarefree(rng, audit: LemmaAudit, ls: np.ndarray,
                          squarefree: np.ndarray) -> None:
    """sum_{l <= V} mu^2(l)(l,q)/l <= tau(q) log(eV) and
    sum_{l <= V} mu^2(l)(l,q) <= tau(q) V; ls is 1.0, 2.0, ... and
    squarefree is mu^2(l) as 1.0 or 0.0 at l = 1, 2, ..., each to at least V
    and made once per audit."""
    q = int(rng.integers(1, 10_000))
    V = int(rng.integers(10, _GCD_V_END))
    # (l, q) depends only on l mod q: one period, repeated out to V (by
    # np.tile, as np.resize concatenates V/q copies one by one).
    terms = np.tile(_gcd_period(q), -(-V // q))[:V]
    terms *= squarefree[:V]  # +0.0 where mu(l) = 0, as a bool mask gives
    tau_q = divisor_count(q)
    lhs2 = float(np.sum(terms))
    terms /= ls[:V]
    lhs1 = float(np.sum(terms))
    audit.record(lhs1, tau_q * math.log(math.e * V), {"q": q, "V": V, "form": "over_l"})
    audit.record(lhs2, tau_q * float(V), {"q": q, "V": V, "form": "plain"})


def _check_squarefree_count(rng, audit: LemmaAudit, sqfree_prefix: np.ndarray) -> None:
    """sum_{M < m <= 2M} mu^2(m) <= (6/pi^2 + eps) M, eps = _SQFREE_EPS,
    M >= _SQFREE_M_MIN, from the squarefree count on [0, n] at each n.

    Only the squarefree display is audited: its Lambda^2 companion needs
    M beyond exp(0.386/eps) before the (1+eps) factor absorbs the
    2 log 2 - 1 excess, far outside table range.
    """
    m_top = (len(sqfree_prefix) - 1) // 2
    M = int(rng.integers(_SQFREE_M_MIN, m_top + 1))
    lhs = float(sqfree_prefix[2 * M] - sqfree_prefix[M])
    rhs = (6.0 / math.pi**2 + _SQFREE_EPS) * M
    audit.record(lhs, rhs, {"M": M, "eps": _SQFREE_EPS})


def _phi_family(rng) -> Tuple[Callable[[float], float], Callable[[float, float], float], Dict]:
    """A random nonnegative decreasing phi with a closed-form integral."""
    c1 = float(rng.uniform(0.0, 5.0))
    c2 = float(rng.uniform(0.1, 5.0))
    c3 = float(rng.uniform(0.0, 5.0))
    c4 = float(rng.uniform(0.1, 5.0))

    def phi(t: float) -> float:
        return c1 * math.exp(-c2 * t) + c3 / (1.0 + c4 * t)

    def integral(lo: float, hi: float) -> float:
        return (c1 / c2 * (math.exp(-c2 * lo) - math.exp(-c2 * hi))
                + c3 / c4 * math.log((1.0 + c4 * hi) / (1.0 + c4 * lo)))

    return phi, integral, {"c1": c1, "c2": c2, "c3": c3, "c4": c4}


def _check_dyadic(rng, audit: LemmaAudit) -> None:
    """sum over powers of two in (A, B] of phi(log m/log x)
    <= (log x/log 2) int phi + phi(log A/log x), phi >= 0 decreasing."""
    x = float(rng.uniform(1e2, 1e8))
    A = float(rng.uniform(1.000001, x ** 0.5))
    B = float(rng.uniform(A * 1.0001, x * 0.999))
    phi, integral, params = _phi_family(rng)
    log_x = math.log(x)
    lhs = 0.0
    k = int(math.floor(math.log(A, 2)))
    while 2.0 ** k <= A:
        k += 1
    while 2.0 ** k <= B:
        lhs += phi(k * math.log(2.0) / log_x)
        k += 1
    t_a, t_b = math.log(A) / log_x, math.log(B) / log_x
    rhs = log_x / math.log(2.0) * integral(t_a, t_b) + phi(t_a)
    audit.record(lhs, rhs, {"x": x, "A": A, "B": B, **params})


def _phi_e_integral(phi: Callable[[np.ndarray], np.ndarray], beta: float,
                    a: float, b: float) -> complex:
    """int_a^b phi(t) e(beta t) dt for |beta| <= 1/2 and phi smooth on [a, b]
    (phi is evaluated on an array of nodes).

    Composite Gauss-Legendre, _VDC_NODES nodes on each of ceil(b - a)
    equal panels, so a panel is no longer than 1 and spans at most half a
    period of e(beta t). The 8-node rule is exact to degree 15; on such a
    panel its error is below float rounding, while on panels twice as long
    it is near 4e-8 phi(b) at |beta| = 1/2 (test_audit checks both against
    a 40-digit Ci/Si closed form).
    """
    from numpy.polynomial.legendre import leggauss  # off the kit's import path
    nodes, weights = leggauss(_VDC_NODES)
    k = max(math.ceil(b - a), 1)
    half = (b - a) / (2 * k)
    mids = a + half * (2 * np.arange(k) + 1)
    t = (mids[:, None] + half * nodes).reshape(-1)
    fw = half * np.tile(weights, k) * phi(t)
    arg = 2 * np.pi * beta * t
    return complex(np.dot(fw, np.cos(arg)), np.dot(fw, np.sin(arg)))


def van_der_corput_report(rng: np.random.Generator) -> List[Dict]:
    """Non-binding: sum_{a<n<=b} phi(n) e(n beta) vs the integral, for
    increasing differentiable phi and |beta| <= 1/2; the discrepancy is
    O(|phi(b)|) with unspecified constant, so only ratios are reported."""
    out = []
    for _ in range(_VDC_INSTANCES):
        a = float(rng.uniform(1.0, 50.0))
        b = a + float(rng.uniform(5.0, 500.0))
        beta = float(rng.uniform(-0.5, 0.5))
        scale = float(rng.uniform(0.1, 5.0))
        ns = np.arange(int(math.floor(a)) + 1, int(math.floor(b)) + 1)
        s = complex(np.sum(scale * np.log1p(ns) * np.exp(2j * np.pi * beta * ns)))
        integral = _phi_e_integral(lambda t: scale * np.log1p(t), beta, a, b)
        diff = abs(s - integral)
        phi_b = scale * math.log(1.0 + b)
        out.append({"a": a, "b": b, "beta": beta,
                    "difference": diff, "phi_b": phi_b,
                    "ratio": diff / phi_b, "non_binding": True})
    return out


def _checks(tables: ArithTables) -> Dict[str, Callable]:
    """Every check as check(rng, audit), in draw order, with what it reads bound."""
    ls = np.arange(1.0, _GCD_V_END)
    squarefree = (tables.mobius[1:_GCD_V_END] != 0).astype(np.float64)
    prefix = np.cumsum(tables.mobius != 0, dtype=np.int32)
    return {
        "window_min_sum": _check_window_min_sum,
        "window_nondivisible": _check_window_nondivisible,
        "weighted_min_sum": _check_weighted_min_sum,
        "weighted_nondivisible": _check_weighted_nondivisible,
        "shifted_log_sums": _check_shifted_log_sums,
        "abel": _check_abel,
        "gcd_squarefree": lambda rng, audit: _check_gcd_squarefree(rng, audit, ls, squarefree),
        "squarefree_count": lambda rng, audit: _check_squarefree_count(rng, audit, prefix),
        "dyadic": _check_dyadic,
    }


def inequality_audit(seed: int, tables: ArithTables, n_instances: int = 1000,
                     raise_on_violation: bool = True) -> AuditReport:
    """Run every check on n_instances random admissible inputs each.

    The squarefree-count check needs tables.n_max >= 2e5 (it draws
    M in [1e5, n_max/2]). Any violation raises AuditViolation carrying
    the witnesses unless raise_on_violation is False.
    """
    if tables.n_max < 200_000:
        raise ValueError("audit needs tables sieved to at least 2e5")
    rng = np.random.default_rng(seed)
    report = AuditReport(seed=seed)
    for name, check in _checks(tables).items():
        audit = LemmaAudit(name=name)
        for _ in range(n_instances):
            check(rng, audit)
        report.lemmas[name] = audit
    report.non_binding = van_der_corput_report(rng)
    if raise_on_violation and report.total_violations:
        worst = {name: l.violations[:3] for name, l in report.lemmas.items()
                 if l.violations}
        raise AuditViolation(f"{report.total_violations} violations: {worst}")
    return report
