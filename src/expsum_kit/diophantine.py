"""Rational approximations of alpha: Dirichlet pairs (a, q, delta) and the
alternate approximation used when the scale calls for a larger denominator.

alpha is carried as an exact Fraction whenever possible; float inputs are
converted to their exact dyadic value (resolution ~1e-15 of the intended
real, documented behaviour). Continued-fraction convergents come from the
Euclid recurrence on the exact fraction, so approximation quality is never
limited by the scan itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

class ApproximationError(RuntimeError):
    """No admissible fraction found: a cap beyond the float range, or a
    numerical bug, never a math gap."""


@dataclass(frozen=True)
class RationalApprox:
    """alpha = a/q + delta/x with gcd(a,q) = 1, q <= Q, |delta|/x <= 1/(qQ).

    delta0 = delta0_of(delta) is the effective distance scale.
    Invariants are checked on construction.
    """

    a: int
    q: int
    delta: float
    delta0: float
    Q: float
    x: float
    alpha: Fraction

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("a/q must be in lowest terms")
        if self.q > self.Q * (1 + 1e-12):
            raise ValueError(f"q={self.q} exceeds the cap Q={self.Q}")
        if not _within_cap(self.alpha, self.a, self.q, self.Q):
            err = float(abs(self.alpha - Fraction(self.a, self.q)))
            raise ApproximationError(
                f"{self.a}/{self.q} violates |delta|/x <= 1/(qQ): "
                f"|alpha - a/q| = {err:.3e} > 1/({self.q} * {self.Q:.6g})")
        if not self.delta0 >= 1:
            raise ValueError("delta0 must be >= 1")


def _within_cap(alpha: Fraction, a: int, q: int, Q: float) -> bool:
    """|alpha - a/q| <= 1/(qQ), with 1e-12 relative slack for the float cap
    Q; compared exactly, since q Q may overflow a float."""
    err = abs(alpha - Fraction(a, q))
    return not err if math.isinf(Q) else err * q * Fraction(Q) <= 1 + 1e-12


def delta0_of(delta: float) -> float:
    """The effective distance scale delta0 = max(1, |delta|/4)."""
    return max(1.0, abs(delta) / 4.0)


def coordinates(x: float, q: int, delta0: float) -> Tuple[float, float]:
    """Theorem coordinates u = log(delta0 q)/log x, u0 = log+(delta0/q)/log x.

    Always 0 <= u0 <= u for q >= 1 and delta0 >= 1; the eta-dependent
    range checks (u <= 2/5 - eta etc.) live in the bounds layer. x <= 1
    raises ValueError.
    """
    if x <= 1:
        raise ValueError("u coordinates need x > 1")
    log_x = math.log(x)
    u = math.log(delta0 * q) / log_x
    u0 = max(math.log(delta0 / q), 0.0) / log_x
    return u, u0


def as_fraction(alpha) -> Fraction:
    """Exact Fraction for alpha; floats map to their dyadic value."""
    return alpha if isinstance(alpha, Fraction) else Fraction(alpha)


def convergents(alpha: Fraction) -> Iterator[Tuple[int, int]]:
    """(p_k, q_k) convergents of alpha from the Euclid recurrence."""
    a, b = alpha.numerator, alpha.denominator
    p_prev, q_prev = 1, 0
    p_pprev, q_pprev = 0, 1
    while b != 0:
        coef = a // b
        p_new = coef * p_prev + p_pprev
        q_new = coef * q_prev + q_pprev
        yield p_new, q_new
        p_pprev, q_pprev = p_prev, q_prev
        p_prev, q_prev = p_new, q_new
        a, b = b, a - coef * b


def dirichlet_approx(alpha, Q: float, x: float) -> RationalApprox:
    """Convergent a/q with the largest q <= Q; then |alpha - a/q| <= 1/(qQ).

    The largest-denominator convergent under the cap minimizes |delta| and,
    for rational alpha with reduced denominator <= Q, is alpha itself
    (delta = 0). The cap inequality holds because the next convergent has
    q' > Q; it is re-verified on construction and a violation raises.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if x <= 0:
        raise ValueError("x must be positive")
    af = as_fraction(alpha)
    best: Optional[Tuple[int, int]] = None
    for p, q in convergents(af):
        if q > Q:
            break
        best = (p, q)
    if best is None:
        raise ApproximationError("no convergent with q <= Q")
    return _build(af, best[0], best[1], Q, x)


def _build(alpha: Fraction, a: int, q: int, Q: float, x: float) -> RationalApprox:
    g = math.gcd(a, q)
    a, q = a // g, q // g
    delta = float((alpha - Fraction(a, q)) * as_fraction(x))
    return RationalApprox(a=a, q=q, delta=delta, delta0=delta0_of(delta),
                          Q=Q, x=float(x), alpha=alpha)


def alternate_approx(approx: RationalApprox) -> RationalApprox:
    """Second approximation with y/(2|delta|q) <= q' <= y/(|delta|q) =: Q'.

    The last convergent with denominator <= Q' is always admissible (the
    next convergent exceeds Q'); when it undershoots the window we must
    have Q' < 2q and a/q itself sits in the window with the boundary
    equality |delta|/y = 1/(qQ'). If neither is admissible, which takes a
    Q' beyond the float range, ApproximationError is raised.
    """
    if approx.delta == 0:
        raise ValueError("alternate approximation requires delta != 0")
    y = approx.x
    q_cap = y / (abs(approx.delta) * approx.q)
    q_lo = q_cap / 2.0
    alpha = approx.alpha
    last: Optional[Tuple[int, int]] = None
    for p, q in convergents(alpha):
        if q > q_cap * (1 + 1e-12):
            break
        last = (p, q)
    candidates = ([last] if last else []) + [(approx.a, approx.q)]
    for p, q in candidates:
        if (q_lo * (1 - 1e-12) <= q <= q_cap * (1 + 1e-12)
                and _within_cap(alpha, p, q, q_cap)):
            return _build(alpha, p, q, q_cap, y)
    raise ApproximationError(
        f"no admissible fraction in window [{q_lo:.1f}, {q_cap:.1f}] "
        f"for alpha ~ {float(alpha)!r}")

