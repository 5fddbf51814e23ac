"""Bound functions F_eta/G_eta, the canonical parameter choice, condition
flags, and evaluation of the main exponential-sum bounds.

Everything here is closed-form arithmetic in (x, q, delta0, eta); no
sieve tables are required. The bounds themselves hold for x above
an effectively computable but unknown threshold x0(eta), so every report
carries a disclaimer and bound-vs-actual comparisons are logged rather
than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .arith import FUNCTIONS, MANGOLDT, arith_function, divisor_count, totient
from .diophantine import coordinates

DISCLAIMER = ("valid for x >= x0(eta) with x0 effectively computable but "
              "not determined; ratios against actual sums are reported, "
              "never asserted")

#: Relative slack used when flag inequalities are evaluated in floats; the
#: canonical choice satisfies U = 9 R^2 delta0 q with equality, which naive
#: float comparison would flip.
FLAG_SLACK = 1e-9


class BoundDomainError(ValueError):
    """Inputs outside the admissible (u, u0, eta) region."""


def integral_sqrt_ratio(A: float, B: float, u: float) -> float:
    """Closed form of int_A^B sqrt(t/(t-u)) dt for u <= A <= B.

    Equal to u log((sqrt(B)+sqrt(B-u))/(sqrt(A)+sqrt(A-u)))
    + sqrt(B(B-u)) - sqrt(A(A-u)); A = u is allowed (integrable
    singularity).
    """
    if u < 0:
        raise BoundDomainError("u must be >= 0")
    if A < u * (1 - 1e-15) - 1e-300:
        raise BoundDomainError(f"integrand needs A >= u, got A={A}, u={u}")
    if B < A:
        raise BoundDomainError(f"inverted interval [{A}, {B}]")
    A = max(A, u)
    if B == A:
        return 0.0
    if u == 0.0:
        return B - A
    sa, sb = math.sqrt(A), math.sqrt(B)
    ra, rb = math.sqrt(A - u), math.sqrt(B - u)
    return u * math.log((sb + rb) / (sa + ra)) + sb * rb - sa * ra


def integral_sqrt_ratio_quadrature(A: float, B: float, u: float) -> float:
    """Adaptive-quadrature route for the same integral, the test oracle of
    integral_sqrt_ratio.

    Substituting t = u + s^2 removes the square-root singularity at t = u:
    the integrand becomes 2 sqrt(u + s^2), smooth on [sqrt(A-u), sqrt(B-u)],
    and mpmath's tanh-sinh quadrature integrates it at 15 digits. mpmath is
    imported here, so that no command loads it.
    """
    import mpmath

    if A < u * (1 - 1e-15) - 1e-300 or B < A:
        raise BoundDomainError("need u <= A <= B")
    A = max(A, u)
    if B == A:
        return 0.0
    lo, hi = math.sqrt(A - u), math.sqrt(B - u)
    with mpmath.workdps(15):
        return float(mpmath.quad(lambda s: 2 * mpmath.sqrt(u + s * s), [lo, hi]))


def _check_inputs(u: float, u0: float, eta: float) -> Tuple[float, float, float]:
    """(u, u0, 1 - (eta + 5u + u0)/2), u and u0 clamped at 0, once the
    inputs are checked against the admissible region."""
    if not 0 < eta <= 0.1:
        raise BoundDomainError("eta must lie in (0, 1/10]")
    if u < -1e-15 or u > 0.4 - eta + 1e-12:
        raise BoundDomainError(f"u={u} outside [0, 2/5 - eta]")
    if u0 < -1e-15 or u0 > min(u, 0.2 + eta) + 1e-12:
        raise BoundDomainError(f"u0={u0} outside [0, min(u, 1/5 + eta)]")
    u, u0 = max(u, 0.0), max(u0, 0.0)
    denom = 1.0 - (eta + 5.0 * u + u0) / 2.0
    if denom <= 0:
        raise BoundDomainError("(eta + 5u + u0)/2 must stay below 1")
    return u, u0, denom


def F_eta(u: float, u0: float, eta: float) -> float:
    """Bound function for the Lambda sum:

    1.01 + 14.41/(1 - (eta + 5u + u0)/2) * int_{(eta-eta^3)/2 + u}^{(2+eta+u+u0)/4}
    sqrt(t/(t-u)) dt.
    """
    u, u0, denom = _check_inputs(u, u0, eta)
    A = (eta - eta**3) / 2.0 + u
    B = (2.0 + eta + u + u0) / 4.0
    return 1.01 + 14.41 / denom * integral_sqrt_ratio(A, B, u)


def G_eta(u: float, u0: float, eta: float) -> float:
    """Bound function for the mu sum:

    4.01 (1 + eta^3 - (eta + 3u + u0)/2) / (1 - (eta + 5u + u0)/2).
    """
    u, u0, denom = _check_inputs(u, u0, eta)
    return 4.01 * (1.0 + eta**3 - (eta + 3.0 * u + u0) / 2.0) / denom


@dataclass(frozen=True)
class ParamChoice:
    """Canonical (not exactly optimal) parameters for given x, q, delta0, eta.

    R1 = U1/U and Delta = min(1, sqrt(q/delta0)), so that
    log Delta / log x = -u0/2.
    """

    U: float
    U1: float
    R: float
    R1: float
    V: float
    Delta: float
    condition_flags: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_flags(self) -> bool:
        return all(self.condition_flags.values())


def choose_params(x: float, q: int, delta0: float, eta: float) -> ParamChoice:
    """V = x^{(eta-eta^3)/2} delta0 q, U = (x^{1-eta/2} Delta / sqrt(delta0 q))^{1/2},
    R = R1 = (1/3) (x^{1-eta/2} Delta / (delta0 q)^{5/2})^{1/4}.

    Condition flags are populated by verify_conditions; violations are
    carried in the flags, never raised. A delta0 q whose (delta0 q)^{5/2}
    overflows a float raises BoundDomainError. For delta0 <= q (so Delta = 1),
    R >= x^{eta/4} holds iff x^{(1 - 3 eta/2)/4} >= 3 (delta0 q)^{5/8}; for
    q <= 100 at delta0 = 1 and eta = 1/15 this is the last flag to turn
    true, and every flag holds once x >= (3 * 100^{5/8})^{4/(1 - 3 eta/2)}
    ~ 4.74e7. At x = 1e6 it is false for 25 <= q <= 100.
    """
    if x <= 1 or q < 1 or delta0 < 1:
        raise ValueError("need x > 1, q >= 1, delta0 >= 1")
    dq = delta0 * q
    try:
        dq_5_2 = dq ** 2.5
    except OverflowError:
        dq_5_2 = math.inf
    if math.isinf(dq_5_2):
        raise BoundDomainError(f"delta0*q = {dq:.3g} is too large: (delta0 q)^(5/2) "
                               "overflows a float")
    delta_cap = min(1.0, math.sqrt(q / delta0))
    V = x ** ((eta - eta**3) / 2.0) * dq
    U = math.sqrt(x ** (1.0 - eta / 2.0) * delta_cap / math.sqrt(dq))
    R = (x ** (1.0 - eta / 2.0) * delta_cap / dq_5_2) ** 0.25 / 3.0
    pc = ParamChoice(U=U, U1=U * R, R=R, R1=R, V=V, Delta=delta_cap)
    return replace(pc, condition_flags=verify_conditions(pc, x, q, delta0, eta))


def verify_conditions(pc: ParamChoice, x: float, q: int, delta0: float,
                      eta: float) -> Dict[str, bool]:
    """One boolean per condition inequality, evaluated with FLAG_SLACK.

    The flags cover V >= x^{eta/3} delta0 q, R >= x^{eta/4}, the two lower
    bounds on U, U1 V R <= x/(8 delta0), q V R <= Q = x^{4/5-eta} and
    U V < x/9. The error-budget inequality
    U V R R1 <= x Delta / (8 sqrt(delta0 q) log^2 x) exists only to absorb
    an O-term with unspecified constant, so it is reported separately by
    error_budget_report, not flagged.
    """
    Q = x ** (0.8 - eta)
    dq = delta0 * q

    def le(a: float, b: float) -> bool:
        return a <= b * (1 + FLAG_SLACK)

    def ge(a: float, b: float) -> bool:
        return a >= b * (1 - FLAG_SLACK)

    return {
        "V_ge_x_eta3_d0q": ge(pc.V, x ** (eta / 3.0) * dq),
        "R_ge_x_eta4": ge(pc.R, x ** (eta / 4.0)),
        "U_ge_9d0_Rq": ge(pc.U, 9.0 * delta0 * (pc.R * q) ** (1.0 + eta / 2.0)),
        "U_ge_9R2_d0q": ge(pc.U, 9.0 * pc.R**2 * dq),
        "U1VR_le_x_8d0": le(pc.U1 * pc.V * pc.R, x / (8.0 * delta0)),
        "qVR_le_Q": le(q * pc.V * pc.R, Q),
        "UV_lt_x_9": pc.U * pc.V < x / 9.0,
    }


def error_budget_report(pc: ParamChoice, x: float, q: int, delta0: float) -> Dict[str, float]:
    """Non-binding: U V R R1 against x Delta/(8 sqrt(delta0 q) log^2 x).

    This inequality absorbs the U1 V R log^2 x error term, whose constant
    is unspecified; at desk scale it fails for every admissible input and
    only the ratio is informative.
    """
    lhs = pc.U * pc.V * pc.R * pc.R1
    rhs = x * pc.Delta / (8.0 * math.sqrt(delta0 * q) * math.log(x) ** 2)
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "non_binding": True}


def main_bound(f: str, x: float, q: int, delta0: float, eta: float) -> float:
    """Right-hand side of the main theorem for f in {mangoldt, mobius}.

    mangoldt: q/phi(q) * F_eta(u, u0) * x / sqrt(delta0 q)
    mobius:   G_eta(u, u0) * x / sqrt(delta0 phi(q))

    Raises BoundDomainError outside the theorem hypotheses
    (1 <= delta0 q <= x^{2/5 - eta} and the (u, u0) region).
    """
    u, u0 = coordinates(x, q, delta0)
    phi_q = totient(q)
    if arith_function(f) is MANGOLDT:
        return q / phi_q * F_eta(u, u0, eta) * x / math.sqrt(delta0 * q)
    return G_eta(u, u0, eta) * x / math.sqrt(delta0 * phi_q)


def corollary_constants(eta: float) -> Tuple[float, float]:
    """(max F, max G) over the admissible region, attained at the corners
    (1/5 + eta, 1/5 + eta) and (2/5 - eta, 0).

    The admissible set reflects how (u, u0) arise from (q, delta0): on the
    u0 = 0 branch u runs to 2/5 - eta; u0 > 0 forces delta0 > q, which
    confines u to [u0, 1/5 + eta]. A grid scan confirms the corner maxima;
    a grid point beating them would falsify the corollary reasoning and
    raises.
    """
    c1 = (0.2 + eta, 0.2 + eta)
    c2 = (0.4 - eta, 0.0)
    max_f = max(F_eta(*c1, eta), F_eta(*c2, eta))
    max_g = max(G_eta(*c1, eta), G_eta(*c2, eta))
    grid = 200
    best_f = best_g = 0.0
    for i in range(grid + 1):
        u = (0.4 - eta) * i / grid
        best_f = max(best_f, F_eta(u, 0.0, eta))
        best_g = max(best_g, G_eta(u, 0.0, eta))
    for i in range(grid + 1):
        u = (0.2 + eta) * i / grid
        for j in range(grid + 1):
            u0 = u * j / grid
            best_f = max(best_f, F_eta(u, u0, eta))
            best_g = max(best_g, G_eta(u, u0, eta))
    if best_f > max_f * (1 + 1e-9) or best_g > max_g * (1 + 1e-9):
        raise RuntimeError(
            f"grid scan exceeds corner maxima: F {best_f} vs {max_f}, "
            f"G {best_g} vs {max_g}")
    return max_f, max_g


@dataclass(frozen=True)
class ComponentReport:
    """Fully explicit main terms of the type-I/type-II bounds, plus the
    O-term magnitudes (constant set to 1, non-binding)."""

    ti1_main: float            # x/(delta0 phi(q))
    ti1_obig: float            # * eta^{-1} log x/(log qR log U1/U), non-binding
    ti2_mangoldt_main: float   # 3x log(Vq) / (delta0 phi(q) log(U1/U) log(U/qR))
    ti2_mobius_main: float     # 3x tau(q) log V / (same denominator)
    ti2_obig: float            # q/phi(q) U1VR log^2 x/(log R log U1/U), non-binding
    tii_mangoldt: float        # 3.6 x log x integral term
    tii_mobius: float          # 2x log(x/UV)/sqrt(...)
    tail_magnitude: float      # V, non-binding
    assembled_mangoldt_main: float
    assembled_mobius_main: float
    main_bound_mangoldt: float
    main_bound_mobius: float

    @property
    def consistency_ratio_mangoldt(self) -> float:
        """Assembled main terms / closed-form bound; converges to <= 1 only
        as x -> infinity (log R approaches its asymptote slowly), so this
        is reported, never asserted."""
        return self.assembled_mangoldt_main / self.main_bound_mangoldt

    @property
    def consistency_ratio_mobius(self) -> float:
        return self.assembled_mobius_main / self.main_bound_mobius


def theorem_bound_components(x: float, q: int, delta0: float, eta: float,
                             pc: ParamChoice,
                             require_flags: bool = True) -> ComponentReport:
    """Evaluate every fully explicit main term of the type-I and type-II
    bounds at the given parameters.

    With require_flags the call refuses to evaluate when any condition
    flag is false.
    """
    if require_flags and pc.condition_flags and not pc.all_flags:
        bad = [k for k, v in pc.condition_flags.items() if not v]
        raise BoundDomainError(f"condition flags false: {bad}")
    u, u0 = coordinates(x, q, delta0)
    phi_q = totient(q)
    log_x = math.log(x)
    log_r1 = math.log(pc.R1)
    log_r = math.log(pc.R)
    log_u_qr = math.log(pc.U / (q * pc.R))
    dq = delta0 * q

    ti1_main = x / (delta0 * phi_q)
    ti1_obig = ti1_main * (1.0 / eta) * log_x / (math.log(q * pc.R) * log_r1)
    ti2_den = delta0 * phi_q * log_r1 * log_u_qr
    ti2_mangoldt = 3.0 * x * math.log(pc.V * q) / ti2_den
    ti2_mobius = 3.0 * x * divisor_count(q) * math.log(pc.V) / ti2_den
    ti2_obig = (q / phi_q) * pc.U1 * pc.V * pc.R * log_x**2 / (log_r * log_r1)

    integral = integral_sqrt_ratio(math.log(pc.V) / log_x,
                                   math.log(x / pc.U) / log_x, u)
    tii_mangoldt = (q / phi_q) * 3.6 * x * log_x / math.sqrt(
        dq * log_r * log_r1) * integral
    tii_mobius = 2.0 * x * math.log(x / (pc.U * pc.V)) / math.sqrt(
        delta0 * phi_q * log_r * log_r1)

    assembled_mangoldt = (q / phi_q) * x / dq + tii_mangoldt
    assembled_mobius = (9.0 * x * math.log(pc.V)
                        / (math.sqrt(delta0 * phi_q) * log_r1 * log_u_qr)
                        + tii_mobius)
    return ComponentReport(
        ti1_main=ti1_main,
        ti1_obig=ti1_obig,
        ti2_mangoldt_main=ti2_mangoldt,
        ti2_mobius_main=ti2_mobius,
        ti2_obig=ti2_obig,
        tii_mangoldt=tii_mangoldt,
        tii_mobius=tii_mobius,
        tail_magnitude=pc.V,
        assembled_mangoldt_main=assembled_mangoldt,
        assembled_mobius_main=assembled_mobius,
        main_bound_mangoldt=main_bound("mangoldt", x, q, delta0, eta),
        main_bound_mobius=main_bound("mobius", x, q, delta0, eta),
    )


def bound_report(x: float, q: int, delta0: float, eta: float) -> Dict[str, object]:
    """JSON-ready report with F, G, both bounds, parameters, flags and the
    non-binding error budget."""
    u, u0 = coordinates(x, q, delta0)
    pc = choose_params(x, q, delta0, eta)
    return {
        "x": x,
        "q": q,
        "delta0": delta0,
        "eta": eta,
        "u": u,
        "u0": u0,
        "F": F_eta(u, u0, eta),
        "G": G_eta(u, u0, eta),
        **{f"bound_{f}": main_bound(f, x, q, delta0, eta) for f in FUNCTIONS},
        "params": {"U": pc.U, "U1": pc.U1, "R": pc.R, "V": pc.V,
                   "Delta": pc.Delta},
        "flags": pc.condition_flags,
        "error_budget": error_budget_report(pc, x, q, delta0),
        "disclaimer": DISCLAIMER,
    }
