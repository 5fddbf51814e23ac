"""Sieve-weighted Vaughan decompositions of Lambda and mu, certified per n.

The Lambda identity splits as

    Lambda = h*log - 1*h*Lambda_{<=V} + (1*theta)(1*lambda)*Lambda_{>V} + Lambda_{<=V}

and the mu identity as

    mu = h - 1*h*mu_{<=V} + (1*theta)(1*lambda)*mu_{>V} + mu_{<=V}.

Both identities share one shape, f = h*(1*f) - 1*h*f_{<=V}
+ (1*theta)(1*lambda)*f_{>V} + f_{<=V}, so one engine builds both: a
single divisor loop driven by f's ArithFunction record, which gives the
exact f(l) (a LogVector for Lambda, an int for mu), the exact (1*f)(m)
(log m, or [m = 1]) and the zero of the value type. The terms still come
from their own tables (h, 1*h and (1*theta)(1*lambda), each summed from
the weights and built once per weight system and range), and the
residual is taken against f(n) evaluated afresh, so the check
cross-validates rather than cancelling by construction.
Because the ramp weights are irrational, residuals are certified in
RAMP_DPS-digit mpmath arithmetic: per log-basis coefficient for Lambda,
as a scalar for mu. The true residual is identically zero for any
weights with lambda(1) = 1 and theta + theta' = mu.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

from mpmath import workdps

from .arith import MANGOLDT, MOBIUS, ArithFunction, ArithTables
from .weights import RAMP_DPS, WeightSystem

__all__ = [
    "Decomposition",
    "decompose_mangoldt",
    "decompose_mobius",
    "residual_report",
]


@dataclass
class Decomposition:
    """Four component tables of the Lambda or mu identity over [1, n_max]."""

    f: ArithFunction
    n_max: int
    V: float
    term1: list  # (h * (1*f))(n)
    term2: list  # (1 * h * f_{<=V})(n)
    term3: list  # ((1*theta)(1*lambda) * f_{>V})(n)
    term4: list  # f_{<=V}(n)

    def residual(self, n: int, tables: ArithTables):
        with workdps(RAMP_DPS):
            return (self.term1[n] - self.term2[n] + self.term3[n]
                    + self.term4[n] - self.f.exact(n, tables))

    def max_residual(self, tables: ArithTables) -> Tuple[float, int]:
        """(max residual size, argmax n); size is the largest |coefficient|
        for Lambda and |value| for mu."""
        worst, arg = 0.0, 1
        with workdps(RAMP_DPS):
            for n in range(1, self.n_max + 1):
                r = float(abs(self.residual(n, tables)))
                if r > worst:
                    worst, arg = r, n
        return worst, arg


def _decompose(f: ArithFunction, n_max: int, ws: WeightSystem,
               tables: ArithTables) -> Decomposition:
    """Materialize the four terms on [1, n_max] in one divisor loop.

    The cutoff f_{<=V} compares l to V as exact integer-vs-real
    (l <= V, i.e. l <= floor(V) for integral l).
    """
    ws.tables.check_range(n_max, "n_max")
    V = ws.cfg.V
    zero = f.zero
    with workdps(RAMP_DPS):
        h, one_h, conv_tl = ws.identity_tables_mp(n_max)
        term1, term2, term3, term4 = ([zero] * (n_max + 1) for _ in range(4))
        for n in range(1, n_max + 1):
            t1 = t2 = t3 = zero
            for d in tables.divisors(n):
                hv = h.get(d)
                if hv is not None:
                    one_f = f.one_star(n // d, tables)
                    if one_f:
                        t1 = t1 + one_f * hv
                fd = f.exact(d, tables)
                if fd:
                    if d <= V:
                        t2 = t2 + fd * one_h[n // d]
                    else:
                        t3 = t3 + fd * conv_tl[n // d]
            term1[n], term2[n], term3[n] = t1, t2, t3
            if n <= V:
                term4[n] = zero + f.exact(n, tables)
    return Decomposition(f, n_max, V, term1, term2, term3, term4)


def decompose_mangoldt(n_max: int, ws: WeightSystem,
                       tables: ArithTables) -> Decomposition:
    """The four Lambda-identity terms on [1, n_max], as LogVectors."""
    return _decompose(MANGOLDT, n_max, ws, tables)


def decompose_mobius(n_max: int, ws: WeightSystem,
                     tables: ArithTables) -> Decomposition:
    """The four mu-identity terms on [1, n_max], as RAMP_DPS-digit mpf."""
    return _decompose(MOBIUS, n_max, ws, tables)


def residual_report(decomposition, ws: WeightSystem,
                    tables: ArithTables) -> Dict[str, object]:
    """JSON-ready residual summary: {config, n_max, max_abs_residual, argmax_n}."""
    worst, arg = decomposition.max_residual(tables)
    return {
        "config": asdict(ws.cfg),
        "n_max": decomposition.n_max,
        "max_abs_residual": worst,
        "argmax_n": arg,
    }
