"""Sieve-weighted Vaughan decompositions of Lambda and mu, certified per n.

The Lambda identity splits as

    Lambda = h*log - 1*h*Lambda_{<=V} + (1*theta)(1*lambda)*Lambda_{>V} + Lambda_{<=V}

and the mu identity as

    mu = h - 1*h*mu_{<=V} + (1*theta)(1*lambda)*mu_{>V} + mu_{<=V}.

Both identities share one shape, f = h*(1*f) - 1*h*f_{<=V}
+ (1*theta)(1*lambda)*f_{>V} + f_{<=V}, so one engine builds both: a walk
over multiples driven by f's ArithFunction record, which gives the exact
f(l) (a LogVector for Lambda, an int for mu), the exact (1*f)(m) (log m,
or [m = 1]) and the zero of the value type. log m comes from trial
division, not from Lambda's table, so a wrong entry of that table shows up
as a residual. The weights are irrational, so h, theta and lambda are
taken at RAMP_DPS digits and converted once, with no bit lost, to integer
numerators over a common power of two (WeightSystem.identity_tables).
Every sum after that is an exact integer sum over those 50-digit tables:
Lambda's terms in the log basis with integer coefficients, mu's as
integers. The residual at n is then the exact residual of the 50-digit
tables, whatever the summation order, and it is taken against f(n)
evaluated afresh, so the check cross-validates rather than cancelling by
construction. The true residual is identically zero for any weights with
lambda(1) = 1 and theta + theta' = mu; the rounding of the tables leaves
about 1e-50.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from .arith import MANGOLDT, MOBIUS, ArithFunction, ArithTables, LogVector
from .weights import WeightSystem

__all__ = [
    "MAX_N_MAX",
    "RESIDUAL_BUDGET",
    "Decomposition",
    "decompose_mangoldt",
    "decompose_mobius",
    "residual_report",
]

#: The certified bound on each identity's largest |residual| (per log-basis
#: coefficient for Lambda).
RESIDUAL_BUDGET = 1e-25

#: Largest identity range. Lambda's terms are Python objects, about 1.4 KB
#: per n; verify-identity peaks at 168 MiB at n = 1e5 and 1.36 GiB at 1e6,
#: so the cap keeps a run below about 1 GB.
MAX_N_MAX = 500_000


@dataclass
class Decomposition:
    """Four component tables of the Lambda or mu identity over [1, n_max].

    Every term value is an exact integer numerator over 2**bits: an int for
    mu, a LogVector with int coefficients for Lambda.
    """

    f: ArithFunction
    n_max: int
    V: float
    bits: int
    term1: list  # (h * (1*f))(n)
    term2: list  # (1 * h * f_{<=V})(n)
    term3: list  # ((1*theta)(1*lambda) * f_{>V})(n)
    term4: list  # f_{<=V}(n)

    def residual(self, n: int, tables: ArithTables):
        """T1 - T2 + T3 + T4 - f(n) 2^bits at n: an exact numerator over
        2^bits, with f(n) evaluated afresh."""
        return (self.term1[n] - self.term2[n] + self.term3[n] + self.term4[n]
                - self.f.exact(n, tables) * (1 << self.bits))

    def max_residual(self, tables: ArithTables) -> Tuple[float, int]:
        """(max residual size, argmax n); size is the largest |coefficient|
        for Lambda and |value| for mu, compared exactly and rounded once."""
        worst, arg = 0, 1
        for n in range(1, self.n_max + 1):
            r = abs(self.residual(n, tables))
            if r > worst:
                worst, arg = r, n
        return math.ldexp(worst, -self.bits), arg


def _coeffs(v) -> Dict[object, int]:
    """An exact value of f by coordinates: a LogVector's {p: c}, or {1: v}
    for an int."""
    if isinstance(v, LogVector):
        return v.coeffs
    return {1: v} if v else {}


def _value(row: Optional[Dict[object, int]], zero):
    """The value with the coordinates row (None for none), in zero's type."""
    if isinstance(zero, LogVector):
        return LogVector({p: c for p, c in row.items() if c}) if row else zero
    return row.get(1, 0) if row else zero


def _decompose(f: ArithFunction, n_max: int, ws: WeightSystem,
               tables: ArithTables) -> Decomposition:
    """Materialize the four terms on [1, n_max] by walking multiples.

    Each d (h's support) or l is the outer index and m the inner one, with
    n = dm or lm; f(l) and (1*f)(m) are evaluated once per argument, and
    each term at n is summed coordinate by coordinate in integers. The
    cutoff f_{<=V} compares l to V as exact integer-vs-real (l <= V, i.e.
    l <= floor(V) for integral l).
    """
    ws.tables.check_range(n_max, "n_max")
    V = ws.cfg.V
    bits, h, one_h, conv_tl = ws.identity_tables(n_max)
    rows = [[None] * (n_max + 1) for _ in range(4)]

    def add(term, n, coeffs, weight):
        row = term[n]
        if row is None:
            row = term[n] = {}
        for key, c in coeffs.items():
            row[key] = row.get(key, 0) + c * weight

    one_f = [{}] + [_coeffs(f.one_star(m, tables)) for m in range(1, n_max + 1)]
    for d, hd in h.items():
        for m in range(1, n_max // d + 1):
            if one_f[m]:
                add(rows[0], d * m, one_f[m], hd)
    for l in range(1, n_max + 1):
        fl = _coeffs(f.exact(l, tables))
        if not fl:
            continue
        small = l <= V
        table, term = (one_h, rows[1]) if small else (conv_tl, rows[2])
        for m in range(1, n_max // l + 1):
            if table[m]:
                add(term, l * m, fl, table[m])
        if small:
            add(rows[3], l, fl, 1 << bits)
    for term in rows:  # in place, so that each row is freed as it goes
        for n, row in enumerate(term):
            term[n] = _value(row, f.zero)
    return Decomposition(f, n_max, V, bits, *rows)


def decompose_mangoldt(n_max: int, ws: WeightSystem,
                       tables: ArithTables) -> Decomposition:
    """The four Lambda-identity terms on [1, n_max], as LogVectors."""
    return _decompose(MANGOLDT, n_max, ws, tables)


def decompose_mobius(n_max: int, ws: WeightSystem,
                     tables: ArithTables) -> Decomposition:
    """The four mu-identity terms on [1, n_max], as ints."""
    return _decompose(MOBIUS, n_max, ws, tables)


def residual_report(decomposition, ws: WeightSystem,
                    tables: ArithTables) -> Dict[str, object]:
    """JSON-ready residual summary: {config, n_max, max_abs_residual,
    argmax_n, budget, budget_ratio}."""
    worst, arg = decomposition.max_residual(tables)
    return {
        "config": asdict(ws.cfg),
        "n_max": decomposition.n_max,
        "max_abs_residual": worst,
        "argmax_n": arg,
        "budget": RESIDUAL_BUDGET,
        "budget_ratio": worst / RESIDUAL_BUDGET,
    }
