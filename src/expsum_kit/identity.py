"""Sieve-weighted Vaughan decompositions of Lambda and mu, certified per n.

The Lambda identity splits as

    Lambda = h*log - 1*h*Lambda_{<=V} + (1*theta)(1*lambda)*Lambda_{>V} + Lambda_{<=V}

and the mu identity as

    mu = h - 1*h*mu_{<=V} + (1*theta)(1*lambda)*mu_{>V} + mu_{<=V}.

Both identities share one shape, f = h*(1*f) - 1*h*f_{<=V}
+ (1*theta)(1*lambda)*f_{>V} + f_{<=V}, so one engine builds both: a
single divisor loop driven by a description of f that gives the exact
f(l) (a LogVector for Lambda, an int for mu), the exact (1*f)(m) (log m,
or [m = 1]) and the zero of the value type. The terms still come from
their own tables (h, 1*h and (1*theta)(1*lambda), each summed from the
weights), and the residual is taken against f(n) evaluated afresh, so the
check cross-validates rather than cancelling by construction.
Because the ramp weights are irrational, residuals are certified in
RAMP_DPS-digit mpmath arithmetic: per log-basis coefficient for Lambda,
as a scalar for mu. The true residual is identically zero for any
weights with lambda(1) = 1 and theta + theta' = mu.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from mpmath import mpf, workdps

from .arith import ArithTables, LogVector, TableRangeError
from .weights import RAMP_DPS, WeightSystem, classic_vaughan_mode

__all__ = [
    "Decomposition",
    "decompose_mangoldt",
    "decompose_mobius",
    "classic_vaughan_mode",
    "residual_report",
]


def _mp_tables(ws: WeightSystem, n_max: int):
    """(h, 1*h, (1*theta)(1*lambda)) at RAMP_DPS digits up to n_max.

    theta values come straight from the piecewise definition; lambda from
    the exact rational table.
    """
    cfg = ws.cfg
    h = ws.h_mp()
    one_h = [mpf(0)] * (n_max + 1)
    for d, v in h.items():
        if d > n_max:
            continue
        for k in range(d, n_max + 1, d):
            one_h[k] += v
    one_theta = [mpf(0)] * (n_max + 1)
    for d in range(1, n_max + 1):
        rv = ws.theta(d)
        if rv.kind == "zero":
            continue
        v = rv.as_mpf(cfg)
        for k in range(d, n_max + 1, d):
            one_theta[k] += v
    one_lambda = [mpf(0)] * (n_max + 1)
    for d, lam in ws.lambda_table.items():
        if d > n_max:
            continue
        v = mpf(lam.numerator) / mpf(lam.denominator)
        for k in range(d, n_max + 1, d):
            one_lambda[k] += v
    conv_tl = [one_theta[k] * one_lambda[k] for k in range(n_max + 1)]
    return h, one_h, conv_tl


@dataclass(frozen=True)
class _ExactFunction:
    """What the engine needs to know about f in {Lambda, mu}.

    at(l) is the exact f(l), one_star(m) the exact (1*f)(m) (log m for
    Lambda, [m = 1] for mu), zero the value type's zero and size the
    magnitude of a residual.
    """

    at: Callable[[int, ArithTables], object]
    one_star: Callable[[int, ArithTables], object]
    zero: object
    size: Callable[[object], object]


_MANGOLDT = _ExactFunction(LogVector.mangoldt, LogVector.log_of, LogVector(),
                           LogVector.max_abs_coeff)
_MOBIUS = _ExactFunction(lambda l, tables: int(tables.mobius[l]),
                         lambda m, tables: int(m == 1), mpf(0), abs)


@dataclass
class Decomposition:
    """Four component tables of the Lambda or mu identity over [1, n_max]."""

    f: _ExactFunction
    n_max: int
    V: float
    term1: list  # (h * (1*f))(n)
    term2: list  # (1 * h * f_{<=V})(n)
    term3: list  # ((1*theta)(1*lambda) * f_{>V})(n)
    term4: list  # f_{<=V}(n)

    def residual(self, n: int, tables: ArithTables):
        with workdps(RAMP_DPS):
            return (self.term1[n] - self.term2[n] + self.term3[n]
                    + self.term4[n] - self.f.at(n, tables))

    def max_residual(self, tables: ArithTables) -> Tuple[float, int]:
        """(max residual size, argmax n); size is the largest |coefficient|
        for Lambda and |value| for mu."""
        worst, arg = 0.0, 1
        with workdps(RAMP_DPS):
            for n in range(1, self.n_max + 1):
                r = float(self.f.size(self.residual(n, tables)))
                if r > worst:
                    worst, arg = r, n
        return worst, arg


def _check_ranges(n_max: int, ws: WeightSystem) -> None:
    if n_max > ws.tables.n_max:
        raise TableRangeError(
            f"n_max={n_max} exceeds sieved range {ws.tables.n_max}")
    if ws.cfg.h_support_bound > ws.tables.n_max:
        raise TableRangeError("h support exceeds sieved range")


def _decompose(f: _ExactFunction, n_max: int, ws: WeightSystem,
               tables: ArithTables) -> Decomposition:
    """Materialize the four terms on [1, n_max] in one divisor loop.

    The cutoff f_{<=V} compares l to V as exact integer-vs-real
    (l <= V, i.e. l <= floor(V) for integral l).
    """
    _check_ranges(n_max, ws)
    V = ws.cfg.V
    zero = f.zero
    with workdps(RAMP_DPS):
        h, one_h, conv_tl = _mp_tables(ws, n_max)
        term1, term2, term3, term4 = ([zero] * (n_max + 1) for _ in range(4))
        for n in range(1, n_max + 1):
            t1 = t2 = t3 = zero
            for d in tables.divisors(n):
                hv = h.get(d)
                if hv is not None:
                    one_f = f.one_star(n // d, tables)
                    if one_f:
                        t1 = t1 + one_f * hv
                fd = f.at(d, tables)
                if fd:
                    if d <= V:
                        t2 = t2 + fd * one_h[n // d]
                    else:
                        t3 = t3 + fd * conv_tl[n // d]
            term1[n], term2[n], term3[n] = t1, t2, t3
            if n <= V:
                term4[n] = zero + f.at(n, tables)
    return Decomposition(f, n_max, V, term1, term2, term3, term4)


def decompose_mangoldt(n_max: int, ws: WeightSystem,
                       tables: ArithTables) -> Decomposition:
    """The four Lambda-identity terms on [1, n_max], as LogVectors."""
    return _decompose(_MANGOLDT, n_max, ws, tables)


def decompose_mobius(n_max: int, ws: WeightSystem,
                     tables: ArithTables) -> Decomposition:
    """The four mu-identity terms on [1, n_max], as RAMP_DPS-digit mpf."""
    return _decompose(_MOBIUS, n_max, ws, tables)


def residual_report(decomposition, ws: WeightSystem,
                    tables: ArithTables) -> Dict[str, object]:
    """JSON-ready residual summary: {config, n_max, max_abs_residual, argmax_n}."""
    worst, arg = decomposition.max_residual(tables)
    cfg = ws.cfg
    return {
        "config": {"U": cfg.U, "U1": cfg.U1, "R": cfg.R, "V": cfg.V,
                   "q": cfg.q, "eta": cfg.eta},
        "n_max": decomposition.n_max,
        "max_abs_residual": worst,
        "argmax_n": arg,
    }


def residual_report_json(decomposition, ws: WeightSystem,
                         tables: ArithTables) -> str:
    return json.dumps(residual_report(decomposition, ws, tables),
                      indent=2, sort_keys=True)
