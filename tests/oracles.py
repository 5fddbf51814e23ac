"""Exact-object oracles for the tests: a Dirichlet convolution over tables
of Fraction (or int) values, LogVector values, or a mix of the two.

- LogVector: exact carrier for quantities of the form sum_p c_p * log p,
  so convolutions involving Lambda or log never round.
- dirichlet_convolve: exact Dirichlet convolution, with unit_table,
  mobius_table and mangoldt_table as its operands, read from the sieve.
- lcm_dict_loop: lambda *_lcm theta' pair by pair over {d: value} dicts,
  the reference for WeightSystem's h in every number type.

No command runs these: the kit certifies its identities by exact modular
sums (identity). The convolutions check the sieve's mu and Mangoldt base by
the identities 1*mu = [n = 1] and 1*Lambda = log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Union

from expsum_kit.arith import ArithTables


@dataclass
class LogVector:
    """Exact sum_p coeffs[p] * log p with zero coefficients absent.

    Coefficients may be int, Fraction, or mpmath mpf; arithmetic is
    whatever the coefficient type supports.
    """

    coeffs: Dict[int, object] = field(default_factory=dict)

    def _merge(self, other: "LogVector", sign: int) -> "LogVector":
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            v = out.get(p, 0) + sign * c
            if v:
                out[p] = v
            else:
                out.pop(p, None)
        return LogVector(out)

    def __add__(self, other: "LogVector") -> "LogVector":
        return self._merge(other, 1)

    def __sub__(self, other: "LogVector") -> "LogVector":
        return self._merge(other, -1)

    def scale(self, factor) -> "LogVector":
        if not factor:
            return LogVector()
        return LogVector({p: c * factor for p, c in self.coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def to_float(self) -> float:
        return float(sum(float(c) * math.log(p) for p, c in self.coeffs.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogVector) and self.coeffs == other.coeffs


TableValue = Union[int, Fraction, LogVector]


def _scale(a: TableValue, b: TableValue) -> TableValue:
    """Product of two table values; at most one may be a LogVector."""
    if isinstance(a, LogVector):
        if isinstance(b, LogVector):
            raise TypeError("product of two LogVectors is outside the log basis")
        return a.scale(b)
    if isinstance(b, LogVector):
        return b.scale(a)
    return a * b


def dirichlet_convolve(
    f: Sequence[TableValue], g: Sequence[TableValue], n_max: int
) -> List[TableValue]:
    """(f*g)(n) = sum_{d|n} f(d) g(n/d), exact in the operand arithmetic.

    Tables are 1-indexed sequences of length >= n_max+1 (index 0 ignored).
    Mixing rational and LogVector tables yields a LogVector table.
    """
    if len(f) <= n_max or len(g) <= n_max:
        raise ValueError("operand tables must be defined on [1, n_max]")
    logvec = isinstance(f[1], LogVector) or isinstance(g[1], LogVector)
    zero = LogVector() if logvec else Fraction(0)
    out: List[TableValue] = [zero] * (n_max + 1)
    for d in range(1, n_max + 1):
        fd = f[d]
        if not fd:
            continue
        for n in range(d, n_max + 1, d):
            out[n] = out[n] + _scale(fd, g[n // d])
    return out


def unit_table(n_max: int) -> List[Fraction]:
    """The constant function 1 on [1, n_max]."""
    return [Fraction(0)] + [Fraction(1)] * n_max


def mobius_table(n_max: int, tables: ArithTables) -> List[Fraction]:
    tables.check_range(n_max)
    return [Fraction(0)] + [Fraction(int(tables.mobius[n])) for n in range(1, n_max + 1)]


def mangoldt_table(n_max: int, tables: ArithTables) -> List[LogVector]:
    tables.check_range(n_max)
    return [LogVector({int(b): 1}) if b else LogVector()
            for b in tables.mangoldt_base[:n_max + 1]]


def lcm_dict_loop(lam: Dict[int, object], theta_prime: Dict[int, object],
                  bound: int, zero) -> Dict[int, object]:
    """lambda *_lcm theta' as {d: h(d)} over [1, bound], zeros dropped, from
    lambda and theta' as {d: value} in one number type with zero its 0:
    lambda(d1) theta'(d2) is added at lcm(d1, d2) one pair at a time, d1
    outer and d2 inner, each in its dict's order."""
    out: Dict[int, object] = {}
    for d1, lam1 in lam.items():
        for d2, tp in theta_prime.items():
            l = d1 * d2 // math.gcd(d1, d2)
            if l <= bound:
                out[l] = out.get(l, zero) + lam1 * tp
    return {d: v for d, v in out.items() if v != 0}
