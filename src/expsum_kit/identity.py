"""Sieve-weighted Vaughan decompositions of Lambda and mu, certified per n
by exact modular sums.

Both identities have one shape, for f = Lambda (1*f = log) and f = mu
(1*f = [k = 1]):

    f = h*(1*f) - (1*h)*f_{<=V} + ((1*theta)(1*lambda))*f_{>V} + f_{<=V}.

Dyadic weights (WeightSystem.dyadic): lambda_P = round(lambda 2^P) from the
exact Fractions, so lambda_P(1) = 2^P; theta'_P = round(theta' 2^P) from the
float theta'; theta_P = mu 2^P - theta'_P; h_P = lambda_P *_lcm theta'_P,
through the loop that makes the float and 50-digit h. Then
1*h_P + (1*theta_P)(1*lambda_P) = 2^(2P) [k = 1], so with T1 = h_P*(1*f),
T2 = (1*h_P)*f_{<=V} and T3 = ((1*theta_P)(1*lambda_P))*f_{>V}, the
residual T1 - T2 + T3 - 2^(2P) f_{>V} is exactly 0 at every n, for any f
and V. h_P (by lcm), 1*h_P (strided sums over h_P) and
(1*theta_P)(1*lambda_P) (a product of strided sums) take three routes, so a
slip in any one of them leaves a residual.

Residues. Each term is summed modulo each p in MODULI in int64 arrays, by
strided numpy adds. h_P, 1*h_P and (1*theta_P)(1*lambda_P), which depend
on neither f nor p, are tabled once per run (weight_sums), exactly, and
reduced mod each p. T1 = h_P*(1*f), T2 = f_{<=V}*(1*h_P) and
T3 = f_{>V}*((1*theta_P)(1*lambda_P)) are one call each of the kit's one
Dirichlet-row kernel, weights._one_star, on its mod-p path: one strided add
per d with a(d) != 0 in the left factor, over every m of the right. An
input may stop short of n_max and is 0 past its end: h_P stops at U1 R,
f_{<=V} at V, and 1*mu = [m = 1] is its two entries [0, 1]. T1's left
factor is the shorter of h_P and 1*f, so for mu T1 is one add of h_P, and
for Lambda one add per d in h_P's support. T3 reads the product table from
its first nonzero u >= 1 on (it is 0 at 1 and up to U), so its left
factor, f_{>V}, a copy of f zeroed up to V, stops at n_max/u: a few
thousand m, where the table's own support would be millions of d.
2^(2P) f_{>V} is one slice. Lambda goes through a random map: log q -> r_q,
uniform mod p from a generator seeded with _SEED and p, so Lambda(n) is r
at the Mangoldt base of n, and log m = sum_q v_q(m) r_q comes from a sieve
of its own (_log_residues) that never reads the Mangoldt table.

The bound. For n <= MAX_N_MAX = 1e7, n has at most 8 prime factors
(2*3*...*23 > 1e7), at most 448 < 2^9 divisors, and v_q(n) <= 23.
|lambda| <= 1 (Selberg: G_q(R) >= d/phi(d) G_qd(R/d) for (d, q) = 1) and
|theta'|, |theta| <= 1, so lambda_P, theta'_P and theta_P are at most 2^P
in size and vanish off the squarefree d. So |(1*g)(k)| <= 2^(P+8) for each,
|(1*h_P)(k)| and |(1*theta_P)(1*lambda_P)(k)| are at most 2^(2P+16), and
sum_{d|n} |h_P(d)| <= 2^(2P+16), as each pair of divisors of n has one lcm.
Each entry of f's table is -1, 0 or 1 for mu, and one log or none for
Lambda, so each coefficient in the log basis (the value, for mu) has
|T1| <= 23 * 2^(2P+16), |T2| + |T3| <= 2^9 * 2^(2P+16) (each l | n is in T2
or in T3), and |2^(2P) f_{>V}| <= 2^(2P). Every coefficient of the
residual is then below B = 2^(2P+26), and the product of MODULI exceeds 2B.
A residual that is 0 modulo each p is therefore 0: for mu with certainty;
for Lambda, a nonzero coefficient is nonzero modulo some p, where a nonzero
linear form in the uniform r_q vanishes with probability 1/p, so a false
pass has probability at most 1/min(MODULI).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .arith import ArithTables, TableRangeError, _primes_upto
from .weights import WeightSystem, _one_star

__all__ = [
    "MAX_N_MAX",
    "RESIDUAL_BUDGET",
    "Decomposition",
    "decompose_mangoldt",
    "decompose_mobius",
    "residual_report",
    "weight_sums",
]

#: The certified bound on each identity's largest |residual| (per log-basis
#: coefficient for Lambda). A nonzero residual is at least 2^(-2P) > 1e-25.
RESIDUAL_BUDGET = 1e-25

#: Largest identity range; the bound in the module docstring holds up to it.
#: verify-identity at 1e7 peaks below 1 GiB.
MAX_N_MAX = 10_000_000

#: The weights are integers over 2^P (h over 2^(2P)).
P = 17

#: Primes below 2^31, so a product of two residues fits an int64; their
#: product exceeds 2^(2P+27) = 2B.
MODULI = (2**31 - 1, 2**31 - 19)

#: Seed of the random map log q -> r_q.
_SEED = 20250507

#: Sign of each term in the residual T1 - T2 + T3 - 2^(2P) f_{>V}.
_SIGNS = (1, -1, 1, -1)


@dataclass(frozen=True)
class Decomposition:
    """The certificate of the Lambda or mu identity over [1, n_max]: how
    many n have a nonzero residual modulo some p in MODULI, and the first."""

    n_max: int
    nonzero_count: int
    first_nonzero: int  # 0 when nonzero_count is 0

    def max_residual(self, tables: ArithTables) -> Tuple[float, int]:
        """(0.0, 1) when every residual is 0; else (2^(-2P), the first n
        with a nonzero residual), a proven lower bound on a nonzero
        residual, which is a nonzero integer over 2^(2P). tables is not
        read; the argument is kept for the callers."""
        if not self.nonzero_count:
            return 0.0, 1
        return math.ldexp(1.0, -2 * P), self.first_nonzero


Inputs = Callable[[int, ArithTables, int], Tuple[np.ndarray, np.ndarray]]

#: h_P, 1*h_P and (1*theta_P)(1*lambda_P) (weight_sums).
Sums = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _mobius_inputs(n_max: int, tables: ArithTables, p: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """mu on [0, n_max] and 1*mu = [m = 1] on [0, 1], as residues mod p."""
    one_f = np.array([0, 1], dtype=np.int64)
    return tables.mobius[:n_max + 1].astype(np.int64) % p, one_f


def _log_map(n_max: int, p: int) -> np.ndarray:
    """r_q, the image of log q, at each index q <= n_max (read at primes),
    uniform mod p; 0 at 0 (no prime power) and 1 (no log)."""
    r = np.random.default_rng([_SEED, p]).integers(0, p, size=n_max + 1)
    r[:2] = 0
    return r


def _mangoldt_inputs(n_max: int, tables: ArithTables, p: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Lambda and 1*Lambda = log on [0, n_max] under log q -> r_q, as
    residues mod p: r at the Mangoldt base, and _log_residues."""
    r = _log_map(n_max, p)
    return r[tables.mangoldt_base[:n_max + 1]], _log_residues(n_max, r, p)


def _log_residues(n_max: int, r: np.ndarray, p: int) -> np.ndarray:
    """sum_q v_q(m) r_q mod p for m <= n_max, from a sieve of its own: one
    strided add per power of each prime q <= isqrt(n_max), then r at the
    cofactor left, 1 or m's one prime factor above isqrt(n_max). It reads
    no sieve table. The sum is below 24 * 2^31, and the int32 product of
    the small prime powers divides m < 2^31."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    smooth = np.ones(n_max + 1, dtype=np.int32)
    for q in _primes_upto(math.isqrt(n_max)):
        qk = q
        while qk <= n_max:
            out[qk::qk] += r[q]
            smooth[qk::qk] *= q
            qk *= q
    out += r[np.arange(n_max + 1, dtype=np.int32) // smooth]
    out %= p
    return out


def _check_range(ws: WeightSystem, n_max: int) -> None:
    ws.tables.check_range(n_max, "n_max")
    if n_max > MAX_N_MAX:
        raise TableRangeError(f"identity range {n_max} exceeds cap {MAX_N_MAX}")


def weight_sums(ws: WeightSystem, n_max: int) -> Sums:
    """h_P (up to min(n_max, U1 R)), 1*h_P and (1*theta_P)(1*lambda_P) on
    [0, n_max]: the terms' tables that depend on neither f nor p, exact in
    int64, as every partial sum and product is at most 2^(2P+16) in size
    (module docstring). A run that certifies both identities builds them
    once and passes them to each decompose_*."""
    _check_range(ws, n_max)
    lam, theta_prime, h = ws.dyadic(P)
    conv = -_one_star(theta_prime, n_max, np.int64)  # 1*theta_P, as 1*mu = [k = 1]
    conv[1] += 1 << P
    conv *= _one_star(lam, n_max, np.int64)
    h = h[:n_max + 1]
    return h, _one_star(h, n_max, np.int64), conv


def _terms(inputs: Inputs, n_max: int, ws: WeightSystem, tables: ArithTables,
           p: int, sums: Sums) -> Iterator[np.ndarray]:
    """T1, T2, T3 and 2^(2P) f_{>V} on [0, n_max], each as int64 residues
    mod p, from sums = weight_sums(ws, n_max). l <= V is l <= floor(V)
    for integral l. T1 takes the shorter of h_P and 1*f as the left
    factor: for mu, 1*mu = [0, 1], one add. T3 reads conv from its first
    nonzero u >= 1, below which it is 0, so f_{>V} is read up to n_max/u."""
    f, one_f = inputs(n_max, tables, p)
    h, one_h, conv = sums
    v = min(math.floor(ws.cfg.V), n_max)
    unit = (1 << 2 * P) % p
    left, right = sorted((h % p, one_f), key=len)
    yield _one_star(left, n_max, np.int64, right, p=p)
    yield _one_star(f[:v + 1], n_max, np.int64, one_h % p, p=p)
    u = 1 + int((conv[1:] != 0).argmax()) if conv[1:].any() else n_max + 1
    f_above = f[:n_max // u + 1].copy()  # f_{>V}, read up to n_max/u
    f_above[:v + 1] = 0
    yield _one_star(f_above, n_max, np.int64, conv % p, u, p)
    term = f * unit % p
    term[:v + 1] = 0
    yield term


def _decompose(inputs: Inputs, n_max: int, ws: WeightSystem,
               tables: ArithTables, sums: Sums) -> Decomposition:
    """Sum the residual T1 - T2 + T3 - 2^(2P) f_{>V} on [1, n_max] modulo
    each p in MODULI, and mark the n where it is not 0 mod some p; sums is
    weight_sums(ws, n_max)."""
    _check_range(ws, n_max)
    nonzero = np.zeros(n_max + 1, dtype=bool)
    for p in MODULI:
        residual = np.zeros(n_max + 1, dtype=np.int64)
        for sign, term in zip(_SIGNS, _terms(inputs, n_max, ws, tables, p, sums)):
            residual += term if sign > 0 else -term
        residual %= p
        nonzero |= residual != 0
    bad = np.flatnonzero(nonzero)
    return Decomposition(n_max, len(bad), int(bad[0]) if len(bad) else 0)


def decompose_mangoldt(n_max: int, ws: WeightSystem, tables: ArithTables,
                       sums: Sums) -> Decomposition:
    """The certificate of the Lambda identity on [1, n_max]; sums is
    weight_sums(ws, n_max)."""
    return _decompose(_mangoldt_inputs, n_max, ws, tables, sums)


def decompose_mobius(n_max: int, ws: WeightSystem, tables: ArithTables,
                     sums: Sums) -> Decomposition:
    """The certificate of the mu identity on [1, n_max]; sums is
    weight_sums(ws, n_max)."""
    return _decompose(_mobius_inputs, n_max, ws, tables, sums)


def residual_report(decomposition: Decomposition, ws: WeightSystem,
                    tables: ArithTables) -> Dict[str, object]:
    """JSON-ready residual summary: {config, n_max, max_abs_residual,
    argmax_n, budget, budget_ratio, nonzero_count}."""
    worst, arg = decomposition.max_residual(tables)
    return {
        "config": asdict(ws.cfg),
        "n_max": decomposition.n_max,
        "max_abs_residual": worst,
        "argmax_n": arg,
        "budget": RESIDUAL_BUDGET,
        "budget_ratio": worst / RESIDUAL_BUDGET,
        "nonzero_count": decomposition.nonzero_count,
    }
