"""Sieved arithmetic-function tables and the functions of the main theorem.

Provides:
- segments: the sieve as a stream of Segments, Mobius mu and the "Mangoldt
  base" (p for prime powers p^k, else 0) on [lo, hi), _SEGMENT entries at
  a time, in buffers that the next segment overwrites: a consumer that
  folds each one holds 5 bytes per segment entry, whatever n_max.
- ArithTables: the same two tables on all of [0, n_max], 5 bytes per n,
  sieved by the same stream into views of the whole arrays; the primes
  are the n whose base is n.
- factorize, totient, divisor_count: the kit's one factorization, by trial
  division with no tables, and from it its one phi and one tau.
- ramanujan_sum: c_r(n) via the mu/phi closed form, exact integers.
- ArithFunction, FUNCTIONS: the one definition of each function of the
  main theorem (Lambda and mu) for the exponential sums: one reader, its
  support on a segment, from which its support on the tables and its
  float64 values come, and (mu) an integer table.
  The identity certificate defines its own residues of each f and of 1*f
  (identity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

# build_tables holds 5 bytes/entry across the two per-n tables (mobius 1,
# mangoldt_base 4); the sieve adds one 2 MiB segment product and about
# 0.3 MiB more, and a stream of segments holds only those and one segment's
# 5 bytes per entry. The cap keeps a typo from swallowing all RAM in
# build_tables. It also keeps every n below 2^31, which the sieve's int32
# products of primes and the sweep's int32 classes need: a stream past the
# cap (ROADMAP item 2) needs int64 products, and a cap of its own.
MAX_N_MAX = 100_000_000

#: Entries per sieve segment (2 MiB of int32 products). Of 2^18..2^20,
#: with the tail in _CHUNK steps, 2^19 sieved 1e7 and 5e7 fastest by the
#: median of 5, and within 10% of the fastest minimum, on a 2-core x86-64 VM.
_SEGMENT = 1 << 19

#: Entries per step of a segment's elementwise tail: 64 KiB of int32, so
#: each temporary stays below glibc's 128 KiB mmap threshold and in cache.
_CHUNK = 1 << 14

#: The primes whose factors of the sieve's products come from one
#: precomputed period, _WHEEL = 2*3*5*7*11*13 entries (_wheel_row).
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)


class TableRangeError(ValueError):
    """Raised when a query exceeds the sieved range, or a range to sieve
    exceeds the allocation cap."""


@dataclass(frozen=True)
class ArithTables:
    """Immutable per-integer tables on [0, n_max].

    Index 0 is a filler in every array. Tables are safe for shared
    read access from worker threads; construction is single-threaded.
    The fields are mu and the Mangoldt base, 5 bytes per n.
    """

    n_max: int
    mobius: np.ndarray         # int8
    mangoldt_base: np.ndarray  # int32; p if n = p^k else 0

    def check_range(self, n: float, what: str = "index") -> None:
        if n > self.n_max:
            raise TableRangeError(f"{what} {n} exceeds sieved range n_max={self.n_max}")


def _primes_upto(r: int) -> List[int]:
    """The primes p <= r, by a whole-range sieve (r is at most sqrt(n_max))."""
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(r) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime).tolist()


def _wheel_row() -> np.ndarray:
    """prod over one period of the wheel: at i < _WHEEL, the product of
    -p over the p in _WHEEL_PRIMES that divide i, as an int32."""
    row = np.ones(_WHEEL, dtype=np.int32)
    for p in _WHEEL_PRIMES:
        row[::p] *= -p
    return row


def _sieve_segment(lo: int, hi: int, primes: Sequence[int],
                   mu: np.ndarray, base: np.ndarray,
                   prod: np.ndarray, wheel: np.ndarray) -> None:
    """mu(n) into mu[n - lo] for n in [lo, hi), and into base[n - lo] n if
    n is a prime not in primes, else 0; 2 <= lo < hi <= 2^31, and primes
    holds _WHEEL_PRIMES and every prime p with p^2 < hi, and primes only.
    The bases of the listed primes' powers are left to the caller.

    prod(n) is the product of the listed p | n, each negated, as an int32:
    |prod(n)| divides n < 2^31, so it is exact. A stride through n = 0 would
    overflow it without a warning, hence lo >= 2. On an n that no p^2
    divides (mu is 0 on the rest), |prod(n)| != n means that n has exactly
    one more prime factor, above sqrt(hi); so mu(n) is the sign of prod(n),
    flipped there. prod(n) = 1 marks n as a prime. A stride per p^k, k >= 2,
    would change prod only where mu is 0, so none is taken. A listed p above
    sqrt(hi) (13 when hi <= 13^2) makes prod(p) = -p, so mu(p) = -1.

    prod is int32 scratch of at least hi - lo entries, whatever they hold,
    and so are mu (int8) and base (int32): each of their first hi - lo
    entries is written, none read first, so each page is touched once.
    wheel is _wheel_row(): the factors of _WHEEL_PRIMES in prod are copied
    from it, from offset lo mod _WHEEL, in place of one strided pass per p.
    The rest runs over _CHUNK entries at a time, so that its temporaries
    stay in cache.
    """
    size = hi - lo
    prod, mu, base = prod[:size], mu[:size], base[:size]
    mu[:] = 1
    head = wheel[lo % _WHEEL:][:size]
    prod[:len(head)] = head
    for a in range(len(head), size, _WHEEL):
        prod[a:a + _WHEEL] = wheel[:size - a]
    for p in primes[len(_WHEEL_PRIMES):]:
        prod[(-lo) % p :: p] *= -p
    for p in primes:
        if p * p < hi:
            mu[(-lo) % (p * p) :: p * p] = 0
    for a in range(0, size, _CHUNK):
        b = min(a + _CHUNK, size)
        part = prod[a:b]
        n = np.arange(lo + a, lo + b, dtype=np.int32)
        flip = np.abs(part) != n
        flip ^= part < 0
        mu[a:b] *= 1 - 2 * flip.view(np.int8)
        n *= part == 1
        base[a:b] = n


class Segment(NamedTuple):
    """mu and the Mangoldt base on [lo, hi): the entry of n at n - lo."""

    lo: int
    hi: int
    mobius: np.ndarray         # int8
    mangoldt_base: np.ndarray  # int32; p if n = p^k else 0

    def windows(self, length: int) -> Iterator["Segment"]:
        """The segment cut at lo + k length into Segments of views."""
        for a in range(0, self.hi - self.lo, length):
            b = min(a + length, self.hi - self.lo)
            yield Segment(self.lo + a, self.lo + b, self.mobius[a:b],
                          self.mangoldt_base[a:b])


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_N_MAX:
        raise TableRangeError(f"n_max={n_max} exceeds allocation cap {MAX_N_MAX}")


def segments(n_max: int, into: Optional[Tuple[np.ndarray, np.ndarray]] = None
             ) -> Iterator[Segment]:
    """The sieve on [0, n_max] as Segments [lo, hi), lo = 0, _SEGMENT,
    2 _SEGMENT, ..., each yielded once sieved. Deterministic.

    The primes p <= max(sqrt(n_max), 13) are sieved once, with the sorted
    list of their powers p^k <= n_max. Each segment is sieved by
    _sieve_segment (n >= 2): one strided pass per p above 13, and per p^2
    inside it, with the factors of 2..13 copied from one period of the
    wheel; then the bases of the listed p^k in it are set from the list.
    n = 0 and 1 are set by hand (mu 0 and 1, base 0). Every segment shares
    one int32 prod and one wheel row, and the tail runs in _CHUNK steps, so
    no temporary grows with n_max.

    The segments are written into one pair of _SEGMENT-entry buffers, which
    the next segment overwrites: read each before asking for the next.
    With into = (mobius, mangoldt_base), two arrays of n_max + 1 entries,
    each segment is written into views of them instead, with no copy.
    ValueError for n_max < 1 or above the allocation cap.
    """
    _check_n_max(n_max)
    primes = _primes_upto(max(math.isqrt(n_max), _WHEEL_PRIMES[-1]))
    powers = []  # (p^k, p), sorted below
    for p in primes:
        pk = p
        while pk <= n_max:
            powers.append((pk, p))
            pk *= p
    pk, pk_base = np.array(sorted(powers), dtype=np.int64).reshape(-1, 2).T
    size = min(_SEGMENT, n_max + 1)
    prod, wheel = np.empty(size, dtype=np.int32), _wheel_row()
    mobius, mangoldt_base = into or (np.empty(size, dtype=np.int8),
                                     np.empty(size, dtype=np.int32))
    for lo in range(0, n_max + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, n_max + 1)
        at = lo if into else 0
        mu, base = mobius[at:at + hi - lo], mangoldt_base[at:at + hi - lo]
        first = max(lo, 2)
        _sieve_segment(first, hi, primes, mu[first - lo:], base[first - lo:],
                       prod, wheel)
        if lo == 0:
            mu[:2], base[:2] = (0, 1), 0
        a, b = np.searchsorted(pk, (lo, hi))
        base[pk[a:b] - lo] = pk_base[a:b]
        yield Segment(lo, hi, mu, base)


def build_tables(n_max: int) -> ArithTables:
    """Sieve mu and the Mangoldt base up to n_max, through segments into
    views of the two whole tables: 5 bytes per n, and the stream's scratch,
    prod plus about 0.3 MiB. phi has no table: it is read only at small
    moduli, where the table-free totient serves. Raises ValueError if
    n_max exceeds the allocation cap."""
    _check_n_max(n_max)
    tables = (np.empty(n_max + 1, dtype=np.int8), np.empty(n_max + 1, dtype=np.int32))
    for _ in segments(n_max, tables):
        pass
    return ArithTables(n_max, *tables)


def ramanujan_sum(r: int, n: int, tables: ArithTables) -> int:
    """Ramanujan sum c_r(n) = mu(r/g) * phi(r) / phi(r/g), g = gcd(r, n).

    Exact integer; phi(r/g) divides phi(r) because r/g divides r.
    """
    if r < 1 or n < 1:
        raise ValueError("r and n must be positive")
    tables.check_range(r, "modulus r")
    g = math.gcd(r, n)
    rg = r // g
    mu = int(tables.mobius[rg])
    if mu == 0:
        return 0
    return mu * totient(r) // totient(rg)


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1 by trial division, with
    no tables: [] for n = 1."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@functools.lru_cache(maxsize=1 << 12)
def totient(n: int) -> int:
    """Euler's phi(n) from factorize, memoised: the kit reads phi at a few
    small moduli over and over (verify_lbcr's r <= R for every n)."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def divisor_count(n: int) -> int:
    """tau(n), the number of divisors of n, from factorize."""
    return math.prod(e + 1 for _, e in factorize(n))


def coprime_residues(q: int) -> List[int]:
    """The a in [0, q) with gcd(a, q) = 1: [0] for q = 1."""
    return [a for a in range(q) if math.gcd(a, q) == 1]


# ---------------------------------------------------------------------------
# The functions of the main theorem


class Support(NamedTuple):
    """A weight on [1, top] held at the n where it is nonzero.

    n is int64 and increasing. values, of shape (len(n),), is float64, or
    complex128 for a complex weight; values[i] is the weight at n[i]. Every
    n <= top off n is a zero.
    """

    n: np.ndarray
    values: np.ndarray
    top: int


@dataclass(frozen=True)
class ArithFunction:
    """Everything the kit needs to know about one f in {Lambda, mu}.

    on_segment(segment) is the Support of f on a Segment's [lo, hi), read
    from its two tables with no dense float array (Lambda is nonzero on
    1/16 of n at 5e7, mu on 61%), top hi - 1: f's one reader. From it,
    support(tables, top, lo) is on_segment of the tables' [lo, top] (top
    defaults to n_max, beyond it TableRangeError; lo defaults to 0), the
    Support of f on [1, top] less the n below lo, from which direct_sum
    reads it a block at a time; and floats(tables, top) is that support on
    [0, top] scattered into float64 zeros, built on each call, so a caller
    builds only the entries it reads.
    int_table(tables), for an f whose values are -1, 0 and 1 only (mu), is
    its dense integer table on [0, n_max], a view of the sieve table at
    1 byte per n with index 0 a zero filler, over which every residue-class
    sum is an exact integer; of a Segment, its table on [lo, hi); None for
    any other f (Lambda).
    """

    name: str
    on_segment: Callable[[Segment], Support]
    int_table: Optional[Callable[[Union[ArithTables, Segment]], np.ndarray]] = None

    def support(self, tables: ArithTables, top: Optional[int] = None,
                lo: int = 0) -> Support:
        if top is None:
            top = tables.n_max
        tables.check_range(top, "float table top")
        return self.on_segment(Segment(lo, top + 1, tables.mobius[lo:top + 1],
                                       tables.mangoldt_base[lo:top + 1]))

    def floats(self, tables: ArithTables, top: Optional[int] = None) -> np.ndarray:
        n, values, top = self.support(tables, top)
        out = np.zeros(top + 1)
        out[n] = values
        return out


def _mangoldt_on(segment: Segment) -> Support:
    """log of the Mangoldt base on the prime powers in the segment."""
    n = np.flatnonzero(segment.mangoldt_base)
    values = np.log(segment.mangoldt_base[n].astype(np.float64))
    n += segment.lo  # in place: no second index array beside a whole support
    return Support(n, values, segment.hi - 1)


def _mobius_on(segment: Segment) -> Support:
    n = np.flatnonzero(segment.mobius)
    values = segment.mobius[n].astype(np.float64)
    n += segment.lo
    return Support(n, values, segment.hi - 1)


MANGOLDT = ArithFunction("mangoldt", _mangoldt_on)
MOBIUS = ArithFunction("mobius", _mobius_on, lambda tables: tables.mobius)

#: The functions by name, in output order.
FUNCTIONS: Dict[str, ArithFunction] = {f.name: f for f in (MANGOLDT, MOBIUS)}


def arith_function(name: str) -> ArithFunction:
    """The FUNCTIONS entry of name; ValueError for any other name."""
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"f must be one of {', '.join(FUNCTIONS)}, "
                         f"got {name!r}") from None
