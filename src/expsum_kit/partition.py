"""Partitions of (M, 2M] whose classes keep same-residue elements far apart.

Primes go into at most ceil(B) classes with B = (q/phi(q)) * 2L/log L
(3 <= L <= M/q); arbitrary integers into at most ceil(L) classes
(2 <= L <= M/q). Construction is the cyclic one: enumerate the members of
each residue class mod q in increasing order and deal them round-robin
over the class slots. Within a class, distinct elements congruent mod q
are then separated by at least Lq (for integers this is immediate; for
primes it follows from Brun-Titchmarsh).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .arith import ArithTables, coprime_residues, totient


@dataclass(frozen=True)
class Partition:
    """Disjoint classes covering the input set, with the separation
    guarantee: m = m' mod q, m != m' in one class implies |m - m'| >= Lq."""

    classes: List[List[int]]
    M: float
    q: int
    L: float

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def members(self) -> List[int]:
        return sorted(itertools.chain.from_iterable(self.classes))

    def spacing_violations(self) -> List[tuple]:
        """(class index, residue, m, m') for consecutive same-residue pairs.

        Within each class and residue class mod q, members m <= m' that are
        neighbours in sorted order and closer than Lq are reported, ordered
        by class, residue and m. The minimum gap of a sorted group is
        attained by neighbours, so an empty list means the separation
        property holds for every pair.
        """
        sizes = [len(c) for c in self.classes]
        values = np.fromiter(itertools.chain.from_iterable(self.classes),
                             dtype=np.int64, count=sum(sizes))
        cls = np.repeat(np.arange(len(sizes)), sizes)
        res = values % self.q
        order = np.lexsort((values, res, cls))
        values, cls, res = values[order], cls[order], res[order]
        gaps = np.diff(values)
        same = (cls[1:] == cls[:-1]) & (res[1:] == res[:-1])
        hits = np.flatnonzero(same & (gaps < self.L * self.q))
        return [(int(cls[i]), int(res[i]), int(values[i]), int(values[i + 1]))
                for i in hits]


def separation_bound(L: float, q: int, tables: ArithTables) -> float:
    """B(L, q) = (q/phi(q)) * 2L / log L, the prime-partition class budget."""
    return q / totient(q) * 2.0 * L / math.log(L)


def _cyclic_partition(groups: List[np.ndarray], n_classes: int,
                      M: float, q: int, L: float) -> Partition:
    """Deal each group, in increasing order, round-robin over n_classes
    slots: the r-th member of a group (from r = 0) goes to slot
    r mod n_classes, and a slot holds its members group by group.

    Each group fills whole rows of a table n_classes wide, its last row
    padded with 0, which is no member (every member exceeds M > 0). Slot c
    is column c read down the table, so reading the transposed table in
    order and dropping the pads lists the members slot by slot, with no
    Python work per member but the list they end in. A slot is empty
    exactly when every group is shorter than its index, so the nonempty
    slots come first, and they are the classes.
    """
    rows = [-(-len(g) // n_classes) for g in groups]
    table = np.zeros((sum(rows), n_classes), dtype=np.int64)
    start = 0
    for members, r in zip(groups, rows):
        table.reshape(-1)[start:start + len(members)] = members
        start += r * n_classes
    table = table.T
    sizes = np.count_nonzero(table, axis=1).tolist()
    dealt = table[table != 0]
    del table
    dealt = dealt.tolist()
    classes = [dealt[end - size:end]
               for size, end in zip(sizes, itertools.accumulate(sizes)) if size]
    return Partition(classes=classes, M=M, q=q, L=L)


def partition_primes(M: float, q: int, L: float,
                     tables: ArithTables) -> Partition:
    """Partition the primes in (M, 2M] into at most ceil(B(L, q)) classes."""
    if q < 1:
        raise ValueError(f"need q >= 1, got q={q}")
    if not 3 <= L <= M / q:
        raise ValueError(f"need 3 <= L <= M/q, got L={L}, M/q={M / q}")
    tables.check_range(2 * M, "partition upper end")
    n = np.arange(math.floor(M) + 1, math.floor(2 * M) + 1, dtype=np.int64)
    window = n[tables.mangoldt_base[n] == n]
    n_classes = math.ceil(separation_bound(L, q, tables))
    groups = [window[window % q == a] for a in coprime_residues(q)]
    # Primes p | q in the window would fall outside the coprime residue
    # classes; they can only occur when q > M, excluded by L <= M/q.
    return _cyclic_partition(groups, n_classes, M, q, L)


def partition_integers(M: float, q: int, L: float,
                       tables: ArithTables) -> Partition:
    """Partition all integers in (M, 2M] into at most ceil(L) classes."""
    if q < 1:
        raise ValueError(f"need q >= 1, got q={q}")
    if not 2 <= L <= M / q:
        raise ValueError(f"need 2 <= L <= M/q, got L={L}, M/q={M / q}")
    lo, hi = math.floor(M) + 1, math.floor(2 * M) + 1
    n_classes = math.ceil(L)
    groups = [np.arange(lo + (a - lo) % q, hi, q, dtype=np.int64) for a in range(q)]
    return _cyclic_partition(groups, n_classes, M, q, L)
