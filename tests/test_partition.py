import math
import random
import tracemalloc

import numpy as np
import pytest

from expsum_kit.arith import coprime_residues, factorize
from expsum_kit.partition import (Partition, _cyclic_partition,
                                  partition_integers, partition_primes,
                                  separation_bound)


def test_prime_partition_example(tables_2m):
    # primes in (100, 200], q = 1, L = 3: spacing >= 3 within each class
    p = partition_primes(100, 1, 3, tables_2m)
    assert p.spacing_violations() == []
    assert p.class_count <= math.ceil(2 * 3 / math.log(3))
    lo = {v for v in range(101, 201) if factorize(v) == [(v, 1)]}
    assert set(p.members()) == lo


def test_prime_partition_class_budget(tables_2m):
    for q in (1, 7):
        for L in (3, 10, 25):
            p = partition_primes(1000, q, L, tables_2m)
            assert p.class_count <= math.ceil(separation_bound(L, q, tables_2m))
            assert p.spacing_violations() == []


def test_single_prime_range(tables_2m):
    # (3, 6] contains only the prime 5
    p = partition_primes(3, 1, 3, tables_2m)
    assert p.members() == [5]
    assert p.class_count == 1  # empty slots are dropped


def test_integer_partition(tables_2m):
    for q in (1, 7, 30):
        for L in (2, 10):
            if L > 1000 / q:
                continue
            p = partition_integers(1000, q, L, tables_2m)
            assert p.class_count <= math.ceil(L)
            assert p.spacing_violations() == []
            assert p.members() == list(range(1001, 2001))


def test_integer_partition_spacing_is_exactly_ceil_L_q(tables_2m):
    # same residue, same class: indices differ by >= ceil(L), so gaps >= ceil(L) q
    p = partition_integers(500, 3, 7.5, tables_2m)
    min_gap = min(
        b - a
        for cls in p.classes
        for r in set(m % 3 for m in cls)
        for a, b in zip(sorted(m for m in cls if m % 3 == r),
                        sorted(m for m in cls if m % 3 == r)[1:])
    )
    assert min_gap == math.ceil(7.5) * 3


def test_precondition_violations(tables_2m):
    with pytest.raises(ValueError):
        partition_primes(100, 1, 2.5, tables_2m)  # L < 3
    with pytest.raises(ValueError):
        partition_primes(100, 7, 20, tables_2m)  # L > M/q
    with pytest.raises(ValueError):
        partition_integers(100, 1, 1.5, tables_2m)  # L < 2
    for q in (0, -7):  # rejected before M / q is formed
        with pytest.raises(ValueError, match="q >= 1"):
            partition_primes(100, q, 5, tables_2m)
        with pytest.raises(ValueError, match="q >= 1"):
            partition_integers(100, q, 5, tables_2m)


def test_spacing_violations_detects_bad_partition():
    bad = Partition(classes=[[11, 14]], M=10, q=3, L=2)
    assert bad.spacing_violations() == [(0, 2, 11, 14)]
    ok = Partition(classes=[[11, 17]], M=10, q=3, L=2)
    assert ok.spacing_violations() == []
    # only consecutive same-residue pairs are reported, not (11, 17)
    run = Partition(classes=[[11, 14, 17]], M=10, q=3, L=3)
    assert run.spacing_violations() == [(0, 2, 11, 14), (0, 2, 14, 17)]
    # ordered by class, then residue, then value, whatever the input order
    two = Partition(classes=[[20, 11, 14], [8, 5, 4, 1]], M=10, q=3, L=2)
    assert two.spacing_violations() == [(0, 2, 11, 14), (1, 1, 1, 4),
                                        (1, 2, 5, 8)]
    # close, same residue, but in different classes
    assert Partition(classes=[[11], [14]], M=10, q=3, L=2).spacing_violations() == []
    assert Partition(classes=[], M=10, q=3, L=2).spacing_violations() == []


def test_spacing_violations_against_all_pairs():
    # every reported pair is a close same-residue pair, and the list is
    # empty exactly when the all-pairs scan finds none
    rng = random.Random(7)
    for _ in range(300):
        q, L = rng.randint(1, 6), rng.choice((2, 3, 4.5))
        classes = [[] for _ in range(rng.randint(1, 4))]
        for m in rng.sample(range(1, 200), rng.randint(0, 60)):
            classes[rng.randrange(len(classes))].append(m)
        close = {(ci, a % q, a, b) for ci, cls in enumerate(classes)
                 for a in cls for b in cls
                 if a % q == b % q and 0 < b - a < L * q}
        got = Partition(classes=classes, M=100, q=q, L=L).spacing_violations()
        assert set(got) <= close
        assert (got == []) == (not close)


def _cyclic_partition_loop(groups, n_classes):
    # the per-member loop that _cyclic_partition replaced, kept as its oracle
    classes = [[] for _ in range(n_classes)]
    for members in groups:
        for idx, m in enumerate(members):
            classes[idx % n_classes].append(int(m))
    return [c for c in classes if c]


@pytest.mark.parametrize("sizes, n_classes", [
    ((), 3),                    # no groups
    ((0, 0), 4),                # only empty groups
    ((5, 0, 3), 2),             # an empty group between two
    ((0, 7), 3),                # an empty group first
    ((4,), 1),                  # q = 1, one class
    ((30,), 7),                 # q = 1, a short last row
    ((3, 2, 1), 10),            # more classes than members
    ((10, 10, 10), 10),         # whole rows only
    ((11, 9, 10, 10), 10),      # one row and a bit, or not quite one
    ((100, 99, 101), 4286),     # the L = M/q class count
])
def test_cyclic_partition_matches_member_loop(sizes, n_classes):
    rng = np.random.default_rng(sum(sizes) + n_classes)
    groups = [np.sort(rng.choice(np.arange(1, 10_000), size, replace=False))
              for size in sizes]
    got = _cyclic_partition(groups, n_classes, M=0.5, q=max(len(sizes), 1), L=2)
    assert got.classes == _cyclic_partition_loop(groups, n_classes)
    assert all(type(m) is int for c in got.classes for m in c)


@pytest.mark.parametrize("M, q, L", [(30_000, 7, 10.0), (30_000, 7, 30_000 / 7),
                                     (1_000, 1, 3.0), (1_000, 1, 1_000),
                                     (5_000, 30, 5_000 / 30)])
def test_partitions_match_member_loop(tables_2m, M, q, L):
    # the certify configs and q = 1 at both ends of L, against the loop
    # over the same residue groups
    window = np.arange(math.floor(M) + 1, math.floor(2 * M) + 1)
    primes = window[tables_2m.mangoldt_base[window] == window]
    prime_groups = [primes[primes % q == a] for a in coprime_residues(q)]
    n_primes = math.ceil(separation_bound(max(L, 3), q, tables_2m))
    assert partition_primes(M, q, max(L, 3), tables_2m).classes == \
        _cyclic_partition_loop(prime_groups, n_primes)
    int_groups = [window[window % q == a] for a in range(q)]
    assert partition_integers(M, q, L, tables_2m).classes == \
        _cyclic_partition_loop(int_groups, math.ceil(L))


def test_integer_partition_peak_memory(tables_2m):
    # the classes themselves (a 32 B int and an 8 B slot per member, and a
    # list per class), the residue groups and one pointer list of the dealt
    # members: 1.90 MiB measured at M = 3e4, q = 7, L = M/q. The per-member
    # loop over masked members peaked at 1.93 MiB; a stable argsort of
    # the concatenated groups, at 2.98 MiB
    partition_integers(3e4, 7, 3e4 / 7, tables_2m)
    tracemalloc.start()
    try:
        partition_integers(3e4, 7, 3e4 / 7, tables_2m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95 * 2**20  # the loop's 1.93 MiB and a 20 KiB margin
