import math
import random

import pytest

from expsum_kit.arith import factorize
from expsum_kit.partition import (Partition, partition_integers,
                                  partition_primes, separation_bound)


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
