from fractions import Fraction

import pytest

from ffstat import combinatorics as comb
from ffstat.combinatorics import Partition

from helpers import brute_cycle_type_counts


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    lam = Partition((4, 1, 1))
    assert lam.k == 6
    assert lam.multiplicities() == {4: 1, 1: 2}
    assert str(lam) == "4+1+1"


def test_partitions_of_examples():
    assert [p.parts for p in comb.partitions_of(1)] == [(1,)]
    assert [p.parts for p in comb.partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(comb.partitions_of(5)) == 7
    with pytest.raises(ValueError):
        comb.partitions_of(0)
    with pytest.raises(ValueError):
        comb.partitions_of(31)


def test_partitions_reverse_lexicographic():
    for k in range(1, 10):
        parts = [p.parts for p in comb.partitions_of(k)]
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_cycle_type_probability_examples():
    for k in range(1, 9):
        assert comb.cycle_type_probability(Partition((k,))) == Fraction(1, k)
    assert comb.cycle_type_probability(Partition((1, 1, 1))) == Fraction(1, 6)
    assert comb.cycle_type_probability(Partition((2, 2))) == Fraction(1, 8)


@pytest.mark.parametrize("k", range(1, 7))
def test_cycle_type_probability_vs_brute_force(k):
    census = brute_cycle_type_counts(k)
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    for lam in comb.partitions_of(k):
        assert comb.cycle_type_probability(lam) == Fraction(census.get(lam.parts, 0), fact)


def test_probabilities_sum_to_one():
    for k in range(1, 13):
        assert sum(comb.cycle_type_probability(lam) for lam in comb.partitions_of(k)) == 1


def test_moebius():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
    for n, mu in values.items():
        assert comb.moebius(n) == mu
    with pytest.raises(ValueError):
        comb.moebius(0)


def test_exact_prime_count_examples():
    assert comb.exact_prime_count(2, 2) == 1
    assert comb.exact_prime_count(2, 3) == 2
    assert comb.exact_prime_count(3, 2) == 3
    for q in (2, 3, 4, 5, 7, 9):
        for k in range(1, 9):
            assert comb.exact_prime_count(q, k) >= 1


def test_exact_type_count_examples():
    assert comb.exact_type_count(2, 2, Partition((1, 1))) == 3
    for q in (2, 3, 5):
        for k in range(1, 6):
            assert comb.exact_type_count(q, k, Partition((k,))) == comb.exact_prime_count(q, k)
    assert comb.exact_type_count(3, 2, Partition((1, 1))) + comb.exact_type_count(3, 2, Partition((2,))) == 9


def test_type_counts_sum_to_qk():
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            total = sum(comb.exact_type_count(q, k, lam) for lam in comb.partitions_of(k))
            assert total == q**k

