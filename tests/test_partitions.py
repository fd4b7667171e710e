from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbmac.partitions import (CellStat, cells, conjugate,
                                dominates, enumerate_partitions,
                                goettsche_count_check, hooks, is_partition,
                                iter_partitions, multiplicities,
                                nekrasov_okounkov_check, partition_counts,
                                z_factor)

partition_strategy = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n) or [()]))


def test_enumeration_examples():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(1) == [(1,)]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_counts_match_partition_function():
    counts = partition_counts(20)
    for n in range(21):
        assert len(enumerate_partitions(n)) == counts[n]


def test_shard_validation():
    with pytest.raises(ValueError):
        list(iter_partitions(-1))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partition_strategy)
@settings(max_examples=40, deadline=None)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert is_partition(conjugate(lam))


def test_cell_statistics_examples():
    assert cells(()) == []
    assert cells((1,)) == [CellStat(1, 1, 0, 0, 0, 0)]
    assert cells((2, 1)) == [CellStat(1, 1, 1, 1, 0, 0),
                             CellStat(1, 2, 0, 0, 1, 0),
                             CellStat(2, 1, 0, 0, 0, 1)]


@given(partition_strategy)
@settings(max_examples=40, deadline=None)
def test_cell_count_equals_weight(lam):
    assert len(cells(lam)) == sum(lam)


@given(partition_strategy)
@settings(max_examples=40, deadline=None)
def test_conjugation_swaps_cell_statistics(lam):
    mu = conjugate(lam)
    arms_legs = sorted((c.arm, c.leg) for c in cells(lam))
    legs_arms = sorted((c.leg, c.arm) for c in cells(mu))
    assert arms_legs == legs_arms
    co = sorted((c.coarm, c.coleg) for c in cells(lam))
    oc = sorted((c.coleg, c.coarm) for c in cells(mu))
    assert co == oc


@given(partition_strategy)
@settings(max_examples=40, deadline=None)
def test_hooks_conjugation_invariant(lam):
    assert sorted(hooks(lam)) == sorted(hooks(conjugate(lam)))


def test_hook_values():
    assert sorted(hooks((2, 1))) == [1, 1, 3]
    assert all(h >= 1 for h in hooks((4, 2, 1)))


def test_dominance():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((3,), (2, 2))  # different weights


def test_z_factor():
    assert z_factor(()) == 1
    assert z_factor((1, 1)) == 2
    assert z_factor((2,)) == 2
    assert z_factor((2, 1, 1)) == 4
    assert multiplicities((3, 3, 1)) == {3: 2, 1: 1}


def test_nekrasov_okounkov_trivial_cases():
    assert nekrasov_okounkov_check(0, 6)
    assert nekrasov_okounkov_check(1, 6)


def test_nekrasov_okounkov_derived_cases():
    assert nekrasov_okounkov_check(2, 5)
    assert nekrasov_okounkov_check(Fraction(1, 2), 5)


def test_nekrasov_okounkov_rejects_bad_order():
    with pytest.raises(ValueError):
        nekrasov_okounkov_check(1, 0)


def test_goettsche_count_check():
    assert goettsche_count_check(20)
