"""Tests for Apriori, the datacube and materialized-view maintenance."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.algorithms import (
    apply_deltas,
    association_rules,
    build_view,
    compute_cube,
    cube_group_by,
    frequent_itemsets,
    maintain_view,
    make_cube_tuples,
    make_relation,
    make_transactions,
    partition_deltas,
    support_counts,
)


def brute_force_support(transactions, itemset):
    itemset = set(itemset)
    return sum(1 for t in transactions if itemset.issubset(t))


class TestApriori:
    def test_minsup_validation(self):
        with pytest.raises(ValueError):
            frequent_itemsets([(1, 2)], minsup=0.0)

    def test_singleton_supports_exact(self):
        transactions = make_transactions(500, 50, seed=1)
        itemsets = frequent_itemsets(transactions, minsup=0.05, max_size=1)
        for itemset, count in itemsets.items():
            assert count == brute_force_support(transactions, itemset)

    def test_all_frequent_itemsets_meet_threshold(self):
        transactions = make_transactions(400, 40, seed=2)
        minsup = 0.05
        itemsets = frequent_itemsets(transactions, minsup)
        threshold = minsup * len(transactions)
        assert itemsets, "hot set should produce frequent itemsets"
        for count in itemsets.values():
            assert count >= threshold

    def test_apriori_property_subsets_frequent(self):
        transactions = make_transactions(400, 40, seed=3)
        itemsets = frequent_itemsets(transactions, minsup=0.04)
        for itemset in itemsets:
            for size in range(1, len(itemset)):
                for subset in combinations(itemset, size):
                    assert subset in itemsets

    def test_counts_match_bruteforce(self):
        transactions = make_transactions(300, 30, seed=4)
        itemsets = frequent_itemsets(transactions, minsup=0.05)
        for itemset, count in itemsets.items():
            assert count == brute_force_support(transactions, itemset)

    def test_support_counts_helper(self):
        transactions = [(1, 2, 3), (1, 2), (2, 3), (1, 3)]
        counts = support_counts(transactions, [(1, 2), (2, 3)])
        assert counts[(1, 2)] == 2
        assert counts[(2, 3)] == 2

    def test_rules_confidence(self):
        transactions = make_transactions(500, 20, seed=5)
        itemsets = frequent_itemsets(transactions, minsup=0.05)
        rules = association_rules(itemsets, min_confidence=0.6)
        for antecedent, consequent, confidence in rules:
            whole = tuple(sorted(antecedent + consequent))
            assert confidence == pytest.approx(
                itemsets[whole] / itemsets[antecedent])
            assert confidence >= 0.6

    @given(st.integers(min_value=10, max_value=200),
           st.integers(min_value=3, max_value=30),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_frequency_property(self, count, items, seed):
        transactions = make_transactions(count, items, seed=seed)
        itemsets = frequent_itemsets(transactions, minsup=0.1)
        threshold = 0.1 * count
        for itemset, support in itemsets.items():
            assert support >= threshold
            assert support == brute_force_support(transactions, itemset)


class TestDatacube:
    def test_fifteen_group_bys(self):
        tuples = make_cube_tuples(500, [8, 6, 4, 3], seed=6)
        cube = compute_cube(tuples)
        assert len(cube) == 15

    def test_every_group_by_preserves_total(self):
        tuples = make_cube_tuples(800, [8, 6, 4, 3], seed=7)
        total = int(tuples.measure.sum())
        for group_by in compute_cube(tuples).values():
            assert sum(group_by.values()) == total

    def test_group_by_matches_direct_computation(self):
        tuples = make_cube_tuples(600, [5, 4, 3, 2], seed=8)
        cube = compute_cube(tuples)
        direct = cube_group_by(tuples, [1, 3])
        assert cube[(1, 3)] == direct

    def test_rollup_consistency(self):
        """A child's groups must aggregate its parent's groups."""
        tuples = make_cube_tuples(400, [6, 5, 4, 3], seed=9)
        cube = compute_cube(tuples)
        parent = cube[(0, 1)]
        child = cube[(0,)]
        recomputed = {}
        for (d0, _), value in parent.items():
            recomputed[(d0,)] = recomputed.get((d0,), 0) + value
        assert recomputed == child

    def test_cardinality_bounds(self):
        cards = [5, 4, 3, 2]
        tuples = make_cube_tuples(1000, cards, seed=10)
        cube = compute_cube(tuples)
        for attrs, group_by in cube.items():
            bound = 1
            for a in attrs:
                bound *= cards[a]
            assert len(group_by) <= bound

    def test_empty_attribute_set_rejected(self):
        tuples = make_cube_tuples(10, [2, 2, 2, 2])
        with pytest.raises(ValueError):
            cube_group_by(tuples, [])


class TestMaterializedView:
    def test_view_matches_groupby(self):
        base = make_relation(1000, 30, seed=11)
        view = build_view(base)
        assert sum(view.values()) == int(base.value.sum())

    def test_partition_routing(self):
        deltas = [(k, 1) for k in range(20)]
        parts = partition_deltas(deltas, owners=4)
        for owner, batch in enumerate(parts):
            assert all(k % 4 == owner for k, _ in batch)
        assert sum(len(b) for b in parts) == 20

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_deltas([], owners=0)

    def test_apply_deltas(self):
        view = {1: 10, 2: 20}
        refreshed = apply_deltas(view, [(1, 5), (3, 7)])
        assert refreshed == {1: 15, 2: 20, 3: 7}
        assert view == {1: 10, 2: 20}  # input untouched

    def test_maintenance_equals_rebuild(self):
        """Incremental maintenance must equal recomputing from scratch."""
        base = make_relation(800, 25, seed=12)
        deltas = [(int(k), int(v)) for k, v in
                  zip(base.key[:50], base.value[:50])]
        maintained = maintain_view(base, deltas, owners=4)
        # Rebuild: base plus a relation holding the deltas again.
        combined = {}
        for key, value in build_view(base).items():
            combined[key] = combined.get(key, 0) + value
        for key, change in deltas:
            combined[key] = combined.get(key, 0) + change
        assert maintained == combined

    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_maintenance_property(self, count, distinct, owners, seed):
        base = make_relation(count, distinct, seed=seed)
        deltas = [(k, k * 3 + 1) for k in range(distinct)]
        maintained = maintain_view(base, deltas, owners=owners)
        view = build_view(base)
        for key, change in deltas:
            assert maintained[key] == view.get(key, 0) + change
