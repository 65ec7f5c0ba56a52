"""Reference Apriori association-rule miner (Agrawal et al., SIGMOD'93).

Level-wise candidate generation with support counting; one full pass
over the transactions per itemset size — exactly the multi-pass scan
structure the simulated dmine task charges for. Small-scale but complete:
candidate generation uses the standard prefix-join + prune.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

__all__ = ["frequent_itemsets", "association_rules", "support_counts"]

Itemset = Tuple[int, ...]


def support_counts(transactions: Sequence[Tuple[int, ...]],
                   candidates: List[Itemset]) -> Counter:
    """Count how many transactions contain each candidate itemset."""
    counts: Counter = Counter()
    candidate_set = set(candidates)
    max_len = max((len(c) for c in candidates), default=0)
    for transaction in transactions:
        items = transaction
        if len(items) < max_len:
            continue
        for combo in combinations(items, max_len):
            if combo in candidate_set:
                counts[combo] += 1
    return counts


def _generate_candidates(frequent: List[Itemset]) -> List[Itemset]:
    """Prefix-join frequent (k)-itemsets into (k+1)-candidates, pruned."""
    frequent_set = set(frequent)
    candidates = []
    for i, a in enumerate(frequent):
        for b in frequent[i + 1:]:
            if a[:-1] == b[:-1] and a[-1] < b[-1]:
                candidate = a + (b[-1],)
                if all(candidate[:j] + candidate[j + 1:] in frequent_set
                       for j in range(len(candidate))):
                    candidates.append(candidate)
    return candidates


def frequent_itemsets(transactions: Sequence[Tuple[int, ...]],
                      minsup: float,
                      max_size: int = 3) -> Dict[Itemset, int]:
    """All itemsets up to ``max_size`` with support >= ``minsup``."""
    if not 0 < minsup <= 1:
        raise ValueError(f"minsup must be in (0, 1], got {minsup}")
    threshold = minsup * len(transactions)
    result: Dict[Itemset, int] = {}

    counts: Counter = Counter()
    for transaction in transactions:
        for item in transaction:
            counts[(item,)] += 1
    frequent = sorted(c for c, n in counts.items() if n >= threshold)
    result.update({c: counts[c] for c in frequent})

    size = 2
    while frequent and size <= max_size:
        candidates = _generate_candidates(frequent)
        if not candidates:
            break
        counts = support_counts(transactions, candidates)
        frequent = sorted(c for c in candidates
                          if counts[c] >= threshold)
        result.update({c: counts[c] for c in frequent})
        size += 1
    return result


def association_rules(itemsets: Dict[Itemset, int],
                      min_confidence: float
                      ) -> List[Tuple[Itemset, Itemset, float]]:
    """Rules (antecedent -> consequent, confidence) from frequent sets."""
    rules = []
    for itemset, support in itemsets.items():
        if len(itemset) < 2:
            continue
        for size in range(1, len(itemset)):
            for antecedent in combinations(itemset, size):
                antecedent_support = itemsets.get(antecedent)
                if not antecedent_support:
                    continue
                confidence = support / antecedent_support
                if confidence >= min_confidence:
                    consequent = tuple(
                        i for i in itemset if i not in antecedent)
                    rules.append((antecedent, consequent, confidence))
    return rules
