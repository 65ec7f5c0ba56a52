"""Functional co-simulation: real algorithms on simulated hardware.

The experiment harness simulates *costs* of the eight tasks from
analytic volumes. This package closes the remaining gap: it executes the
actual distributed algorithms — real numpy records partitioned across
simulated nodes, really exchanged through the simulated network, really
filtered/aggregated/sorted/joined — while every byte and cycle is
charged to simulated resources. The result is both a verifiable output
(tests compare it against the centralized reference implementations)
and a timing estimate produced by the same substrate models the paper's
experiments use.

Scales are necessarily small (records live in host memory), which is
exactly the regime where functional validation matters: it proves the
distributed decompositions the cost models assume are the ones the
algorithms actually perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..host import Cpu
from ..net import EthernetParams, FatTree, Messaging, Network
from ..sim import Simulator

__all__ = ["RunStats", "FunctionalCluster"]

#: CPU cost charged per byte examined, at the reference clock (a single
#: constant is enough here — functional mode validates dataflow, not the
#: per-task cost calibration).
COMPUTE_NS_PER_BYTE = 60.0


@dataclass
class RunStats:
    """Timing and traffic of one functional run."""

    elapsed: float
    bytes_exchanged: int
    messages: int


def _record_bytes(records: np.ndarray) -> int:
    return int(records.size and records.nbytes)


class FunctionalCluster:
    """A small cluster that executes real distributed algorithms.

    Each node holds a partition of the input records and a simulated
    CPU; record exchanges travel through the fat-tree network model.
    One instance runs one algorithm (build a fresh one per run, like
    the machines).
    """

    def __init__(self, workers: int = 4, cpu_mhz: float = 300.0,
                 params: Optional[EthernetParams] = None):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.sim = Simulator()
        self.workers = workers
        self.tree = FatTree(self.sim, workers, params)
        self.network = Network(self.tree)
        self.messaging = Messaging(self.network, workers)
        self.cpus = [Cpu(self.sim, cpu_mhz, name=f"fcpu{i}")
                     for i in range(workers)]

    # -- helpers ---------------------------------------------------------
    def partition(self, records: np.ndarray) -> List[np.ndarray]:
        """Deal records round-robin across workers (arrival order)."""
        return [records[w::self.workers] for w in range(self.workers)]

    def _compute(self, worker: int, nbytes: int):
        yield from self.cpus[worker].compute(
            COMPUTE_NS_PER_BYTE * 1e-9 * max(0, nbytes))

    def _stats(self) -> RunStats:
        return RunStats(
            elapsed=self.sim.now,
            bytes_exchanged=int(self.network.bytes.value),
            messages=int(self.network.messages.value),
        )

    def _run(self, worker_fn) -> None:
        for w in range(self.workers):
            self.sim.process(worker_fn(w), name=f"fworker{w}")
        self.sim.run()

    # -- algorithms --------------------------------------------------------
    def select(self, records: np.ndarray,
               predicate: Callable[[np.ndarray], np.ndarray]
               ) -> Tuple[np.ndarray, RunStats]:
        """Distributed filter; worker 0 collects the matches."""
        parts = self.partition(records)
        collected: List[np.ndarray] = []

        def worker(w: int):
            part = parts[w]
            yield from self._compute(w, _record_bytes(part))
            matches = part[predicate(part)] if len(part) else part
            if w == 0:
                collected.append(matches)
                for _ in range(self.workers - 1):
                    message = yield from self.messaging.recv(0, "sel")
                    collected.append(message.payload)
            else:
                yield from self.messaging.send(
                    w, 0, "sel", _record_bytes(matches), payload=matches)

        self._run(worker)
        output = (np.rec.array(np.concatenate(collected))
                  if any(len(c) for c in collected)
                  else records[:0])
        return output, self._stats()

    def groupby_sum(self, records: np.ndarray
                    ) -> Tuple[Dict[int, int], RunStats]:
        """Two-level aggregation: local tables merged at worker 0."""
        parts = self.partition(records)
        merged: Dict[int, int] = {}

        def local_groups(part) -> Dict[int, int]:
            if not len(part):
                return {}
            keys, inverse = np.unique(part.key, return_inverse=True)
            sums = np.zeros(len(keys), dtype=np.int64)
            np.add.at(sums, inverse, part.value)
            return {int(k): int(s) for k, s in zip(keys, sums)}

        def worker(w: int):
            part = parts[w]
            yield from self._compute(w, _record_bytes(part))
            groups = local_groups(part)
            if w == 0:
                for key, value in groups.items():
                    merged[key] = merged.get(key, 0) + value
                for _ in range(self.workers - 1):
                    message = yield from self.messaging.recv(0, "gb")
                    for key, value in message.payload.items():
                        merged[key] = merged.get(key, 0) + value
            else:
                nbytes = 16 * len(groups)  # key + accumulator per group
                yield from self.messaging.send(
                    w, 0, "gb", nbytes, payload=groups)

        self._run(worker)
        return merged, self._stats()

    def sort(self, records: np.ndarray, key_space: int = 2 ** 40
             ) -> Tuple[List[np.ndarray], RunStats]:
        """Range-partitioned distributed sort (the paper's P1+P2 shape).

        Every worker classifies its records by key range, ships each
        range to its owner, and the owner sorts what arrives. Returns
        per-worker sorted outputs whose concatenation is globally
        sorted.
        """
        parts = self.partition(records)
        received: List[List[np.ndarray]] = [[] for _ in range(self.workers)]
        outputs: List[np.ndarray] = [records[:0]] * self.workers

        def owner_of(keys: np.ndarray) -> np.ndarray:
            return np.minimum(
                (keys * self.workers // key_space).astype(np.int64),
                self.workers - 1)

        def worker(w: int):
            part = parts[w]
            yield from self._compute(w, _record_bytes(part))
            owners = owner_of(part.key) if len(part) else np.array([])
            for dst in range(self.workers):
                outgoing = part[owners == dst] if len(part) else part
                if dst == w:
                    received[w].append(outgoing)
                else:
                    yield from self.messaging.send(
                        w, dst, "srt", _record_bytes(outgoing),
                        payload=outgoing)
            for _ in range(self.workers - 1):
                message = yield from self.messaging.recv(w, "srt")
                received[w].append(message.payload)
            mine = [chunk for chunk in received[w] if len(chunk)]
            merged = (np.rec.array(np.concatenate(mine)) if mine
                      else part[:0])
            yield from self._compute(w, _record_bytes(merged))
            if len(merged):
                merged = merged[np.argsort(merged.key, kind="stable")]
            outputs[w] = merged

        self._run(worker)
        return outputs, self._stats()

    def apriori_pass(self, transactions, candidates
                     ) -> Tuple[Dict[tuple, int], RunStats]:
        """One distributed Apriori support-counting pass.

        Transactions are dealt round-robin; each worker counts the
        candidate itemsets over its share (real subset tests) and the
        partial counters reduce at worker 0 — the dmine task's per-pass
        structure, executed on real baskets.
        """
        from .apriori_support import count_support

        shares = [transactions[w::self.workers]
                  for w in range(self.workers)]
        merged: Dict[tuple, int] = {}

        def worker(w: int):
            share = shares[w]
            share_bytes = sum(8 + 4 * len(t) for t in share)
            yield from self._compute(w, share_bytes)
            counts = count_support(share, candidates)
            counter_bytes = 16 * max(1, len(counts))
            if w == 0:
                for itemset, count in counts.items():
                    merged[itemset] = merged.get(itemset, 0) + count
                for _ in range(self.workers - 1):
                    message = yield from self.messaging.recv(0, "ap")
                    for itemset, count in message.payload.items():
                        merged[itemset] = merged.get(itemset, 0) + count
            else:
                yield from self.messaging.send(
                    w, 0, "ap", counter_bytes, payload=counts)

        self._run(worker)
        return merged, self._stats()

    def hash_join(self, left: np.ndarray, right: np.ndarray
                  ) -> Tuple[List[Tuple[int, int, int]], RunStats]:
        """GRACE join: both sides hash-partitioned, joined at owners."""
        left_parts = self.partition(left)
        right_parts = self.partition(right)
        staged: List[Dict[str, List[np.ndarray]]] = [
            {"left": [], "right": []} for _ in range(self.workers)
        ]
        matches: List[Tuple[int, int, int]] = []

        def worker(w: int):
            for side, parts in (("left", left_parts),
                                ("right", right_parts)):
                part = parts[w]
                yield from self._compute(w, _record_bytes(part))
                owners = (part.key % self.workers if len(part)
                          else np.array([]))
                for dst in range(self.workers):
                    outgoing = part[owners == dst] if len(part) else part
                    if dst == w:
                        staged[w][side].append(outgoing)
                    else:
                        yield from self.messaging.send(
                            w, dst, ("jn", side),
                            _record_bytes(outgoing), payload=outgoing)
            for side in ("left", "right"):
                for _ in range(self.workers - 1):
                    message = yield from self.messaging.recv(
                        w, ("jn", side))
                    staged[w][side].append(message.payload)
            build: Dict[int, List[int]] = {}
            for chunk in staged[w]["left"]:
                for row in chunk:
                    build.setdefault(int(row.key), []).append(
                        int(row.value))
            probe_bytes = sum(_record_bytes(c)
                              for c in staged[w]["right"])
            yield from self._compute(w, probe_bytes)
            for chunk in staged[w]["right"]:
                for row in chunk:
                    for left_value in build.get(int(row.key), ()):
                        matches.append(
                            (int(row.key), left_value, int(row.value)))

        self._run(worker)
        return matches, self._stats()
