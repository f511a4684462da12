"""Cluster-wide observability: metrics rollup + router decision log.

The router is the only component that sees the whole cluster, so it owns
the rollup: its own counters (placements, migrations, recoveries, shard
crashes) live in a :class:`~repro.obs.metrics.MetricsRegistry`, every
routing decision lands in an append-only decision log, and each shard's
final metrics snapshot is merged in with a ``shard`` label at shutdown.

Exports are ``repro.obs/v1`` JSONL -- the same schema the single-process
observability layer writes -- so ``scripts/obs_check.py --validate`` and
every existing tool read a cluster rollup unchanged.  Decision records
reuse the schema's ``decision`` type with the *shard* in the ``device``
field (the router schedules shards the way the runtime schedules
devices).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.export import SCHEMA, write_records_jsonl
from repro.obs.metrics import MetricsRegistry

#: Router decision kinds (the cluster-level analogue of
#: :class:`repro.obs.decisions.DecisionKind`).
DECISION_KINDS = (
    "place",      # a job was routed to a shard
    "migrate",    # a job moved off a crashed/degraded shard
    "adopt",      # a terminal result was recovered from a dead shard's journal
    "reject",     # the router itself refused a job
    "crash",      # a shard was declared dead
    "restart",    # a dead shard slot was respawned
    "degrade",    # a shard was removed from placement (breakers open)
    "restore",    # a degraded shard rejoined placement
    "join",       # a new shard joined the running ring (elastic membership)
    "leave",      # a shard began leaving the ring (graceful or forced)
    "retire",     # a leaving/removed shard slot was finally retired
    "kill",       # stop() escalated to SIGKILL on a straggling shard
    "stop",       # a shard shut down (stop or leave): graceful|sigkill|crashed
)


class ClusterMetrics:
    """Thread-safe rollup the router writes and drills audit.

    ``time`` on decisions is wall seconds since the rollup was created
    (the cluster runs in wall time; simulated time lives inside jobs).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = MetricsRegistry()
        self._clock = clock
        self._start = clock()
        self._lock = threading.Lock()
        self._decisions: List[Dict[str, Any]] = []
        self._shard_records: Dict[str, List[Dict[str, Any]]] = {}

    # -------------------------------------------------------------- counters

    def count(self, name: str, n: float = 1, **labels: str) -> None:
        with self._lock:
            self.registry.counter(name).inc(n, **labels)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        with self._lock:
            self.registry.gauge(name).set(value, **labels)

    def total(self, name: str) -> float:
        with self._lock:
            counter = self.registry.get(name)
            return counter.total() if counter is not None else 0.0

    def value(self, name: str, **labels: str) -> float:
        with self._lock:
            counter = self.registry.get(name)
            return counter.value(**labels) if counter is not None else 0.0

    # -------------------------------------------------------------- decisions

    def decision(self, kind: str, shard: str, why: str, **extra: Any) -> None:
        """Append one routing decision (``kind`` from ``DECISION_KINDS``)."""
        if kind not in DECISION_KINDS:
            raise ValueError(f"unknown router decision kind {kind!r}")
        with self._lock:
            self._decisions.append(
                {
                    "type": "decision",
                    "seq": len(self._decisions),
                    "time": self._clock() - self._start,
                    "kind": kind,
                    "device": shard,
                    "why": why,
                    **extra,
                }
            )

    def decisions(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            if kind is None:
                return list(self._decisions)
            return [d for d in self._decisions if d["kind"] == kind]

    # ------------------------------------------------------------ shard merge

    def merge_shard_snapshot(
        self, shard: str, records: List[Dict[str, Any]]
    ) -> None:
        """Adopt one shard's final metrics snapshot into the rollup.

        Each record gains a ``shard`` label; the per-shard series stay
        separate (summing histograms would destroy their bucket
        invariants), and readers aggregate across the label as usual.
        """
        tagged = []
        for record in records:
            if record.get("type") == "meta":
                continue
            record = dict(record)
            labels = dict(record.get("labels", {}))
            labels["shard"] = shard
            record["labels"] = labels
            tagged.append(record)
        with self._lock:
            self._shard_records[shard] = tagged

    def shard_snapshots(self) -> Dict[str, List[Dict[str, Any]]]:
        with self._lock:
            return {k: list(v) for k, v in self._shard_records.items()}

    # --------------------------------------------------------------- export

    def records(
        self, meta: Optional[Mapping[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Flatten the rollup to ``repro.obs/v1`` records (meta first)."""
        head: Dict[str, Any] = {"type": "meta", "schema": SCHEMA}
        if meta:
            head.update({str(k): v for k, v in meta.items()})
        with self._lock:
            records = [head]
            records.extend(self.registry.snapshot())
            records.extend(dict(d) for d in self._decisions)
            for shard in sorted(self._shard_records):
                records.extend(dict(r) for r in self._shard_records[shard])
            return records

    def write_jsonl(
        self, path: str, meta: Optional[Mapping[str, Any]] = None
    ) -> None:
        write_records_jsonl(self.records(meta), path)
