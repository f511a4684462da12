"""The cluster router: placement, supervision, recovery, migration,
elastic membership, and the idempotent command protocol.

:class:`ClusterRouter` spawns N shard processes (:mod:`repro.cluster.shard`),
places jobs by consistent hashing on ``(tenant, job_id)`` with per-tenant
spread (:mod:`repro.cluster.hashring`), and supervises shards via
heartbeats with deadlines.  Recovery honours one invariant above all
others: **a journaled job is never executed twice**.

Shard death (missed heartbeat deadline, an exited process, or an
exhausted command resend budget) triggers:

1. **Fencing** -- the process is SIGKILLed and joined before its journal
   is read, so a hung-but-alive shard cannot race the recovery.
2. **Adoption** -- jobs with a terminal ``job-end`` in the shard's journal
   are resolved from the journal record (state + fingerprint), not
   re-executed: the work was committed, the crash merely ate the result
   message.
3. **Migration** -- jobs the journal saw start (but not end) move to a
   healthy shard *with* their journaled blocked set and HLOP results, so
   the replay is bit-identical (the PR-5 resume invariants, applied
   cross-process).  Jobs the journal never saw migrate fresh.
4. **Restart** -- the slot respawns with a new generation and a fresh
   journal (bounded by ``max_restarts``); the ring never changes, so
   placement remaps only while the slot is down.

**Elastic membership** generalizes the same fence->adopt->migrate
machinery from "recover a corpse" to any membership event on a *running*
cluster: :meth:`add_shard` inserts a shard's vnodes into the ring and
hands off only the queued jobs whose placement remapped (the ring's
hypothesis-pinned minimal-remapping property, lifted to the router);
:meth:`remove_shard` drains a leaver through the same evict->re-place
path and retires it, falling back to the crash path when the drain times
out; :meth:`rebalance` audits ring-vs-actual placement drift.  Running
jobs always finish where they run -- only queued (journal-less) work
moves, which is what keeps the handoff exactly-once.

**Transport hardening**: all router->shard commands carry monotonic
sequence numbers, are acknowledged by the shard, deduplicated on both
ends, and resent with backoff while unacknowledged
(:mod:`repro.cluster.transport`); a command that exhausts its resend
budget escalates the shard to the suspect->recover path above instead of
hanging.  Reliable shard events (results, evictions, bounces, ``stopped``)
are acked back with ``ack_event`` and duplicates are suppressed by
per-generation sequence tracking, so a lossy, duplicating, reordering
transport (the seeded :class:`ChaosConfig` drills) changes *when* messages
arrive, never *what* the cluster computes.

A shard whose breakers force-open is *degraded*: new placements avoid it,
its queued backlog is evicted and re-placed on healthy shards, and it
rejoins placement when its heartbeat shows the breakers closed again.

With ``checkpoint_path`` set, the router journals membership, placements,
and resolutions to a :class:`~repro.cluster.checkpoint.RouterCheckpoint`,
and a cold standby can :meth:`resume` the cluster: recorded pids are
fenced, finished work is adopted from the record (never re-run), and
interrupted work migrates onto freshly spawned shard generations.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.cluster.checkpoint import RouterCheckpoint, load_router_checkpoint
from repro.cluster.hashring import HashRing
from repro.cluster.rollup import ClusterMetrics
from repro.cluster.shard import (
    RELIABLE_EVENTS,
    ShardSpec,
    encode_hlops,
    shard_main,
)
from repro.cluster.transport import ChaosConfig, ReliableOutbox, Transport
from repro.errors import (
    AdmissionRejected,
    CheckpointUnavailable,
    InvalidInput,
    ServiceStopped,
    ShardCrashed,
    TransportFailed,
    UnknownName,
)
from repro.faults.plan import FaultKind
from repro.serve.checkpoint import CheckpointState, JobJournal, load_checkpoint
from repro.serve.job import JobSpec, JobState

#: Journal terminal states -> job states (the adoption map).
_JOURNAL_STATES = {
    "done": JobState.DONE,
    "failed": JobState.FAILED,
    "deadline": JobState.DEADLINE,
    "shed": JobState.SHED,
    "rejected": JobState.SHED,
}

#: Chaos listener events -> rollup counter names.
_CHAOS_COUNTERS = {
    "dropped": "transport_dropped_total",
    "duplicated": "transport_duped_total",
    "delayed": "transport_delayed_total",
}


@dataclass(frozen=True)
class ClusterConfig:
    """Topology, supervision, and transport policy for one cluster."""

    #: Directory holding every shard generation's checkpoint journal.
    journal_dir: str
    shards: int = 3
    shard: ShardSpec = field(default_factory=ShardSpec)
    #: Virtual nodes per shard on the placement ring.
    vnodes: int = 64
    #: Distinct shards one tenant's jobs spread across.
    tenant_spread: int = 2
    #: Seconds without a heartbeat before a shard is suspect.
    heartbeat_deadline: float = 3.0
    #: Supervision tick (liveness checks, suspect confirmation, resends).
    supervise_interval: float = 0.05
    #: Respawn budget per shard slot (0 = never restart).
    max_restarts: int = 2
    #: Seeded transport chaos applied to *both* directions (``None`` =
    #: faithful queues).  Each link draws an independent deterministic
    #: schedule (reseeded per shard name + generation + direction).
    chaos: Optional[ChaosConfig] = None
    #: Router checkpoint journal for standby HA (``None`` = no journal).
    checkpoint_path: Optional[str] = None
    #: Supervision/transport clock (injectable so suspect/confirm and
    #: resend timing are deterministic in tests, like ``serve.breaker``).
    clock: Callable[[], float] = time.monotonic
    #: Seconds an unacknowledged command waits before its first resend.
    ack_timeout: float = 0.25
    #: Resend attempts before a command escalates the shard to suspect.
    resend_max: int = 8
    #: Consecutive event-queue errors before the router declares the
    #: shared event channel broken and recovers every shard from journals.
    event_error_threshold: int = 5

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InvalidInput(f"shards must be >= 1, got {self.shards}")
        if self.tenant_spread < 1:
            raise InvalidInput(
                f"tenant_spread must be >= 1, got {self.tenant_spread}"
            )
        if self.heartbeat_deadline <= 0:
            raise InvalidInput("heartbeat_deadline must be positive")
        if self.ack_timeout <= 0:
            raise InvalidInput("ack_timeout must be positive")
        if self.resend_max < 1:
            raise InvalidInput(f"resend_max must be >= 1, got {self.resend_max}")
        if self.event_error_threshold < 1:
            raise InvalidInput("event_error_threshold must be >= 1")


class ClusterJob:
    """Router-side handle for one submitted job (results by fingerprint;
    output arrays stay in the shard that computed them)."""

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.state = JobState.QUEUED
        self.fingerprint: Optional[str] = None
        self.makespan: Optional[float] = None
        self.error_code: str = ""
        #: Every shard this job was placed on, in order (len > 1 = migrated).
        self.placements: List[str] = []
        self.resolved_by: str = ""
        self._done = threading.Event()

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def shard(self) -> Optional[str]:
        return self.placements[-1] if self.placements else None

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterJob({self.spec.job_id}, {self.state.value})"


class _ShardHandle:
    """Router-side bookkeeping for one shard slot's current process."""

    def __init__(self, slot: int, name: str) -> None:
        self.slot = slot
        self.name = name
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.commands: Optional[multiprocessing.Queue] = None
        self.transport: Optional[Transport] = None
        self.outbox: Optional[ReliableOutbox] = None
        self.journal_path: str = ""
        # live | degraded | leaving | dead | stopped | retired
        self.state = "live"
        self.last_seen = 0.0
        self.suspect_ticks = 0
        self.restarts = 0
        self.open_devices: List[str] = []
        self.cmd_seq = 0
        #: (generation, seq) pairs already processed (event dedup).
        self.seen_events: Set[tuple] = set()
        #: High-water of heartbeat payload seq (reorder suppression).
        self.hb_seq = -1
        #: Last event-transport resend total the heartbeat reported.
        self.event_resent = 0

    @property
    def routable(self) -> bool:
        return self.state == "live"

    @property
    def supervised(self) -> bool:
        return self.state in ("live", "degraded", "leaving")


class ClusterRouter:
    """Sharded multi-process front door over N :class:`ShmtService`\\ s."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._clock = config.clock
        self.metrics = ClusterMetrics(clock=config.clock)
        self.jobs: Dict[str, ClusterJob] = {}
        self._ring = HashRing(
            [f"shard-{i}" for i in range(config.shards)], vnodes=config.vnodes
        )
        self._handles: Dict[str, _ShardHandle] = {}
        self._assigned: Dict[str, Set[str]] = {}
        self._ctx = multiprocessing.get_context("spawn")
        self._events: multiprocessing.Queue = self._ctx.Queue()
        self._lock = threading.RLock()
        self._seq = 0
        self._next_slot = config.shards
        self._stopping = False
        self._events_broken = False
        self._shutdown = threading.Event()
        self._threads: List[threading.Thread] = []
        os.makedirs(config.journal_dir, exist_ok=True)
        self._checkpoint: Optional[RouterCheckpoint] = (
            RouterCheckpoint(config.checkpoint_path)
            if config.checkpoint_path
            else None
        )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ClusterRouter":
        with self._lock:
            for slot in range(self.config.shards):
                self._add_handle(slot, f"shard-{slot}")
        self._start_threads()
        return self

    def _start_threads(self) -> None:
        for target, name in (
            (self._event_loop, "cluster-events"),
            (self._supervise_loop, "cluster-supervisor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def _add_handle(
        self, slot: int, name: str, generation: int = 0
    ) -> _ShardHandle:
        """Create and spawn one shard slot (lock held)."""
        handle = _ShardHandle(slot, name)
        handle.generation = generation
        self._handles[name] = handle
        self._assigned[name] = set()
        self._spawn(handle)
        return handle

    def _chaos_listener(self, shard: str, link: str):
        def listen(event: str) -> None:
            self.metrics.count(_CHAOS_COUNTERS[event], shard=shard, link=link)

        return listen

    def _spawn(self, handle: _ShardHandle) -> None:
        handle.generation += 1
        handle.journal_path = os.path.join(
            self.config.journal_dir,
            f"{handle.name}-gen{handle.generation}.jsonl",
        )
        handle.commands = self._ctx.Queue()
        chaos = self.config.chaos
        salt = f"{handle.name}:{handle.generation}"
        handle.transport = Transport(
            handle.commands,
            chaos=chaos.reseed(f"{salt}:cmd") if chaos is not None else None,
            clock=self._clock,
            listener=self._chaos_listener(handle.name, "command"),
        )
        handle.outbox = ReliableOutbox(
            clock=self._clock,
            timeout=self.config.ack_timeout,
            max_attempts=self.config.resend_max,
        )
        handle.seen_events = set()
        handle.hb_seq = -1
        handle.event_resent = 0
        handle.process = self._ctx.Process(
            target=shard_main,
            args=(
                handle.name,
                handle.generation,
                handle.journal_path,
                self.config.shard,
                handle.commands,
                self._events,
                chaos.reseed(f"{salt}:evt") if chaos is not None else None,
            ),
            name=f"{handle.name}-gen{handle.generation}",
            daemon=True,
        )
        handle.process.start()
        handle.state = "live"
        handle.last_seen = self._clock()
        handle.suspect_ticks = 0
        handle.open_devices = []
        if self._checkpoint is not None:
            self._checkpoint.member(
                handle.name,
                handle.slot,
                handle.generation,
                handle.journal_path,
                handle.process.pid,
                event="spawn",
            )

    def stop(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop the cluster: drain (or shed) every shard, merge rollups.

        A shard that ignores the drain deadline (wedged command loop,
        stuck worker) is SIGKILLed, counted in
        ``cluster_stop_sigkilled_total``, and reported with a ``kill``
        decision -- stop never leaves half-stopped processes behind.  Any
        job still unresolved after the drain is settled from the shard
        journals where possible and failed with ``SHARD_CRASHED``
        otherwise -- stop never leaves a waiter hanging.

        Every shard gets the whole ``timeout``: exits are awaited
        together, so a wedged shard cannot eat a healthy sibling's
        budget.  Each stopped shard's shutdown seconds and reason land in
        the rollup (see :meth:`_record_stop`).
        """
        with self._lock:
            self._stopping = True
            handles = list(self._handles.values())
            stopping = [h for h in handles if h.supervised]
            for handle in stopping:
                self._send(handle, "stop", drain)
        started = time.monotonic()
        deadline = started + timeout
        waiting = {
            h.process.sentinel: h for h in stopping if h.process is not None
        }
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for sentinel in multiprocessing.connection.wait(
                list(waiting), remaining
            ):
                handle = waiting.pop(sentinel)
                handle.process.join()
                self._record_stop(
                    handle,
                    started,
                    "graceful" if handle.process.exitcode == 0 else "crashed",
                )
        # Escalation: stragglers that ignored the deadline are SIGKILLed
        # and reported; their unresolved jobs settle from journals below.
        for handle in handles:
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
                handle.process.join(5.0)
                with self._lock:
                    handle.state = "dead"
                self.metrics.count(
                    "cluster_stop_sigkilled_total", shard=handle.name
                )
                self.metrics.decision(
                    "kill",
                    handle.name,
                    f"ignored stop(drain={drain}) for {timeout:g}s; SIGKILLed",
                )
                if handle in stopping:
                    self._record_stop(handle, started, "sigkill")
        # Let the event thread drain final results/stopped messages.
        settle_deadline = time.monotonic() + 10.0
        while time.monotonic() < settle_deadline:
            with self._lock:
                if all(job.state.terminal for job in self.jobs.values()) and all(
                    h.state in ("dead", "stopped", "retired")
                    or h.process is None
                    or not h.process.is_alive()
                    for h in self._handles.values()
                ):
                    break
            time.sleep(0.05)
        self._shutdown.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        for handle in handles:
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
                handle.process.join(5.0)
        self._settle_unresolved()
        if self._checkpoint is not None:
            self._checkpoint.close()

    def _record_stop(
        self, handle: _ShardHandle, started: float, reason: str
    ) -> None:
        """Record one shard's shutdown: seconds since ``started`` (when
        it was told to stop) and why it ended -- ``graceful`` (clean
        exit), ``sigkill`` (the router killed it) or ``crashed`` (it
        exited with an error)."""
        seconds = time.monotonic() - started
        self.metrics.gauge(
            "cluster_shard_shutdown_seconds", seconds, shard=handle.name
        )
        self.metrics.decision(
            "stop",
            handle.name,
            f"{reason} after {seconds:.3f}s",
            reason=reason,
            seconds=seconds,
        )

    # ----------------------------------------------------------- the protocol

    def _send(
        self, handle: _ShardHandle, kind: str, *args: Any, reliable: bool = True
    ) -> None:
        """Send one command over the shard's transport (lock held).

        Reliable commands are tracked in the handle's outbox and resent
        with backoff by the supervision tick until the shard acks;
        ``reliable=False`` is for acks themselves (an ack of an ack would
        never terminate).
        """
        handle.cmd_seq += 1
        seq = handle.cmd_seq
        message = (seq, kind, tuple(args))
        if reliable:
            handle.outbox.track(seq, message)
        try:
            handle.transport.send(message)
        except (OSError, ValueError):  # pragma: no cover - queue gone
            pass  # the resend pass or supervision will escalate

    # ------------------------------------------------------------ submission

    def submit(self, spec: JobSpec) -> ClusterJob:
        """Place one job on the cluster; returns its router handle.

        Raises :class:`ServiceStopped` after stop, :class:`InvalidInput`
        on a duplicate job id (ids are deduplicated *cluster-wide*, the
        PR-5 journal-key semantics lifted to the router), and
        :class:`AdmissionRejected` when no shard is healthy.
        """
        with self._lock:
            if self._stopping:
                raise ServiceStopped("cluster is stopping; submissions closed")
            self._seq += 1
            if not spec.job_id:
                spec = JobSpec(
                    **{**spec.to_dict(), "job_id": f"cj-{self._seq:06d}"}
                )
            if spec.job_id in self.jobs:
                raise InvalidInput(
                    f"duplicate job id {spec.job_id!r}: already known to "
                    "the cluster",
                    job_id=spec.job_id,
                )
            job = ClusterJob(spec)
            self.jobs[spec.job_id] = job
            try:
                shard = self._place(job, why="hash placement")
            except AdmissionRejected:
                del self.jobs[spec.job_id]
                self.metrics.count(
                    "cluster_jobs_rejected_total",
                    tenant=spec.tenant,
                    reason="no-healthy-shard",
                )
                self.metrics.decision(
                    "reject", "router", "no healthy shard", job_id=spec.job_id
                )
                raise
        self.metrics.count("cluster_jobs_submitted_total", tenant=spec.tenant)
        return job

    def _healthy(self) -> Set[str]:
        return {name for name, h in self._handles.items() if h.routable}

    def _place(
        self,
        job: ClusterJob,
        why: str,
        command: Optional[tuple] = None,
    ) -> str:
        """Pick a healthy shard for ``job`` and send it there.

        ``command`` overrides the default ``submit`` (used by migration
        to carry recovered state).  Caller holds the lock.
        """
        healthy = self._healthy()
        if not healthy:
            raise AdmissionRejected(
                "no healthy shard to place on", reason="no-healthy-shard"
            )
        try:
            shard = self._ring.place(
                job.spec.tenant,
                job.spec.job_id,
                spread=self.config.tenant_spread,
                healthy=healthy,
            )
        except UnknownName as error:
            raise AdmissionRejected(str(error), reason="no-healthy-shard")
        handle = self._handles[shard]
        if command is None:
            command = ("submit", job.spec.to_dict())
        self._send(handle, command[0], *command[1:])
        job.placements.append(shard)
        self._assigned[shard].add(job.spec.job_id)
        self.metrics.decision("place", shard, why, job_id=job.spec.job_id)
        if self._checkpoint is not None:
            self._checkpoint.place(job.spec, shard, handle.generation)
        return shard

    # ------------------------------------------------------- elastic membership

    def add_shard(self, name: Optional[str] = None) -> str:
        """Join one new shard to the *running* cluster.

        The new shard's vnodes enter the ring, and only the queued jobs
        whose placement remapped are handed off (evicted at their current
        shard, re-placed by the new ring).  Running jobs always finish
        where they run; journaled work never moves -- the handoff is
        exactly-once by construction.  Returns the new shard's name.
        """
        with self._lock:
            if self._stopping:
                raise ServiceStopped("cluster is stopping; membership frozen")
            slot = self._next_slot
            if name is None:
                name = f"shard-{slot}"
            if name in self._handles:
                raise InvalidInput(
                    f"shard {name!r} already exists in the cluster", shard=name
                )
            self._next_slot = slot + 1
            old_ring = self._ring
            self._add_handle(slot, name)
            self._ring = old_ring.with_shard(name)
            self.metrics.count("cluster_reshard_joins_total", shard=name)
            self.metrics.decision(
                "join", name, f"joined the ring (slot {slot})"
            )
            plan = self._handoff_plan(self._ring)
            moved = 0
            for source, ids in sorted(plan.items()):
                self._send(
                    self._handles[source], "evict", sorted(ids), "reshard"
                )
                moved += len(ids)
            if moved:
                self.metrics.count("cluster_reshard_handoff_total", moved)
        return name

    def remove_shard(
        self, name: str, drain: bool = True, timeout: float = 60.0
    ) -> None:
        """Remove one shard from the *running* cluster.

        Graceful (``drain=True``): the shard leaves the ring, its queued
        backlog is evicted and re-placed on the survivors, its running
        jobs finish where they run, and it is stopped and retired once
        drained.  A drain that times out falls back to the crash path
        (fence -> adopt -> migrate) so the leave can never hang.
        ``drain=False`` is an immediate forced leave via the same fence
        path -- exactly a crash, minus the restart.  Either way the
        shard's shutdown is recorded (see :meth:`_record_stop`), timed
        from its ``stop`` command, or from the leave when none was sent.
        """
        started = time.monotonic()
        with self._lock:
            if self._stopping:
                raise ServiceStopped("cluster is stopping; membership frozen")
            handle = self._handles.get(name)
            if handle is None:
                raise UnknownName(
                    f"shard {name!r} is not in the cluster", shard=name
                )
            if handle.state not in ("live", "degraded"):
                raise InvalidInput(
                    f"shard {name!r} is {handle.state}; only live or "
                    "degraded shards can leave",
                    shard=name,
                )
            survivors = [
                h
                for h in self._handles.values()
                if h is not handle and h.state in ("live", "degraded")
            ]
            if not survivors:
                raise InvalidInput("cannot remove the last shard of a cluster")
            self._ring = self._ring.without_shard(name)
            handle.state = "leaving"
            self.metrics.count("cluster_reshard_leaves_total", shard=name)
            self.metrics.decision(
                "leave", name, f"leaving the ring (drain={drain})"
            )
            if not drain:
                self._recover_shard(handle, "forced-leave", restart=False)
                self._record_stop(handle, started, "sigkill")
                return
            self._send(handle, "evict", None, "leave")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if handle.state != "leaving":
                    # The supervisor already settled it (crash path).
                    self._record_stop(handle, started, "crashed")
                    return
                if not self._assigned[name]:
                    self._send(handle, "stop", True)
                    started = time.monotonic()
                    break
            time.sleep(0.02)
        else:
            with self._lock:
                reason = "crashed"
                if handle.state == "leaving":
                    self._recover_shard(handle, "leave-timeout", restart=False)
                    reason = "sigkill"
                self._record_stop(handle, started, reason)
            return
        stop_deadline = time.monotonic() + timeout
        while time.monotonic() < stop_deadline:
            with self._lock:
                if handle.state != "leaving":
                    break
                if (
                    handle.process is not None
                    and not handle.process.is_alive()
                    and not self._assigned[name]
                ):
                    # Clean exit whose `stopped` event is still in flight
                    # (or was eaten by chaos after its resend budget):
                    # nothing is assigned, so there is nothing to recover.
                    handle.state = "stopped"
                    break
            time.sleep(0.02)
        with self._lock:
            reason = "crashed"
            if handle.state == "stopped":
                reason = "graceful"
                handle.state = "retired"
                self.metrics.decision("retire", name, "graceful leave complete")
                if self._checkpoint is not None:
                    self._checkpoint.member(
                        handle.name,
                        handle.slot,
                        handle.generation,
                        handle.journal_path,
                        None,
                        event="retire",
                    )
            elif handle.state == "leaving":
                self._recover_shard(handle, "leave-timeout", restart=False)
                reason = "sigkill"
        if handle.process is not None:
            handle.process.join(5.0)
        self._record_stop(handle, started, reason)

    def _handoff_plan(self, ring: HashRing) -> Dict[str, Set[str]]:
        """Job ids per current shard whose placement remaps under ``ring``.

        Pure bookkeeping over the router's live job table (lock held):
        every non-terminal job whose ``ring`` placement differs from
        where it currently sits is a handoff candidate.  Only the subset
        still *queued* at its shard actually moves -- the shard-side
        selective evict filters; running jobs finish where they run.
        """
        healthy = self._healthy()
        plan: Dict[str, Set[str]] = {}
        for job in self.jobs.values():
            if job.state.terminal or job.shard is None:
                continue
            try:
                target = ring.place(
                    job.spec.tenant,
                    job.spec.job_id,
                    spread=self.config.tenant_spread,
                    healthy=healthy,
                )
            except UnknownName:  # pragma: no cover - healthy shards exist
                continue
            if target != job.shard:
                plan.setdefault(job.shard, set()).add(job.spec.job_id)
        return plan

    def rebalance(self) -> Dict[str, Any]:
        """Audit ring-vs-actual placement drift (read-only).

        Drift is expected after membership churn (running jobs never
        move) and self-heals as jobs complete; the audit makes it
        visible: ``cluster_reshard_drift`` gauges the live job count
        whose current shard differs from its ring placement.
        """
        with self._lock:
            healthy = self._healthy()
            drifted: List[Dict[str, str]] = []
            live = 0
            for job in self.jobs.values():
                if job.state.terminal or job.shard is None:
                    continue
                live += 1
                try:
                    ideal = self._ring.place(
                        job.spec.tenant,
                        job.spec.job_id,
                        spread=self.config.tenant_spread,
                        healthy=healthy,
                    )
                except UnknownName:
                    continue
                if ideal != job.shard:
                    drifted.append(
                        {
                            "job_id": job.spec.job_id,
                            "actual": job.shard,
                            "ideal": ideal,
                        }
                    )
            self.metrics.gauge("cluster_reshard_drift", len(drifted))
            return {"jobs": live, "drifted": len(drifted), "detail": drifted}

    # ------------------------------------------------------------ drill hooks

    def force_open(self, shard: str, device: str) -> None:
        """Trip one device breaker on one shard (drills, ops runbooks)."""
        with self._lock:
            handle = self._handles[shard]
            self._send(handle, "force_open", device)

    def wedge(self, shard: str) -> None:
        """Wedge one shard's command loop (drills: the shard stays alive
        and heartbeating but goes deaf; stop must escalate to SIGKILL)."""
        with self._lock:
            handle = self._handles[shard]
            self._send(handle, "wedge")

    def shard_pid(self, shard: str) -> Optional[int]:
        """The shard's current process id (the kill-drill's target)."""
        with self._lock:
            process = self._handles[shard].process
            return process.pid if process is not None else None

    def shard_states(self) -> Dict[str, str]:
        with self._lock:
            return {name: h.state for name, h in self._handles.items()}

    def assigned_counts(self) -> Dict[str, int]:
        with self._lock:
            return {name: len(ids) for name, ids in self._assigned.items()}

    # ------------------------------------------------------------ event loop

    def _event_loop(self) -> None:
        consecutive_errors = 0
        while True:
            try:
                kind, shard, generation, seq, payload = self._events.get(
                    timeout=0.05
                )
                consecutive_errors = 0
            except queue_module.Empty:
                if self._shutdown.is_set():
                    return
                continue
            except (OSError, EOFError):
                if self._shutdown.is_set():
                    return
                consecutive_errors += 1
                self.metrics.count("cluster_event_errors_total")
                if consecutive_errors >= self.config.event_error_threshold:
                    # The shared event channel is broken, not merely
                    # quiet: every shard is unreachable.  Escalate to the
                    # supervisor (suspect -> recover-from-journals for the
                    # whole fleet) instead of spinning on a dead queue.
                    with self._lock:
                        self._events_broken = True
                    self.metrics.decision(
                        "crash",
                        "router",
                        f"event channel broken after {consecutive_errors} "
                        "consecutive errors; recovering all shards from "
                        "journals",
                        code=TransportFailed.code,
                    )
                    return
                continue
            with self._lock:
                handle = self._handles.get(shard)
                if handle is None or generation != handle.generation:
                    # A fenced predecessor's leftover message.  Results are
                    # still adopted (same determinism, first-resolve wins);
                    # everything else from a stale generation is noise.
                    if kind == "result":
                        self._resolve(payload, via=f"{shard}(stale)")
                    continue
                key = (generation, seq)
                if key in handle.seen_events:
                    # A transport duplicate or an outbox resend whose ack
                    # we ate: suppress the replay, refresh the ack.
                    self.metrics.count("transport_duped_total", shard=shard)
                    if kind in RELIABLE_EVENTS:
                        self._send(handle, "ack_event", seq, reliable=False)
                    continue
                handle.seen_events.add(key)
                if kind in RELIABLE_EVENTS:
                    self._send(handle, "ack_event", seq, reliable=False)
                if kind == "ack":
                    handle.outbox.ack(int(payload["seq"]))
                elif kind == "hb":
                    self._on_heartbeat(handle, payload)
                elif kind == "result":
                    self._resolve(payload, via=shard)
                elif kind == "bounced":
                    self._on_bounced(handle, payload)
                elif kind == "evicted":
                    self._on_evicted(handle, payload)
                elif kind == "stopped":
                    handle.state = "stopped"
                    self.metrics.merge_shard_snapshot(
                        handle.name, payload["metrics"]
                    )

    def _on_heartbeat(self, handle: _ShardHandle, payload: Dict[str, Any]) -> None:
        hb_seq = int(payload.get("seq", 0))
        if hb_seq <= handle.hb_seq:
            return  # reordered/duplicated stale heartbeat
        handle.hb_seq = hb_seq
        handle.last_seen = self._clock()
        handle.suspect_ticks = 0
        handle.open_devices = list(payload.get("open", []))
        self.metrics.count("cluster_heartbeats_total", shard=handle.name)
        self.metrics.gauge(
            "cluster_shard_depth", payload.get("depth", 0), shard=handle.name
        )
        transport = payload.get("transport") or {}
        for stat, value in transport.items():
            self.metrics.gauge(
                f"cluster_shard_transport_{stat}", value, shard=handle.name
            )
        resent = int(transport.get("resent", 0))
        if resent > handle.event_resent:
            self.metrics.count(
                "transport_resent_total",
                resent - handle.event_resent,
                shard=handle.name,
                link="event",
            )
            handle.event_resent = resent
        if handle.state == "live" and handle.open_devices:
            handle.state = "degraded"
            self.metrics.count(
                "cluster_shard_degraded_total", shard=handle.name
            )
            self.metrics.decision(
                "degrade",
                handle.name,
                f"breakers open: {','.join(handle.open_devices)}",
            )
            # Pull the backlog off the degraded shard; the evicted
            # payload re-places it on healthy shards.
            self._send(handle, "evict", None, "breaker")
        elif handle.state == "degraded" and not handle.open_devices:
            handle.state = "live"
            self.metrics.decision("restore", handle.name, "breakers closed")

    def _on_evicted(self, handle: _ShardHandle, payload: Dict[str, Any]) -> None:
        reason = payload.get("reason", "breaker")
        for spec_dict in payload.get("jobs", []):
            job_id = spec_dict.get("job_id", "")
            job = self.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            self._assigned[handle.name].discard(job_id)
            self._migrate(job, source=handle.name, reason=reason)

    def _on_bounced(self, handle: _ShardHandle, payload: Dict[str, Any]) -> None:
        """A submission raced the shard's shutdown: re-place it.

        The bounce carries any recovered state the original command had
        (blocked set + journaled HLOPs), so a migrated half-finished job
        that bounces keeps its bit-identical replay seed.
        """
        spec_dict = payload.get("spec") or {}
        job = self.jobs.get(spec_dict.get("job_id", ""))
        if job is None or job.state.terminal:
            return
        self._assigned[handle.name].discard(job.spec.job_id)
        self.metrics.count("cluster_jobs_bounced_total", shard=handle.name)
        command: Optional[tuple] = None
        if payload.get("blocked") is not None or payload.get("hlops"):
            command = (
                "submit_recovered",
                spec_dict,
                payload.get("blocked") or [],
                payload.get("hlops") or {},
            )
        try:
            target = self._place(
                job, why=f"bounced off {handle.name}", command=command
            )
        except AdmissionRejected:
            self._fail(
                job,
                ShardCrashed(
                    f"job {job.spec.job_id} bounced off {handle.name} with "
                    "no healthy shard remaining",
                    shard=handle.name,
                ),
            )
            return
        self.metrics.decision(
            "migrate",
            target,
            f"bounced: {handle.name} -> {target}",
            job_id=job.spec.job_id,
        )

    def _migrate(
        self,
        job: ClusterJob,
        source: str,
        reason: str,
        journal: Optional[JobJournal] = None,
    ) -> None:
        """Re-place one unfinished job on a healthy shard (lock held)."""
        command: Optional[tuple] = None
        if journal is not None and journal.spec is not None:
            command = (
                "submit_recovered",
                journal.spec.to_dict(),
                list(journal.blocked),
                encode_hlops(journal.hlops),
            )
        try:
            target = self._place(
                job, why=f"migrated off {source} ({reason})", command=command
            )
        except AdmissionRejected:
            self._fail(
                job,
                ShardCrashed(
                    f"job {job.spec.job_id} stranded: shard {source} is gone "
                    "and no healthy shard remains",
                    shard=source,
                ),
            )
            return
        self.metrics.count(
            "cluster_jobs_migrated_total", reason=reason, shard=source
        )
        self.metrics.decision(
            "migrate",
            target,
            f"{reason}: {source} -> {target}"
            + (" with journal state" if command is not None else ""),
            job_id=job.spec.job_id,
        )

    # ----------------------------------------------------------- supervision

    def _supervise_loop(self) -> None:
        while not self._shutdown.wait(self.config.supervise_interval):
            self._supervise_tick()

    def _supervise_tick(self) -> None:
        """One supervision pass: transport maintenance, suspicion, recovery.

        All timing (heartbeat staleness, resend timers, suspect
        confirmation) runs on the injectable ``config.clock``, so tests
        drive this deterministically by calling it directly with a fake
        clock -- the same pattern as ``serve.breaker``.
        """
        with self._lock:
            suspects = []
            now = self._clock()
            for handle in self._handles.values():
                if not handle.supervised:
                    continue
                if self._events_broken:
                    suspects.append((handle, "event-channel"))
                    continue
                # Transport maintenance: release chaos-held messages and
                # resend unacked commands (bounded, with backoff).
                handle.transport.flush()
                for message in handle.outbox.due():
                    handle.transport.send(message)
                    self.metrics.count(
                        "transport_resent_total",
                        shard=handle.name,
                        link="command",
                    )
                exhausted = bool(handle.outbox.exhausted())
                dead = (
                    handle.process is not None and not handle.process.is_alive()
                )
                stale = now - handle.last_seen > self.config.heartbeat_deadline
                if handle.state == "leaving" and dead and not self._assigned[
                    handle.name
                ]:
                    # A leaver that exited with nothing assigned finished
                    # cleanly; chaos merely ate its `stopped` event.
                    handle.state = "stopped"
                    continue
                if dead or stale or exhausted:
                    # Two consecutive suspect ticks before recovery:
                    # gives the event thread one tick to deliver an
                    # in-flight `stopped` (clean exit) first.
                    handle.suspect_ticks += 1
                    if handle.suspect_ticks >= 2:
                        cause = (
                            "exit"
                            if dead
                            else ("heartbeat" if stale else "transport")
                        )
                        suspects.append((handle, cause))
                else:
                    handle.suspect_ticks = 0
            for handle, cause in suspects:
                if cause in ("transport", "event-channel"):
                    self.metrics.count(
                        "transport_failed_total",
                        shard=handle.name,
                        code=TransportFailed.code,
                    )
                self._recover_shard(
                    handle,
                    cause,
                    restart=(
                        handle.state != "leaving"
                        and cause != "event-channel"
                    ),
                )

    def _recover_shard(
        self, handle: _ShardHandle, cause: str, restart: bool = True
    ) -> None:
        """Declare a shard dead; fence, adopt, migrate, restart (lock held).

        ``restart=False`` retires the slot instead of respawning it --
        the forced-leave and drain-timeout paths, where the membership
        decision (the shard is gone) has already been made.
        """
        was_leaving = handle.state == "leaving"
        handle.state = "dead"
        self.metrics.count(
            "cluster_shard_crashes_total",
            shard=handle.name,
            kind=FaultKind.SHARD_CRASH.value,
        )
        self.metrics.decision(
            "crash", handle.name, f"declared dead ({cause})",
            generation=handle.generation,
        )
        if self._checkpoint is not None:
            self._checkpoint.member(
                handle.name,
                handle.slot,
                handle.generation,
                handle.journal_path,
                None,
                event="dead" if not was_leaving else "retire",
            )
        # Fencing: the journal is only readable once the process cannot
        # write another record or execute another HLOP.
        if handle.process is not None:
            handle.process.kill()
            handle.process.join(10.0)
        handle.outbox.clear()
        try:
            state = load_checkpoint(handle.journal_path)
        except CheckpointUnavailable:
            state = CheckpointState()  # died before the journal existed
        orphans = sorted(self._assigned[handle.name])
        self._assigned[handle.name] = set()
        for job_id in orphans:
            job = self.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            journal = state.jobs.get(job_id)
            if journal is not None and journal.state is not None:
                # Committed before the crash: adopt, never re-execute.
                self._resolve(
                    {
                        "job_id": job_id,
                        "tenant": job.spec.tenant,
                        "state": journal.state,
                        "fingerprint": journal.fingerprint,
                        "makespan": journal.makespan,
                        "error_code": journal.error_code or "",
                    },
                    via=f"{handle.name}-journal",
                )
                self.metrics.count(
                    "cluster_jobs_recovered_total", shard=handle.name
                )
                self.metrics.decision(
                    "adopt",
                    handle.name,
                    f"journaled terminal state {journal.state!r}",
                    job_id=job_id,
                )
            elif journal is not None and journal.interrupted:
                self._migrate(job, handle.name, "crash", journal=journal)
            else:
                self._migrate(job, handle.name, "crash")
        if was_leaving or not restart:
            handle.state = "retired"
            if handle.name in self._ring.shards and len(self._ring) > 1:
                self._ring = self._ring.without_shard(handle.name)
            self.metrics.decision(
                "retire", handle.name, f"slot retired after {cause}"
            )
        elif not self._stopping and handle.restarts < self.config.max_restarts:
            handle.restarts += 1
            self._spawn(handle)
            self.metrics.count(
                "cluster_shard_restarts_total", shard=handle.name
            )
            self.metrics.decision(
                "restart",
                handle.name,
                f"generation {handle.generation}, journal "
                f"{os.path.basename(handle.journal_path)}",
            )

    # ------------------------------------------------------------ resolution

    def _resolve(self, payload: Dict[str, Any], via: str) -> None:
        """Settle one job's terminal state (first resolution wins)."""
        job = self.jobs.get(payload.get("job_id", ""))
        if job is None or job.state.terminal:
            return
        state = _JOURNAL_STATES.get(payload["state"])
        if state is None:  # pragma: no cover - protocol guard
            return
        job.state = state
        job.fingerprint = payload.get("fingerprint")
        job.makespan = payload.get("makespan")
        job.error_code = payload.get("error_code") or ""
        job.resolved_by = via
        for assigned in self._assigned.values():
            assigned.discard(job.spec.job_id)
        self.metrics.count(
            f"cluster_jobs_{state.value}_total", tenant=job.spec.tenant
        )
        if self._checkpoint is not None:
            self._checkpoint.resolve(
                job.spec.job_id,
                payload["state"],
                fingerprint=job.fingerprint,
                makespan=job.makespan,
                error_code=job.error_code,
            )
        job._done.set()

    def _fail(self, job: ClusterJob, error: ShardCrashed) -> None:
        job.state = JobState.FAILED
        job.error_code = error.code
        job.resolved_by = "router"
        self.metrics.count(
            "cluster_jobs_failed_total", tenant=job.spec.tenant
        )
        if self._checkpoint is not None:
            self._checkpoint.resolve(
                job.spec.job_id, "failed", error_code=error.code
            )
        job._done.set()

    def _settle_unresolved(self) -> None:
        """Post-stop safety net: journals first, SHARD_CRASHED otherwise."""
        with self._lock:
            pending = [j for j in self.jobs.values() if not j.state.terminal]
            for job in pending:
                settled = False
                for handle in self._handles.values():
                    try:
                        state = load_checkpoint(handle.journal_path)
                    except (CheckpointUnavailable, Exception):
                        continue
                    journal = state.jobs.get(job.spec.job_id)
                    if journal is not None and journal.state is not None:
                        self._resolve(
                            {
                                "job_id": job.spec.job_id,
                                "tenant": job.spec.tenant,
                                "state": journal.state,
                                "fingerprint": journal.fingerprint,
                                "makespan": journal.makespan,
                                "error_code": journal.error_code or "",
                            },
                            via=f"{handle.name}-journal(settle)",
                        )
                        settled = True
                        break
                if not settled:
                    self._fail(
                        job,
                        ShardCrashed(
                            f"job {job.spec.job_id} unresolved at cluster stop",
                        ),
                    )

    # ---------------------------------------------------------------- resume

    @classmethod
    def resume(cls, config: ClusterConfig) -> "ClusterRouter":
        """Cold-standby takeover from a router checkpoint.

        The standby cannot prove the old router (or its shards) are gone,
        so it *makes* them gone: every recorded live shard pid is fenced
        with SIGKILL before any journal is read.  Then the PR-6 recovery
        invariants apply fleet-wide: jobs with a resolution record or a
        terminal ``job-end`` in their shard journal are adopted (never
        re-run); interrupted jobs migrate with their journaled blocked
        set + HLOP results; jobs the journals never saw migrate fresh.
        Every recorded membership slot respawns at ``generation + 1``.
        Returns the started router; do not call :meth:`start` on it.
        """
        if not config.checkpoint_path:
            raise InvalidInput("resume requires ClusterConfig.checkpoint_path")
        state = load_router_checkpoint(config.checkpoint_path)
        members = sorted(
            (m for m in state.members.values() if m.live),
            key=lambda m: m.slot,
        )
        if not members:
            raise InvalidInput(
                "router checkpoint records no live shards to resume",
                path=config.checkpoint_path,
            )
        router = cls(config)
        for member in members:
            if member.pid:
                try:
                    os.kill(member.pid, signal.SIGKILL)
                    router.metrics.decision(
                        "crash",
                        member.name,
                        f"fenced recorded pid {member.pid} at resume",
                        generation=member.generation,
                    )
                except (ProcessLookupError, PermissionError):
                    pass
        time.sleep(0.2)  # let SIGKILL delivery land before journals are read
        with router._lock:
            router._ring = HashRing(
                [m.name for m in members], vnodes=config.vnodes
            )
            router._next_slot = max(m.slot for m in members) + 1
            journals: Dict[str, CheckpointState] = {}
            old_paths: Dict[str, str] = {
                m.name: m.journal_path for m in members
            }
            for member in members:
                router._add_handle(
                    member.slot, member.name, generation=member.generation
                )
            for job_id, placement in state.placements.items():
                if placement.spec is None or job_id in router.jobs:
                    continue
                job = ClusterJob(placement.spec)
                job.placements.append(placement.shard)
                router.jobs[job_id] = job
                resolution = state.resolutions.get(job_id)
                if resolution is not None:
                    router._resolve(
                        {
                            "job_id": job_id,
                            "tenant": placement.spec.tenant,
                            "state": resolution["state"],
                            "fingerprint": resolution.get("fingerprint"),
                            "makespan": resolution.get("makespan"),
                            "error_code": resolution.get("error_code") or "",
                        },
                        via="router-checkpoint",
                    )
                    continue
                journal_path = old_paths.get(placement.shard, "")
                if journal_path not in journals:
                    try:
                        journals[journal_path] = load_checkpoint(journal_path)
                    except (CheckpointUnavailable, Exception):
                        journals[journal_path] = CheckpointState()
                journal = journals[journal_path].jobs.get(job_id)
                if journal is not None and journal.state is not None:
                    router._resolve(
                        {
                            "job_id": job_id,
                            "tenant": placement.spec.tenant,
                            "state": journal.state,
                            "fingerprint": journal.fingerprint,
                            "makespan": journal.makespan,
                            "error_code": journal.error_code or "",
                        },
                        via=f"{placement.shard}-journal(resume)",
                    )
                    router.metrics.count(
                        "cluster_jobs_recovered_total", shard=placement.shard
                    )
                    router.metrics.decision(
                        "adopt",
                        placement.shard,
                        f"journaled terminal state {journal.state!r} at resume",
                        job_id=job_id,
                    )
                elif journal is not None and journal.interrupted:
                    router._migrate(
                        job, placement.shard, "router-resume", journal=journal
                    )
                else:
                    router._migrate(job, placement.shard, "router-resume")
        router._start_threads()
        return router
