"""Elastic membership, transport hardening, and router HA tests.

Integration tests spawn real shard processes (kept small); the
supervision-timing, event-error, and handoff-plan tests drive the router
directly with fake clocks and hand-built handles -- no processes at all.
"""

import os
import queue as queue_module
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ChaosConfig,
    ClusterConfig,
    ClusterRouter,
    HashRing,
    ShardSpec,
    load_router_checkpoint,
)
from repro.cluster.router import ClusterJob, _ShardHandle
from repro.cluster.shard import _EventChannel
from repro.cluster.transport import ReliableOutbox, Transport
from repro.errors import InvalidInput, TransportFailed, UnknownName
from repro.serve import AdmissionConfig, load_checkpoint
from repro.serve.job import JobSpec, JobState

SMALL = 32 * 32


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_router(tmp_path, shards=2, workers=2, tag="journals", **kwargs):
    config = ClusterConfig(
        journal_dir=str(tmp_path / tag),
        shards=shards,
        shard=ShardSpec(
            workers=workers,
            admission=AdmissionConfig(capacity=128, policy="block"),
        ),
        **kwargs,
    )
    return ClusterRouter(config).start()


def specs(n, prefix="el"):
    kernels = ("sobel", "mean_filter", "laplacian")
    return [
        JobSpec(
            kernel=kernels[i % len(kernels)],
            size=SMALL,
            seed=i,
            tenant=f"tenant-{i % 3}",
            job_id=f"{prefix}-{i:03d}",
        )
        for i in range(n)
    ]


def wait_all(jobs, timeout=120.0):
    deadline = time.monotonic() + timeout
    for job in jobs:
        assert job.wait(max(0.1, deadline - time.monotonic())), job.job_id


# --------------------------------------------------------------- membership


def test_add_shard_joins_ring_and_everything_completes(tmp_path):
    router = make_router(tmp_path, shards=2)
    try:
        jobs = [router.submit(spec) for spec in specs(10, prefix="join")]
        name = router.add_shard()
        assert name == "shard-2"
        assert router.shard_states()[name] == "live"
        with pytest.raises(InvalidInput):
            router.add_shard("shard-2")  # duplicate name refused
        jobs += [router.submit(spec) for spec in specs(6, prefix="after")]
        wait_all(jobs)
    finally:
        router.stop()
    assert Counter(j.state for j in jobs) == {JobState.DONE: 16}
    assert all(j.fingerprint for j in jobs)
    assert router.metrics.total("cluster_reshard_joins_total") == 1
    # Post-join submissions may land on the new shard.
    assert len(router.metrics.decisions("join")) == 1


def test_remove_shard_drains_gracefully_and_retires(tmp_path):
    router = make_router(tmp_path, shards=3)
    try:
        jobs = [router.submit(spec) for spec in specs(12, prefix="leave")]
        router.remove_shard("shard-1", drain=True, timeout=60.0)
        assert router.shard_states()["shard-1"] == "retired"
        with pytest.raises(UnknownName):
            router.remove_shard("nope")
        with pytest.raises(InvalidInput):
            router.remove_shard("shard-1")  # already retired
        jobs += [router.submit(spec) for spec in specs(4, prefix="late")]
        wait_all(jobs)
    finally:
        router.stop()
    assert Counter(j.state for j in jobs) == {JobState.DONE: 16}
    assert router.metrics.total("cluster_reshard_leaves_total") == 1
    assert len(router.metrics.decisions("retire")) == 1
    leaver_stops = [
        d["reason"]
        for d in router.metrics.decisions("stop")
        if d["device"] == "shard-1"
    ]
    assert leaver_stops == ["graceful"]
    # The retiree took no crash path and nothing placed on it afterwards.
    assert router.metrics.total("cluster_shard_crashes_total") == 0
    leave_seq = min(d["seq"] for d in router.metrics.decisions("leave"))
    late_places = [
        p
        for p in router.metrics.decisions("place")
        if p["device"] == "shard-1" and p["seq"] > leave_seq
    ]
    assert not late_places


def test_remove_last_shard_is_refused(tmp_path):
    router = make_router(tmp_path, shards=1)
    try:
        with pytest.raises(InvalidInput):
            router.remove_shard("shard-0")
    finally:
        router.stop()


def test_forced_leave_takes_the_crash_path(tmp_path):
    router = make_router(tmp_path, shards=2)
    try:
        jobs = [router.submit(spec) for spec in specs(8, prefix="force")]
        router.remove_shard("shard-0", drain=False)
        assert router.shard_states()["shard-0"] == "retired"
        wait_all(jobs)
    finally:
        router.stop()
    assert Counter(j.state for j in jobs) == {JobState.DONE: 8}
    # Forced leave fences and recovers, but never restarts the slot.
    assert router.metrics.total("cluster_shard_crashes_total") == 1
    assert router.metrics.total("cluster_shard_restarts_total") == 0


# ----------------------------------------------------------------- transport


def test_chaos_transport_still_resolves_every_job(tmp_path):
    router = make_router(
        tmp_path,
        shards=2,
        tag="chaos",
        chaos=ChaosConfig(seed=9, drop=0.1, duplicate=0.1, delay=0.1),
    )
    try:
        jobs = [router.submit(spec) for spec in specs(12, prefix="chaos")]
        wait_all(jobs)
    finally:
        router.stop()
    assert Counter(j.state for j in jobs) == {JobState.DONE: 12}
    assert all(j.fingerprint for j in jobs)
    # The protocol, not luck: drops happened and resends repaired them,
    # without any shard being declared dead.
    assert router.metrics.total("transport_dropped_total") > 0
    assert router.metrics.total("transport_resent_total") > 0
    assert router.metrics.total("cluster_shard_crashes_total") == 0


def test_stop_escalates_to_sigkill_on_wedged_shard(tmp_path):
    router = make_router(tmp_path, shards=2, tag="wedge")
    try:
        jobs = [router.submit(spec) for spec in specs(4, prefix="wedge")]
        wait_all(jobs)
        router.wedge("shard-0")
        time.sleep(0.2)  # let the wedge command land
    finally:
        started = time.monotonic()
        router.stop(drain=True, timeout=2.0)
        elapsed = time.monotonic() - started
    assert elapsed < 30.0  # the deadline, not the wedge, bounded stop
    assert router.metrics.total("cluster_stop_sigkilled_total") == 1
    kills = router.metrics.decisions("kill")
    assert len(kills) == 1 and kills[0]["device"] == "shard-0"
    assert Counter(j.state for j in jobs) == {JobState.DONE: 4}
    # The wedged shard did not eat its healthy sibling's budget.
    stops = {d["device"]: d["reason"] for d in router.metrics.decisions("stop")}
    assert stops == {"shard-0": "sigkill", "shard-1": "graceful"}


def test_graceful_stop_of_healthy_shards_kills_none(tmp_path):
    router = make_router(tmp_path, shards=2, tag="graceful")
    try:
        jobs = [router.submit(spec) for spec in specs(4, prefix="graceful")]
        wait_all(jobs)
    finally:
        router.stop(drain=True, timeout=2.0)
    assert router.metrics.total("cluster_stop_sigkilled_total") == 0
    assert router.metrics.decisions("kill") == []
    assert router.metrics.total("cluster_shard_crashes_total") == 0
    stops = router.metrics.decisions("stop")
    assert sorted(d["device"] for d in stops) == ["shard-0", "shard-1"]
    assert all(d["reason"] == "graceful" for d in stops)
    # Each shard's shutdown seconds reach the exported rollup.
    gauges = [
        r
        for r in router.metrics.records()
        if r.get("name") == "cluster_shard_shutdown_seconds"
    ]
    assert sorted(r["labels"]["shard"] for r in gauges) == ["shard-0", "shard-1"]
    assert Counter(j.state for j in jobs) == {JobState.DONE: 4}


class _ScriptedCommands:
    """A command queue that replays fixed commands, then reports empty."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.gets = 0

    def get(self, timeout=None):
        self.gets += 1
        if not self.commands:
            raise queue_module.Empty
        return self.commands.pop(0)


def test_event_channel_close_returns_on_the_routers_ack():
    events = _FakeQueue()
    channel = _EventChannel(events, "shard-0", 1, chaos=None, ack_timeout=60.0)
    seq = channel.emit("stopped", {"metrics": []})
    commands = _ScriptedCommands(
        [
            (7, "submit", ({"kernel": "sobel"},)),  # too late: dropped
            (8, "ack_event", (seq,)),
        ]
    )
    channel.close(commands, timeout=60.0)
    # Returned on the ack: both commands read, nothing more waited for.
    assert commands.gets == 2
    assert channel.outbox.empty
    assert channel.resent == 0
    assert [message[0] for message in events.items] == ["stopped"]


class _FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)


def test_event_loop_counts_errors_and_escalates(tmp_path):
    class BrokenQueue:
        def get(self, timeout=None):
            raise OSError("event pipe torn")

    config = ClusterConfig(
        journal_dir=str(tmp_path / "j"),
        shards=1,
        event_error_threshold=3,
    )
    router = ClusterRouter(config)  # never started: no processes
    router._events = BrokenQueue()
    router._event_loop()  # returns once the threshold trips
    assert router.metrics.total("cluster_event_errors_total") == 3
    assert router._events_broken
    crashes = router.metrics.decisions("crash")
    assert crashes and crashes[0]["code"] == TransportFailed.code
    # The supervisor then recovers (here: retires) every supervised shard
    # instead of trusting a channel that cannot deliver events.
    handle = _ShardHandle(0, "shard-0")
    handle.transport = Transport(_FakeQueue())
    handle.outbox = ReliableOutbox()
    handle.state = "live"
    router._handles["shard-0"] = handle
    router._assigned["shard-0"] = set()
    router._supervise_tick()
    assert handle.state == "retired"


def test_supervision_timing_is_deterministic_with_injected_clock(tmp_path):
    clock = FakeClock()
    config = ClusterConfig(
        journal_dir=str(tmp_path / "j"),
        shards=1,
        heartbeat_deadline=3.0,
        max_restarts=0,
        clock=clock,
    )
    router = ClusterRouter(config)  # never started: no processes
    handle = _ShardHandle(0, "shard-0")
    handle.transport = Transport(_FakeQueue(), clock=clock)
    handle.outbox = ReliableOutbox(clock=clock)
    handle.state = "live"
    handle.last_seen = clock()
    router._handles["shard-0"] = handle
    router._assigned["shard-0"] = set()

    clock.advance(2.9)  # inside the deadline: not even suspect
    router._supervise_tick()
    assert handle.state == "live" and handle.suspect_ticks == 0

    clock.advance(0.2)  # past the deadline: first suspect tick
    router._supervise_tick()
    assert handle.state == "live" and handle.suspect_ticks == 1

    router._supervise_tick()  # second consecutive tick confirms
    assert handle.state == "dead"
    crashes = router.metrics.decisions("crash")
    assert crashes and "heartbeat" in crashes[0]["why"]


def test_unacked_commands_escalate_through_the_outbox(tmp_path):
    clock = FakeClock()
    config = ClusterConfig(
        journal_dir=str(tmp_path / "j"),
        shards=1,
        heartbeat_deadline=1e9,  # heartbeats never go stale here
        max_restarts=0,
        ack_timeout=0.25,
        resend_max=2,
        clock=clock,
    )
    router = ClusterRouter(config)
    handle = _ShardHandle(0, "shard-0")
    queue = _FakeQueue()
    handle.transport = Transport(queue, clock=clock)
    handle.outbox = ReliableOutbox(
        clock=clock, timeout=0.25, max_attempts=2
    )
    handle.state = "live"
    handle.last_seen = clock()
    router._handles["shard-0"] = handle
    router._assigned["shard-0"] = set()

    router._send(handle, "evict", None, "test")
    assert len(queue.items) == 1
    clock.advance(0.3)
    router._supervise_tick()  # resend 1
    clock.advance(0.6)
    router._supervise_tick()  # resend 2: budget spent
    assert len(queue.items) == 3
    assert router.metrics.total("transport_resent_total") == 2
    clock.advance(5.0)
    router._supervise_tick()  # exhausted -> suspect tick 1
    router._supervise_tick()  # suspect tick 2 -> declared dead
    assert handle.state == "dead"
    assert router.metrics.total("transport_failed_total") == 1
    crashes = router.metrics.decisions("crash")
    assert any("transport" in c["why"] for c in crashes)


# -------------------------------------------------------------------- resume


def test_router_checkpoint_resume_adopts_without_rerunning(tmp_path):
    checkpoint_path = str(tmp_path / "router.jsonl")
    config = ClusterConfig(
        journal_dir=str(tmp_path / "j"),
        shards=2,
        shard=ShardSpec(
            workers=2,
            admission=AdmissionConfig(capacity=128, policy="block"),
        ),
        checkpoint_path=checkpoint_path,
    )
    old = ClusterRouter(config).start()
    jobs = [old.submit(spec) for spec in specs(8, prefix="ha")]
    wait_all(jobs[:3], timeout=60.0)  # some finish under the old router
    reference = {j.job_id: j.fingerprint for j in jobs[:3]}
    # The old router dies without stop(): its threads halt, its shards
    # keep running until resume() fences their pids.
    old._shutdown.set()
    time.sleep(0.2)

    new = ClusterRouter.resume(config)
    try:
        for job_id in [s.job_id for s in specs(8, prefix="ha")]:
            job = new.jobs[job_id]
            assert job.wait(60.0), f"{job_id} unresolved after takeover"
            assert job.state is JobState.DONE
    finally:
        new.stop()
    # Work finished before the takeover was adopted, not re-run, and its
    # fingerprints survived the handover.
    for job_id, fingerprint in reference.items():
        assert new.jobs[job_id].fingerprint == fingerprint
        assert new.jobs[job_id].resolved_by in (
            "router-checkpoint",
            "shard-0-journal(resume)",
            "shard-1-journal(resume)",
        )
    # Exactly-once across *all* generations of journals.
    done = Counter()
    for name in os.listdir(tmp_path / "j"):
        state = load_checkpoint(str(tmp_path / "j" / name))
        for job_id, journal in state.jobs.items():
            if journal.state == "done":
                done[job_id] += 1
    assert not [job_id for job_id, count in done.items() if count > 1]
    # The checkpoint itself replays: every job has a resolution record.
    replayed = load_router_checkpoint(checkpoint_path)
    assert set(replayed.resolutions) >= {s.job_id for s in specs(8, prefix="ha")}
    assert not replayed.pending()


# ------------------------------------------------- handoff-plan properties

_PLAN_DIR = tempfile.mkdtemp(prefix="repro-handoff-plan-")


def _bare_router(names, spread=2):
    config = ClusterConfig(journal_dir=_PLAN_DIR, shards=1, tenant_spread=spread)
    router = ClusterRouter(config)  # never started: no processes
    router._handles.clear()
    router._assigned.clear()
    router._ring = HashRing(names, vnodes=config.vnodes)
    for slot, name in enumerate(names):
        handle = _ShardHandle(slot, name)
        handle.state = "live"
        router._handles[name] = handle
        router._assigned[name] = set()
    return router


def _seed_jobs(router, tenants, jobs_per_tenant):
    for tenant in tenants:
        for i in range(jobs_per_tenant):
            spec = JobSpec(
                kernel="sobel",
                size=SMALL,
                seed=i,
                tenant=tenant,
                job_id=f"{tenant}-{i:03d}",
            )
            job = ClusterJob(spec)
            placed = router._ring.place(
                tenant,
                spec.job_id,
                spread=router.config.tenant_spread,
                healthy=router._healthy(),
            )
            job.placements.append(placed)
            router.jobs[spec.job_id] = job
            router._assigned[placed].add(spec.job_id)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shards=st.integers(min_value=2, max_value=6),
    tenants=st.integers(min_value=1, max_value=6),
    jobs_per_tenant=st.integers(min_value=1, max_value=8),
    spread=st.integers(min_value=1, max_value=3),
)
def test_join_handoff_is_minimal_and_preserves_spread(
    shards, tenants, jobs_per_tenant, spread
):
    names = [f"shard-{i}" for i in range(shards)]
    router = _bare_router(names, spread=spread)
    tenant_names = [f"tenant-{i}" for i in range(tenants)]
    _seed_jobs(router, tenant_names, jobs_per_tenant)
    old_ring = router._ring

    joined = "shard-new"
    handle = _ShardHandle(len(names), joined)
    handle.state = "live"
    router._handles[joined] = handle
    router._assigned[joined] = set()
    new_ring = old_ring.with_shard(joined)
    router._ring = new_ring

    plan = router._handoff_plan(new_ring)
    planned = {job_id for ids in plan.values() for job_id in ids}
    healthy = router._healthy()
    for job in router.jobs.values():
        target = new_ring.place(
            job.spec.tenant, job.spec.job_id, spread=spread, healthy=healthy
        )
        # Minimal remap: the plan is exactly the set of jobs whose
        # placement changed -- nothing else moves.
        assert (job.spec.job_id in planned) == (target != job.shard)
        if job.spec.job_id in planned:
            # Moves are keyed by where the job currently sits.
            assert job.spec.job_id in plan[job.shard]
    # A tenant whose anchor list is untouched by the join moves nothing.
    for tenant in tenant_names:
        old_anchors = old_ring.preference(f"tenant:{tenant}", n=spread)
        new_anchors = new_ring.preference(f"tenant:{tenant}", n=spread)
        if old_anchors == new_anchors:
            assert not [
                j for j in planned if router.jobs[j].spec.tenant == tenant
            ]
        # Per-tenant spread holds after the membership change: every
        # post-churn placement stays inside the tenant's anchor list.
        for job in router.jobs.values():
            if job.spec.tenant != tenant:
                continue
            target = new_ring.place(
                tenant, job.spec.job_id, spread=spread, healthy=healthy
            )
            assert target in new_anchors


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shards=st.integers(min_value=2, max_value=6),
    tenants=st.integers(min_value=1, max_value=5),
    jobs_per_tenant=st.integers(min_value=1, max_value=8),
    victim_index=st.integers(min_value=0, max_value=5),
)
def test_leave_handoff_moves_exactly_the_leavers_keys(
    shards, tenants, jobs_per_tenant, victim_index
):
    names = [f"shard-{i}" for i in range(shards)]
    router = _bare_router(names, spread=2)
    tenant_names = [f"tenant-{i}" for i in range(tenants)]
    _seed_jobs(router, tenant_names, jobs_per_tenant)
    victim = names[victim_index % shards]

    new_ring = router._ring.without_shard(victim)
    router._ring = new_ring
    router._handles[victim].state = "leaving"

    plan = router._handoff_plan(new_ring)
    planned = {job_id for ids in plan.values() for job_id in ids}
    healthy = router._healthy()  # excludes the leaver
    assert victim not in healthy
    for job in router.jobs.values():
        if job.shard == victim:
            # Everything on the leaver must move.
            assert job.spec.job_id in planned
        else:
            target = new_ring.place(
                job.spec.tenant, job.spec.job_id, spread=2, healthy=healthy
            )
            # Survivors move only if the shrunken ring remapped them.
            assert (job.spec.job_id in planned) == (target != job.shard)
