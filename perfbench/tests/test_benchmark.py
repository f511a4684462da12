"""Tests of the benchmark's own code: span arithmetic, the tail rule,
the benchmark file's names, the determinism guard, and a tiny-input
smoke run of every workload in both modes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import record, spans, summary

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.enter(spans.ROOT)
    clock.advance(1.0)
    with tracer.span("core.graph"):
        clock.advance(2.0)
        with tracer.span("core.runtime.prepare"):
            clock.advance(3.0)
            with tracer.span("core.sampling"):
                clock.advance(4.0)
        clock.advance(5.0)
    clock.advance(6.0)
    wall = tracer.exit()

    assert wall == 21.0
    assert tracer.self_s["core.sampling"] == 4.0
    assert tracer.self_s["core.runtime.prepare"] == 3.0
    assert tracer.self_s["core.graph"] == 7.0
    assert tracer.self_s[spans.ROOT] == 7.0
    assert sum(tracer.self_s.values()) == wall


def test_reentrant_layer_counts_one_call_and_no_double_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    with tracer.span("core.schedulers"):
        clock.advance(1.0)
        with tracer.span("core.schedulers"):  # super().plan
            clock.advance(2.0)
    with tracer.span("core.schedulers"):
        clock.advance(0.5)

    assert tracer.calls["core.schedulers"] == 2
    assert tracer.self_s["core.schedulers"] == 3.5


def test_spans_from_other_threads_are_ignored():
    import threading

    tracer = spans.Tracer()
    wrapped = spans._wrap(tracer, "metrics", lambda: 7)
    results = []
    worker = threading.Thread(target=lambda: results.append(wrapped()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert results == [7]
    assert tracer.calls["metrics"] == 0
    assert wrapped() == 7
    assert tracer.calls["metrics"] == 1


def test_install_restores_every_original():
    import repro.core.runtime as runtime_mod
    from repro.devices.base import ExactDevice
    from repro.devices.gpu import GPUDevice
    from repro.sim.engine import Engine

    before = (runtime_mod.plan_partitions, vars(Engine)["run"], vars(ExactDevice)["execute_numeric"])
    patches = spans.install(spans.Tracer())
    try:
        assert runtime_mod.plan_partitions is not before[0]
        # cache keys compare the subclass's method with ExactDevice's by identity
        assert GPUDevice.execute_numeric is ExactDevice.execute_numeric
    finally:
        patches.restore()
    after = (runtime_mod.plan_partitions, vars(Engine)["run"], vars(ExactDevice)["execute_numeric"])
    assert after == before


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [
        (20, 50.0, 10),
        (99, 50.0, 49),
        (100, 90.0, 10),
        (199, 90.0, 19),
        (200, 95.0, 10),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
        (5, 50.0, 2),
    ],
)
def test_tail_takes_highest_rung_with_ten_beyond(count, percentile, beyond):
    values = list(range(count, 0, -1))
    value, chosen, left = summary.tail(values)
    assert (chosen, left) == (percentile, beyond)
    assert value == count - beyond
    assert sum(1 for v in values if v > value) == left


def test_benchmark_file_is_valid():
    assert summary.check_spec(SPEC) == []
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s["end_to_end"].append(dict(s["end_to_end"][1])),
        lambda s: s["per_layer"].append({"name": "_bad", "unit": "s", "better": "lower"}),
        lambda s: s["per_layer"].append({"name": "x" * 65, "unit": "s", "better": "lower"}),
        lambda s: s["end_to_end"][1].update(unit="seconds per op!"),
        lambda s: s["end_to_end"][1].update(bound=0.3),
        lambda s: s["end_to_end"][1].update(bound=s["end_to_end"][0]["bound"] + 0.01),
        lambda s: s["workloads"].pop() and s["workloads"].pop(),
        lambda s: s["command"].append("/abs/path"),
    ],
)
def test_invalid_benchmark_files_are_caught(mutate):
    spec = json.loads(json.dumps(SPEC))
    mutate(spec)
    assert summary.check_spec(spec)


def test_guard_records_first_run_then_flags_changes(tmp_path):
    guard = record.Guard(tmp_path, "w-seed1")
    assert guard.check({"sim.x": 1.5, "op.a": "f00"}) == []
    assert guard.check({"sim.x": 1.5, "op.a": "f00"}) == []
    problems = guard.check({"sim.x": 1.5000000001, "op.a": "f00", "op.b": "new"})
    assert len(problems) == 2


def session_members(sid: int):
    """Processes of session ``sid`` still in the process table (Linux)."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            members.append(int(pid))
    return members


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out.stdout, out.stderr = out.communicate(timeout=170)
    # Every process the run started (cluster shards, the multiprocessing
    # resource tracker) has ended by the time it exits.
    if os.path.isdir("/proc"):
        assert session_members(out.pid) == []
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dispatch-storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
