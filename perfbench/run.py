"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dispatch-storm --seed 3 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` repeats the timed ops with span wrappers installed and
prints every per-layer metric instead.  Human-readable lines (set-up
record, machine-speed probe, tail percentile, layer breakdown) come
first; the last line of standard output is the JSON result.  Each run's
full record is also kept under ``.perfbench/results/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A pass starts no new cycle after this many seconds (summed over the
#: calls that add to it), so a run on a very slow machine still ends in time.
PASS_LIMIT = 100.0


@dataclass
class Pass:
    latencies: List[float] = field(default_factory=list)
    by_key: Dict[str, List[float]] = field(default_factory=dict)
    cycle_busy: List[float] = field(default_factory=list)
    hlops: int = 0
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    steal_share: float = 0.0

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def cycles_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.cycle_seconds))


def run_pass(workload, seen: Dict[str, str], problems: List[str], cycles: int,
             result: Optional[Pass] = None) -> Pass:
    """Run ``cycles`` whole cycles of ops, checking every op's digest
    against the first time its key ran; with ``result``, add to it."""
    from perfbench.record import cpu_steal_share

    result = Pass() if result is None else result
    target = result.cycles + cycles
    clock = time.perf_counter
    start, cpu, steal = clock(), time.process_time(), cpu_steal_share()
    while result.cycles < target and result.wall_s + clock() - start < PASS_LIMIT:
        busy = result.busy
        for op in workload.cycle():
            result.attempted += 1
            began = clock()
            try:
                raw = op.run()
            except Exception as error:  # noqa: BLE001 - a failed op fails the run
                result.failed += 1
                problems.append(f"{op.key}: {type(error).__name__}: {error}")
                continue
            result.latencies.append(clock() - began)
            result.by_key.setdefault(op.key, []).append(result.latencies[-1])
            hlops, digest = workload.settle(op.key, raw)
            result.hlops += hlops
            if seen.setdefault(op.key, digest) != digest:
                result.failed += 1
                problems.append(f"{op.key}: output differs from its first run")
        result.cycles += 1
        result.cycle_busy.append(result.busy - busy)
    wall = clock() - start
    result.cpu_s += time.process_time() - cpu
    stolen = cpu_steal_share(since=steal, seconds=wall) * wall
    result.wall_s += wall
    result.steal_share += (stolen - result.steal_share * wall) / max(result.wall_s, 1e-9)
    return result


def set_up(workload, seen, problems) -> float:
    began = time.perf_counter()
    workload.set_up()
    if workload.warm:
        run_pass(workload, seen, problems, 1)
    return time.perf_counter() - began


def end_to_end(workload, seen, problems, seconds, import_s, log):
    from perfbench.summary import nearest_rank, tail

    # The timed cycles are split over the set-ups, later ones first, so the
    # timed work spans most of the run: the reference VM's speed shifts
    # every few seconds, and a longer span averages more of those shifts.
    cycles = cycles_for(workload, seconds)
    setups, work = [], Pass()
    for index in range(SETUPS):
        setups.append(set_up(workload, seen, problems))
        share = cycles // SETUPS + (index >= SETUPS - cycles % SETUPS)
        run_pass(workload, seen, problems, share, work)
        if index == SETUPS - 1:
            simulated = workload.simulated()
        workload.tear_down()
    if not work.latencies:
        raise RuntimeError("no op completed")
    value, percentile, beyond = tail(work.latencies)
    log(f"ops {len(work.latencies)} in {work.cycles} cycles, busy {work.busy:.3f}s, "
        f"cpu {work.cpu_s:.3f}s, steal {100 * work.steal_share:.1f}%; "
        f"tail p{percentile:g} with {beyond} ops beyond")
    log(f"set-ups {['%.3f' % s for s in setups]}, imports {import_s:.3f}s")
    metrics = {
        **simulated,
        "setup_s": import_s + statistics.median(setups),
        "hlops_per_s": work.hlops / work.busy,
        "op_p50_ms": nearest_rank(sorted(work.latencies), 50.0)[0] * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, work, simulated, {"tail_percentile": percentile, "tail_beyond": beyond,
                                      "setups_s": setups}


def per_layer(workload, seen, problems, seconds, log):
    from perfbench import spans

    set_up(workload, seen, problems)
    plain = run_pass(workload, seen, problems, cycles_for(workload, seconds / 2))
    simulated = workload.simulated()
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        tracer.enter(spans.ROOT)
        traced = run_pass(workload, seen, problems, plain.cycles)
        wall = tracer.exit()
    finally:
        patches.restore()
    workload.tear_down()
    metrics = spans.layer_metrics(tracer)
    attributed = sum(tracer.self_s.values())
    log(f"traced wall {wall:.6f}s; layer self times sum to {attributed:.6f}s")
    for layer, seconds_ in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:24s} {seconds_:10.4f}s  {100 * seconds_ / wall:5.1f}%  calls {tracer.calls[layer]}")
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times {attributed} do not sum to the traced wall {wall}")
    metrics.update({
        "serve.overhead_ms": 0.0,
        "cluster.submit_ms": 0.0,
        "cluster.overhead_ms": 0.0,
        "cluster.resends": 0,
        "cluster.stop_s": 0.0,
        **workload.layer_probe(),
        "trace.overhead_pct": 100.0 * (traced.busy / plain.busy - 1.0),
    })
    return metrics, traced, simulated, {"traced_wall_s": wall}


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The cluster probe's shards are joined by ``ClusterRouter.stop``; this
    also covers a run that failed half way, and the multiprocessing
    resource tracker that a ``spawn`` context starts, which would
    otherwise outlive the run until it noticed its parent was gone.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    gc.collect()
    # The exit-time finalizers unlink the spawn context's named
    # semaphores through the tracker: run them now, or at interpreter
    # exit they would start a fresh tracker that nobody waits for.
    util._exit_function()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests; not comparable)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench import record, workloads

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    run_dir = record.state_dir(ROOT) / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, run_dir, tiny=args.tiny)
        setup = record.setup_record(run_dir)
        probe = record.speed_probe()
        log(f"set-up {json.dumps(setup, sort_keys=True)}")
        log(f"machine-speed probe {probe['wall_s']:.4f}s wall, {probe['cpu_s']:.4f}s cpu")
        seen: Dict[str, str] = {}
        problems: List[str] = workload.problems
        if args.trace:
            metrics, work, sim, extra = per_layer(workload, seen, problems, args.seconds, log)
            wanted = spec["per_layer"]
        else:
            metrics, work, sim, extra = end_to_end(
                workload, seen, problems, args.seconds, import_s, log
            )
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    key = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}-{record.sources_digest(ROOT)}"
    observed = {**{f"sim.{k}": v for k, v in sim.items()}, **{f"op.{k}": v for k, v in seen.items()}}
    problems.extend(record.Guard(ROOT, key).check(observed))
    for line in problems[:20]:
        log(f"PROBLEM {line}")

    names = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json")
    result = {
        "correct": not problems and work.failed == 0,
        "attempted": work.attempted,
        "failed": min(work.failed, work.attempted),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in names.items()},
    }
    details = workload.details()
    if details:
        log(f"details {json.dumps(details, sort_keys=True)}")
    record.save_result(ROOT, {
        **result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, **setup, "speed_probe": probe,
        "cycles": work.cycles, "cycle_busy_s": work.cycle_busy, "cpu_s": work.cpu_s,
        "steal_share": work.steal_share,
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in work.by_key.items()},
        "latencies_ms": [1e3 * v for v in work.latencies],
        "problems": problems, "details": details, **extra,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
