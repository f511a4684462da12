"""Host-time spans around the public entry points of the ``repro`` layers.

The traced run installs wrappers from here; nothing under ``src/``
changes and untraced runs never import the wrappers.  Each wrapper sits
where its caller looks the name up: ``from``-imports bind at import time,
so ``plan_partitions`` is patched in :mod:`repro.core.runtime`, and
methods are patched on the class that defines them.  The metrics module
is reached through ``sys.modules`` because ``repro.metrics.mape`` is the
re-exported function, not the module.

Only the thread that created the :class:`Tracer` records spans.  Work on
other threads or processes (service workers, cluster shards) shows up as
time the client thread spends waiting, which is exactly what the client
sees.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span: the traced region's time outside every layer.
ROOT = "unattributed"


class Tracer:
    """Self time and call counts per layer, for spans on one thread.

    A span's self time is its duration minus the durations of its direct
    child spans, so the self times of every layer -- the root included --
    add up to the root span's duration.  A call counts once for its
    layer however deeply the layer re-enters itself (``super().plan``,
    a batch path calling the per-block path).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.thread = threading.get_ident()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counters recorded at the same boundaries (hits, events, ...).
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._depth: Counter = Counter()

    def enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        end = self.clock()
        layer, start, children = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.calls[layer] += 1
        return duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def on_thread(self) -> bool:
        return threading.get_ident() == self.thread


def _wrap(
    tracer: Tracer,
    layer: str,
    fn: Callable,
    after: Optional[Callable[[Tracer, tuple, dict, Any], None]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on_thread():
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, new: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def wrap(self, tracer: Tracer, owner: Any, name: str, layer: str, after=None) -> None:
        self.replace(owner, name, _wrap(tracer, layer, vars(owner)[name], after))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _count_lookup(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    key = args[1] if len(args) > 1 else kwargs.get("key")  # ResultCache.get(self, key)
    if key is not None:  # a None key skips the cache
        tracer.counts["exec.cache.hits" if result is not None else "exec.cache.misses"] += 1


def _count_group(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]  # submit_group(self, tasks)
    tracer.counts["exec.fuse.tasks"] += len(tasks)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; returns the patches to restore."""
    import repro.core.runtime as runtime_mod
    import repro.devices  # noqa: F401  (loads every device class)
    import repro.metrics  # noqa: F401  (loads the mape and ssim modules)
    from repro.core.graph import Graph
    from repro.core.sampling import Sampler
    from repro.core.schedulers import dag as _dag  # noqa: F401  (GroupScheduler)
    from repro.core.schedulers.base import Scheduler, scheduler_names
    from repro.devices.base import Device
    from repro.exec.cache import ResultCache
    from repro.exec.fuse import FusingBackend
    from repro.exec.task import ComputeTask
    from repro.sim.engine import Engine

    scheduler_names()  # registers every policy class
    mape_mod = sys.modules["repro.metrics.mape"]
    ssim_mod = sys.modules["repro.metrics.ssim"]
    patches = Patches()
    patches.wrap(tracer, runtime_mod, "plan_partitions", "core.partition")
    patches.wrap(tracer, Sampler, "sample", "core.sampling")
    for cls in _subclasses(Scheduler):
        if cls is not Scheduler and "plan" in vars(cls):
            patches.wrap(tracer, cls, "plan", "core.schedulers")
    patches.wrap(tracer, runtime_mod.SHMTRuntime, "prepare_batch", "core.runtime.prepare")
    patches.wrap(tracer, runtime_mod._BatchRun, "finish", "core.runtime.finish")
    patches.wrap(tracer, Graph, "run", "core.graph")
    patches.wrap(tracer, ComputeTask, "cache_key", "exec.task.key")
    patches.wrap(tracer, ResultCache, "get", "exec.cache.get", after=_count_lookup)
    patches.wrap(tracer, ResultCache, "put", "exec.cache.put")
    patches.wrap(tracer, FusingBackend, "submit_group", "exec.fuse", after=_count_group)
    # Only the defining classes: ComputeTask.cache_key compares
    # ``type(device).execute_numeric`` with ExactDevice's by identity, and
    # subclasses must keep resolving to the same (wrapped) object.
    for cls in _subclasses(Device):
        for name in ("execute_numeric", "execute_numeric_batch"):
            if name in vars(cls):
                patches.wrap(tracer, cls, name, "devices.numerics")

    original_run = vars(Engine)["run"]

    @functools.wraps(original_run)
    def counted_run(self, *args, **kwargs):
        before = self.events_fired
        try:
            return original_run(self, *args, **kwargs)
        finally:
            if tracer.on_thread():
                tracer.counts["sim.engine.events"] += self.events_fired - before

    patches.replace(Engine, "run", _wrap(tracer, "sim.engine", counted_run))

    patches.wrap(tracer, mape_mod, "mape_percent", "metrics")
    patches.wrap(tracer, ssim_mod, "ssim", "metrics")
    patches.wrap(tracer, mape_mod.MAPEReference, "__init__", "metrics")
    patches.wrap(tracer, ssim_mod.SSIMReference, "__init__", "metrics")
    return patches


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics every workload reports from its traced pass."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    hits, misses = counts["exec.cache.hits"], counts["exec.cache.misses"]
    groups, events = calls["exec.fuse"], counts["sim.engine.events"]
    return {
        "core.partition.self_s": s["core.partition"],
        "core.partition.calls": calls["core.partition"],
        "core.sampling.self_s": s["core.sampling"],
        "core.sampling.calls": calls["core.sampling"],
        "core.schedulers.self_s": s["core.schedulers"],
        "core.schedulers.plans": calls["core.schedulers"],
        "core.runtime.prepare_self_s": s["core.runtime.prepare"],
        "core.runtime.finish_self_s": s["core.runtime.finish"],
        "core.graph.self_s": s["core.graph"],
        "core.graph.runs": calls["core.graph"],
        "exec.task.key_self_s": s["exec.task.key"],
        "exec.task.keys": calls["exec.task.key"],
        "exec.cache.get_self_s": s["exec.cache.get"],
        "exec.cache.put_self_s": s["exec.cache.put"],
        "exec.cache.hits": hits,
        "exec.cache.misses": misses,
        "exec.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.fuse.self_s": s["exec.fuse"],
        "exec.fuse.groups": groups,
        "exec.fuse.hlops_per_group": counts["exec.fuse.tasks"] / groups if groups else 0.0,
        "devices.numerics_self_s": s["devices.numerics"],
        "devices.numerics_calls": calls["devices.numerics"],
        "sim.engine.self_s": s["sim.engine"],
        "sim.engine.events": events,
        "sim.engine.host_us_per_event": s["sim.engine"] / events * 1e6 if events else 0.0,
        "metrics.self_s": s["metrics"],
        "metrics.calls": calls["metrics"],
        "unattributed.self_s": s[ROOT],
    }
