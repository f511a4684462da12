"""Event primitives for the discrete-event simulation engine.

The SHMT runtime replays device activity on a simulated timeline.  Every
occurrence on that timeline -- an HLOP starting on a device, a PCIe transfer
completing, a scheduler waking up to rebalance queues -- is an :class:`Event`
ordered by simulated time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


class EventKind(enum.Enum):
    """Classification of timeline events, used for tracing and debugging."""

    GENERIC = "generic"
    DISPATCH = "dispatch"
    COMPUTE_START = "compute_start"
    COMPUTE_DONE = "compute_done"
    TRANSFER_START = "transfer_start"
    TRANSFER_DONE = "transfer_done"
    STEAL = "steal"
    SAMPLING = "sampling"
    AGGREGATE = "aggregate"
    #: Watchdog deadline for a running HLOP (fault-tolerant runtime).
    TIMEOUT = "timeout"
    #: A device reported an HLOP attempt as failed.
    FAULT = "fault"
    #: Permanent device failure at a planned time.
    DEVICE_DEATH = "device_death"
    #: Delayed re-delivery of a failed HLOP to the same device.
    RETRY = "retry"
    #: Migration of a failed HLOP to a surviving device.
    REQUEUE = "requeue"


_seq_counter = itertools.count()


@dataclass(order=True)
class Event:
    """A scheduled occurrence on the simulated timeline.

    Events compare by ``(time, seq)`` so that simultaneous events fire in
    the order they were scheduled, which keeps runs deterministic.
    """

    time: float
    seq: int = field(default_factory=lambda: next(_seq_counter))
    callback: Optional[Callable[[], None]] = field(default=None, compare=False)
    kind: EventKind = field(default=EventKind.GENERIC, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it."""
        self.cancelled = True
