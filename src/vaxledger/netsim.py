"""Deterministic discrete-event network core: clock, links, stations, meters.

Simulated time is integer microseconds; ties fire in insertion order. Link
transit is latency plus transmission, with the TLS framing cost folded in as a
constant per-message byte overhead. `transit_delay` returns the exact rational
delay; the event layer rounds it up once per message size, so the hot path
stays in pure integer arithmetic.

Every host is a flat-mesh endpoint named by the caller; the core keeps no
host roster and knows nothing of peers or ordering roles. Per-role service
stations are FIFO queues with a configurable worker count (1 for everything
except the content-query pool); queueing delay emerges from occupancy rather
than being modeled directly.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "LinkParams",
    "transit_delay",
    "transit_delay_us",
    "EventQueue",
    "ServiceStation",
    "BandwidthMeter",
    "TraceWriter",
    "MessageLayer",
]

# Events one `run_until` call may dispatch before it gives up on a runaway loop.
MAX_EVENTS = 50_000_000


@dataclass(frozen=True)
class LinkParams:
    latency_us: int = 3000
    bandwidth_bps: int = 10**9
    tls_overhead_bytes: int = 60

    def __post_init__(self):
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.tls_overhead_bytes < 0:
            raise ValueError("tls overhead must be non-negative")


def transit_delay(link: LinkParams, size_bytes: int) -> Fraction:
    """Exact one-hop delay in microseconds: latency + (size+overhead)*8/bw.

    Returned as a Fraction so properties like "transmission scales exactly
    with 1/bandwidth" hold with no rounding; scheduling quantizes separately.
    """
    if size_bytes <= 0:
        raise ValueError("message size must be positive")
    bits = (size_bytes + link.tls_overhead_bytes) * 8
    return link.latency_us + Fraction(bits * 1_000_000, link.bandwidth_bps)


def transit_delay_us(link: LinkParams, size_bytes: int) -> int:
    """`transit_delay` rounded up to whole microseconds, as the event layer schedules it."""
    return math.ceil(transit_delay(link, size_bytes))


class EventQueue:
    """Priority queue of (time, sequence)-ordered callbacks."""

    def __init__(self):
        self.clock = 0
        self._heap: list = []
        self._seq = 0
        self.processed = 0

    def schedule(self, at: int, callback) -> None:
        if at < self.clock:
            raise ValueError(f"cannot schedule at {at} before clock {self.clock}")
        heapq.heappush(self._heap, (at, self._seq, callback))
        self._seq += 1

    def run_until(self, t_end: int | None = None) -> int:
        """Process all events with time <= t_end, the clock landing on t_end;
        with no t_end, run to exhaustion, the clock staying at the last event."""
        heap = self._heap
        end = math.inf if t_end is None else t_end
        count = 0
        while heap and heap[0][0] <= end:
            at, _seq, callback = heapq.heappop(heap)
            self.clock = at
            callback()
            count += 1
            if count > MAX_EVENTS:
                raise RuntimeError("event run exceeded safety limit")
        if t_end is not None:
            self.clock = max(self.clock, t_end)
        self.processed += count
        return count

    def drain(self) -> int:
        """Run to exhaustion (used after the measurement window closes)."""
        return self.run_until()


class ServiceStation:
    """FIFO service point with `workers` parallel servers.

    `free_at` is a min-heap of the workers' free times (the Kiefer–Wolfowitz
    workload vector, in heap order): `enqueue` books the earliest-free worker
    and returns the completion time; busy time inside [0, window_us]
    accumulates for the utilization report, and every job's service time into
    `offered_us`, the offered load a capacity check compares with
    window × workers.
    """

    def __init__(self, window_us: int, workers: int = 1):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self.free_at = [0] * workers
        self.busy_us = 0
        self.offered_us = 0

    def enqueue(self, now: int, service_us: int) -> int:
        free_at = self.free_at
        start = free_at[0] if free_at[0] > now else now
        finish = start + service_us
        heapq.heapreplace(free_at, finish)
        self.offered_us += service_us
        if start < self.window_us:  # finish >= start, so only the finish can pass the window end
            self.busy_us += (finish if finish < self.window_us else self.window_us) - start
        return finish

    def busy_fraction(self) -> float:
        """Share of the window's worker time spent serving."""
        return self.busy_us / (self.window_us * len(self.free_at))


class BandwidthMeter:
    """Per-host byte totals inside the window [0, window_us), plus global totals.

    A message of size S (TLS overhead included) counts S at the sender and S
    at the receiver. Traffic outside the window is excluded from the per-host
    totals but still enters the global totals used by the conservation check.
    Copies received by a group of hosts at one instant are clipped once and
    added to one bucket of the group, which `host_kb` adds in for each of its
    hosts; a lone message whose delivery time is known when sent is metered
    at both ends in one `on_message` call.
    """

    def __init__(self, window_us: int):
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self._window_bytes: dict = {}  # host -> bytes inside the window
        self._group_bytes: dict = {}  # tuple of hosts -> bytes inside the window, for each of them
        self.total_sent = 0
        self.total_received = 0

    def _account(self, hosts, size: int, at: int, step: int, count: int) -> None:
        # Count the instants at + k·step, 0 <= k < count, inside [0, window_us).
        first = -(at // step) if at < 0 else 0  # the least k with at + k·step >= 0
        inside = min(count, (self.window_us - 1 - at) // step + 1) - first
        if inside > 0:
            window = self._window_bytes if isinstance(hosts, str) else self._group_bytes
            window[hosts] = window.get(hosts, 0) + size * inside

    def on_send(self, host: str, size: int, at: int, step: int = 1, count: int = 1) -> None:
        """Meter `count` messages of `size` bytes sent by `host` at `at`,
        `at + step`, and so on (step >= 1)."""
        self.total_sent += size * count
        self._account(host, size, at, step, count)

    def on_receive(self, host, size: int, at: int, step: int = 1, count: int = 1) -> None:
        """As `on_send`, for messages `host`, or each host of a tuple, receives."""
        self.total_received += size * count * (1 if isinstance(host, str) else len(host))
        self._account(host, size, at, step, count)

    def on_message(self, src: str, dst: str, size: int, sent_at: int, received_at: int) -> None:
        """`on_send` and `on_receive` of one message, each end clipped at its own instant."""
        self.total_sent += size
        self.total_received += size
        window, end = self._window_bytes, self.window_us
        if 0 <= sent_at < end:
            window[src] = window.get(src, 0) + size
        if 0 <= received_at < end:
            window[dst] = window.get(dst, 0) + size

    def host_kb(self, host: str) -> float:
        """KB (1000 bytes) crossing the host over the whole measurement window."""
        groups = sum(size * hosts.count(host) for hosts, size in self._group_bytes.items())
        return (self._window_bytes.get(host, 0) + groups) / 1000.0


class TraceWriter:
    """Optional newline-delimited event trace for debugging and oracle checks."""

    def __init__(self, fh):
        self._fh = fh

    def record(self, at: int, kind: str, host: str, size: int) -> None:
        self._fh.write(
            json.dumps(
                {"t": at, "event": kind, "host": host, "size": size},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        self._fh.write("\n")


class MessageLayer:
    """Message transit over the uniform full mesh, with accounting and trace."""

    def __init__(self, queue: EventQueue, link: LinkParams, meter: BandwidthMeter, tracer=None):
        self.queue = queue
        self.link = link
        self.meter = meter
        self.tracer = tracer
        # Message size -> `transit_delay_us`; the link is frozen, so each size is computed once.
        self.transit_us = functools.cache(functools.partial(transit_delay_us, link))

    def send(self, src: str, dst, size: int, kind: str, on_delivery) -> int:
        """`post` one message now to `dst`, a host or a tuple of hosts; one
        event at the delivery runs `on_delivery()`. Returns the delivery time."""
        delivery = self.post(src, dst, size, kind, self.queue.clock)
        self.queue.schedule(delivery, on_delivery)
        return delivery

    def book(self, src: str, dst: str, size: int, at: int, step: int, count: int) -> int:
        """Meter, without event or trace, `count` messages sent at `at`,
        `at + step`, and so on, whose deliveries trigger nothing; returns the
        first delivery time."""
        wire_size = size + self.link.tls_overhead_bytes
        delivery = at + self.transit_us(size)
        self.meter.on_send(src, wire_size, at, step, count)
        self.meter.on_receive(dst, wire_size, delivery, step, count)
        return delivery

    def post(self, src: str, dst, size: int, kind: str, at: int) -> int:
        """Meter, without event, one message sent at `at` to `dst`, a host or a
        tuple of hosts, and trace both ends of every copy; returns its
        delivery time."""
        wire_size = size + self.link.tls_overhead_bytes
        delivery = at + self.transit_us(size)
        if isinstance(dst, str):
            self.meter.on_message(src, dst, wire_size, at, delivery)
            dst = (dst,)
        else:
            self.meter.on_send(src, wire_size * len(dst), at)
            self.meter.on_receive(dst, wire_size, delivery)
        if self.tracer is not None:
            for _ in dst:
                self.tracer.record(at, f"send:{kind}", src, wire_size)
            for host in dst:
                self.tracer.record(delivery, f"recv:{kind}", host, wire_size)
        return delivery
