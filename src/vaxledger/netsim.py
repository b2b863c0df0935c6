"""Deterministic discrete-event network core: clock, links, stations, meters.

Simulated time is integer microseconds; ties fire in insertion order. Link
transit is latency plus transmission, with the TLS framing cost folded in as a
constant per-message byte overhead. `transit_delay` returns the exact rational
delay; the event layer quantizes it with ceiling division so the hot path
stays in pure integer arithmetic.

Every host is a flat-mesh endpoint. Per-role service stations are FIFO queues
with a configurable worker count (1 for everything except the content-query
pool); queueing delay emerges from occupancy rather than being modeled
directly.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "LinkParams",
    "Topology",
    "build_topology",
    "transit_delay",
    "transit_delay_us",
    "EventQueue",
    "ServiceStation",
    "BandwidthMeter",
    "TraceWriter",
    "MessageLayer",
]

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


@dataclass(frozen=True)
class Topology:
    """27 peer hosts plus the ten ordering hosts, full mesh, uniform links."""

    peers: tuple
    ordering_hosts: tuple
    link: LinkParams

    def __post_init__(self):
        if len(self.peers) != 27:
            raise ValueError(f"expected exactly 27 peer hosts, got {len(self.peers)}")
        if len(self.ordering_hosts) != 10:
            raise ValueError(f"expected 10 ordering hosts, got {len(self.ordering_hosts)}")


def build_topology(member_states, link: LinkParams | None = None) -> Topology:
    link = link or LinkParams()
    peers = tuple(f"peer-{ms}" for ms in member_states)
    ordering = tuple(
        [f"coordinator-{i}" for i in range(3)]
        + [f"broker-{i}" for i in range(4)]
        + [f"sequencer-{i}" for i in range(3)]
    )
    return Topology(peers=peers, ordering_hosts=ordering, link=link)


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
    """Ceiling-quantized transit delay used by the event layer."""
    if size_bytes <= 0:
        raise ValueError("message size must be positive")
    bits = (size_bytes + link.tls_overhead_bytes) * 8
    transmission = -(-bits * 1_000_000 // link.bandwidth_bps)
    return link.latency_us + transmission


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

    def __len__(self) -> int:
        return len(self._heap)

    def run_until(self, t_end: int) -> int:
        """Process all events with time <= t_end; clock lands on t_end."""
        count = 0
        while self._heap and self._heap[0][0] <= t_end:
            at, _seq, callback = heapq.heappop(self._heap)
            self.clock = at
            callback()
            count += 1
        self.clock = max(self.clock, t_end)
        self.processed += count
        return count

    def drain(self, max_events: int = 50_000_000) -> int:
        """Run to exhaustion (used after the measurement window closes)."""
        count = 0
        while self._heap:
            at, _seq, callback = heapq.heappop(self._heap)
            self.clock = at
            callback()
            count += 1
            if count > max_events:
                raise RuntimeError("event drain exceeded safety limit")
        self.processed += count
        return count


class ServiceStation:
    """FIFO service point with `workers` parallel servers.

    `enqueue` books the earliest-available worker and returns the completion
    time; busy time inside [0, window_us] accumulates for the utilization
    report, and every job's service time into `offered_us`, the offered load
    a capacity check compares with window × workers. Queue depth is sampled
    implicitly via busy bookkeeping on the caller's side.
    """

    def __init__(self, name: str, workers: int = 1, window_us: int | None = None):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.name = name
        self.free_at = [0] * workers
        self.busy_us = 0
        self.window_us = window_us
        self.jobs = 0
        self.offered_us = 0

    def enqueue(self, now: int, service_us: int) -> int:
        worker = min(range(len(self.free_at)), key=lambda i: self.free_at[i])
        start = max(now, self.free_at[worker])
        finish = start + service_us
        self.free_at[worker] = finish
        self.jobs += 1
        self.offered_us += service_us
        if self.window_us is None:
            self.busy_us += service_us
        else:
            clipped = max(0, min(finish, self.window_us) - min(start, self.window_us))
            self.busy_us += clipped
        return finish

    def busy_fraction(self, duration_us: int) -> float:
        if duration_us <= 0:
            return 0.0
        return self.busy_us / (duration_us * len(self.free_at))


class BandwidthMeter:
    """Per-host byte accounting, bucketed by simulated second.

    A message of size S (TLS overhead included) counts S at the sender and S
    at the receiver. Traffic outside [0, window_us] is excluded from reports
    but still enters the global totals used by the conservation check.
    """

    def __init__(self, window_us: int):
        self.window_us = window_us
        self._buckets: dict = {}  # host -> {second -> bytes}
        self.total_sent = 0
        self.total_received = 0

    def _account(self, host: str, size: int, at: int) -> None:
        if 0 <= at < self.window_us:
            buckets = self._buckets.setdefault(host, {})
            second = at // 1_000_000
            buckets[second] = buckets.get(second, 0) + size

    def on_send(self, host: str, size_with_overhead: int, at: int) -> None:
        self.total_sent += size_with_overhead
        self._account(host, size_with_overhead, at)

    def on_receive(self, host: str, size_with_overhead: int, at: int) -> None:
        self.total_received += size_with_overhead
        self._account(host, size_with_overhead, at)

    def bandwidth_report(self, host: str, start_s: int = 0, end_s: int | None = None) -> float:
        """KB (1000 bytes) crossing the host in [start_s, end_s) seconds.

        The window must lie within the simulated measurement range; one-second
        bucket granularity.
        """
        window_seconds = self.window_us // 1_000_000
        if end_s is None:
            end_s = window_seconds
        if not 0 <= start_s <= end_s <= window_seconds:
            raise ValueError(f"window [{start_s}, {end_s}) outside [0, {window_seconds}]")
        buckets = self._buckets.get(host, {})
        return sum(v for s, v in buckets.items() if start_s <= s < end_s) / 1000.0

    def host_kb(self, host: str) -> float:
        """KB crossing the host over the whole measurement window."""
        return sum(self._buckets.get(host, {}).values()) / 1000.0

    def host_kb_per_second(self, host: str) -> float:
        seconds = self.window_us / 1_000_000
        return self.host_kb(host) / seconds if seconds > 0 else 0.0


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

    def send(self, src: str, dst, size: int, kind: str, on_delivery) -> int:
        """Dispatch one message now to `dst`, a host or a tuple of hosts each
        metered and traced; one event delivers, running `on_delivery()` once.
        Returns the delivery time."""
        dsts = (dst,) if isinstance(dst, str) else dst
        now = self.queue.clock
        wire_size = size + self.link.tls_overhead_bytes
        for _ in dsts:
            self.meter.on_send(src, wire_size, now)
            if self.tracer is not None:
                self.tracer.record(now, f"send:{kind}", src, wire_size)
        delivery = now + transit_delay_us(self.link, size)

        def deliver():
            for host in dsts:
                self.meter.on_receive(host, wire_size, delivery)
                if self.tracer is not None:
                    self.tracer.record(delivery, f"recv:{kind}", host, wire_size)
            on_delivery()

        self.queue.schedule(delivery, deliver)
        return delivery

    def book(self, src: str, dst: str, size: int, at: int) -> int:
        """Meter, without event or trace, a message sent at `at` whose delivery
        triggers nothing; returns the delivery time."""
        wire_size = size + self.link.tls_overhead_bytes
        delivery = at + transit_delay_us(self.link, size)
        self.meter.on_send(src, wire_size, at)
        self.meter.on_receive(dst, wire_size, delivery)
        return delivery
