"""Transit arithmetic, event ordering, stations, and byte conservation."""

import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vaxledger import netsim
from vaxledger.netsim import (
    BandwidthMeter,
    EventQueue,
    LinkParams,
    MessageLayer,
    ServiceStation,
    TraceWriter,
    transit_delay,
    transit_delay_us,
)
from vaxledger.chaincode import ChaincodeContext, verify_certificate
from vaxledger.credential import CertificateHash
from vaxledger.ledger import EU_MEMBER_STATES
from vaxledger.ordering import BatchConfig
from vaxledger.scenario import DEFAULT_PROFILE


class TestTransitDelay:
    def test_one_megabit_plus_latency(self):
        # 125,000 bytes on the wire = 1 Mbit = 1 ms at 1 Gbps, plus 3 ms latency
        link = LinkParams(latency_us=3000, bandwidth_bps=10**9, tls_overhead_bytes=60)
        assert transit_delay(link, 124_940) == Fraction(4000)  # 4.0 ms

    def test_small_message(self):
        link = LinkParams(latency_us=3000, bandwidth_bps=10**9, tls_overhead_bytes=60)
        assert transit_delay(link, 65) == Fraction(3001)  # 3.001 ms

    def test_tenth_bandwidth_scales_transmission_only(self):
        fast = LinkParams(latency_us=3000, bandwidth_bps=10**9)
        slow = LinkParams(latency_us=3000, bandwidth_bps=10**8)
        for size in (1, 61, 125, 7000, 124_940):
            fast_tx = transit_delay(fast, size) - fast.latency_us
            slow_tx = transit_delay(slow, size) - slow.latency_us
            assert slow_tx == 10 * fast_tx
            assert transit_delay(slow, size) - slow_tx == transit_delay(fast, size) - fast_tx

    @settings(max_examples=300, deadline=None)
    @given(
        latency=st.integers(0, 10**6),
        bandwidth=st.integers(1, 10**10),
        overhead=st.integers(0, 200),
        size=st.integers(1, 10**7),
    )
    @example(latency=3000, bandwidth=10**9, overhead=60, size=100)
    def test_quantized_is_ceiling(self, latency, bandwidth, overhead, size):
        link = LinkParams(latency_us=latency, bandwidth_bps=bandwidth, tls_overhead_bytes=overhead)
        exact = transit_delay(link, size)
        bits = (size + overhead) * 8
        assert transit_delay_us(link, size) == -(-exact.numerator // exact.denominator)
        assert transit_delay_us(link, size) == latency + -(-bits * 10**6 // bandwidth)
        with pytest.raises(ValueError):
            transit_delay_us(link, 0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            transit_delay(LinkParams(), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        latency=st.integers(0, 10**6),
        bandwidth=st.integers(1, 10**10),
        overhead=st.integers(0, 200),
        sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=20),
    )
    def test_memoized_transit_equals_transit_delay_us(self, latency, bandwidth, overhead, sizes):
        link = LinkParams(latency_us=latency, bandwidth_bps=bandwidth, tls_overhead_bytes=overhead)
        layer = MessageLayer(EventQueue(), link, BandwidthMeter(window_us=1))
        for size in sizes + sizes:  # each size computed once, then read from the memo
            assert layer.transit_us(size) == transit_delay_us(link, size)
        with pytest.raises(ValueError):
            layer.transit_us(0)

    def test_bad_link_params_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkParams(latency_us=-1)
        with pytest.raises(ValueError, match="tls overhead"):
            LinkParams(tls_overhead_bytes=-1)


class TestEventQueue:
    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(100, lambda: None)
        q.run_until(100)
        with pytest.raises(ValueError):
            q.schedule(99, lambda: None)

    def test_equal_times_fire_in_insertion_order(self):
        q = EventQueue()
        fired = []
        q.schedule(50, lambda: fired.append("a"))
        q.schedule(50, lambda: fired.append("b"))
        q.schedule(50, lambda: fired.append("c"))
        q.run_until(50)
        assert fired == ["a", "b", "c"]

    def test_schedule_at_clock_fires_next(self):
        q = EventQueue()
        fired = []
        q.schedule(0, lambda: fired.append(1))
        q.run_until(0)
        assert fired == [1]

    def test_empty_queue_advances_clock(self):
        q = EventQueue()
        assert q.run_until(10_000) == 0
        assert q.clock == 10_000

    def test_run_past_the_event_limit_raises(self, monkeypatch):
        """A run that keeps scheduling events stops at `MAX_EVENTS` instead of looping on."""
        monkeypatch.setattr(netsim, "MAX_EVENTS", 3)
        q = EventQueue()

        def again():
            q.schedule(q.clock + 1, again)

        q.schedule(0, again)
        with pytest.raises(RuntimeError, match="safety limit"):
            q.run_until()


class TestServiceStation:
    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            ServiceStation(window_us=1, workers=0)
        with pytest.raises(ValueError, match="window"):
            ServiceStation(window_us=0)

    def test_fifo_backlog(self):
        station = ServiceStation(window_us=10_000)
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 200
        assert station.enqueue(150, 100) == 300

    def test_idle_gap(self):
        station = ServiceStation(window_us=10_000)
        station.enqueue(0, 100)
        assert station.enqueue(500, 100) == 600

    def test_multi_worker(self):
        station = ServiceStation(window_us=10_000, workers=2)
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 100  # second worker
        assert station.enqueue(0, 100) == 200

    def test_busy_fraction_window(self):
        station = ServiceStation(window_us=1000)
        station.enqueue(0, 400)
        station.enqueue(900, 400)  # only 100 of it inside the window
        assert station.busy_fraction() == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        workers=st.sampled_from((1, 18)),
        jobs=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 2000)), max_size=60),
        window=st.integers(1, 20_000),
    )
    def test_enqueue_at_booking_matches_enqueue_from_events(self, workers, jobs, window):
        """Jobs offered at non-decreasing times are served alike whether each
        enters the station when it is booked or from an event at its instant:
        the premise on which the engine enters its stations at booking time."""
        booked, dispatched = ServiceStation(window, workers), ServiceStation(window, workers)
        queue = EventQueue()
        now, booked_finishes, dispatched_finishes = 0, [], []
        for gap, service in jobs:
            now += gap
            booked_finishes.append(booked.enqueue(now, service))
            queue.schedule(
                now, lambda s=service: dispatched_finishes.append(dispatched.enqueue(queue.clock, s))
            )
        queue.drain()
        assert booked_finishes == dispatched_finishes
        assert booked.busy_us == dispatched.busy_us
        assert booked.offered_us == dispatched.offered_us
        assert booked.free_at == dispatched.free_at

    @settings(max_examples=300, deadline=None)
    @given(workers=st.sampled_from((1, 2, 18)), window=st.integers(1, 5000), data=st.data())
    def test_heap_matches_first_earliest_free_worker_list(self, workers, window, data):
        """The heap station serves any job sequence, in any `now` order, as a
        list of free times does when each job takes the first worker with the
        least free time; only the order of `free_at` may differ."""
        jobs = data.draw(st.lists(
            st.tuples(st.integers(0, 2 * window), st.integers(0, window)), max_size=80
        ))
        free_at, busy, offered, finishes = [0] * workers, 0, 0, []
        for now, service in jobs:
            worker = free_at.index(min(free_at))
            start = max(now, free_at[worker])
            finish = start + service
            free_at[worker] = finish
            offered += service
            busy += max(0, min(finish, window) - min(start, window))
            finishes.append(finish)
        station = ServiceStation(window, workers)
        assert [station.enqueue(now, service) for now, service in jobs] == finishes
        assert (station.busy_us, station.offered_us) == (busy, offered)
        assert sorted(station.free_at) == sorted(free_at)


class TestBandwidthMeter:
    @pytest.mark.parametrize("window_us", [0, -1])
    def test_nonpositive_window_rejected(self, window_us):
        with pytest.raises(ValueError):
            BandwidthMeter(window_us=window_us)

    def test_no_traffic(self):
        meter = BandwidthMeter(window_us=1_000_000)
        assert meter.host_kb("peer-DE") == 0.0

    def test_kb_counted_at_both_ends(self):
        meter = BandwidthMeter(window_us=1_000_000)
        meter.on_send("a", 1000, at=0)
        meter.on_receive("b", 1000, at=500)
        assert meter.host_kb("a") == 1.0
        assert meter.host_kb("b") == 1.0

    def test_window_clipping(self):
        meter = BandwidthMeter(window_us=1000)
        meter.on_send("a", 500, at=1000)  # outside the window
        assert meter.host_kb("a") == 0.0
        assert meter.total_sent == 500  # still in the conservation totals

    def test_window_edge(self):
        meter = BandwidthMeter(window_us=3_000_000)
        meter.on_send("a", 1000, at=0)
        meter.on_receive("a", 4000, at=2_999_999)  # W - 1 counts
        meter.on_send("a", 2000, at=3_000_000)  # W does not
        assert meter.host_kb("a") == 5.0
        assert meter.total_sent == 3000


def _window_bytes(meter, hosts):
    return {host: round(meter.host_kb(host) * 1000) for host in hosts}


class TestSingleHostMetering:
    """A host named alone is metered as the one-host tuple would be."""

    @settings(max_examples=200, deadline=None)
    @given(
        at=st.integers(-10, 1_200_000),
        step=st.integers(1, 400_000),
        count=st.integers(0, 40),
        size=st.integers(1, 20_000),
    )
    def test_single_host_equals_one_host_tuple(self, at, step, count, size):
        alone, in_tuple = BandwidthMeter(window_us=1_000_000), BandwidthMeter(window_us=1_000_000)
        alone.on_receive("h", size, at, step, count)
        in_tuple.on_receive(("h",), size, at, step, count)
        assert _window_bytes(alone, "h") == _window_bytes(in_tuple, "h")
        assert alone.total_received == in_tuple.total_received == size * count
        sent = BandwidthMeter(window_us=1_000_000)
        sent.on_send("h", size, at, step, count)
        assert _window_bytes(sent, "h") == _window_bytes(in_tuple, "h")
        assert sent.total_sent == size * count


class _PerHostMeter:
    """Reference meter: every copy of every message is clipped and added to
    its own host's bytes, one at a time."""

    def __init__(self, window_us):
        self.window_us = window_us
        self.bytes = {}
        self.total_sent = self.total_received = 0

    def add(self, host, size, at, step=1, count=1):
        for k in range(count):
            if 0 <= at + k * step < self.window_us:
                self.bytes[host] = self.bytes.get(host, 0) + size


_HOSTS = ("a", "b", "c", "d")
_AT = st.integers(0, 1_000_010) | st.integers(999_990, 1_000_010)  # the window end is 10**6
_SERIES_AT = _AT | st.integers(-1_000_000, -1)  # a series may start before the window
_METER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("fanout"), st.lists(st.sampled_from(_HOSTS), min_size=1, max_size=6)
                  .map(tuple), st.integers(1, 5000), _AT),
        st.tuples(st.just("post"), st.sampled_from(_HOSTS), st.sampled_from(_HOSTS),
                  st.integers(1, 5000), _AT, st.integers(0, 20)),
        st.tuples(st.just("series"), st.sampled_from(_HOSTS), st.sampled_from(_HOSTS),
                  st.integers(1, 5000), _SERIES_AT, st.integers(1, 400_000), st.integers(0, 8)),
    ),
    max_size=12,
)


class TestGroupMetering:
    """A fan-out is one bucket of its host group; each host reads the bytes it
    would hold had every copy been added to it alone."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_METER_OPS)
    def test_host_kb_equals_per_host_reference(self, ops):
        meter, ref = BandwidthMeter(window_us=1_000_000), _PerHostMeter(1_000_000)
        for op in ops:
            if op[0] == "fanout":
                _, hosts, size, at = op
                meter.on_receive(hosts, size, at)
                for host in hosts:
                    ref.add(host, size, at)
                ref.total_received += size * len(hosts)
            elif op[0] == "post":
                _, src, dst, size, at, lag = op
                meter.on_message(src, dst, size, at, at + lag)
                ref.add(src, size, at)
                ref.add(dst, size, at + lag)
                ref.total_sent += size
                ref.total_received += size
            else:
                _, src, dst, size, at, step, count = op
                meter.on_send(src, size, at, step, count)
                meter.on_receive(dst, size, at + 7, step, count)
                ref.add(src, size, at, step, count)
                ref.add(dst, size, at + 7, step, count)
                ref.total_sent += size * count
                ref.total_received += size * count
        for host in _HOSTS:
            assert meter.host_kb(host) == ref.bytes.get(host, 0) / 1000.0, host
        assert (meter.total_sent, meter.total_received) == (ref.total_sent, ref.total_received)


class TestSeriesBooking:
    """`book` meters a whole series the way single messages would, one by one."""

    WINDOW = 1_000_000

    @settings(max_examples=300, deadline=None)
    @given(
        at=st.integers(0, 1_200_000),
        step=st.integers(1, 400_000),
        count=st.integers(0, 40),
        size=st.integers(1, 20_000),
        latency=st.integers(0, 300_000),
        data=st.data(),
    )
    def test_series_matches_single_messages(self, at, step, count, size, latency, data):
        link = LinkParams(latency_us=latency)
        wire, transit = size + link.tls_overhead_bytes, transit_delay_us(link, size)
        if count and data.draw(st.booleans()):
            # land one send, or one delivery, on the window end or one off it
            k = data.draw(st.integers(0, count - 1))
            lag = data.draw(st.sampled_from((0, transit)))
            at = max(0, self.WINDOW + data.draw(st.integers(-1, 1)) - lag - k * step)
        meter = BandwidthMeter(window_us=self.WINDOW)
        delivery = MessageLayer(EventQueue(), link, meter).book("a", "b", size, at, step, count)

        expected = {"a": 0, "b": 0}
        for k in range(count):
            sent_at = at + k * step
            if sent_at < self.WINDOW:
                expected["a"] += wire
            if sent_at + transit < self.WINDOW:
                expected["b"] += wire
        assert delivery == at + transit
        assert _window_bytes(meter, "ab") == expected
        assert meter.total_sent == meter.total_received == wire * count

    @settings(max_examples=100, deadline=None)
    @given(
        now=st.integers(0, 1_200_000),
        copies=st.integers(1, 27),
        size=st.integers(1, 20_000),
        latency=st.integers(0, 300_000),
        data=st.data(),
        via=st.sampled_from(("send", "post")),
    )
    def test_fan_out_matches_per_copy_metering(self, now, copies, size, latency, data, via):
        """A fan-out, sent now or posted at `now`, meters and traces every copy
        as if each were a message of its own."""
        link = LinkParams(latency_us=latency)
        wire, transit = size + link.tls_overhead_bytes, transit_delay_us(link, size)
        if data.draw(st.booleans()):
            # the send, or the delivery, on the window end or one off it
            lag = data.draw(st.sampled_from((0, transit)))
            now = max(0, self.WINDOW + data.draw(st.integers(-1, 1)) - lag)
        queue, meter, trace = EventQueue(), BandwidthMeter(window_us=self.WINDOW), io.StringIO()
        net = MessageLayer(queue, link, meter, TraceWriter(trace))
        dsts = tuple(f"d{i}" for i in range(copies))
        if via == "send":
            queue.run_until(now)
            assert net.send("s", dsts, size, "block", lambda: None) == now + transit
            queue.drain()
        else:
            assert net.post("s", dsts, size, "block", now) == now + transit
            assert queue.processed == 0

        expected = {"s": wire * copies if now < self.WINDOW else 0}
        expected.update({d: wire if now + transit < self.WINDOW else 0 for d in dsts})
        assert _window_bytes(meter, expected) == expected
        assert meter.total_sent == meter.total_received == wire * copies
        records = [json.loads(line) for line in trace.getvalue().splitlines()]
        assert records == (
            [{"t": now, "event": "send:block", "host": "s", "size": wire}] * copies
            + [{"t": now + transit, "event": "recv:block", "host": d, "size": wire} for d in dsts]
        )

    @settings(max_examples=300, deadline=None)
    @given(
        messages=st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc"), st.integers(-5, 1_200_000),
                      st.sampled_from((None, 0, 1))),
            min_size=1, max_size=8,
        ),
        size=st.integers(1, 20_000),
        latency=st.integers(0, 300_000),
    )
    def test_post_meters_as_one_message_series(self, messages, size, latency):
        """`post` meters each message as `book(src, dst, size, at, 1, 1)` does:
        the sender at `at` and the receiver at the delivery, each clipped by
        the series formula for one message. A non-None end pins the send
        (0) or the delivery (1) to the window end, or one off it."""
        link = LinkParams(latency_us=latency)
        wire, transit = size + link.tls_overhead_bytes, transit_delay_us(link, size)
        meter = BandwidthMeter(window_us=self.WINDOW)
        net = MessageLayer(EventQueue(), link, meter)
        expected = dict.fromkeys("abc", 0)
        for k, (src, dst, at, end) in enumerate(messages):
            if end is not None:
                at = self.WINDOW + k % 3 - 1 - end * transit
            assert net.post(src, dst, size, "x", at) == at + transit
            for host, t in ((src, at), (dst, at + transit)):
                if 0 <= t < self.WINDOW:
                    expected[host] += wire * min(1, (self.WINDOW - 1 - t) // 1 + 1)
        assert _window_bytes(meter, "abc") == expected
        assert meter.total_sent == meter.total_received == wire * len(messages)

    @settings(max_examples=100, deadline=None)
    @given(
        now=st.integers(0, 1_200_000),
        size=st.integers(1, 20_000),
        latency=st.integers(0, 300_000),
        data=st.data(),
    )
    def test_send_to_host_equals_send_to_one_host_tuple(self, now, size, latency, data):
        """A receiver named alone is metered and traced as the one-host tuple
        is: both ends when the message is sent."""
        link = LinkParams(latency_us=latency)
        wire, transit = size + link.tls_overhead_bytes, transit_delay_us(link, size)
        if data.draw(st.booleans()):
            lag = data.draw(st.sampled_from((0, transit)))
            now = max(0, self.WINDOW + data.draw(st.integers(-1, 1)) - lag)
        outcomes = []
        for dst in ("h", ("h",)):
            queue, meter, trace = EventQueue(), BandwidthMeter(window_us=self.WINDOW), io.StringIO()
            queue.run_until(now)
            delivered = []
            net = MessageLayer(queue, link, meter, TraceWriter(trace))
            delivery = net.send("s", dst, size, "x", lambda: delivered.append(queue.clock))
            in_flight = meter.total_sent, meter.total_received
            queue.drain()
            outcomes.append((delivery, delivered, in_flight, _window_bytes(meter, ("s", "h")),
                             meter.total_sent, meter.total_received, trace.getvalue()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:3] == (now + transit, [now + transit], (wire, wire))

    def test_fan_out_is_metered_at_both_ends_when_sent(self):
        queue, meter = EventQueue(), BandwidthMeter(window_us=self.WINDOW)
        MessageLayer(queue, LinkParams(), meter).send("s", ("a", "b"), 100, "x", lambda: None)
        assert meter.total_sent == meter.total_received == 2 * 160
        queue.drain()
        assert meter.total_sent == meter.total_received == 2 * 160


def test_topology_cardinality():
    from vaxledger.engine import ORDERING_HOSTS, PEER_HOSTS

    assert PEER_HOSTS == tuple(f"peer-{ms}" for ms in EU_MEMBER_STATES)
    assert len(PEER_HOSTS) == 27
    assert ORDERING_HOSTS == (
        "coordinator-0", "coordinator-1", "coordinator-2",
        "broker-0", "broker-1", "broker-2", "broker-3",
        "sequencer-0", "sequencer-1", "sequencer-2",
    )


def test_netsim_imports_only_the_standard_library():
    """The network core is generic: no host roster, no other vaxledger module."""
    import ast
    import sys

    import vaxledger.netsim

    tree = ast.parse(Path(vaxledger.netsim.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "netsim must not import from its own package"
            imported.add(node.module.split(".")[0])
    assert imported and imported <= set(sys.stdlib_module_names)


class TestEngineNetProperties:
    def test_byte_conservation(self):
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        _, run = run_level(default_register_config(duration_seconds=5), 4)
        assert run.meter.total_sent == run.meter.total_received

    @pytest.mark.parametrize(
        "step, digest, total",
        [
            ("register", "ffa4b410b730d804c3e2a1f911db2b8e356745ee9d08cf054f784b62a2f0303f", 634_262_400),
            ("verify", "b7ecc91849bc06f0cd2191a93f89aeacd458cb92c4c1f3c48905dde0bf6b1504", 287_443_200),
        ],
    )
    def test_per_host_window_bytes_pinned(self, step, digest, total):
        """Integer bytes per host inside the window at 28 TPS on the default
        configs; any change to heartbeat or window-edge metering shows here."""
        from vaxledger.engine import ORDERING_HOSTS, PEER_HOSTS, run_level
        from vaxledger.scenario import default_register_config, default_verify_config

        config = default_register_config() if step == "register" else default_verify_config()
        _, run = run_level(config, 28)
        hosts = PEER_HOSTS + ORDERING_HOSTS + tuple(f"client-{ms}" for ms in EU_MEMBER_STATES)
        rows = sorted(_window_bytes(run.meter, hosts).items())
        text = ";".join(f"{host}={n}" for host, n in rows if n) + f"|{run.meter.total_sent}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert run.meter.total_sent == run.meter.total_received == total

    def test_request_event_count_28tps_60s(self):
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        metrics, run = run_level(default_register_config(), 28)
        assert metrics.requests == run.started == 1680
        # endorse finish, orderer finish and broker arrival per request, plus
        # block deliveries and batch timers; the proposal, the envelope to the
        # sequencer, the endorse and orderer stations, the commit station and
        # the response are booked where their order is fixed
        assert metrics.processed_events == 6_720

    def test_trace_determinism(self):
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_verify_config

        traces = []
        for _ in range(2):
            buf = io.StringIO()
            metrics, _ = run_level(
                default_verify_config(duration_seconds=3, preloaded_records=50),
                8,
                tracer=TraceWriter(buf),
            )
            traces.append(buf.getvalue())
        assert traces[0] == traces[1]
        # query send/recv and response send/recv per request; heartbeats are
        # metered without trace records
        assert traces[0].count("\n") == 4 * metrics.requests
        assert "heartbeat" not in traces[0]
        # a verify request is booked through the query pool with no event
        assert metrics.requests == 24
        assert metrics.processed_events == 0

    def test_keepalive_bytes_follow_coordinator_faults(self):
        """The lead coordinator hands over as coordinators fail, and no
        keepalive flows while all three are down (2.5 s to 3 s)."""
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        faults = (
            (1, "coordinator", 0, "down"),
            (2, "coordinator", 1, "down"),
            (2.5, "coordinator", 2, "down"),
            (3, "coordinator", 0, "up"),
            (4, "coordinator", 1, "up"),
        )
        metrics, run = run_level(
            default_register_config(duration_seconds=5, fault_schedule=faults), 4
        )
        expected_kb = {
            "coordinator-0": 3267.0,
            "coordinator-1": 1188.0,
            "coordinator-2": 594.0,
            "peer-DE": 1526.16,
        }
        for host, kb in expected_kb.items():
            assert run.meter.host_kb(host) == pytest.approx(kb, abs=1e-9)
        assert metrics.peer_bandwidth_kb == pytest.approx(306.644, abs=1e-9)
        assert metrics.ordering_bandwidth_kb == pytest.approx(1491.204, abs=1e-9)
        assert metrics.error_count == 8

    @pytest.mark.parametrize(
        "fault_at, kb0, kb1", [(0.25, 0.0, 891.0), (0.5, 297.0, 594.0)]
    )
    def test_fault_applies_before_keepalive_tick_at_its_instant(self, fault_at, kb0, kb1):
        """Ticks are at 0.25, 0.5 and 0.75 s in window; a fault at a tick's
        instant, the first one included, moves that tick's keepalives."""
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        faults = ((fault_at, "coordinator", 0, "down"),)
        _, run = run_level(
            default_register_config(duration_seconds=1, fault_schedule=faults), 4
        )
        assert run.meter.host_kb("coordinator-0") == pytest.approx(kb0, abs=1e-9)
        assert run.meter.host_kb("coordinator-1") == pytest.approx(kb1, abs=1e-9)

    def test_simulate_trace_bytes_pinned(self, tmp_path):
        """The raw `simulate --trace` file of a short register level with a
        broker fault and a two-broker outage: 14 blocks, each traced as 27
        send and 27 receive records, in peer order. No flow digest hashes
        those per-copy records, so their order is pinned here."""
        import json

        from click.testing import CliRunner

        from vaxledger.cli import main

        config = {
            "step": "register",
            "tps_levels": [28],
            "duration_seconds": 1,
            "fault_schedule": [
                [0.3, "broker", 0, "down"],
                [0.45, "broker", 1, "down"],
                [0.5, "broker", 1, "up"],
                [0.6, "broker", 0, "up"],
            ],
        }
        config_path, trace = tmp_path / "scenario.json", tmp_path / "trace.ndjson"
        config_path.write_text(json.dumps(config))
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config_path), "--trace", str(trace)]
        )
        assert result.exit_code == 0, result.output
        raw = trace.read_bytes()
        assert raw.count(b'"event":"recv:block"') == 14 * 27
        assert hashlib.sha256(raw).hexdigest() == (
            "a7261edf313bf95433669dccd0ffcd8a4189cf0f64b581b03147c20cb99b917a"
        )

    def test_causality_no_early_delivery(self):
        """Every recv in the trace happens at least link latency after a
        matching send of the same size from some host."""
        import json

        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        buf = io.StringIO()
        config = default_register_config(duration_seconds=2)
        run_level(config, 4, tracer=TraceWriter(buf))
        pending = {}
        checked = 0
        for line in buf.getvalue().splitlines():
            record = json.loads(line)
            kind = record["event"].split(":", 1)
            key = (record["event"].split(":", 1)[1], record["size"])
            if record["event"].startswith("send:"):
                pending.setdefault(key, []).append(record["t"])
            else:
                sends = pending.get(key)
                assert sends, record
                sent_at = sends.pop(0)
                assert record["t"] >= sent_at + config.link.latency_us
                checked += 1
        assert checked > 50


# Levels whose request flows the flow digests pin: every default level
# (the session's `default_levels`, which `run_scenario` would run alike), and a
# fixed set of Poisson, one-transaction-batch and faulted levels. The broker
# flap puts a fault on the instant of request 9's proposal delivery (321,429
# + 3,025 µs) and one on request 17's endorse finish (607,143 + 16,025 µs),
# so a change in how those ties order shows.
_FAULTED = dict(
    duration_seconds=1, tps_levels=(28,), batch=BatchConfig(max_message_count=10)
)
FLOW_LEVELS = {
    "sequencer-outage": (
        dict(_FAULTED, fault_schedule=((0.5, "sequencer", 0, "down"), (0.5, "sequencer", 1, "down"))),
        28,
    ),
    "broker-flap": (
        dict(
            _FAULTED,
            duration_seconds=2,
            fault_schedule=(
                (0.324454, "broker", 0, "down"),
                (0.4, "broker", 1, "down"),
                (0.623168, "broker", 0, "up"),
                (0.9, "broker", 1, "up"),
                (1.2, "broker", 3, "down"),
            ),
        ),
        28,
    ),
    "max-count-1": (dict(batch=BatchConfig(max_message_count=1), duration_seconds=10), 28),
    "poisson-register": (dict(arrival_mode="poisson", duration_seconds=10), 28),
    # Zero service times and 1 ms batches put many hops on one instant.
    "zero-service-poisson": (
        dict(
            arrival_mode="poisson",
            duration_seconds=1,
            service_profile=dataclasses.replace(
                DEFAULT_PROFILE,
                endorse_ms=0,
                orderer_per_envelope_ms=0,
                commit_per_tx_ms=0,
                rest_overhead_ms=0,
            ),
            batch=BatchConfig(max_message_count=3, batch_timeout_ms=1),
            fault_schedule=(
                (0.2, "broker", 0, "down"),
                (0.3, "sequencer", 0, "down"),
                (0.35, "sequencer", 1, "down"),
                (0.4, "sequencer", 0, "up"),
                (0.6, "broker", 1, "down"),
                (0.65, "broker", 0, "up"),
                (0.8, "sequencer", 1, "up"),
            ),
        ),
        400,
    ),
    # Sequencer 0 fails on request 4's endorse finish (142,857 + 16,025 µs)
    # and broker 0 on request 7's orderer finish (250,000 + 21,882 µs), each
    # the second instance of its role down; either fault 1 µs later changes
    # the digest.
    "faults-on-finishes": (
        dict(
            _FAULTED,
            fault_schedule=(
                (0.1, "sequencer", 2, "down"),
                (0.158882, "sequencer", 0, "down"),
                (0.2, "sequencer", 2, "up"),
                (0.25, "broker", 1, "down"),
                (0.271882, "broker", 0, "down"),
                (0.3, "broker", 1, "up"),
            ),
        ),
        28,
    ),
}


def _flow_digest(metrics, run) -> str:
    """SHA-256 over what a level's request flows produce: responses in
    order, the busy and offered times and the sorted free-at times (the
    multiset, not the heap's order) of every station the level built,
    per-host window bytes, meter totals, request counters, the provisioned
    records that `verify_certificate` does not find, metrics but the event
    count, and the ledger's state digest and tip."""
    from vaxledger.engine import ORDERING_HOSTS, PEER_HOSTS

    stations = [station for group in run.stations.values() for station in group]
    hosts = PEER_HOSTS + ORDERING_HOSTS + tuple(f"client-{ms}" for ms in EU_MEMBER_STATES)
    not_found = sum(
        not verify_certificate(
            ChaincodeContext(caller=tx.submitter, state=run.state),
            CertificateHash(bytes.fromhex(tx.write_set[0][1]["cert_hash"])),
        ).found
        for tx in run.provisioned
    )
    counters = (run.started, run.completed, run.errors, run.accepted, run.committed,
                run.invalid_txs, not_found)
    fields = dataclasses.asdict(metrics)
    del fields["processed_events"]
    parts = [
        ",".join(map(str, run.responses_us)),
        ";".join(f"{s.busy_us}/{s.offered_us}/{sorted(s.free_at)}" for s in stations),
        ";".join(f"{host}={n}" for host, n in _window_bytes(run.meter, hosts).items() if n),
        f"{run.meter.total_sent}/{run.meter.total_received}",
        repr(counters),
        repr(sorted(fields.items())),
        run.state.digest().hex(),
        run.chain.tip_hash.hex(),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def flow_digests(default_levels):
    """Flow digest per level, keyed "<step>@<tps>" or by FLOW_LEVELS name."""
    from vaxledger.engine import run_level
    from vaxledger.scenario import default_register_config

    digests = {}
    for step, (config, setup, runs) in default_levels.items():
        for level, (metrics, run) in zip(config.tps_levels, runs):
            digests[f"{step}@{level}"] = _flow_digest(metrics, run)
    # A setup world depends on step and seed, which these share.
    config, setup, _runs = default_levels["verify"]
    for name, overrides, tps in (
        ("poisson-verify", dict(arrival_mode="poisson"), 100),
        ("faulted-verify", dict(fault_schedule=((0.2, "coordinator", 0, "down"),
                                                (0.5, "broker", 2, "down"))), 8),
    ):
        level_config = dataclasses.replace(config, **overrides)
        digests[name] = _flow_digest(*run_level(level_config, tps, setup=setup))
    for name, (overrides, tps) in FLOW_LEVELS.items():
        digests[name] = _flow_digest(*run_level(default_register_config(**overrides), tps))
    return digests


class TestFlowEquivalence:
    """Per-level digests of the request flows' results. Any change to when a
    request is served, answered or metered, or to how ties order, shows here."""

    PINNED = {
        "register@1": "0b618e3f56113a371199fd6cb53aeea5b977e48335767612891059b9f0c5d254",
        "register@2": "f2aca5092f4c97323ae2df0382f92335c63261a368a21eef43fba639d9b3d76b",
        "register@4": "a47a943dfff0c2d7e969cd2a10ce29b2295410650b1d51923ab925207aa84c51",
        "register@8": "95b0defbb6a3dd7a9d2c0c745a522e51dbb8a4b1ea027add922b0c22ba81d071",
        "register@16": "8cc88b9325ab36c5dbfbe4619e7aaa6f3f9ec397089449ddf0fd547502bfe9b3",
        "register@28": "e664d4e41d5311a315185c79e7ab0b83464d9bbb9989ae60f42e6ad9d53ee76a",
        "verify@1": "8c5380718bc910691042a616ea7730e610e1815038677252132eaeff6bbcbb34",
        "verify@2": "0ab2a716c5c21abd9c54b7f3154245672722418bd6d9db62b487c8f5fba10801",
        "verify@4": "cdfbbf17d1b5b7406fc2ba97fef52aef5ae06d0abfe9ba3a7677ce5f40170af5",
        "verify@8": "19d271b96af5c567075901261f5df5a6d3d71d31d645dded7a47e69455135d62",
        "verify@16": "6c345ef9f5d9e34bee0f6bc6513c36f32be445a761f558eaaf526a827014ce0e",
        "verify@28": "68da118d2fb3ccc536010ed2b608a2cd47b9ced24dc8d9292e58f795fd6fb1c3",
        "verify@50": "dfdbf309a1237e5a9e07eda87942775e01d36fd7547b3f4554fba429804e43d6",
        "verify@100": "d742f40c0938ce1b4f92488687e3c52452756c6383cba9d616eab09f551a1cc6",
        "poisson-verify": "c1739d83bcc0c4f59d36fe52bf9d3dd4c06fd82e74c56de57ce0d77b941f8118",
        "faulted-verify": "5741166814d88de953475cc0cc69bca5e40bbc08bb7cc9a4431dcde5833d01c3",
        "sequencer-outage": "7163d90ea2bf241be007bdb8dee43c33840f91e75bdd78a877e77f51b9956e2d",
        "broker-flap": "713cccda59c2a84f50df21f5470172d5f74a4d678d54d683789ea48cee9d969d",
        "max-count-1": "4c021b2d1d0da669d22a746345d1347b86180ff6e3b2da5a38bcff59bd78d27a",
        "poisson-register": "b12bf7699553c06a3036d8fb3f7099c8e570542357065bed0f98e8736574e30d",
        "zero-service-poisson": "58a3d90b901f9d6cc271bb15ee1bb85cd871edc139954c0ddc2195af264de7d1",
        "faults-on-finishes": "7d5fc9f359f2992dca3a648b4ac092c5a92dd6a238a1cfb4666818841db231a1",
    }

    def test_flow_digests_pinned(self, flow_digests):
        assert flow_digests == self.PINNED
