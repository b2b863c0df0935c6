"""Transit arithmetic, event ordering, stations, and byte conservation."""

import hashlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from vaxledger.ledger import EU_MEMBER_STATES


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

    def test_quantized_is_ceiling(self):
        link = LinkParams(latency_us=3000, bandwidth_bps=10**9, tls_overhead_bytes=60)
        exact = transit_delay(link, 100)
        assert transit_delay_us(link, 100) == -(-exact.numerator // exact.denominator)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            transit_delay(LinkParams(), 0)

    def test_bad_link_params_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkParams(latency_us=-1)


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


class TestServiceStation:
    def test_fifo_backlog(self):
        station = ServiceStation("s", window_us=10_000)
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 200
        assert station.enqueue(150, 100) == 300

    def test_idle_gap(self):
        station = ServiceStation("s", window_us=10_000)
        station.enqueue(0, 100)
        assert station.enqueue(500, 100) == 600

    def test_multi_worker(self):
        station = ServiceStation("s", window_us=10_000, workers=2)
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 100  # second worker
        assert station.enqueue(0, 100) == 200

    def test_busy_fraction_window(self):
        station = ServiceStation("s", window_us=1000)
        station.enqueue(0, 400)
        station.enqueue(900, 400)  # only 100 of it inside the window
        assert station.busy_fraction() == pytest.approx(0.5)


class TestBandwidthMeter:
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
    )
    def test_fan_out_matches_per_copy_metering(self, now, copies, size, latency, data):
        link = LinkParams(latency_us=latency)
        wire, transit = size + link.tls_overhead_bytes, transit_delay_us(link, size)
        if data.draw(st.booleans()):
            # the send, or the delivery, on the window end or one off it
            lag = data.draw(st.sampled_from((0, transit)))
            now = max(0, self.WINDOW + data.draw(st.integers(-1, 1)) - lag)
        queue, meter = EventQueue(), BandwidthMeter(window_us=self.WINDOW)
        queue.run_until(now)
        dsts = tuple(f"d{i}" for i in range(copies))
        MessageLayer(queue, link, meter).send("s", dsts, size, "block", lambda: None)
        queue.drain()

        expected = {"s": wire * copies if now < self.WINDOW else 0}
        expected.update({d: wire if now + transit < self.WINDOW else 0 for d in dsts})
        assert _window_bytes(meter, expected) == expected
        assert meter.total_sent == meter.total_received == wire * copies

    def test_conservation_checks_messages_in_flight(self):
        queue, meter = EventQueue(), BandwidthMeter(window_us=self.WINDOW)
        MessageLayer(queue, LinkParams(), meter).send("s", ("a", "b"), 100, "x", lambda: None)
        assert meter.total_sent > meter.total_received
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
        # arrival, query delivery, query completion, response delivery per
        # request; keepalives and saturation schedule no events
        assert metrics.processed_events == 4 * metrics.requests == 96

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
