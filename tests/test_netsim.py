"""Transit arithmetic, event ordering, stations, and byte conservation."""

import io
from fractions import Fraction

import pytest

from vaxledger.netsim import (
    BandwidthMeter,
    EventQueue,
    LinkParams,
    ServiceStation,
    TraceWriter,
    build_topology,
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
        station = ServiceStation("s")
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 200
        assert station.enqueue(150, 100) == 300

    def test_idle_gap(self):
        station = ServiceStation("s")
        station.enqueue(0, 100)
        assert station.enqueue(500, 100) == 600

    def test_multi_worker(self):
        station = ServiceStation("s", workers=2)
        assert station.enqueue(0, 100) == 100
        assert station.enqueue(0, 100) == 100  # second worker
        assert station.enqueue(0, 100) == 200

    def test_busy_fraction_window(self):
        station = ServiceStation("s", window_us=1000)
        station.enqueue(0, 400)
        station.enqueue(900, 400)  # only 100 of it inside the window
        assert station.busy_fraction(1000) == pytest.approx(0.5)


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

    def test_sub_window_report(self):
        meter = BandwidthMeter(window_us=3_000_000)
        meter.on_send("a", 1000, at=0)
        meter.on_send("a", 2000, at=1_500_000)
        meter.on_receive("a", 4000, at=2_999_999)
        assert meter.bandwidth_report("a", 0, 1) == 1.0
        assert meter.bandwidth_report("a", 1, 2) == 2.0
        assert meter.bandwidth_report("a") == 7.0
        with pytest.raises(ValueError):
            meter.bandwidth_report("a", 0, 4)  # beyond the simulated range
        with pytest.raises(ValueError):
            meter.bandwidth_report("a", -1, 2)


def test_topology_cardinality():
    topology = build_topology(EU_MEMBER_STATES)
    assert len(topology.peers) == 27
    assert len(topology.ordering_hosts) == 10
    with pytest.raises(ValueError):
        build_topology(EU_MEMBER_STATES[:26])


class TestEngineNetProperties:
    def test_byte_conservation(self):
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        _, run = run_level(default_register_config(duration_seconds=5), 4)
        assert run.meter.total_sent == run.meter.total_received

    def test_request_event_count_28tps_60s(self):
        from vaxledger.engine import run_level
        from vaxledger.scenario import default_register_config

        metrics, _ = run_level(default_register_config(), 28)
        assert metrics.request_events == 1680

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
