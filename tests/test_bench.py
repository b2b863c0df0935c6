"""Scenario configs, report/CSV plumbing, and calibration behavior."""

import dataclasses
import importlib

import pytest

from vaxledger.bench import (
    CSV_HEADER,
    export_csv,
    render_csv_table,
    report_to_csv_text,
    run_scenario,
)
from vaxledger.calibrate import (
    CalibrationError,
    TargetRow,
    calibrate,
    load_targets,
)
from vaxledger.chaincode import AlreadyRegisteredError
from vaxledger.credential import CertificateHash
from vaxledger.engine import LevelRun, SetupWorld, run_level
from vaxledger.ledger import cert_key
from vaxledger.netsim import LinkParams, transit_delay_us
from vaxledger.ordering import BatchConfig
from vaxledger.scenario import (
    ConfigError,
    DEFAULT_PROFILE,
    REGISTER_TPS_LEVELS,
    ServiceTimeProfile,
    VERIFY_TPS_LEVELS,
    config_from_dict,
    config_to_dict,
    default_register_config,
    default_verify_config,
    load_config,
)
from vaxledger.workload import generate_arrivals


class TestConfigSchema:
    def test_round_trip(self):
        config = default_verify_config(duration_seconds=10, seed=9)
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_top_level_key(self):
        doc = config_to_dict(default_register_config())
        doc["unknown_knob"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = config_to_dict(default_register_config())
        doc["link"]["jitter_us"] = 5
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("field", dataclasses.fields(ServiceTimeProfile), ids=lambda f: f.name)
    def test_profile_field_rules(self, field):
        """Durations may be zero but not negative; sizes, intervals and the
        query pool width must be at least 1."""
        durations = {"endorse_ms", "commit_per_tx_ms", "orderer_per_envelope_ms",
                     "query_per_record_us", "rest_overhead_ms"}
        lowest_ok, bad = (0, (-0.01,)) if field.name in durations else (1, (0, 0.5))
        dataclasses.replace(DEFAULT_PROFILE, **{field.name: lowest_ok})
        for value in bad:
            with pytest.raises(ConfigError):
                dataclasses.replace(DEFAULT_PROFILE, **{field.name: value})

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            config_from_dict({"step": "mine"})
        with pytest.raises(ConfigError):
            config_from_dict({"tps_levels": []})
        with pytest.raises(ConfigError):
            config_from_dict({"duration_seconds": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"fault_schedule": [[0, "nope", 0, "down"]]})
        for index in (0.5, 1.0, "0", True):
            with pytest.raises(ConfigError):
                config_from_dict({"fault_schedule": [[0.5, "sequencer", index, "down"]]})
        for key in ("query_mode", "verify_target"):
            with pytest.raises(ConfigError, match="unknown key"):
                config_from_dict({"step": "verify", key: "worst_case_scan"})

    def test_load_config_file(self, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(default_register_config(duration_seconds=5))))
        assert load_config(path).duration_seconds == 5
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_default_level_sets_match_reference_table(self):
        assert default_register_config().tps_levels == REGISTER_TPS_LEVELS == (1, 2, 4, 8, 16, 28)
        assert default_verify_config().tps_levels == VERIFY_TPS_LEVELS == (1, 2, 4, 8, 16, 28, 50, 100)


@pytest.fixture(scope="module")
def small_register_report():
    return run_scenario(default_register_config(tps_levels=(1, 4), duration_seconds=5))


class TestReportCsv:
    def test_header_and_rows(self, small_register_report):
        text = report_to_csv_text(small_register_report)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("register,1,")
        cells = lines[1].split(",")
        float(cells[2])  # 1-decimal numbers parse
        assert cells[6] in ("true", "false")

    def test_reexport_identical(self, small_register_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(small_register_report, p1)
        export_csv(small_register_report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_report_rejected(self):
        from vaxledger.bench import MetricsReport

        with pytest.raises(ValueError):
            report_to_csv_text(MetricsReport(step="register", levels=()))

    def test_unwritable_path(self, small_register_report, tmp_path):
        with pytest.raises(IOError):
            export_csv(small_register_report, tmp_path / "no" / "such" / "dir.csv")

    def test_render_table(self, small_register_report):
        table = render_csv_table(report_to_csv_text(small_register_report))
        lines = table.splitlines()
        assert "step" in lines[0] and "tps" in lines[0]
        assert set(lines[1]) <= {"-", " "}


class TestScenarioBehavior:
    def test_degenerate_profile_response_is_pure_transmission(self):
        """Zero latency, zero service times: the response is exactly the
        transmission terms plus the 1 ms batch timer."""
        profile = ServiceTimeProfile(
            endorse_ms=0, commit_per_tx_ms=0, orderer_per_envelope_ms=0,
            query_per_record_us=0, rest_overhead_ms=0,
        )
        link = LinkParams(latency_us=0)
        batch = BatchConfig(batch_timeout_ms=1)
        config = default_register_config(
            tps_levels=(1,), duration_seconds=5, service_profile=profile,
            link=link, batch=batch,
        )
        metrics, _ = run_level(config, 1)
        expected_us = (
            transit_delay_us(link, profile.proposal_bytes)
            + transit_delay_us(link, profile.envelope_bytes) * 2
            + 1000  # batch timer
            + transit_delay_us(link, profile.block_base_bytes + profile.envelope_bytes)
            + transit_delay_us(link, profile.endorsement_bytes)
        )
        assert metrics.mean_response_ms == pytest.approx(expected_us / 1000, abs=1e-9)

    def test_ledger_report_consistency(self):
        config = default_register_config(tps_levels=(8,), duration_seconds=10)
        metrics, run = run_level(config, 8)
        assert metrics.requests == 80
        assert metrics.accepted_submissions == metrics.requests - (
            metrics.error_count - run.invalid_txs
        )
        assert metrics.committed_txs == metrics.accepted_submissions - run.invalid_txs
        assert metrics.committed_txs == metrics.requests - metrics.error_count

    def test_fault_makes_errors_client_visible(self):
        config = default_register_config(
            tps_levels=(4,), duration_seconds=10,
            fault_schedule=((0, "sequencer", 0, "down"), (0, "sequencer", 1, "down")),
        )
        metrics, run = run_level(config, 4)
        assert metrics.error_count == metrics.requests
        assert metrics.committed_txs == 0
        assert metrics.saturated  # errors imply the saturated flag

    def test_fault_recovery_mid_run(self):
        config = default_register_config(
            tps_levels=(4,), duration_seconds=10,
            fault_schedule=(
                (0, "sequencer", 0, "down"),
                (0, "sequencer", 1, "down"),
                (5, "sequencer", 1, "up"),
            ),
        )
        metrics, _ = run_level(config, 4)
        assert 0 < metrics.error_count < metrics.requests
        assert metrics.committed_txs == metrics.requests - metrics.error_count

    def test_outage_after_acceptance_preserves_pending(self):
        """Envelopes appended before an outage are cut and committed after
        recovery, never lost."""
        config = default_register_config(
            tps_levels=(8,), duration_seconds=10,
            # outage window opens just after the first arrivals are appended
            fault_schedule=(
                (0.2, "sequencer", 0, "down"),
                (0.2, "sequencer", 1, "down"),
                (3, "sequencer", 1, "up"),
            ),
        )
        metrics, run = run_level(config, 8)
        assert metrics.committed_txs == metrics.accepted_submissions
        assert metrics.committed_txs + metrics.error_count == metrics.requests
        assert metrics.committed_txs > 0 and metrics.error_count > 0

    def test_batch_bounds_hold_for_runtime_blocks(self):
        config = default_register_config(tps_levels=(28,), duration_seconds=10)
        _, run = run_level(config, 28)
        runtime_blocks = run.chain.blocks[1:]  # block 0 is the center setup
        assert runtime_blocks
        for block in runtime_blocks:
            assert 1 <= len(block.transactions) <= config.batch.max_message_count

    def test_bandwidth_ordering_above_4tps(self):
        for config, levels in (
            (default_register_config(duration_seconds=10), (4, 28)),
            (default_verify_config(duration_seconds=10, preloaded_records=500), (4, 100)),
        ):
            for level in levels:
                metrics, _ = run_level(config, level)
                assert metrics.ordering_bandwidth_kb > metrics.peer_bandwidth_kb, (
                    config.step, level,
                )

    def test_monotone_load_at_or_above_8tps(self):
        for config in (
            default_verify_config(duration_seconds=10, preloaded_records=500),
            default_register_config(duration_seconds=10),
        ):
            means = []
            for level in (8, 16, 28):
                metrics, _ = run_level(config, level)
                means.append(metrics.mean_response_ms)
            assert means == sorted(means), config.step

    @pytest.mark.parametrize("gap_us", [1_000, 500_000])
    def test_duplicate_registration_gets_one_error_response(self, gap_us):
        """1 ms apart, the second transaction fails MVCC validation at commit;
        0.5 s apart, the certificate is committed and the chaincode refuses
        it at endorsement. Either way each request is answered exactly once."""
        config = default_register_config(duration_seconds=1)
        run = LevelRun(config, 1)
        run.preload(generate_arrivals(1, 1, config.arrival_mode, config.seed))
        cert = CertificateHash(b"\x5a" * 32)
        run.queue.schedule(0, lambda: run.start_register(cert, "DE", 0))
        run.queue.schedule(gap_us, lambda: run.start_register(cert, "DE", gap_us))
        run.queue.drain()
        assert run.started == run.completed == 2
        assert run.errors == 1
        assert len(run.responses_us) == 1
        assert run.invalid_txs == (1 if gap_us == 1_000 else 0)

    def test_setup_still_raises_on_duplicate(self):
        config = default_register_config(duration_seconds=1)
        run = LevelRun(config, 1)
        run.preload(generate_arrivals(1, 1, config.arrival_mode, config.seed))
        cert = CertificateHash(b"\x5b" * 32)
        run.anchor("DE", cert)
        with pytest.raises(AlreadyRegisteredError):
            run.anchor("DE", cert)

    def test_unanchored_verification_is_an_answer_not_an_error(self):
        config = default_verify_config()
        run = LevelRun(config, 1)
        run.preload(generate_arrivals(1, config.duration_seconds, config.arrival_mode, config.seed))
        run.start_verify(("DE", CertificateHash(b"\x5c" * 32).hex), "DE", 0)
        run.queue.drain()
        assert run.started == run.completed == 1
        assert run.errors == 0
        assert run.not_found == 1
        assert len(run.responses_us) == 1

    @pytest.mark.parametrize("tps, saturated", [(190, False), (200, True)])
    def test_short_verify_level_saturation(self, tps, saturated):
        """The queried peer's pool load λ·S/c is 0.96 at 190 TPS and 1.02 at
        200 TPS over 5 s; a short run is flagged as a long one would be."""
        metrics, _ = run_level(default_verify_config(duration_seconds=5), tps)
        assert metrics.saturated is saturated

    def test_busy_fractions_reported(self, small_register_report):
        busy = small_register_report.levels[0].busy_fractions
        assert set(busy) == {"endorse", "commit", "query", "orderer"}
        assert all(0 <= value <= 1 for value in busy.values())


class TestSetupWorld:
    """Levels forked from one setup world equal standalone levels and stay
    apart from it and from each other."""

    @pytest.mark.parametrize(
        "config",
        [
            # 102 and 116 records: one partial block each
            default_verify_config(tps_levels=(1, 8), duration_seconds=2, preloaded_records=100),
            # 500 records, no partial block; then 482 after it
            default_verify_config(tps_levels=(10, 1), duration_seconds=2, preloaded_records=480),
            # 900, 405 and 650 records, out of order
            default_verify_config(
                tps_levels=(100, 1, 50), duration_seconds=5, preloaded_records=400
            ),
            default_verify_config(
                tps_levels=(50, 4), duration_seconds=5, preloaded_records=400,
                arrival_mode="poisson", seed=3,
            ),
            default_register_config(tps_levels=(4, 1), duration_seconds=2, preloaded_records=600),
        ],
        ids=["below-block", "exact-blocks", "out-of-order", "poisson", "register"],
    )
    def test_shared_levels_equal_standalone_levels(self, config):
        setup = SetupWorld(config)
        for level in config.tps_levels:
            shared_metrics, shared = run_level(config, level, setup=setup)
            alone_metrics, alone = run_level(config, level)
            assert shared_metrics == alone_metrics, level
            assert shared.state.digest() == alone.state.digest(), level
            assert len(shared.chain.blocks) == len(alone.chain.blocks), level
            assert shared.chain.tip_hash == alone.chain.tip_hash, level
            assert shared.provisioned == alone.provisioned, level
            assert shared.chain.verify() and alone.chain.verify(), level

    def test_fork_writes_reach_neither_setup_nor_next_fork(self):
        config = default_register_config(duration_seconds=1, preloaded_records=600)
        schedule = generate_arrivals(1, 1, config.arrival_mode, config.seed)
        setup = SetupWorld(config)
        first = LevelRun(config, 1, setup=setup)
        first.preload(schedule)
        forked_digest = first.state.digest()
        setup_digest, setup_blocks = setup.state.digest(), len(setup.chain.blocks)
        setup_tip = setup.chain.tip_hash

        anchored, live = CertificateHash(b"\x5d" * 32), CertificateHash(b"\x5e" * 32)
        first.anchor("DE", anchored)
        first.start_register(live, "FR", 0)
        first.queue.drain()
        assert first.committed == 1
        # An overwrite replaces the fork's entry; the entry it shared stays as it was.
        ms, cert_hex = first.provisioned[0]
        first.state.put(cert_key(ms, cert_hex), {"doc_type": "overwritten"}, (99, 0))

        assert setup.state.digest() == setup_digest
        assert (len(setup.chain.blocks), setup.chain.tip_hash) == (setup_blocks, setup_tip)
        second = LevelRun(config, 1, setup=setup)
        second.preload(schedule)
        assert second.state.digest() == forked_digest
        assert second.state.get(cert_key("DE", anchored.hex)) is None
        assert second.state.get(cert_key("FR", live.hex)) is None
        assert len(second.chain.blocks) == setup_blocks + 1  # its own partial block


class TestCalibration:
    def test_load_targets(self):
        targets = load_targets("benchmarks/reference_targets.csv")
        assert len(targets) == 14
        assert targets[0] == TargetRow("register", 1.0, 84.0, 395.0)

    def test_empty_targets_fail(self):
        with pytest.raises(CalibrationError):
            calibrate([], DEFAULT_PROFILE)

    def test_missing_required_rows_fail(self):
        rows = [TargetRow("register", 1.0, 84.0, 395.0)]
        with pytest.raises(CalibrationError):
            calibrate(rows, DEFAULT_PROFILE)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("step,tps,response_time_ms\nregister,1,84\n", "peer_bandwidth_kb"),
            ("step,tps,response_time_ms,peer_bandwidth_kb\nregister,1,84\n", "line 2"),
        ],
        ids=["missing-column", "short-row"],
    )
    def test_malformed_targets_csv_fail(self, tmp_path, text, message):
        path = tmp_path / "targets.csv"
        path.write_text(text)
        with pytest.raises(CalibrationError, match=message):
            load_targets(path)

    @pytest.mark.parametrize(
        "bad_row",
        [
            TargetRow("Register", 4.0, 78.0, 457.0),
            TargetRow("verify", 8.0, 0.0, 495.0),
            TargetRow("register", 8.0, 87.0, -1.0),
        ],
        ids=["unknown-step", "zero-response", "negative-bandwidth"],
    )
    def test_unusable_target_fails_before_simulation(self, monkeypatch, bad_row):
        def no_simulation(*args, **kwargs):
            raise AssertionError("targets must be checked before any simulation")

        # The package attribute `vaxledger.calibrate` is the function; patch the module.
        module = importlib.import_module("vaxledger.calibrate")
        monkeypatch.setattr(module, "run_scenario", no_simulation)
        rows = [
            TargetRow("register", 1.0, 84.0, 395.0),
            TargetRow("register", 28.0, 133.0, 700.0),
            TargetRow("verify", 1.0, 91.0, 394.0),
            TargetRow("verify", 100.0, 189.0, 804.0),
            bad_row,
        ]
        with pytest.raises(CalibrationError):
            calibrate(rows, DEFAULT_PROFILE)

    def test_self_consistency_recovers_known_profile(self):
        """Generate targets from a known profile, perturb one parameter, and
        refit: simulated responses must come back within 1% of the targets."""
        register_config = default_register_config(tps_levels=(1, 28), duration_seconds=5)
        verify_config = default_verify_config(
            tps_levels=(1, 100), duration_seconds=5, preloaded_records=400
        )
        known = DEFAULT_PROFILE
        targets = []
        for config in (register_config, verify_config):
            report = run_scenario(dataclasses.replace(config, service_profile=known))
            for metrics in report.levels:
                targets.append(
                    TargetRow(config.step, metrics.tps, metrics.mean_response_ms,
                              metrics.peer_bandwidth_kb)
                )
        perturbed = dataclasses.replace(known, rest_overhead_ms=known.rest_overhead_ms * 1.6)
        result = calibrate(
            targets,
            perturbed,
            register_config=register_config,
            verify_config=verify_config,
            tunables=("rest_overhead_ms",),
            max_rounds=6,
        )
        for residual in result.residuals:
            if residual.kind == "response":
                assert residual.relative_error < 0.01, residual

    def test_unattainable_targets_raise_with_residuals(self):
        register_config = default_register_config(tps_levels=(1, 28), duration_seconds=5)
        verify_config = default_verify_config(
            tps_levels=(1, 100), duration_seconds=5, preloaded_records=400
        )
        rows = [
            TargetRow("register", 1.0, 2.0, 395.0),  # 2 ms is far below any link budget
            TargetRow("register", 28.0, 3.0, 700.0),
            TargetRow("verify", 1.0, 2.0, 394.0),
            TargetRow("verify", 100.0, 3.0, 804.0),
        ]
        with pytest.raises(CalibrationError) as info:
            calibrate(
                rows,
                DEFAULT_PROFILE,
                register_config=register_config,
                verify_config=verify_config,
                tunables=("rest_overhead_ms",),
                max_rounds=1,
            )
        assert info.value.residuals
