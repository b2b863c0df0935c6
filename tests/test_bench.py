"""Scenario configs, report/CSV plumbing, and calibration behavior."""

import dataclasses
import gc
import hashlib
import math
import struct
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from vaxledger.bench import (
    CSV_HEADER,
    render_csv_table,
    report_to_csv_text,
    run_scenario,
)
from vaxledger.calibrate import (
    CalibrationError,
    TargetRow,
    _residuals,
    _with_param,
    calibrate,
    load_targets,
)
from vaxledger.chaincode import (
    AlreadyRegisteredError,
    ChaincodeContext,
    register_certificate,
    verify_certificate,
)
from vaxledger.credential import CertificateHash, verify_payload
from vaxledger.engine import LevelRun, SetupWorld, run_level
from vaxledger import bench, ledger
from vaxledger.ledger import (
    EU_MEMBER_STATES,
    Transaction,
    WorldState,
    apply_block,
    cert_key,
    compute_data_hash,
    endorse_transaction,
)
from vaxledger.netsim import LinkParams, transit_delay_us
from vaxledger.ordering import ROLE_SIZES, ROLES, BatchConfig, Envelope, seal_block
from vaxledger.scenario import (
    ConfigError,
    DEFAULT_PROFILE,
    REGISTER_TPS_LEVELS,
    ScenarioConfig,
    ServiceTimeProfile,
    VERIFY_TPS_LEVELS,
    config_from_dict,
    default_register_config,
    default_verify_config,
    load_config,
)


class TestConfigSchema:
    def test_round_trip(self):
        config = default_verify_config(duration_seconds=10, seed=9)
        assert config_from_dict(dataclasses.asdict(config)) == config

    def test_unknown_top_level_key(self):
        doc = dataclasses.asdict(default_register_config())
        doc["unknown_knob"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = dataclasses.asdict(default_register_config())
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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"arrival_mode": "burst"}, "arrival_mode"),
            ({"preloaded_records": -1}, "preloaded_records"),
            ({"fault_schedule": [[0.5, "sequencer", 0]]}, "fault_schedule entries"),
            ({"fault_schedule": [[0.5, "sequencer", 3, "down"]]}, "index 3 out of range"),
            ({"fault_schedule": [[0.5, "sequencer", 0, "off"]]}, "fault status"),
            ([], "scenario config must be a JSON object"),
            ({"link": 5}, "link must be a JSON object"),
            ({"link": {"tls_overhead_bytes": -1}}, "tls overhead"),
            ({"batch": {"max_message_count": 0}}, "batch parameters"),
        ],
        ids=["arrival-mode", "preloaded", "fault-arity", "fault-index", "fault-status",
             "not-an-object", "link-not-an-object", "link-rule", "batch-rule"],
    )
    def test_rejected_value_names_its_rule(self, doc, message):
        """Each rule, the link's and the batch's included, fails as a config error that names it."""
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

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
        # Every int field takes only integers, and every float field only
        # numbers; a boolean is neither.
        sections = {None: ScenarioConfig, "link": LinkParams,
                    "service_profile": ServiceTimeProfile, "batch": BatchConfig}
        for section, cls in sections.items():
            for f in dataclasses.fields(cls):
                bad = {"int": (2.5, True), "float": ("5", True)}.get(f.type, ())
                for value in bad:
                    doc = {f.name: value} if section is None else {section: {f.name: value}}
                    with pytest.raises(ConfigError, match=f.name):
                        config_from_dict(doc)
        # Python's json reads Infinity and NaN; neither is a usable number, and
        # neither is a boolean or a string.
        for value in (math.inf, math.nan, True, "1"):
            with pytest.raises(ConfigError, match="endorse_ms"):
                config_from_dict({"service_profile": {"endorse_ms": value}})
            with pytest.raises(ConfigError, match="tps_levels"):
                config_from_dict({"tps_levels": [1, value]})
            with pytest.raises(ConfigError, match="fault time"):
                config_from_dict({"fault_schedule": [[value, "sequencer", 0, "down"]]})
        profile = config_from_dict({"service_profile": {"endorse_ms": 5}}).service_profile
        assert profile.endorse_ms == 5

    def test_load_config_file(self, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dataclasses.asdict(default_register_config(duration_seconds=5))))
        assert load_config(path).duration_seconds == 5
        with pytest.raises(FileNotFoundError):
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

    def test_empty_report_rejected(self):
        from vaxledger.bench import MetricsReport

        with pytest.raises(ValueError):
            report_to_csv_text(MetricsReport(step="register", levels=()))

    def test_render_table(self, small_register_report):
        table = render_csv_table(report_to_csv_text(small_register_report))
        lines = table.splitlines()
        assert "step" in lines[0] and "tps" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        with pytest.raises(ValueError, match="empty CSV"):
            render_csv_table("\n")

    def test_unknown_level_rejected(self, small_register_report):
        with pytest.raises(KeyError, match="tps level 3"):
            small_register_report.level(3)


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
        run.preload()
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
        run.preload()
        cert = CertificateHash(b"\x5b" * 32)
        run.anchor("DE", cert)
        with pytest.raises(AlreadyRegisteredError):
            run.anchor("DE", cert)

    def test_unanchored_verification_is_an_answer_not_an_error(self):
        config = default_verify_config()
        run = LevelRun(config, 1)
        run.preload()
        run.start_verify("DE", 0)
        run.queue.drain()
        assert run.started == run.completed == 1
        assert run.errors == 0
        ctx = ChaincodeContext(caller="DE", state=run.state)
        assert not verify_certificate(ctx, CertificateHash(b"\x5c" * 32)).found
        assert len(run.responses_us) == 1

    @pytest.mark.parametrize("tps, saturated", [(190, False), (200, True)])
    def test_short_verify_level_saturation(self, tps, saturated):
        """The queried peer's pool load λ·S/c is 0.96 at 190 TPS and 1.02 at
        200 TPS over 5 s; a short run is flagged as a long one would be."""
        metrics, _ = run_level(default_verify_config(duration_seconds=5), tps)
        assert metrics.saturated is saturated

    def test_outage_outlasting_the_run_still_answers_every_request(self):
        """Both sequencers fail mid-run and never recover: the envelope that
        was appended but not yet cut gets an error response after the drain."""
        config = default_register_config(
            duration_seconds=1,
            fault_schedule=((0.5, "sequencer", 0, "down"), (0.5, "sequencer", 1, "down")),
        )
        metrics, run = run_level(config, 28)
        assert run.started == run.completed == 28
        assert (run.accepted, run.committed) == (13, 12)
        assert metrics.error_count == 16
        assert len(run.responses_us) == 12

    def test_each_level_is_released_before_the_next_is_built(self, monkeypatch):
        """`run_scenario` holds one live level: when a level is built, no
        earlier level's run is still reachable."""
        runs, live = [], []

        def recording(*args, **kwargs):
            gc.collect()
            live.append(sum(ref() is not None for ref in runs))
            metrics, run = run_level(*args, **kwargs)
            runs.append(weakref.ref(run))
            return metrics, run

        monkeypatch.setattr(bench, "run_level", recording)
        run_scenario(default_register_config(tps_levels=(1, 2, 4), duration_seconds=1))
        assert live == [0, 0, 0]

    def test_busy_fractions_reported(self, default_levels):
        """A level reports the busiest station of each role its step builds."""
        roles = {"register": {"endorse", "commit", "orderer"}, "verify": {"query"}}
        for step, (_config, _setup, runs) in default_levels.items():
            for metrics, run in runs:
                busy = metrics.busy_fractions
                assert set(busy) == set(run.stations) == roles[step], metrics.tps
                assert all(0 <= value <= 1 for value in busy.values())

    def test_every_built_station_is_entered(self, default_levels):
        """A level builds only stations that its step's jobs enter: on every
        default level, each takes at least one job."""
        for step, (_config, _setup, runs) in default_levels.items():
            for metrics, run in runs:
                for role, group in run.stations.items():
                    assert all(s.offered_us > 0 for s in group), (step, metrics.tps, role)


SHORT_REGISTER = default_register_config(duration_seconds=2)
WIDE_ENVELOPES = dataclasses.replace(DEFAULT_PROFILE, envelope_bytes=9000)


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
            replay = WorldState()  # a fork's state is exactly what its blocks write
            for block in shared.chain.blocks:
                apply_block(replay, block, setup.policy)
            assert replay.digest() == shared.state.digest(), level

    def test_fork_writes_reach_neither_setup_nor_next_fork(self):
        config = default_register_config(duration_seconds=1, preloaded_records=600)
        setup = SetupWorld(config)
        first = LevelRun(config, 1, setup=setup)
        first.preload()
        forked_digest = first.state.digest()
        setup_digest, setup_blocks = setup.state.digest(), len(setup.chain.blocks)
        setup_tip = setup.chain.tip_hash

        anchored, live = CertificateHash(b"\x5d" * 32), CertificateHash(b"\x5e" * 32)
        first.anchor("DE", anchored)
        first.start_register(live, "FR", 0)
        first.queue.drain()
        assert first.committed == 1
        # An overwrite replaces the fork's entry; the entry it shared stays as it was.
        record = first.provisioned[0]  # a register transaction of the setup world
        ms, cert_hex = record.submitter, record.write_set[0][1]["cert_hash"]
        first.state.put(cert_key(ms, cert_hex), {"doc_type": "overwritten"}, (99, 0))

        assert setup.state.digest() == setup_digest
        assert (len(setup.chain.blocks), setup.chain.tip_hash) == (setup_blocks, setup_tip)
        second = LevelRun(config, 1, setup=setup)
        second.preload()
        assert second.state.digest() == forked_digest
        assert second.state.get(cert_key("DE", anchored.hex)) is None
        assert second.state.get(cert_key("FR", live.hex)) is None
        assert len(second.chain.blocks) == setup_blocks + 1  # its own partial block

    def test_targets_and_center_reads_hold_the_states_own_strings(self):
        """A forked level's targets hold each record's cert hash string, and a
        registration reads its center under the state's own key object."""
        config = default_verify_config(duration_seconds=2, preloaded_records=500)
        run = LevelRun(config, 2, setup=SetupWorld(config))
        run.preload()
        assert len(run.provisioned) == 504  # one full setup block and a partial one
        for record in run.provisioned:
            ms, cert_hex = record.submitter, record.write_set[0][1]["cert_hash"]
            assert cert_hex is run.state.get(cert_key(ms, cert_hex))["cert_hash"]
        keys = {key: key for key, _entry in run.state.items_in_order()}
        tx = run.setup.register_tx(run.state, "FR", CertificateHash(b"\x70" * 32), b"c" * 16)
        (center, _version), _cert_read = tx.read_set
        assert center.startswith("FR/center/") and center is keys[center]

    def test_setup_block_with_an_invalid_transaction_is_refused(self):
        """A setup block must validate whole: a certificate that DE submits
        but FR's key endorsed fails the policy, so its block is refused."""
        config = default_verify_config(duration_seconds=1, preloaded_records=10)
        setup = SetupWorld(config)
        for key_ms, refused in (("DE", False), ("FR", True)):
            chain, state = setup.fork(10)
            ctx = ChaincodeContext(caller="DE", state=state)
            response = register_certificate(
                ctx, CertificateHash(b"\x71" * 32), setup.center_dids["DE"]
            )
            tx = ledger.endorse_fields(setup.ms_keys[key_ms], b"f" * 16, "DE",
                                       response.operation, response.read_set, response.write_set)
            if refused:
                with pytest.raises(RuntimeError, match="invalid transactions"):
                    setup.commit_setup_block(chain, state, [tx])
            else:
                setup.commit_setup_block(chain, state, [tx])

    def test_scan_for_a_target_missing_from_state_is_refused(self):
        """The level's one query looks up its newest provisioned record, which
        a world forked one record short does not hold."""
        run = LevelRun(default_verify_config(duration_seconds=1, preloaded_records=10), 1)
        run.preload()
        run.chain, run.state = run.setup.fork(len(run.provisioned) - 1)
        with pytest.raises(RuntimeError, match="missing from state"):
            run.start_verify("DE", 0)

    @pytest.mark.parametrize(
        "level_config, world_config",
        [
            (
                SHORT_REGISTER,
                dataclasses.replace(SHORT_REGISTER, seed=7, service_profile=WIDE_ENVELOPES),
            ),
            (SHORT_REGISTER, dataclasses.replace(SHORT_REGISTER, seed=7)),
            (default_verify_config(duration_seconds=2), SHORT_REGISTER),
        ],
        ids=["seed-and-envelope", "seed", "step"],
    )
    def test_world_built_for_another_config_is_rejected(self, level_config, world_config):
        """A setup world's transactions carry its step and seed, so a level
        must not fork one built with other values."""
        with pytest.raises(ValueError, match="setup world built for"):
            run_level(level_config, 4, setup=SetupWorld(world_config))

    def test_world_built_for_other_levels_and_services_is_shared(self):
        """What a setup world does not read may differ from the level's config."""
        config = default_verify_config(duration_seconds=2, preloaded_records=10)
        world_config = dataclasses.replace(
            config, tps_levels=(3,), duration_seconds=5, preloaded_records=0,
            arrival_mode="poisson", service_profile=dataclasses.replace(
                DEFAULT_PROFILE, query_workers=2, endorse_ms=1.0
            ),
        )
        shared, _run = run_level(config, 2, setup=SetupWorld(world_config))
        assert shared == run_level(config, 2)[0]


# The ServiceTimeProfile fields that each step's flows read.
READ_SETS = {
    "register": {
        "block_base_bytes", "commit_per_tx_ms", "endorse_ms", "endorsement_bytes",
        "envelope_bytes", "gossip_bytes", "gossip_interval_ms", "keepalive_bytes",
        "keepalive_interval_ms", "orderer_per_envelope_ms", "proposal_bytes", "rest_overhead_ms",
    },
    "verify": {
        "gossip_bytes", "gossip_interval_ms", "keepalive_bytes",
        "keepalive_interval_ms", "query_bytes", "query_per_record_us", "query_workers",
        "response_bytes", "rest_overhead_ms",
    },
}
# One short level of each step; every flow of the step runs in it.
SHORT_LEVELS = {
    "register": default_register_config(tps_levels=(4,), duration_seconds=1),
    "verify": default_verify_config(tps_levels=(4,), duration_seconds=1, preloaded_records=100),
}
PROFILE_FIELDS = {f.name: f for f in dataclasses.fields(ServiceTimeProfile)}


class TestReadSets:
    """Each step reads a known set of profile fields, and only those reach its report."""

    @pytest.mark.parametrize("step", sorted(READ_SETS))
    def test_read_set_recorded(self, monkeypatch, step):
        config = SHORT_LEVELS[step]
        reads = set()

        def recording(profile, name):
            if name in PROFILE_FIELDS:
                reads.add(name)
            return object.__getattribute__(profile, name)

        monkeypatch.setattr(ServiceTimeProfile, "__getattribute__", recording)
        report_to_csv_text(run_scenario(config))
        assert reads == READ_SETS[step]

    @pytest.mark.parametrize("step", sorted(SHORT_LEVELS))
    def test_setup_world_reads_no_profile_field(self, monkeypatch, step):
        """A setup world and its forks, a partial block included, depend on the
        step and seed alone, so one world serves every profile."""
        reads = set()

        def recording(profile, name):
            if name in PROFILE_FIELDS:
                reads.add(name)
            return object.__getattribute__(profile, name)

        monkeypatch.setattr(ServiceTimeProfile, "__getattribute__", recording)
        SetupWorld(SHORT_LEVELS[step]).fork(700)
        assert reads == set()

    @pytest.fixture(scope="class")
    def short_worlds(self):
        """Per step, its short level's setup world and CSV at the default profile."""
        worlds = {}
        for step, config in SHORT_LEVELS.items():
            setup = SetupWorld(config)
            worlds[step] = setup, report_to_csv_text(run_scenario(config, setup=setup))
        return worlds

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_fields_outside_read_set_leave_csv_unchanged(self, short_worlds, data):
        """Perturbing any field a step does not read leaves its CSV bytes as they
        were. The setup world is shared: no perturbed field is in its key."""
        step = data.draw(st.sampled_from(sorted(READ_SETS)))
        name = data.draw(st.sampled_from(sorted(set(PROFILE_FIELDS) - READ_SETS[step])))
        if PROFILE_FIELDS[name].type == "int":
            value = data.draw(st.integers(1, 10**6))
        else:
            value = data.draw(st.floats(0, 1e4))
        config = SHORT_LEVELS[step]
        profile = dataclasses.replace(config.service_profile, **{name: value})
        setup, csv_text = short_worlds[step]
        report = run_scenario(dataclasses.replace(config, service_profile=profile), setup=setup)
        assert report_to_csv_text(report) == csv_text


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of `module.name` through every vaxledger module that
    binds it; returns the list of each call's positional arguments."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("vaxledger") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


class TestSealEncodesOnce:
    """Each endorsed transaction's signing payload is encoded once, by its
    endorser, whose bytes serve its first commit for both the data hash and
    the endorsement check. A re-commit is encoded once, by `seal_block`; a
    copy changed after endorsement is encoded from its own fields."""

    @staticmethod
    def _world():
        setup = SetupWorld(default_register_config())
        chain, state = setup.fork(0)  # the center block only
        return setup, chain, state

    def test_block_of_n_encodes_n_payloads(self, monkeypatch):
        setup, chain, state = self._world()
        txs = [
            setup.register_tx(
                state, ms, CertificateHash(bytes([i]) * 32), b"seal-%02d" % i + b"\0" * 8
            )
            for i, ms in enumerate(("AT", "FR", "DE", "AT", "NL"))
        ]
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        block, flags = setup.seal(chain, state, [Envelope(tx, 0, 0) for tx in txs])
        assert all(flag.valid for flag in flags)
        assert encodes == []  # a first commit reads the endorser's bytes
        assert block.data_hash == compute_data_hash(block.transactions)

    def test_verify_level_encodes_once_per_endorsement_and_commit(self, monkeypatch):
        """Every signing payload goes through `encode_signing_payload`: each
        endorsed transaction's id is encoded once, for its endorsement. On a
        fresh world every commit of the level is a first commit, which reads
        the endorser's bytes twice, for the data hash and for the signature
        check, so no commit encodes."""
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        commit_side = _count_calls(monkeypatch, ledger, "transaction_signing_payload")
        applied = _count_calls(monkeypatch, sys.modules["vaxledger.engine"], "apply_block")
        config = default_verify_config()
        setup = SetupWorld(config)
        _metrics, run = run_level(config, config.tps_levels[0], setup=setup)
        committed = [tx.tx_id for _state, block, *_ in applied for tx in block.transactions]
        assert len(committed) == sum(len(block.transactions) for block in run.chain.blocks)
        endorsed = [tx.tx_id for tx in setup.chain.blocks[0].transactions + tuple(setup.records)]
        assert len(endorsed) == len(EU_MEMBER_STATES) + len(run.provisioned) > 0
        assert [args[0].tx_id for args in commit_side] == [
            tx.tx_id for _state, block, *_ in applied for tx in block.transactions * 2]
        assert sorted(args[0] for args in encodes) == sorted(endorsed)

    def test_setup_endorsement_equals_endorse_transaction(self):
        """A setup transaction, endorsed from the chaincode response, is the one
        `endorse_transaction` makes of the same unendorsed transaction."""
        setup, _chain, state = self._world()
        tx = setup.register_tx(state, "DE", CertificateHash(b"\x07" * 32), b"e" * 16)
        unendorsed = Transaction(tx.tx_id, tx.submitter, tx.operation, tx.read_set,
                                 tx.write_set, payload_size=tx.payload_size)
        assert endorse_transaction(unendorsed, setup.ms_keys["DE"]) == tx

    # A change to each field of an endorsed transaction, made by `dataclasses.replace`.
    CHANGES = {
        "tx_id": lambda tx: {"tx_id": b"forged-tx-id----"},
        "operation": lambda tx: {"operation": tx.operation + b"\0"},
        "read_set": lambda tx: {"read_set": tx.read_set[:-1]},
        # Same key, a forged record; the endorsement covers the original one.
        "write_set": lambda tx: {"write_set": tuple(
            (key, {**record, "issuer_did": "did:forged"}) for key, record in tx.write_set)},
        "endorsements": lambda tx: {"endorsements": ((tx.submitter, bytes(32)),)},
    }

    def test_write_set_changed_after_endorsement_is_rejected(self):
        """A copy changed after endorsement, in its write set or in any other
        field, inherits none of the endorser's bytes: it is encoded from its
        own fields and fails the signature check, whether it is committed
        through `SetupWorld.seal` or through `seal_block` and `apply_block`,
        the library path."""
        for field in self.CHANGES:
            for commit in ("SetupWorld.seal", "seal_block+apply_block"):
                case = (field, commit)
                setup, chain, state = self._world()
                good = setup.register_tx(state, "FR", CertificateHash(b"\x61" * 32), b"g" * 16)
                endorsed = setup.register_tx(state, "FR", CertificateHash(b"\x62" * 32), b"t" * 16)
                assert endorsed._signing_payload is not None
                tampered = dataclasses.replace(endorsed, **self.CHANGES[field](endorsed))
                expected = state.copy_prefix(len(state))
                batch = [Envelope(good, 0, 0), Envelope(tampered, 0, 0)]
                if commit == "SetupWorld.seal":
                    block, flags = setup.seal(chain, state, batch)
                else:
                    block = seal_block(batch, chain.tip, setup.sealer_key)
                    chain.append_block(block)
                    flags = apply_block(state, block, setup.policy)
                assert flags[0].valid, case
                assert (flags[1].valid, flags[1].reason) == (False, "bad-signature"), case
                (good_key, good_record), = good.write_set
                expected.put(good_key, good_record, (block.number, 0))
                assert state.get(endorsed.write_set[0][0]) is None, case
                assert state.digest() == expected.digest(), case
                assert block.data_hash == compute_data_hash(block.transactions), case
                assert chain.verify(), case

    def test_the_endorsers_bytes_last_until_the_first_commit(self):
        setup, chain, state = self._world()
        txs = [setup.register_tx(state, ms, CertificateHash(bytes([i]) * 32), b"%16d" % i)
               for i, ms in enumerate(("PL", "PT"))]
        unendorsed = Transaction(b"u" * 16, "PL", txs[0].operation, txs[0].read_set,
                                 txs[0].write_set)
        txs.append(endorse_transaction(unendorsed, setup.ms_keys["PL"]))
        for tx in txs:
            assert tx._signing_payload == ledger.encode_signing_payload(
                tx.tx_id, tx.submitter, tx.operation, tx.read_set, tx.write_set)
        block, flags = setup.seal(chain, state, [Envelope(tx, 0, 0) for tx in txs[:2]])
        assert all(flag.valid for flag in flags)
        assert [tx._signing_payload for tx in txs] == [None, None, txs[2]._signing_payload]
        assert txs[2]._signing_payload is not None

    def test_no_committed_transaction_keeps_the_endorsers_bytes(self, default_levels):
        """After every default level, no transaction of a level's chain or of
        its world's chain holds its endorser's bytes."""
        for step in ("register", "verify"):
            _config, setup, runs = default_levels[step]
            chains = [setup.chain] + [run.chain for _metrics, run in runs]
            held = [tx.tx_id for chain in chains for block in chain.blocks
                    for tx in block.transactions if tx._signing_payload is not None]
            assert held == [], step
            assert all(tx._signing_payload is None for tx in setup.records)

    # Fields that are not immutable, so an endorser cannot hand its bytes on.
    MUTABLE = {
        "plain-dict record": lambda tx: {"write_set": tuple(
            (key, dict(record)) for key, record in tx.write_set)},
        "list read set": lambda tx: {"read_set": list(tx.read_set)},
        "list read version": lambda tx: {"read_set": tuple(
            (key, None if version is None else list(version)) for key, version in tx.read_set)},
        "bytearray tx id": lambda tx: {"tx_id": bytearray(tx.tx_id)},
    }

    @pytest.mark.parametrize("field", MUTABLE)
    def test_mutable_fields_get_no_handoff(self, field, monkeypatch):
        """Such a transaction is encoded at each use, and still validates."""
        setup, chain, state = self._world()
        tx = setup.register_tx(state, "LV", CertificateHash(b"\x33" * 32), b"m" * 16)
        unendorsed = dataclasses.replace(tx, endorsements=(), **self.MUTABLE[field](tx))
        endorsed = endorse_transaction(unendorsed, setup.ms_keys["LV"])
        assert endorsed._signing_payload is None
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        block = seal_block([Envelope(endorsed, 0, 0)], chain.tip, setup.sealer_key)
        chain.append_block(block)
        assert apply_block(state, block, setup.policy)[0].valid
        assert len(encodes) == 2  # the data hash, then the signature check

    def test_register_level_encodes_once_per_endorsed_transaction(self, monkeypatch):
        endorsed = _count_calls(monkeypatch, ledger, "endorse_fields")
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        config = default_register_config()
        setup = SetupWorld(config)
        _metrics, run = run_level(config, config.tps_levels[0], setup=setup)
        endorsed_ids = [args[1] for args in endorsed]
        committed = {tx.tx_id for block in run.chain.blocks for tx in block.transactions}
        assert len(set(endorsed_ids)) == len(endorsed_ids) == len(committed) > len(EU_MEMBER_STATES)
        assert set(endorsed_ids) == committed
        assert [args[0] for args in encodes] == endorsed_ids

    def test_library_path_encodes_once_per_endorsed_transaction(self, monkeypatch):
        """`endorse_transaction`, then `seal_block` and `apply_block`, as a
        client of the library commits."""
        setup, chain, state = self._world()
        txs = []
        for i, ms in enumerate(EU_MEMBER_STATES[:5]):
            response = register_certificate(ChaincodeContext(ms, state),
                                            CertificateHash(bytes([i + 1]) * 32), setup.center_dids[ms])
            txs.append(Transaction(b"%16d" % i, ms, response.operation, response.read_set,
                                   response.write_set))
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        txs = [endorse_transaction(tx, setup.ms_keys[tx.submitter]) for tx in txs]
        block = seal_block([Envelope(tx, 0, 0) for tx in txs], chain.tip, setup.sealer_key)
        chain.append_block(block)
        assert all(flag.valid for flag in apply_block(state, block, setup.policy))
        assert [args[0] for args in encodes] == [tx.tx_id for tx in txs]
        assert all(tx._signing_payload is None for tx in txs)

    def test_recommit_encodes_once_per_transaction(self, monkeypatch):
        """Committed transactions sealed again onto a fork through `seal_block`
        and `apply_block` are encoded once each, at seal, and keep no bytes."""
        setup, chain, state = self._world()
        txs = [setup.register_tx(state, ms, CertificateHash(bytes([i + 1]) * 32), b"%16d" % i)
               for i, ms in enumerate(EU_MEMBER_STATES[:10])]
        setup.seal(chain, state, [Envelope(tx, 0, 0) for tx in txs])
        chain, state = setup.fork(0)
        encodes = _count_calls(monkeypatch, ledger, "encode_signing_payload")
        block = seal_block([Envelope(tx, 0, 0) for tx in txs], chain.tip, setup.sealer_key)
        chain.append_block(block)
        assert all(flag.valid for flag in apply_block(state, block, setup.policy))
        assert [args[0] for args in encodes] == [tx.tx_id for tx in txs]
        assert all(tx._signing_payload is None for tx in txs)
        assert chain.verify()


class TestSealSignsTheTip:
    """One header hash serves the sealer's signature and the chain's tip: after
    every `SetupWorld.seal`, the signature verifies against the tip, which is
    the digest of the block's own header fields."""

    @pytest.fixture
    def seals(self, monkeypatch):
        original, seals = SetupWorld.seal, []

        def seal(setup, chain, state, batch):
            block, flags = original(setup, chain, state, batch)
            seals.append((setup.sealer_key, chain.tip_hash, block))
            return block, flags

        monkeypatch.setattr(SetupWorld, "seal", seal)
        return seals

    @staticmethod
    def _assert_signed_tips(seals):
        for key, tip, block in seals:
            header = (struct.pack(">QI", block.number, len(block.prev_hash)) + block.prev_hash
                      + struct.pack(">I", len(block.data_hash)) + block.data_hash)
            assert tip == hashlib.sha256(header).digest(), block.number
            assert verify_payload(key.scheme_id, key.public_key, tip, block.sealer_signature)

    def test_setup_and_live_blocks(self, seals):
        # The center block, two full setup blocks, the fork's partial one, then live blocks.
        config = default_register_config(duration_seconds=2, preloaded_records=1200)
        _metrics, run = run_level(config, 28)
        assert len(seals) == len(run.chain.blocks) == 4 + 28
        self._assert_signed_tips(seals)
        assert run.chain.verify()

    def test_sibling_forks_sealing_one_height_in_turn(self, seals):
        setup = SetupWorld(default_register_config())
        forks = [setup.fork(0), setup.fork(0)]
        for i in range(4):
            chain, state = forks[i % 2]
            tx = setup.register_tx(state, "DE", CertificateHash(bytes([i]) * 32), b"%16d" % i)
            setup.seal(chain, state, [Envelope(tx, 0, 0)])
        assert [block.number for _key, _tip, block in seals] == [0, 1, 1, 2, 2]
        self._assert_signed_tips(seals)
        assert all(chain.verify() for chain, _state in forks)


def _closed_form_tx_id(*fields) -> bytes:
    """A transaction id from all of its fields: the first 16 bytes of the
    sha256 of "tx" and `fields`, joined by "|"."""
    return hashlib.sha256(("tx" + "|%s" * len(fields) % fields).encode()).digest()[:16]


class TestTransactionIds:
    """Ids made from a prefix encoded once per world or level equal the
    closed form over all of their fields, for integer and fractional levels."""

    @settings(max_examples=30, deadline=None)
    @given(
        step=st.sampled_from(("register", "verify")),
        seed=st.integers(0, 2**64),
        level=st.sampled_from((0.5, 2.5, 28, 1, 100.0)),
        draws=st.integers(1, 4),
    )
    def test_next_tx_id_equals_closed_form(self, step, seed, level, draws):
        config = ScenarioConfig(step=step, tps_levels=(level,), duration_seconds=1, seed=seed)
        setup = SetupWorld(config)
        centers = len(EU_MEMBER_STATES)  # the center block holds setup ids 1-27
        assert [tx.tx_id for tx in setup.chain.blocks[0].transactions] == [
            _closed_form_tx_id(step, seed, n) for n in range(1, centers + 1)
        ]
        assert [setup._next_tx_id() for _ in range(draws)] == [
            _closed_form_tx_id(step, seed, centers + n) for n in range(1, draws + 1)
        ]
        run = LevelRun(config, level, setup=setup)
        assert [run._next_tx_id() for _ in range(draws)] == [
            _closed_form_tx_id(step, level, seed, n) for n in range(1, draws + 1)
        ]


_INSTANCES = [(role, index) for role in ROLES for index in range(ROLE_SIZES[role])]
_FAULTS = st.lists(
    st.tuples(
        st.integers(0, 1200), st.sampled_from(_INSTANCES), st.sampled_from(("up", "down"))
    ).map(lambda f: (f[0] / 1000, f[1][0], f[1][1], f[2])),
    max_size=6,
)


def _assert_level_invariants(metrics, run):
    """Every started request is answered once, every accepted envelope is
    committed, invalidated or still uncut, bytes are conserved, and the
    chain replays to the live state."""
    assert run.started == run.completed == len(run.responses_us) + run.errors
    assert metrics.error_count == run.errors
    cut = {tx.tx_id for block in run.chain.blocks for tx in block.transactions}
    uncut = sum(e.transaction.tx_id not in cut for e in run.cluster.log)
    assert run.accepted == run.committed + run.invalid_txs + uncut
    assert run.meter.total_sent == run.meter.total_received
    assert run.chain.verify()
    replay = WorldState()
    for block in run.chain.blocks:
        apply_block(replay, block, run.setup.policy)
    assert replay.digest() == run.state.digest()


class TestLevelInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        faults=_FAULTS,
        step=st.sampled_from(("register", "verify")),
        preloaded=st.integers(0, 50),
        tps=st.integers(1, 60),
        max_count=st.integers(1, 12),
        timeout_ms=st.integers(1, 300),
        arrival_mode=st.sampled_from(("uniform", "poisson")),
    )
    @example(
        faults=[(0.5, "sequencer", 0, "down"), (0.5, "sequencer", 1, "down")],
        step="register", preloaded=0, tps=28, max_count=10, timeout_ms=40,
        arrival_mode="uniform",
    )
    def test_end_of_level_invariants_under_faults(
        self, faults, step, preloaded, tps, max_count, timeout_ms, arrival_mode
    ):
        """The invariants hold whatever the fault schedule."""
        config = ScenarioConfig(
            step=step,
            tps_levels=(tps,),
            duration_seconds=1,
            batch=BatchConfig(max_message_count=max_count, batch_timeout_ms=timeout_ms),
            fault_schedule=tuple(faults),
            preloaded_records=preloaded if step == "verify" else 0,
            arrival_mode=arrival_mode,
        )
        _assert_level_invariants(*run_level(config, tps))

    @settings(max_examples=15, deadline=None)
    @given(
        faults=_FAULTS,
        step=st.sampled_from(("register", "verify")),
        preloaded=st.integers(0, 560),
        levels=st.lists(st.integers(1, 60), min_size=2, max_size=4, unique=True),
        arrival_mode=st.sampled_from(("uniform", "poisson")),
    )
    def test_invariants_hold_on_levels_forked_from_one_setup(
        self, faults, step, preloaded, levels, arrival_mode
    ):
        """Levels forked from one setup world, in a drawn order, each keep the
        invariants; a verify world may cross a setup block boundary."""
        config = ScenarioConfig(
            step=step,
            tps_levels=tuple(levels),
            duration_seconds=1,
            fault_schedule=tuple(faults),
            preloaded_records=preloaded if step == "verify" else 0,
            arrival_mode=arrival_mode,
        )
        setup = SetupWorld(config)
        for level in levels:
            _assert_level_invariants(*run_level(config, level, setup=setup))


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
            ("step,tps,response_time_ms,peer_bandwidth_kb\nregister,abc,84,395\n", "line 2"),
        ],
        ids=["missing-column", "short-row", "non-numeric"],
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
            TargetRow("verify", 8.0, float("nan"), 495.0),
            TargetRow("register", 8.0, 87.0, float("inf")),
            TargetRow("verify", float("inf"), 91.0, 394.0),
            TargetRow("register", 28, 130.0, 690.0),  # repeats register@28.0
        ],
        ids=["unknown-step", "zero-response", "negative-bandwidth", "nan-response",
             "inf-bandwidth", "inf-tps", "repeated-row"],
    )
    def test_unusable_target_fails_before_simulation(self, monkeypatch, bad_row):
        def no_simulation(*args, **kwargs):
            raise AssertionError("targets must be checked before any simulation")

        monkeypatch.setattr("vaxledger.calibrate.run_scenario", no_simulation)
        rows = [
            TargetRow("register", 1.0, 84.0, 395.0),
            TargetRow("register", 28.0, 133.0, 700.0),
            TargetRow("verify", 1.0, 91.0, 394.0),
            TargetRow("verify", 100.0, 189.0, 804.0),
            bad_row,
        ]
        with pytest.raises(CalibrationError):
            calibrate(rows, DEFAULT_PROFILE)

    def test_shared_worlds_give_the_residuals_of_fresh_ones(self):
        """One setup world per step, shared across every profile, the one with
        another envelope size included, gives the residuals of new worlds."""
        configs = {
            "register": default_register_config(tps_levels=(1,), duration_seconds=2),
            "verify": default_verify_config(tps_levels=(1, 8), duration_seconds=2,
                                            preloaded_records=600),
        }
        targets = [TargetRow(step, tps, 90.0, 400.0)
                   for step, tps in (("register", 1.0), ("verify", 1.0), ("verify", 8.0))]
        profiles = [
            DEFAULT_PROFILE,
            dataclasses.replace(DEFAULT_PROFILE, endorse_ms=4.0),
            dataclasses.replace(DEFAULT_PROFILE, envelope_bytes=8000),
            DEFAULT_PROFILE,
        ]

        def new_worlds():
            return {step: SetupWorld(config) for step, config in configs.items()}

        fresh = [_residuals(p, targets, configs, new_worlds()) for p in profiles]
        worlds = new_worlds()
        assert [_residuals(p, targets, configs, worlds) for p in profiles] == fresh

    def test_a_fit_builds_one_world_per_step(self, monkeypatch):
        """A fit that probes the envelope size still builds each step's setup
        world once."""
        register_config = default_register_config(tps_levels=(1, 28), duration_seconds=2)
        verify_config = default_verify_config(
            tps_levels=(1, 100), duration_seconds=2, preloaded_records=400
        )
        targets = [TargetRow(config.step, m.tps, m.mean_response_ms, m.peer_bandwidth_kb)
                   for config in (register_config, verify_config)
                   for m in run_scenario(config).levels]
        built = []

        class CountedWorld(SetupWorld):
            def __init__(self, config):
                built.append(config.step)
                super().__init__(config)

        monkeypatch.setattr("vaxledger.calibrate.SetupWorld", CountedWorld)
        result = calibrate(targets, DEFAULT_PROFILE, register_config=register_config,
                           verify_config=verify_config, tunables=("envelope_bytes",),
                           max_rounds=1)
        assert result.evaluations == 1 + 6
        assert built == ["register", "verify"]

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

    def test_unstable_profile_is_penalized_and_unmovable_probes_skipped(self, monkeypatch):
        """One query worker saturates the fast verify levels, which draws both
        stability penalties on the first evaluation. Probes below the floors,
        one worker and a zero REST overhead, are skipped."""
        evaluated = []

        def recorded(profile, *args):
            evaluated.append((profile, *_residuals(profile, *args)))
            return evaluated[-1][1:]

        monkeypatch.setattr("vaxledger.calibrate._residuals", recorded)
        unstable = dataclasses.replace(DEFAULT_PROFILE, query_workers=1, rest_overhead_ms=0.0)
        with pytest.raises(CalibrationError) as info:
            calibrate(load_targets("benchmarks/reference_targets.csv"), unstable,
                      tunables=("query_workers", "rest_overhead_ms"), max_rounds=1)
        (first, residuals, instability), *probes = evaluated
        assert first == unstable
        assert instability > 2.0 * 4  # verify@16, 28, 50 and 100 saturate and top the ceiling
        assert len(probes) == 2 * 3  # each tunable's three downward probes were skipped
        assert list(info.value.residuals) in [r for _p, r, _i in evaluated]
        assert list(info.value.residuals) != residuals  # the round moved off one worker

    @pytest.fixture(scope="class")
    def short_fit(self):
        """Short register and verify configs, and targets from their runs at the default profile."""
        configs = {
            "register_config": default_register_config(tps_levels=(1, 28), duration_seconds=2),
            "verify_config": default_verify_config(
                tps_levels=(1, 100), duration_seconds=2, preloaded_records=400
            ),
        }
        targets = [TargetRow(config.step, m.tps, m.mean_response_ms, m.peer_bandwidth_kb)
                   for config in configs.values() for m in run_scenario(config).levels]
        return targets, configs

    def test_a_probe_that_rounds_back_moves_one_rounding_step(self, monkeypatch, short_fit):
        """From one worker and a zero REST overhead, where every probe rounds
        back, the upward probes move one rounding step and the fit leaves both
        floors. One round probes the workers at 2, then at 3 once (2.2 and 2.5
        both round back to 2), and the overhead 0.01 ms at a time."""
        targets, configs = short_fit
        probed = []

        def recorded(profile, *args):
            probed.append((profile.query_workers, profile.rest_overhead_ms))
            return _residuals(profile, *args)

        monkeypatch.setattr("vaxledger.calibrate._residuals", recorded)
        start = dataclasses.replace(DEFAULT_PROFILE, query_workers=1, rest_overhead_ms=0.0)
        result = calibrate(targets, start, tunables=("query_workers", "rest_overhead_ms"),
                           max_rounds=1, **configs)
        assert probed == [(1, 0.0), (2, 0.0), (3, 0.0), (2, 0.01), (2, 0.02), (2, 0.03)]
        assert (result.profile.query_workers, result.profile.rest_overhead_ms) == (2, 0.03)

    def test_a_fit_simulates_each_profile_once(self, monkeypatch, short_fit):
        """From two workers each worker probe rounds back to 2 and steps, so the
        three downward probes all give one and the three upward ones three. Each
        is simulated once, and the evaluation count is the profiles simulated."""
        targets, configs = short_fit
        simulated = []

        def recorded(profile, *args):
            simulated.append(profile)
            return _residuals(profile, *args)

        monkeypatch.setattr("vaxledger.calibrate._residuals", recorded)
        start = dataclasses.replace(DEFAULT_PROFILE, query_workers=2)
        result = calibrate(targets, start, tunables=("query_workers", "rest_overhead_ms"),
                           max_rounds=1, **configs)
        repeated = [p.query_workers for p in simulated if simulated.count(p) > 1]
        assert repeated == []
        assert result.evaluations == len(simulated)

    @pytest.mark.parametrize(
        "name, value, factor, probed",
        [
            ("query_workers", 2, 0.8, 1),  # 1.6 rounds back to 2
            ("endorse_ms", 0.01, 0.8, 0.0),  # 0.008 rounds back to 0.01
            ("endorse_ms", 5, 1.05, 5.25),  # a float field set to an int keeps 0.01 steps
        ],
    )
    def test_with_param_rounding_rule(self, name, value, factor, probed):
        """Downward steps, which a fit from the floors never takes, and the field
        type, not the value's, choosing the rounding."""
        profile = dataclasses.replace(DEFAULT_PROFILE, **{name: value})
        assert getattr(_with_param(profile, name, factor), name) == probed
