"""CLI subcommands and exit codes."""

import json

import pytest
from click.testing import CliRunner

from vaxledger.cli import main
from vaxledger.engine import run_level
from vaxledger.scenario import config_to_dict, default_register_config

REGISTER_TIMELINE = [
    "    0.00 ms  request submitted by client-DE",
    "    3.02 ms  proposal received at peer-DE (REST interface)",
    "   16.02 ms  endorsed by peer-DE",
    "   19.08 ms  envelope received at sequencer-0",
    "   24.94 ms  appended to the replicated log",
    "   64.94 ms  batch timeout: block 1 sealed (1 tx)",
    "   68.00 ms  block delivered to all 27 peers",
    "   92.00 ms  committed at peer-DE: transaction valid",
    "   95.01 ms  acknowledgment received by client-DE",
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_path(tmp_path, runner):
    path = tmp_path / "credential.json"
    result = runner.invoke(main, ["issue", "--issuer-ms", "DE", "--out", str(path)])
    assert result.exit_code == 0, result.output
    return path


class TestIssueAndHash:
    def test_issue_writes_fixture(self, fixture_path):
        doc = json.loads(fixture_path.read_text())
        assert doc["format"] == "vaxledger-credential/1"
        assert doc["issuer_ms"] == "DE"
        assert "proof" in doc

    def test_issue_deterministic(self, tmp_path, runner):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            result = runner.invoke(main, ["issue", "--seed", "5", "--out", str(p)])
            assert result.exit_code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_hash_prints_anchor(self, fixture_path, runner):
        result = runner.invoke(main, ["hash", str(fixture_path)])
        assert result.exit_code == 0
        digest = result.output.strip()
        assert len(digest) == 64
        int(digest, 16)

    def test_hash_missing_file_io_error(self, runner):
        result = runner.invoke(main, ["hash", "does-not-exist.json"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", ["hash", "register", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [{"format": "vaxledger-credential/1", "issuer": "did:center:abc"}, ["not", "an", "object"]],
        ids=["missing-field", "not-an-object"],
    )
    def test_malformed_fixture_config_error(self, tmp_path, runner, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("config error: ")

    def test_issue_unknown_ms_config_error(self, tmp_path, runner):
        result = runner.invoke(
            main, ["issue", "--issuer-ms", "XX", "--out", str(tmp_path / "c.json")]
        )
        assert result.exit_code == 1


class TestRegisterVerify:
    def test_register_timeline(self, fixture_path, runner):
        result = runner.invoke(main, ["register", str(fixture_path)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[1:-1] == REGISTER_TIMELINE
        assert lines[-1] == "response time: 95.01 ms"

    def test_register_matches_engine_level(self, fixture_path, runner):
        """The CLI request is the engine's register flow: same response time
        as a one-request level."""
        result = runner.invoke(main, ["register", str(fixture_path)])
        metrics, _ = run_level(default_register_config(duration_seconds=1), 1)
        assert metrics.requests == 1
        assert result.output.splitlines()[-1] == (
            f"response time: {metrics.mean_response_ms:.2f} ms"
        )

    def test_verify_found_and_accepted(self, fixture_path, runner):
        result = runner.invoke(main, ["verify", str(fixture_path)])
        assert result.exit_code == 0, result.output
        # Default verify preload: 4700 records, 60 level-1 targets, 27
        # centers and the user's own anchor.
        assert "record found (scanned 4788 entries)" in result.output
        assert "   90.65 ms  response received by client-DE" in result.output
        assert "credential signature/validity: accepted" in result.output
        assert "anchor found on ledger" in result.output

    def test_verify_unanchored_not_found(self, fixture_path, runner):
        result = runner.invoke(main, ["verify", "--unanchored", str(fixture_path)])
        assert result.exit_code == 0
        assert "anchor NOT found" in result.output

    def test_verify_expired(self, fixture_path, runner):
        result = runner.invoke(
            main, ["verify", str(fixture_path), "--now", str(2_000_000_000)]
        )
        assert result.exit_code == 0
        assert "rejected (expired)" in result.output


class TestSimulate:
    def test_simulate_writes_csv(self, tmp_path, runner):
        config = default_register_config(tps_levels=(1,), duration_seconds=3)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(json.dumps(config_to_dict(config)))
        out_path = tmp_path / "report.csv"
        result = runner.invoke(
            main, ["simulate", "--config", str(config_path), "--out", str(out_path)]
        )
        assert result.exit_code == 0, result.output
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,tps,")
        assert lines[1].startswith("register,1,")

    def test_simulate_seed_override_and_trace(self, tmp_path, runner):
        config = default_register_config(tps_levels=(1,), duration_seconds=2)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(json.dumps(config_to_dict(config)))
        trace = tmp_path / "trace.ndjson"
        result = runner.invoke(
            main,
            ["simulate", "--config", str(config_path), "--seed", "7", "--trace", str(trace)],
        )
        assert result.exit_code == 0, result.output
        assert trace.exists() and trace.stat().st_size > 0

    def test_bad_config_exit_code(self, tmp_path, runner):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"step": "register", "mystery": 1}))
        result = runner.invoke(main, ["simulate", "--config", str(config_path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"step": "register", "fault_schedule": [[0.5, "sequencer", 0.5, "down"]]},
            {"step": "verify", "query_mode": "exact_lookup"},
            {"step": "verify", "verify_target": "spread"},
        ],
    )
    def test_rejected_config_exits_before_simulating(self, tmp_path, runner, doc):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "config error:" in result.output
        assert "Traceback" not in result.output

    def test_missing_config_io_error(self, runner):
        result = runner.invoke(main, ["simulate", "--config", "missing.json"])
        assert result.exit_code == 1  # unreadable config is a config error


class TestCalibrateAndReport:
    def test_calibrate_failure_exit_code(self, tmp_path, runner):
        targets = tmp_path / "targets.csv"
        targets.write_text("step,tps,response_time_ms,peer_bandwidth_kb\n")
        result = runner.invoke(main, ["calibrate", "--targets", str(targets)])
        assert result.exit_code == 2

    def test_targets_missing_column_exit_code(self, tmp_path, runner):
        targets = tmp_path / "targets.csv"
        targets.write_text("step,tps,response_time_ms\nregister,1,84\n")
        result = runner.invoke(main, ["calibrate", "--targets", str(targets)])
        assert result.exit_code == 2
        assert "peer_bandwidth_kb" in result.stderr

    def test_report_renders_table(self, tmp_path, runner):
        csv_path = tmp_path / "r.csv"
        csv_path.write_text(
            "step,tps,response_time_ms,peer_bandwidth_kb,ordering_bandwidth_kb,errors,saturated\n"
            "register,1,95.0,307.2,1398.2,0,false\n"
        )
        result = runner.invoke(main, ["report", str(csv_path)])
        assert result.exit_code == 0
        assert "register" in result.output
        assert "-----" in result.output

    def test_report_missing_file_io_error(self, runner):
        result = runner.invoke(main, ["report", "missing.csv"])
        assert result.exit_code == 3
