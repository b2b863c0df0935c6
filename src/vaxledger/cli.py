"""Command-line interface.

Subcommands: issue, hash, register, verify, simulate, calibrate, report.
Exit codes: 0 success, 1 configuration error, 2 calibration failure,
3 I/O error. A usage error (an unknown command or option, a missing or
malformed argument) is a configuration error: it exits 1 with click's
message, not click's own 2.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from types import SimpleNamespace

import click

from . import credential as cred
from .bench import render_csv_table, report_to_csv_text, run_scenario
from .calibrate import CalibrationError, calibrate, format_residuals, load_targets
from .chaincode import ChaincodeContext, verify_certificate
from .engine import LevelRun
from .ledger import EU_MEMBER_STATES
from .scenario import (
    ConfigError,
    DEFAULT_PROFILE,
    default_register_config,
    default_verify_config,
    load_config,
)

EXIT_CONFIG_ERROR = 1
EXIT_CALIBRATION_FAILURE = 2
EXIT_IO_ERROR = 3


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CalibrationError as exc:
            click.echo(f"calibration failure: {exc}", err=True)
            if exc.residuals:
                click.echo(format_residuals(exc.residuals), err=True)
            sys.exit(EXIT_CALIBRATION_FAILURE)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO_ERROR)
        except (ConfigError, cred.CredentialError, ValueError) as exc:  # a JSONDecodeError too
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)

    return wrapper


def _usage_errors_exit_config(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG_ERROR
        raise


class _Group(click.Group):
    """A click group whose usage errors, parsed by `make_context` or met by
    `invoke` in a subcommand's arguments, exit 1."""

    def make_context(self, *args, **kwargs):
        return _usage_errors_exit_config(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_errors_exit_config(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Permissioned vaccination-certificate ledger: tools and simulator."""


# Timeline labels of a one-request run, keyed by (message trace event, host
# role), in flow order. The default batch holds ten transactions, so a lone
# registration is always cut by the batch timer.
_REGISTER_LABELS = {
    ("send:proposal", "client"): "request submitted by {host}",
    ("recv:proposal", "peer"): "proposal received at {host} (REST interface)",
    ("send:envelope", "peer"): "endorsed by {host}",
    ("recv:envelope", "sequencer"): "envelope received at {host}",
    ("recv:envelope", "broker"): "appended to the replicated log",
    ("send:block", "sequencer"): "batch timeout: block {block} sealed ({txs} tx)",
    ("recv:block", "peer"): "block delivered to all 27 peers",
    ("send:response", "peer"): "committed at {host}: transaction valid",
    ("recv:response", "client"): "acknowledgment received by {host}",
}
_VERIFY_LABELS = {
    ("send:query", "client"): "verification request submitted by {host}",
    ("recv:query", "peer"): "query received at {host} (REST interface)",
    ("send:response", "peer"): "content query done: record {found} (scanned {scanned} entries)",
    ("recv:response", "client"): "response received by {host}",
}


def _run_one_request(config, start):
    """Run `start(run)` at t=0 as the only request on a fresh level-1 world.

    The world is preloaded as the sweep's level 1 is. Returns the run and the
    (time, host) of the last message record per (event, host role).
    """
    marks = {}

    def record(at, event, host, size):
        marks[(event, host.rsplit("-", 1)[0])] = (at, host)

    run = LevelRun(config, 1, SimpleNamespace(record=record))
    run.preload()
    start(run)
    run.queue.drain()
    return run, marks


def _echo_timeline(marks, labels, **facts) -> int:
    """Print the milestones that occurred, in flow order; returns the last time."""
    at_us = 0
    for key, label in labels.items():
        if key in marks:
            at_us, host = marks[key]
            click.echo(f"{at_us / 1000:8.2f} ms  {label.format(host=host, **facts)}")
    return at_us


@main.command()
@click.option("--issuer-ms", default="DE", show_default=True, help="Issuing member state code.")
@click.option("--subject", default="citizen-0001", show_default=True, help="Subject identity seed.")
@click.option("--product", default="mRNA-X", show_default=True, help="Vaccine product name.")
@click.option("--dose", default=2, show_default=True, help="Dose number administered.")
@click.option("--total-doses", default=2, show_default=True, help="Doses in the full course.")
@click.option("--batch-id", default="LOT-2401", show_default=True, help="Vaccine batch/lot id.")
@click.option("--issued-at", default=1_700_000_000, show_default=True, help="Issuance (epoch s).")
@click.option("--validity-days", default=365, show_default=True, help="Validity period in days.")
@click.option("--seed", default=1, show_default=True, help="Deterministic key-derivation seed.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Fixture output path.")
@_handle_errors
def issue(issuer_ms, subject, product, dose, total_doses, batch_id, issued_at, validity_days, seed, out_path):
    """Issue a signed credential fixture file."""
    _member_state(issuer_ms)
    issuer_did = cred.generate_did("center", f"center|{issuer_ms}|{seed}".encode())
    issuer_key = cred.generate_keypair(issuer_did, f"issuer|{issuer_ms}|{seed}".encode())
    subject_did = cred.generate_did("citizen", f"{subject}|{seed}".encode())
    credential = cred.issue_credential(
        issuer_key,
        issuer_did,
        subject_did,
        vaccine_product=product,
        dose_number=dose,
        total_doses=total_doses,
        batch_id=batch_id,
        issuance_date=issued_at,
        validity_seconds=validity_days * 86400,
    )
    doc = cred.credential_to_dict(credential)
    # Resolution hints so `verify` can check the proof without a DID registry.
    doc["issuer_ms"] = issuer_ms
    doc["issuer_public_key"] = issuer_key.public_key.hex()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    anchor = cred.hash_credential(credential)
    click.echo(f"issued credential for {subject_did.text}")
    click.echo(f"issuer: {issuer_did.text} ({issuer_ms})")
    click.echo(f"anchor: {anchor.hex}")
    click.echo(f"written to {out_path}")


def _member_state(code: str) -> str:
    if code not in EU_MEMBER_STATES:
        raise ConfigError(f"unknown member state: {code}")
    return code


def _load_fixture(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    credential = cred.credential_from_dict(doc)
    if not isinstance(doc.get("issuer_public_key", ""), str):
        raise ConfigError("issuer_public_key must be a hex string")
    return credential, doc


def _load_anchor(path, ms):
    """The fixture's credential and document, the member state to run at
    (`ms`, else the fixture's `issuer_ms`, else DE) and the anchor digest."""
    credential, doc = _load_fixture(path)
    ms = _member_state(ms or doc.get("issuer_ms") or "DE")
    return credential, doc, ms, cred.hash_credential(credential)


@main.command(name="hash")
@click.argument("credential_file", type=click.Path())
@_handle_errors
def hash_cmd(credential_file):
    """Print the anchor digest of a credential fixture."""
    credential, _doc = _load_fixture(credential_file)
    click.echo(cred.hash_credential(credential).hex)


@main.command()
@click.argument("credential_file", type=click.Path())
@click.option("--ms", default=None, help="Member state node to submit through.")
@_handle_errors
def register(credential_file, ms):
    """Run one registration end to end on a fresh simulator, with timeline."""
    _credential, _doc, ms, anchor = _load_anchor(credential_file, ms)
    run, marks = _run_one_request(default_register_config(),
                                  lambda run: run.start_register(anchor, ms, 0))
    block = run.chain.blocks[-1]
    click.echo(f"registering anchor {anchor.hex} via {ms}")
    done_at = _echo_timeline(
        marks, _REGISTER_LABELS, block=block.number, txs=len(block.transactions)
    )
    click.echo(f"response time: {done_at / 1000:.2f} ms")


@main.command()
@click.argument("credential_file", type=click.Path())
@click.option("--ms", default=None, help="Member state node to query.")
@click.option("--now", default=None, type=int, help="Verification time (epoch s).")
@click.option(
    "--unanchored", is_flag=True, help="Skip pre-anchoring (demonstrates the not-found path)."
)
@_handle_errors
def verify(credential_file, ms, now, unanchored):
    """Verify a credential end to end on a fresh simulator, with timeline."""
    credential, doc, ms, anchor = _load_anchor(credential_file, ms)

    def start(run):
        if not unanchored:
            run.anchor(ms, anchor)
        run.start_verify(ms, 0)

    run, marks = _run_one_request(default_verify_config(), start)
    found = verify_certificate(ChaincodeContext(caller=ms, state=run.state), anchor).found
    click.echo(f"verifying anchor {anchor.hex} via {ms}")
    _echo_timeline(
        marks, _VERIFY_LABELS, found="found" if found else "not found", scanned=run.scan_count
    )
    if "issuer_public_key" in doc:
        issuer_keys = {
            credential.issuer.text: (
                credential.proof.scheme_id if credential.proof else cred.ED25519,
                bytes.fromhex(doc["issuer_public_key"]),
            )
        }
        check_at = now if now is not None else credential.issuance_date + 1
        outcome = cred.verify_credential(credential, issuer_keys, check_at)
        status = "accepted" if outcome.accepted else f"rejected ({outcome.reason})"
        click.echo(f"credential signature/validity: {status}")
    click.echo("anchor found on ledger" if found else "anchor NOT found on ledger")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=None, type=int, help="Override the config seed.")
@click.option("--trace", "trace_path", default=None, type=click.Path(), help="Event trace output.")
@click.option("--out", "out_path", default=None, type=click.Path(), help="CSV report output.")
@click.option("--snapshot", "snapshot_path", default=None, type=click.Path(),
              help="Final-level ledger snapshot output.")
@_handle_errors
def simulate(config_path, seed, trace_path, out_path, snapshot_path):
    """Run a benchmark scenario from a config file."""
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    report = run_scenario(config, trace_path=trace_path, snapshot_path=snapshot_path)
    csv_text = report_to_csv_text(report)
    click.echo(render_csv_table(csv_text), nl=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        click.echo(f"report written to {out_path}")


@main.command(name="calibrate")
@click.option("--targets", "targets_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(), help="Fitted profile JSON.")
@click.option("--max-rounds", default=4, show_default=True, type=click.IntRange(min=0))
@_handle_errors
def calibrate_cmd(targets_path, out_path, max_rounds):
    """Fit the service-time profile against a benchmark target CSV."""
    targets = load_targets(targets_path)
    result = calibrate(targets, DEFAULT_PROFILE, max_rounds=max_rounds)
    click.echo(
        f"fit complete after {result.rounds} round(s), {result.evaluations} evaluations"
    )
    click.echo(
        f"mean relative error: response {result.response_mre:.1%}, "
        f"peer bandwidth {result.bandwidth_mre:.1%}"
    )
    click.echo(format_residuals(result.residuals))
    profile_doc = dataclasses.asdict(result.profile)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(profile_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"profile written to {out_path}")
    else:
        click.echo(json.dumps(profile_doc, indent=2, sort_keys=True))


@main.command()
@click.argument("csv_file", type=click.Path())
@_handle_errors
def report(csv_file):
    """Render an exported CSV report as an aligned text table."""
    with open(csv_file, "r", encoding="utf-8") as fh:
        click.echo(render_csv_table(fh.read()), nl=False)


if __name__ == "__main__":
    main()
