"""The benchmark's three workloads: inputs from a seed, one timed run, checks.

Each workload has three steps, kept apart so that only the middle one is
timed:

* ``setup(seed)`` builds the inputs; it counts towards ``setup_s``;
* ``run(inputs, probe)`` does the work a user waits on and is timed;
* ``check(inputs, outcome)`` verifies the outputs after the timer stops.

``register_sweep`` and ``verify_sweep`` are the paper's two default sweeps,
driven through ``bench.run_scenario`` exactly as ``calibrate`` drives them.
``anchor_roundtrip`` is the library path a credential takes, with no network
simulation: issue, hash, anchor, seal, apply, verify.

The program receives only generated configs and inputs; the seed never
reaches it except as ``ScenarioConfig.seed``. With uniform arrivals the sweep
CSVs do not depend on the seed; only transaction ids, and so the snapshot
bytes, do.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns

from vaxledger.bench import report_to_csv_text, run_scenario
from vaxledger.calibrate import load_targets
from vaxledger.chaincode import (
    ChaincodeContext,
    MedicalCenterRecord,
    register_certificate,
    register_medical_center,
    verify_certificate,
)
from vaxledger.credential import (
    ED25519,
    HMAC_SHA256,
    generate_did,
    generate_keypair,
    hash_credential,
    issue_credential,
    verify_credential,
)
from vaxledger.engine import LevelRun
from vaxledger.ledger import (
    EU_MEMBER_STATES,
    Chain,
    EndorsementPolicy,
    Transaction,
    WorldState,
    apply_block,
    chain_snapshot_lines,
    endorse_transaction,
)
from vaxledger.ordering import Envelope, OrderingCluster, seal_block
from vaxledger.scenario import DEFAULT_PROFILE, default_register_config, default_verify_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CSV = ROOT / "benchmarks" / "reference_targets.csv"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

# Round trips per anchor_roundtrip run: about 0.8 s of host time on a 2-core
# machine, long enough that per-process noise stays small against it.
ANCHOR_CREDENTIALS = 2000
VACCINES = ("comirnaty", "spikevax", "vaxzevria", "jcovden", "nuvaxovid")
DAY_S = 86_400


def snapshot_sha256(chain) -> str:
    """Digest of the bytes ``ledger.write_snapshot`` would write for ``chain``."""
    h = hashlib.sha256()
    for line in chain_snapshot_lines(chain):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Probe:
    """Marks round-trip ids and brackets the checks that run inside a timed run.

    With a span recorder it also stamps the id on new spans and pauses span
    recording inside checks; either way it books the checks' time as
    excluded, and the worker takes that time off the wall.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.excluded_ns = 0

    def mark(self, ident: int) -> None:
        if self.recorder is not None:
            self.recorder.current_id = ident

    @contextmanager
    def untimed(self):
        t0 = perf_counter_ns()
        try:
            if self.recorder is None:
                yield
            else:
                with self.recorder.paused_span():
                    yield
        finally:
            self.excluded_ns += perf_counter_ns() - t0


# ----------------------------------------------------------------------
# sweeps


@dataclass
class SweepInputs:
    config: object
    targets: list


@dataclass
class LevelCheck:
    tps: float
    requests: int
    failures: list


@dataclass
class SweepOutcome:
    report: object
    levels: list
    last_chain: object


def _setup_sweep(step: str, seed: int) -> SweepInputs:
    make = default_register_config if step == "register" else default_verify_config
    targets = [row for row in load_targets(REFERENCE_CSV) if row.step == step]
    return SweepInputs(config=make(seed=seed), targets=targets)


def _check_level(run, metrics) -> LevelCheck:
    """The end-of-level checks; all must hold on the default sweeps."""
    failures = []
    if run.started != run.completed:
        failures.append(f"started {run.started} != completed {run.completed}")
    if len(run.responses_us) != metrics.requests:
        failures.append(f"{len(run.responses_us)} responses for {metrics.requests} requests")
    if metrics.committed_txs != metrics.accepted_submissions:
        failures.append(
            f"committed {metrics.committed_txs} != accepted {metrics.accepted_submissions}"
        )
    if metrics.error_count:
        failures.append(f"{metrics.error_count} errors")
    if not run.chain.verify():
        failures.append("chain.verify() failed")
    return LevelCheck(tps=metrics.tps, requests=metrics.requests, failures=failures)


def _run_sweep(inputs: SweepInputs, probe) -> SweepOutcome:
    """``run_scenario`` on the default config, checking each level as it ends.

    The checks hook ``LevelRun.execute`` so the sweep runs exactly as a user's
    call runs it; their time is booked as excluded and taken off the wall.
    """
    levels = []
    last = {}
    execute = LevelRun.execute

    def checked_execute(run, *args, **kwargs):
        metrics = execute(run, *args, **kwargs)
        with probe.untimed():
            levels.append(_check_level(run, metrics))
            last["chain"] = run.chain
        return metrics

    LevelRun.execute = checked_execute
    try:
        report = run_scenario(inputs.config)
    finally:
        LevelRun.execute = execute
    return SweepOutcome(report=report, levels=levels, last_chain=last.get("chain"))


def _mre_pct(pairs) -> float:
    return 100.0 * sum(abs(sim - ref) / ref for sim, ref in pairs) / len(pairs)


def _check_sweep(inputs: SweepInputs, outcome: SweepOutcome) -> dict:
    report = outcome.report
    failures = []
    attempted = sum(level.requests for level in outcome.levels)
    failed = sum(level.requests for level in outcome.levels if level.failures)
    for level in outcome.levels:
        failures.extend(f"tps {level.tps:g}: {text}" for text in level.failures)
    if len(outcome.levels) != len(inputs.config.tps_levels):
        failures.append(
            f"checked {len(outcome.levels)} levels of {len(inputs.config.tps_levels)}"
        )
        failed = attempted = max(attempted, 1)
    csv_digest = hashlib.sha256(report_to_csv_text(report).encode()).hexdigest()
    expected = json.loads(EXPECTED_DIGESTS.read_text())[inputs.config.step]
    by_tps = {m.tps: m for m in report.levels}
    rows = [(by_tps[row.tps], row) for row in inputs.targets if row.tps in by_tps]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "csv_sha256": csv_digest,
        "csv_match": csv_digest == expected,
        "snapshot_sha256": snapshot_sha256(outcome.last_chain),
        "response_mre_pct": _mre_pct([(m.mean_response_ms, r.response_time_ms) for m, r in rows]),
        "peer_bw_mre_pct": _mre_pct([(m.peer_bandwidth_kb, r.peer_bandwidth_kb) for m, r in rows]),
        "reference_rows": len(rows),
        "levels": len(report.levels),
        "events": sum(m.processed_events for m in report.levels),
    }


# ----------------------------------------------------------------------
# anchor round trip


@dataclass(frozen=True)
class Issuer:
    did: object
    key: object


@dataclass(frozen=True)
class Subject:
    ms: str
    verifier_ms: str
    did: object
    vaccine: str
    doses: int
    batch_id: str
    issued: int
    tx_id: bytes


@dataclass
class AnchorInputs:
    issuers: dict
    issuer_keys: dict
    ms_keys: dict
    sealer_key: object
    policy: object
    chain: object
    state: object
    cluster: object
    subjects: list


@dataclass
class AnchorOutcome:
    results: list  # per credential: (tx valid, accepted, found, tamper reason, tamper found)
    roundtrip_ns: list


def _commit(inputs: AnchorInputs, envelopes) -> list:
    block = seal_block(envelopes, inputs.chain.tip, inputs.sealer_key)
    inputs.chain.append_block(block)
    return apply_block(inputs.state, block, inputs.policy)


def _setup_anchor(seed: int) -> AnchorInputs:
    """Issuers, member-state keys and a ledger holding the 27 centers."""
    issuers = {}
    ms_keys = {}
    for ms in EU_MEMBER_STATES:
        did = generate_did("center", b"anchor-center|" + ms.encode())
        issuers[ms] = Issuer(did=did, key=generate_keypair(did, b"anchor-issuer|" + ms.encode()))
        ms_did = generate_did("ms", ms.encode())
        ms_keys[ms] = generate_keypair(ms_did, b"endorse|" + ms.encode(), HMAC_SHA256)
    sealer_did = generate_did("ordering", b"sealer")
    inputs = AnchorInputs(
        issuers=issuers,
        issuer_keys={i.did.text: (ED25519, i.key.public_key) for i in issuers.values()},
        ms_keys=ms_keys,
        sealer_key=generate_keypair(sealer_did, b"sealer", HMAC_SHA256),
        policy=EndorsementPolicy(
            roster={ms: kp.public_key for ms, kp in ms_keys.items()}, scheme_id=HMAC_SHA256
        ),
        chain=Chain(),
        state=WorldState(),
        cluster=OrderingCluster(),
        subjects=[],
    )
    centers = []
    for index, ms in enumerate(EU_MEMBER_STATES):
        ctx = ChaincodeContext(caller=ms, state=inputs.state)
        proposal = register_medical_center(
            ctx,
            MedicalCenterRecord(
                center_id=f"{ms.lower()}-anchor-1",
                ms=ms,
                name=f"{ms} Anchor Center",
                address=f"1 Ledger Street, {ms}",
                issuer_did=issuers[ms].did.text,
            ),
        )
        centers.append(_envelope(inputs, ms, proposal, b"center|%d" % index))
    if not all(flag.valid for flag in _commit(inputs, centers)):
        raise RuntimeError("anchor setup: center block has invalid transactions")

    rng = random.Random(seed)
    for i in range(ANCHOR_CREDENTIALS):
        doses = rng.randint(1, 3)
        inputs.subjects.append(
            Subject(
                ms=EU_MEMBER_STATES[i % len(EU_MEMBER_STATES)],
                verifier_ms=EU_MEMBER_STATES[(i + 1) % len(EU_MEMBER_STATES)],
                did=generate_did("citizen", f"{seed}|{i}|{rng.getrandbits(64)}".encode()),
                vaccine=rng.choice(VACCINES),
                doses=doses,
                batch_id=f"B{rng.randrange(10**6):06d}",
                issued=1_609_459_200 + rng.randrange(365 * DAY_S),
                tx_id=hashlib.sha256(f"anchor|{seed}|{i}".encode()).digest()[:16],
            )
        )
    return inputs


def _envelope(inputs: AnchorInputs, ms: str, proposal, tx_id: bytes) -> Envelope:
    tx = Transaction(
        tx_id=tx_id,
        submitter=ms,
        operation=proposal.operation,
        read_set=proposal.read_set,
        write_set=proposal.write_set,
        payload_size=DEFAULT_PROFILE.envelope_bytes,
    )
    tx = endorse_transaction(tx, inputs.ms_keys[ms])
    return Envelope(transaction=tx, received_at=0, size_bytes=DEFAULT_PROFILE.envelope_bytes)


def _run_anchor(inputs: AnchorInputs, probe) -> AnchorOutcome:
    """Closed loop, one client: each credential is issued and anchored; when
    the ordering cluster cuts a block (every ``max_message_count`` proposals)
    it is sealed and applied, then each of its credentials is verified, and a
    tampered copy of each is checked for rejection."""
    subjects = inputs.subjects
    n = len(subjects)
    started = [0] * n
    finished = [0] * n
    results = [None] * n
    pending = []

    def settle(batch):
        flags = _commit(inputs, batch)
        settled = pending[: len(batch)]
        del pending[: len(batch)]
        for (i, credential, cert), flag in zip(settled, flags):
            item = subjects[i]
            ctx = ChaincodeContext(caller=item.verifier_ms, state=inputs.state)
            now = item.issued + DAY_S
            outcome = verify_credential(credential, inputs.issuer_keys, now)
            found = verify_certificate(ctx, cert, issuer_ms=item.ms).found
            tampered = replace(credential, batch_id=credential.batch_id + "x")
            tampered_outcome = verify_credential(tampered, inputs.issuer_keys, now)
            tampered_found = verify_certificate(
                ctx, hash_credential(tampered), issuer_ms=item.ms
            ).found
            finished[i] = perf_counter_ns()
            results[i] = (flag.valid, outcome.accepted, found, tampered_outcome.reason,
                          tampered_found)

    for i, item in enumerate(subjects):
        probe.mark(i)
        started[i] = perf_counter_ns()
        issuer = inputs.issuers[item.ms]
        credential = issue_credential(
            issuer.key,
            issuer.did,
            item.did,
            vaccine_product=item.vaccine,
            dose_number=item.doses,
            total_doses=item.doses,
            batch_id=item.batch_id,
            issuance_date=item.issued,
            validity_seconds=365 * DAY_S,
        )
        cert = hash_credential(credential)
        ctx = ChaincodeContext(caller=item.ms, state=inputs.state)
        proposal = register_certificate(ctx, cert, issuer.did.text)
        envelope = _envelope(inputs, item.ms, proposal, item.tx_id)
        if not inputs.cluster.submit(envelope).accepted:
            raise RuntimeError("ordering cluster rejected a submission")
        pending.append((i, credential, cert))
        batch = inputs.cluster.cut_batch(0)
        if batch is not None:
            settle(batch)
    while pending:
        settle(inputs.cluster.cut_batch(inputs.cluster.batch.batch_timeout_us))
    return AnchorOutcome(
        results=results, roundtrip_ns=[f - s for s, f in zip(started, finished)]
    )


def _check_anchor(inputs: AnchorInputs, outcome: AnchorOutcome) -> dict:
    failures = []
    failed = 0
    for i, result in enumerate(outcome.results):
        if result is None:
            problems = ["never verified"]
        else:
            valid, accepted, found, tamper_reason, tamper_found = result
            problems = [text for bad, text in (
                (not valid, "transaction invalid"),
                (not accepted, "credential rejected"),
                (not found, "anchor not found"),
                (tamper_reason != "signature",
                 f"tampered copy rejected for {tamper_reason!r}, not 'signature'"),
                (tamper_found, "tampered hash found"),
            ) if bad]
        if problems:
            failed += 1
            failures.append(f"credential {i}: {'; '.join(problems)}")
    if not inputs.chain.verify():
        failures.append("chain.verify() failed")
        failed = len(outcome.results)
    return {
        "attempted": len(outcome.results),
        "failed": failed,
        "failures": failures,
        "snapshot_sha256": snapshot_sha256(inputs.chain),
        "state_sha256": inputs.state.digest().hex(),
        "roundtrip_us": [ns / 1000.0 for ns in outcome.roundtrip_ns],
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "register_sweep": Workload(lambda seed: _setup_sweep("register", seed), _run_sweep, _check_sweep),
    "verify_sweep": Workload(lambda seed: _setup_sweep("verify", seed), _run_sweep, _check_sweep),
    "anchor_roundtrip": Workload(_setup_anchor, _run_anchor, _check_anchor),
}
