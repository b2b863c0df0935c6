"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The default register and
verify sweeps execute once per session and back several criteria; the
determinism criterion repeats them from scratch and compares bytes.
"""

import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vaxledger.bench import report_to_csv_text, run_scenario
from vaxledger.calibrate import load_targets
from vaxledger.chaincode import (
    ChaincodeContext,
    MedicalCenterRecord,
    WORST_CASE_SCAN,
    register_certificate,
    register_medical_center,
    verify_certificate,
)
from vaxledger.credential import (
    generate_did,
    generate_keypair,
    hash_credential,
    issue_credential,
    verify_credential,
)
from vaxledger.engine import run_level
from vaxledger.ledger import (
    EU_MEMBER_STATES,
    Transaction,
    WorldState,
    cert_key,
    endorse_transaction,
    validate_transaction,
)
from vaxledger.netsim import LinkParams, transit_delay, transit_delay_us
from vaxledger.ordering import OrderingCluster, ROLES, ROLE_SIZES
from vaxledger.scenario import default_register_config, default_verify_config
from vaxledger.workload import (
    SECONDS_PER_YEAR,
    required_registration_tps,
    required_verification_tps,
)
from tests.test_ledger import KEYS, POLICY

TARGETS = {
    (row.step, row.tps): row for row in load_targets("benchmarks/reference_targets.csv")
}


def run_default(seed: int, tmp_path):
    """Full default register + verify sweeps; returns CSV and snapshot bytes."""
    outputs = {}
    reports = {}
    for name, config in (
        ("register", default_register_config(seed=seed)),
        ("verify", default_verify_config(seed=seed)),
    ):
        snapshot = tmp_path / f"{name}-{seed}-{len(outputs)}.ndjson"
        report = run_scenario(config, snapshot_path=snapshot)
        outputs[f"{name}.csv"] = report_to_csv_text(report).encode()
        outputs[f"{name}.ndjson"] = snapshot.read_bytes()
        reports[name] = report
    return outputs, reports


@pytest.fixture(scope="session")
def default_sweeps(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    outputs, reports = run_default(seed=42, tmp_path=tmp)
    return outputs, reports


def test_criterion_01_registration_load_derivation():
    load = required_registration_tps(447_500_000, 2, SECONDS_PER_YEAR)
    assert Fraction("28.3") <= load.tps <= Fraction("28.5")
    assert load.display == "28"
    print(f"\nACCEPTANCE 1: PASS — registration load {float(load.tps):.2f} TPS, displays as {load.display}")


def test_criterion_02_verification_load_derivation():
    load = required_verification_tps(3_200_000_000, SECONDS_PER_YEAR)
    assert Fraction("101.3") <= load.tps <= Fraction("101.6")
    assert load.display == "≈100"
    print(f"ACCEPTANCE 2: PASS — verification load {float(load.tps):.2f} TPS, displays as {load.display}")


def test_criterion_03_calibrated_fit(default_sweeps):
    _, reports = default_sweeps
    worst_resp = worst_bw = 0.0
    for (step, tps), target in TARGETS.items():
        metrics = reports[step].level(tps)
        resp_err = abs(metrics.mean_response_ms - target.response_time_ms) / target.response_time_ms
        bw_err = abs(metrics.peer_bandwidth_kb - target.peer_bandwidth_kb) / target.peer_bandwidth_kb
        assert resp_err <= 0.25, (step, tps, metrics.mean_response_ms, target.response_time_ms)
        assert bw_err <= 0.35, (step, tps, metrics.peer_bandwidth_kb, target.peer_bandwidth_kb)
        worst_resp = max(worst_resp, resp_err)
        worst_bw = max(worst_bw, bw_err)
    print(
        f"ACCEPTANCE 3: PASS — all 14 reference points fit "
        f"(worst response {worst_resp:.1%} <= 25%, worst peer bandwidth {worst_bw:.1%} <= 35%)"
    )


def test_criterion_04_trend_reproduction(default_sweeps):
    _, reports = default_sweeps
    r = reports["register"]
    v = reports["verify"]
    assert r.level(28).mean_response_ms > r.level(1).mean_response_ms
    assert (
        v.level(100).mean_response_ms
        > v.level(50).mean_response_ms
        > v.level(28).mean_response_ms
    )
    print(
        "ACCEPTANCE 4: PASS — register 28>1 TPS "
        f"({r.level(28).mean_response_ms:.1f}>{r.level(1).mean_response_ms:.1f} ms), "
        f"verify 100>50>28 TPS ({v.level(100).mean_response_ms:.1f}>"
        f"{v.level(50).mean_response_ms:.1f}>{v.level(28).mean_response_ms:.1f} ms)"
    )


def test_criterion_05_saturation_boundary(default_sweeps):
    _, reports = default_sweeps
    at_100 = reports["verify"].level(100)
    assert at_100.error_count == 0
    assert not at_100.saturated
    over = run_scenario(default_verify_config(tps_levels=(120,)))
    at_120 = over.level(120)
    assert at_120.saturated or at_120.error_count > 0
    print(
        f"ACCEPTANCE 5: PASS — verify@100 clean (errors=0, saturated=False); "
        f"verify@120 saturated={at_120.saturated}, errors={at_120.error_count}"
    )


def test_criterion_06_failover():
    for bits in itertools.product((True, False), repeat=10):
        cluster = OrderingCluster()
        downs = {role: 0 for role in ROLES}
        position = 0
        for role in ROLES:
            for index in range(ROLE_SIZES[role]):
                cluster.set_instance_status(role, index, bits[position])
                if not bits[position]:
                    downs[role] += 1
                position += 1
        assert cluster.available == all(count <= 1 for count in downs.values()), bits

    config = default_register_config(
        tps_levels=(28,),
        fault_schedule=(
            (0, "coordinator", 0, "down"),
            (0, "broker", 0, "down"),
            (0, "sequencer", 0, "down"),
        ),
    )
    metrics, _ = run_level(config, 28)
    assert metrics.requests == 1680
    assert metrics.error_count == 0
    assert metrics.committed_txs == 1680
    print(
        "ACCEPTANCE 6: PASS — availability <=> per-role downs <= 1 over all 1024 vectors; "
        "faulted 28 TPS x 60 s run committed 1680/1680"
    )


def test_criterion_07_cross_ms_rejection():
    state = WorldState()
    valid = []
    for submitter in EU_MEMBER_STATES:
        for target in EU_MEMBER_STATES:
            tx = Transaction(
                tx_id=hashlib.sha256(f"{submitter}->{target}".encode()).digest()[:16],
                submitter=submitter,
                operation=b"op",
                read_set=(),
                write_set=((f"{target}/cert/h", {"doc_type": "cert"}),),
            )
            tx = endorse_transaction(tx, KEYS[submitter])
            if validate_transaction(tx, POLICY, state).valid:
                valid.append((submitter, target))
    assert len(valid) == 27
    assert all(s == t for s, t in valid)
    print("ACCEPTANCE 7: PASS — exactly the 27 diagonal (submitter, namespace) pairs validate")


def test_criterion_08_end_to_end_anchor_property():
    rng = random.Random(2024)
    issuers = {}
    state = WorldState()
    for position, ms in enumerate(EU_MEMBER_STATES):
        did = generate_did("center", b"anchor|" + ms.encode())
        key = generate_keypair(did, b"anchor-key|" + ms.encode())
        issuers[ms] = (did, key)
        ctx = ChaincodeContext(caller=ms, state=state)
        response = register_medical_center(
            ctx,
            MedicalCenterRecord(
                center_id=f"{ms.lower()}-c1", ms=ms, name=f"{ms} Center",
                address=f"{ms} Street 1", issuer_did=did.text,
            ),
        )
        for key_name, value in response.write_set:
            state.put(key_name, value, (0, position))

    products = ("mRNA-X", "vector-Y", "protein-Z")
    cases = 1000
    for case in range(cases):
        ms = EU_MEMBER_STATES[rng.randrange(27)]
        did, key = issuers[ms]
        subject = generate_did("citizen", b"subject|%d" % case)
        total = rng.randint(1, 3)
        issued = rng.randrange(1_500_000_000, 1_900_000_000)
        credential = issue_credential(
            key, did, subject,
            vaccine_product=rng.choice(products),
            dose_number=total,
            total_doses=total,
            batch_id=f"LOT-{rng.randrange(10_000)}",
            issuance_date=issued,
            validity_seconds=rng.randrange(1, 3 * SECONDS_PER_YEAR),
        )
        anchor = hash_credential(credential)
        ctx = ChaincodeContext(caller=ms, state=state)
        response = register_certificate(ctx, anchor, did.text)
        for write_key, value in response.write_set:
            state.put(write_key, value, (1, case))

        found = verify_certificate(
            ChaincodeContext(caller=ms, state=state), anchor, issuer_ms=ms
        )
        assert found.found, case

        mutations = {
            "vaccine_product": credential.vaccine_product + "x",
            "batch_id": credential.batch_id + "x",
            "issuance_date": credential.issuance_date - 1,
            "expiration_date": credential.expiration_date + 1,
            "subject": generate_did("citizen", b"imposter|%d" % case),
            "context": credential.context + "?v=2",
        }
        if credential.dose_number > 1:
            mutations["dose_number"] = credential.dose_number - 1
        field, value = rng.choice(list(mutations.items()))
        mutated = replace(credential, **{field: value})
        mutated_anchor = hash_credential(mutated)
        assert mutated_anchor != anchor, field
        lookup = verify_certificate(
            ChaincodeContext(caller=ms, state=state), mutated_anchor, issuer_ms=ms
        )
        assert not lookup.found, field
        outcome = verify_credential(
            mutated, {did.text: (key.scheme_id, key.public_key)}, now=issued
        )
        assert not outcome.accepted and outcome.reason == "signature", field
    print(f"ACCEPTANCE 8: PASS — {cases} randomized anchor round trips incl. mutation rejection")


def test_criterion_09_worst_case_query_cost():
    for n in (10, 1000, 10_000):
        state = WorldState()
        last = None
        for index in range(n):
            digest = hashlib.sha256(b"wc|%d|%d" % (n, index)).hexdigest()
            state.put(
                cert_key("DE", digest),
                {"doc_type": "cert", "cert_hash": digest, "ms": "DE"},
                (0, index),
            )
            last = digest
        ctx = ChaincodeContext(caller="DE", state=state, query_mode=WORST_CASE_SCAN)
        from vaxledger.credential import CertificateHash

        result = verify_certificate(ctx, CertificateHash.from_hex(last))
        assert result.found
        assert result.scan_count == n, n
    print("ACCEPTANCE 9: PASS — scan_count equals N for N in {10, 1000, 10000} with newest match")


def test_verify_levels_match_deterministic_queue_oracle(default_sweeps):
    """D/D/c oracle: below saturation, uniform arrivals never queue at the query
    pool, so every verification takes query transit, REST overhead, the scan
    and response transit, in integer µs. That sum bounds each response from
    below, so a mean equal to it proves every response equals it."""
    _, reports = default_sweeps
    config = default_verify_config()
    profile, link = config.service_profile, config.link
    fixed_us = (
        transit_delay_us(link, profile.query_bytes)
        + profile.rest_overhead_us
        + transit_delay_us(link, profile.response_bytes)
    )
    levels = reports["verify"].levels
    assert [m.tps for m in levels] == list(config.tps_levels)
    for metrics in levels:
        expected_us = fixed_us + round(profile.query_per_record_us * metrics.scan_count)
        assert metrics.mean_response_ms == expected_us / 1000, metrics.tps
        assert metrics.p95_response_ms == expected_us / 1000, metrics.tps
    print(
        f"D/D/c ORACLE: PASS — all {len(levels)} verify levels equal the closed form "
        f"({levels[0].mean_response_ms * 1000:.0f} µs at {levels[0].tps:g} TPS to "
        f"{levels[-1].mean_response_ms * 1000:.0f} µs at {levels[-1].tps:g} TPS)"
    )


# SHA-256 of report_to_csv_text for the default sweeps. With uniform arrivals
# the CSVs do not depend on the seed.
DEFAULT_CSV_SHA256 = {
    "register": "94302b6565ebaa82bb695c07fd922def3b0d491aedf43563427260a964089494",
    "verify": "e5c533d3daccdf8ee96326cdad339209d9e4cd171af8dfa1d37d33f6f9a01e01",
}


def test_default_sweep_csv_bytes_pinned(default_sweeps):
    outputs, _ = default_sweeps
    for name, digest in DEFAULT_CSV_SHA256.items():
        assert hashlib.sha256(outputs[f"{name}.csv"]).hexdigest() == digest, name
    print("CSV DIGESTS: PASS — default register and verify CSVs match their pinned SHA-256")


def test_criterion_10_determinism(default_sweeps, tmp_path):
    first_outputs, _ = default_sweeps
    second_outputs, _ = run_default(seed=42, tmp_path=tmp_path)
    assert set(first_outputs) == set(second_outputs)
    for name in first_outputs:
        assert first_outputs[name] == second_outputs[name], name
    sizes = {name: len(data) for name, data in first_outputs.items()}
    print(f"ACCEPTANCE 10: PASS — repeated default runs byte-identical ({sizes})")


def test_criterion_11_hundred_mbps_what_if(default_sweeps):
    fast = LinkParams(bandwidth_bps=10**9)
    slow = LinkParams(bandwidth_bps=10**8)
    for size in (65, 1060, 3060, 7000, 124_940):
        fast_tx = transit_delay(fast, size) - fast.latency_us
        slow_tx = transit_delay(slow, size) - slow.latency_us
        assert slow_tx == 10 * fast_tx, size

    _, reports = default_sweeps
    baseline = reports["register"].level(28).mean_response_ms
    slow_report = run_scenario(default_register_config(tps_levels=(28,), link=slow))
    degraded = slow_report.level(28).mean_response_ms
    assert degraded <= 2 * baseline
    assert degraded >= baseline
    print(
        f"ACCEPTANCE 11: PASS — transmission scales exactly x10 at 100 Mbps; "
        f"register@28 {degraded:.1f} ms vs {baseline:.1f} ms at 1 Gbps (<= 2x)"
    )
