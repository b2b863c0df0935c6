"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The default register and
verify levels execute once per session (`default_levels` in conftest.py) and
back several criteria; the determinism criterion repeats the sweeps from
scratch through `run_scenario` and compares bytes.
"""

import hashlib
import itertools
import math
import random
import statistics
from dataclasses import replace
from fractions import Fraction

import pytest

from vaxledger.bench import MetricsReport, report_to_csv_text, run_scenario
from vaxledger.calibrate import load_targets
from vaxledger.chaincode import (
    ChaincodeContext,
    MedicalCenterRecord,
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
    rich_query,
    validate_transaction,
    write_snapshot,
)
from vaxledger.netsim import LinkParams, transit_delay, transit_delay_us
from vaxledger.ordering import OrderingCluster, ROLES, ROLE_SIZES
from vaxledger.scenario import DEFAULT_PROFILE, default_register_config, default_verify_config
from vaxledger.workload import (
    SECONDS_PER_YEAR,
    display_tps,
    required_registration_tps,
    required_verification_tps,
)
from ledger_helpers import KEYS, POLICY

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
def default_sweeps(default_levels, tmp_path_factory):
    """`run_default(seed=42)`'s outputs and reports, built from the session's
    default level runs; criterion 10 checks them against `run_scenario`."""
    tmp = tmp_path_factory.mktemp("sweep")
    outputs = {}
    reports = {}
    for name, (config, _setup, runs) in default_levels.items():
        assert config.seed == 42
        snapshot = tmp / f"{name}.ndjson"
        write_snapshot(runs[-1][1].chain, snapshot)
        report = MetricsReport(step=name, levels=tuple(metrics for metrics, _run in runs))
        outputs[f"{name}.csv"] = report_to_csv_text(report).encode()
        outputs[f"{name}.ndjson"] = snapshot.read_bytes()
        reports[name] = report
    return outputs, reports


def test_criterion_01_registration_load_derivation():
    tps = required_registration_tps(447_500_000, 2, SECONDS_PER_YEAR)
    assert Fraction("28.3") <= tps <= Fraction("28.5")
    assert display_tps(tps) == "28"
    print(f"\nACCEPTANCE 1: PASS — registration load {float(tps):.2f} TPS, displays as {display_tps(tps)}")


def test_criterion_02_verification_load_derivation():
    tps = required_verification_tps(3_200_000_000, SECONDS_PER_YEAR)
    assert Fraction("101.3") <= tps <= Fraction("101.6")
    assert display_tps(tps) == "≈100"
    print(f"ACCEPTANCE 2: PASS — verification load {float(tps):.2f} TPS, displays as {display_tps(tps)}")


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


def _strictly_rising(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def test_criterion_04_trend_reproduction(default_sweeps):
    """The orderings of the reference table that the README states the model
    reproduces: peer bandwidth rises with TPS in both steps, the verify
    response from 4 to 100 TPS, and the register response from 16 to 28."""
    _, reports = default_sweeps
    r = reports["register"]
    v = reports["verify"]
    assert r.level(28).mean_response_ms > r.level(1).mean_response_ms
    assert (
        v.level(100).mean_response_ms
        > v.level(50).mean_response_ms
        > v.level(28).mean_response_ms
    )
    for report in (r, v):
        assert _strictly_rising([m.peer_bandwidth_kb for m in report.levels]), report.step
    assert _strictly_rising([v.level(tps).mean_response_ms for tps in (4, 8, 16, 28, 50, 100)])
    assert r.level(28).mean_response_ms > r.level(16).mean_response_ms
    print(
        "ACCEPTANCE 4: PASS — register 28 > 16, 1 TPS "
        f"({r.level(28).mean_response_ms:.1f} > {r.level(16).mean_response_ms:.1f}, "
        f"{r.level(1).mean_response_ms:.1f} ms), "
        f"verify rising 4..100 TPS ({v.level(4).mean_response_ms:.1f}..."
        f"{v.level(100).mean_response_ms:.1f} ms), peer bandwidth rising in both steps"
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
        matches, scanned = rich_query(state, {"doc_type": "cert", "cert_hash": last})
        assert matches[-1]["cert_hash"] == last, n
        assert scanned == n, n
    print("ACCEPTANCE 9: PASS — scan_count equals N for N in {10, 1000, 10000} with newest match")


def test_verify_levels_scan_every_entry(default_levels):
    """Each default verify level charges one scan of its whole state: the 27
    centers, the preloaded records and one target per arrival."""
    config, _setup, runs = default_levels["verify"]
    for level, (metrics, run) in zip(config.tps_levels, runs):
        assert metrics.scan_count == len(run.state) == 27 + 4700 + 60 * level, level


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
        + round(profile.rest_overhead_ms * 1000)
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


def test_register_levels_match_closed_form_sum_of_hops(default_levels):
    """Closed form of an uncontended registration, in integer µs: proposal
    transit, REST, endorse, two envelope transits (peer to sequencer, and
    sequencer to broker), orderer, batch timeout, block transit, commit and
    response transit. No station queues at the default levels, so a block's
    first transaction takes the sum exactly, and a later one in the same
    block, having reached the log later, waits that much less for the cut.

    The batch timeout sets the floor. Up to 16 TPS the arrival gap exceeds
    it, so every block holds one transaction and every response is the
    n = 1 sum. At 28 TPS each block holds two: the second transaction waits
    one arrival gap less for the cut, but both pay one more commit and a
    larger block transit, so the mean rises. A dip would need those terms to
    cost less than the half gap saved on average."""
    config, _setup, runs = default_levels["register"]
    profile, link = config.service_profile, config.link

    def hops_us(n):
        return (
            transit_delay_us(link, profile.proposal_bytes)
            + round(profile.rest_overhead_ms * 1000)
            + round(profile.endorse_ms * 1000)
            + 2 * transit_delay_us(link, profile.envelope_bytes)
            + round(profile.orderer_per_envelope_ms * 1000)
            + config.batch.batch_timeout_us
            + transit_delay_us(link, profile.block_base_bytes + n * profile.envelope_bytes)
            + n * round(profile.commit_per_tx_ms * 1000)
            + transit_delay_us(link, profile.endorsement_bytes)
        )

    assert hops_us(1) == 95_007 and hops_us(2) == 119_063
    levels = dict(zip(config.tps_levels, runs))
    for tps in (1, 2, 4, 8, 16):
        _metrics, run = levels[tps]
        assert len(run.responses_us) == len(run.arrivals) > 0, tps
        assert set(run.responses_us) == {hops_us(1)}, tps
    _metrics, run = levels[28]
    firsts, seconds = run.arrivals[0::2], run.arrivals[1::2]
    assert len(firsts) == len(seconds)
    expected = [hops_us(2)] * len(firsts)
    expected += [hops_us(2) - (second - first) for first, second in zip(firsts, seconds)]
    assert sorted(run.responses_us) == sorted(expected)
    print(
        f"REGISTER ORACLE: PASS — {hops_us(1)} µs per request up to 16 TPS; "
        f"at 28 TPS {hops_us(2)} µs less the arrival gap for a block's second transaction"
    )


def test_register_stations_busy_at_offered_load():
    """Utilization oracle under load: on Poisson register levels each station
    is busy λ·S/c of the window, to within 4/√(λT) of it, relative, four times
    the relative spread of the arrival count. The orderer serves one envelope
    and the commit station one commit per request. Each of the 27 endorse
    stations serves every 27th request, so the busiest may hold one more job."""
    seconds, worst = 20, 0.0
    service_us = {
        "orderer": round(DEFAULT_PROFILE.orderer_per_envelope_ms * 1000),
        "commit": round(DEFAULT_PROFILE.commit_per_tx_ms * 1000),
        "endorse": round(DEFAULT_PROFILE.endorse_ms * 1000),
    }
    for tps, seed in itertools.product((16, 28), (1, 2, 3)):
        config = default_register_config(
            tps_levels=(tps,), duration_seconds=seconds, arrival_mode="poisson", seed=seed,
        )
        metrics, _run = run_level(config, tps)
        assert metrics.error_count == 0 and not metrics.saturated, (tps, seed)
        tolerance = 4 / math.sqrt(tps * seconds)
        for station, us in service_us.items():
            share = 1 / len(EU_MEMBER_STATES) if station == "endorse" else 1
            expected = tps * share * us / 1_000_000
            slack = us / (seconds * 1_000_000) if station == "endorse" else 0.0
            deviation = abs(metrics.busy_fractions[station] - expected)
            assert deviation <= tolerance * expected + slack, (tps, seed, station)
            worst = max(worst, deviation / expected)
    print(f"UTILIZATION ORACLE: PASS — register stations within {worst:.1%} of λ·S/c")


def test_verify_md1_mean_wait_matches_pollaczek_khinchine():
    """M/D/1 oracle: with one query worker, Poisson arrivals at rate λ and
    scan time S, the mean wait in the query pool (response less both
    transits, the REST overhead and S) is ρS/(2(1−ρ)), ρ = λS. Pooled over
    four seeds at ρ ≈ 0.5, it must fall within four standard errors, taken
    from the means of ten consecutive batches of each seed's requests."""
    tps, batches = 1000, 10
    profile = replace(DEFAULT_PROFILE, query_workers=1, query_per_record_us=1 / 6)
    deviations, batch_means, expected = [], [], []
    for seed in range(1, 5):
        config = default_verify_config(
            tps_levels=(tps,), duration_seconds=3, preloaded_records=0,
            arrival_mode="poisson", seed=seed, service_profile=profile,
        )
        metrics, run = run_level(config, tps)
        service_us = round(profile.query_per_record_us * metrics.scan_count)
        rho = tps * service_us / 1_000_000
        fixed_us = (
            transit_delay_us(config.link, profile.query_bytes)
            + round(profile.rest_overhead_ms * 1000)
            + service_us + transit_delay_us(config.link, profile.response_bytes)
        )
        pk_wait = rho * service_us / (2 * (1 - rho))
        waits = [response - fixed_us for response in run.responses_us]  # in arrival order
        assert min(waits) >= 0 and 0.45 < rho < 0.55, seed
        n = len(waits)
        for b in range(batches):
            batch = waits[b * n // batches : (b + 1) * n // batches]
            batch_means.append(statistics.mean(batch) - pk_wait)
        deviations += [wait - pk_wait for wait in waits]
        expected.append(pk_wait)
    error = statistics.stdev(batch_means) / len(batch_means) ** 0.5
    pk_mean, deviation = statistics.mean(expected), statistics.mean(deviations)
    # The band is narrow enough to tell M/D/1 from M/M/1, whose mean wait is twice as long.
    assert 4 * error < pk_mean / 4
    assert abs(deviation) <= 4 * error
    print(
        f"M/D/1 ORACLE: PASS — mean wait {deviation:+.1f} µs off Pollaczek–Khinchine "
        f"(about {pk_mean:.0f} µs), standard error {error:.1f} µs"
    )


def _cosmetatos_mdc_wait(lam: float, service: float, workers: int) -> float:
    """Cosmetatos' (1976) M/D/c mean wait: half the M/M/c mean wait (Erlang C)
    at the same mean service time, times his correction for c > 1."""
    offered = lam * service
    rho = offered / workers
    terms = [1.0]  # offered^k / k!, k < workers
    for k in range(1, workers):
        terms.append(terms[-1] * offered / k)
    queued = terms[-1] * offered / workers / (1 - rho)
    mmc_wait = queued / (sum(terms) + queued) * service / (workers - offered)
    correction = (1 - rho) * (workers - 1) * (math.sqrt(4 + 5 * workers) - 2) / (16 * rho * workers)
    return mmc_wait / 2 * (1 + correction)


def test_verify_mdc_mean_wait_matches_cosmetatos():
    """M/D/c oracle under load: the default pool of 18 query workers, Poisson
    arrivals at rate λ and scan time S at ρ = λS/18 ≈ 0.85, where waits are
    not zero. The pool must be busy λS/18 of the window, to within 4/√(λT)
    of it, relative. The mean wait (response less both transits, the REST
    offset and S), pooled over six seeds, must fall within four batch-means
    standard errors of Cosmetatos' approximation, widened by 2% for the
    approximation's own error: at c = 18 and ρ = 0.85 it gives 0.0816·S, and
    the exact mean of Crommelin's embedded chain (customers present one S
    later are the arrivals in between plus those beyond c now) gives
    0.0812·S. The same waits must fall outside the bands for 17 and for 19
    workers, whose mean waits are about twice and half as long."""
    tps, batches, workers = 1000, 10, DEFAULT_PROFILE.query_workers
    # A level holds about 27 + 5,000 records, so one query takes about 15.3 ms.
    profile = replace(DEFAULT_PROFILE, query_per_record_us=3.04)
    pools = (workers - 1, workers, workers + 1)
    deviations, batch_means, expected = ({c: [] for c in pools} for _ in range(3))
    for seed in range(1, 7):
        config = default_verify_config(
            tps_levels=(tps,), duration_seconds=5, preloaded_records=0,
            arrival_mode="poisson", seed=seed, service_profile=profile,
        )
        metrics, run = run_level(config, tps)
        service_us = round(profile.query_per_record_us * metrics.scan_count)
        fixed_us = (
            transit_delay_us(config.link, profile.query_bytes)
            + round(profile.rest_overhead_ms * 1000)
            + service_us + transit_delay_us(config.link, profile.response_bytes)
        )
        waits = [response - fixed_us for response in run.responses_us]  # in arrival order
        utilization = tps * service_us / 1_000_000 / workers
        assert min(waits) >= 0 and 0.83 < utilization < 0.87, seed
        busy_deviation = abs(metrics.busy_fractions["query"] / utilization - 1)
        assert busy_deviation <= 4 / math.sqrt(tps * config.duration_seconds), seed
        n = len(waits)
        for c in pools:
            wait = _cosmetatos_mdc_wait(tps / 1_000_000, service_us, c)
            for b in range(batches):
                batch = waits[b * n // batches : (b + 1) * n // batches]
                batch_means[c].append(statistics.mean(batch) - wait)
            deviations[c] += [w - wait for w in waits]
            expected[c].append(wait)
    deviation, band = {}, {}
    for c in pools:
        error = statistics.stdev(batch_means[c]) / len(batch_means[c]) ** 0.5
        deviation[c] = statistics.mean(deviations[c])
        band[c] = 4 * error + 0.02 * statistics.mean(expected[c])
    assert abs(deviation[workers]) <= band[workers]
    assert deviation[workers - 1] < -band[workers - 1] and deviation[workers + 1] > band[workers + 1]
    print(
        f"M/D/c ORACLE: PASS — mean wait {deviation[workers]:+.0f} µs off Cosmetatos "
        f"(about {statistics.mean(expected[workers]):.0f} µs), band {band[workers]:.0f} µs; "
        f"outside the bands for {workers - 1} and {workers + 1} workers"
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
