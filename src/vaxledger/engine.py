"""End-to-end scenario engine: drives register/verify flows over the simulator.

One `LevelRun` owns the world of one offered-TPS level: 27 peers and their
shared replicated ledger, the ordering cluster, per-role service stations, and
ambient gossip/keepalive traffic. Its ledger starts as a fork of a
`SetupWorld`, which the levels of one scenario share: the setup blocks of a
level are a prefix of a larger level's, up to its final partial block, so each
full setup block is endorsed, sealed and validated once per scenario. A fork
gets its own chain and state, sharing frozen blocks and state entries, so
nothing a level writes reaches the setup world or another level. Registration
follows client -> peer (REST, endorse) -> ordering (sequence, batch, seal) ->
block fan-out -> commit -> client ack; verification follows
client -> peer (REST, content query) -> client response. Every started
request gets one response; a rejected one gets an error response.

The event queue holds only request-flow events, batch timers and faults.
Heartbeats enter no station, so their bytes go straight into the meter:
gossip when the level is scheduled, keepalives between faults, each tick
booked to the lead coordinator in force at its instant. The REST hop is an
offset on the peer station's enqueue. A level is saturated if any request
failed or any station was offered at least its capacity, λ·S/c ≥ 1.

Each flow has one implementation, `start_register` or `start_verify`, which
starts one request: `execute` calls it per arrival, the CLI once on a
preloaded world, reading the request's milestones from the message trace.

The canonical chain and world state are applied once, at seal time; the
commit station models commit timing only. This keeps a single authoritative
replay (the total order every peer receives) without 27 redundant state
copies. One commit station serves all 27 peers exactly: each block reaches
every peer at one instant and costs each the same, so their timelines agree.

Every verification is a worst-case content query at the peer of
`EU_MEMBER_STATES[0]`, charged query_per_record_us times the entries
`verify_certificate` scans. The chaincode call runs once per level and is
memoized: state does not change during a verify level, so every request's
query costs the same. One query station serves the level exactly, as one
commit station does: only one peer is ever queried.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .chaincode import (
    WORST_CASE_SCAN,
    ChaincodeContext,
    ChaincodeError,
    MedicalCenterRecord,
    register_certificate,
    register_medical_center,
    verify_certificate,
)
from .credential import CertificateHash, HMAC_SHA256, generate_did, generate_keypair
from .ledger import (
    Chain,
    EU_MEMBER_STATES,
    EndorsementPolicy,
    Transaction,
    WorldState,
    apply_block,
    cert_key,
    endorse_transaction,
)
from .netsim import (
    BandwidthMeter,
    EventQueue,
    MessageLayer,
    ServiceStation,
    TraceWriter,
)
from .ordering import ROLE_SIZES, ROLES, Envelope, OrderingCluster, seal_block
from .scenario import ScenarioConfig
from .workload import ArrivalSchedule, generate_arrivals

__all__ = [
    "PEER_HOSTS", "ORDERING_HOSTS", "LevelMetrics", "LevelRun", "SetupWorld", "run_level",
    "build_ms_keys",
]

# The deployment: one peer per member state, and the ordering cluster's
# instances in ROLES order (the ordering-bandwidth sum runs in this order).
PEER_HOSTS = tuple(f"peer-{ms}" for ms in EU_MEMBER_STATES)
ORDERING_HOSTS = tuple(f"{role}-{i}" for role in ROLES for i in range(ROLE_SIZES[role]))
# Preloaded records are sealed into setup blocks of this many transactions.
SETUP_BLOCK_TXS = 500


@dataclass(frozen=True)
class LevelMetrics:
    tps: float
    requests: int
    mean_response_ms: float
    p95_response_ms: float
    peer_bandwidth_kb: float
    ordering_bandwidth_kb: float
    busy_fractions: dict
    error_count: int
    saturated: bool
    accepted_submissions: int
    committed_txs: int
    block_count: int
    scan_count: int
    processed_events: int


def build_ms_keys() -> dict:
    """Deterministic per-member-state endorsement key pairs."""
    keys = {}
    for ms in EU_MEMBER_STATES:
        did = generate_did("ms", ms.encode())
        keys[ms] = generate_keypair(did, b"endorse|" + ms.encode(), HMAC_SHA256)
    return keys


def _peer_host(ms: str) -> str:
    return f"peer-{ms}"


def _client_host(ms: str) -> str:
    return f"client-{ms}"


class SetupWorld:
    """The setup that the levels of one scenario share, grown as they need it.

    It owns the member-state and sealer keys, the center block and the
    endorsed preload records in order. Each full block of `SETUP_BLOCK_TXS`
    records is sealed onto `chain` and validated into `state` once, when a
    level first needs it; `fork` hands a level its prefix. Setup transaction
    ids carry no level, so a level's setup blocks are a prefix of a larger
    level's, up to its final partial block.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ms_keys = build_ms_keys()
        self.policy = EndorsementPolicy(
            roster={ms: kp.public_key for ms, kp in self.ms_keys.items()},
            scheme_id=HMAC_SHA256,
        )
        sealer_did = generate_did("ordering", b"sealer")
        self.sealer_key = generate_keypair(sealer_did, b"sealer", HMAC_SHA256)
        self.center_dids: dict = {}
        self.chain = Chain()
        self.state = WorldState()
        self.records: list = []  # endorsed register transactions, in preload order
        self.provisioned: list = []  # (ms, cert hex) of each record
        self._state_sizes: list = []  # entries in `state` after each block of `chain`
        self._tx_counter = 0

    def _next_tx_id(self) -> bytes:
        self._tx_counter += 1
        tag = "tx|%s|%d|%d" % (self.config.step, self.config.seed, self._tx_counter)
        return hashlib.sha256(tag.encode()).digest()[:16]

    def _endorse(self, ms: str, response, tx_id: bytes) -> Transaction:
        """The transaction of chaincode `response`, endorsed by `ms`."""
        tx = Transaction(
            tx_id=tx_id,
            submitter=ms,
            operation=response.operation,
            read_set=response.read_set,
            write_set=response.write_set,
            payload_size=self.config.service_profile.envelope_bytes,
        )
        return endorse_transaction(tx, self.ms_keys[ms])

    def register_tx(
        self, state: WorldState, ms: str, cert: CertificateHash, tx_id: bytes
    ) -> Transaction:
        """The register chaincode run on `cert` over `state` by the peer of `ms`, endorsed."""
        ctx = ChaincodeContext(caller=ms, state=state)
        return self._endorse(ms, register_certificate(ctx, cert, self.center_dids[ms]), tx_id)

    def seal(self, chain: Chain, state: WorldState, batch: list) -> tuple:
        """Seal a batch onto `chain` and apply it to `state`; returns (block, validity flags)."""
        block = seal_block(batch, chain.tip, self.sealer_key)
        chain.append_block(block)
        return block, apply_block(state, block, self.policy)

    def commit_setup_block(self, chain: Chain, state: WorldState, txs: list) -> None:
        """Seal `txs` onto `chain` as one setup block; each must validate."""
        _block, flags = self.seal(
            chain, state, [Envelope(transaction=tx, received_at=0, size_bytes=0) for tx in txs]
        )
        if not all(f.valid for f in flags):
            raise RuntimeError("setup block contained invalid transactions")

    def _commit_full_block(self, txs: list) -> None:
        self.commit_setup_block(self.chain, self.state, txs)
        self._state_sizes.append(len(self.state))

    def _grow(self, total: int) -> None:
        """Build the center block, if not yet built, and endorse records up to
        `total`, sealing each full block as it fills."""
        if not self.chain.blocks:
            center_txs = []
            for ms in EU_MEMBER_STATES:
                did = generate_did("center", b"center|" + ms.encode())
                self.center_dids[ms] = did.text
                ctx = ChaincodeContext(caller=ms, state=self.state)
                response = register_medical_center(
                    ctx,
                    MedicalCenterRecord(
                        center_id=f"{ms.lower()}-national-1",
                        ms=ms,
                        name=f"{ms} National Vaccination Center",
                        address=f"1 Health Way, {ms}",
                        issuer_did=did.text,
                    ),
                )
                center_txs.append(self._endorse(ms, response, self._next_tx_id()))
            self._commit_full_block(center_txs)
        records = self.records
        while len(records) < total:
            index = len(records)
            ms = EU_MEMBER_STATES[index % len(EU_MEMBER_STATES)]
            cert = CertificateHash(hashlib.sha256(b"preload-cert|%d" % index).digest())
            records.append(self.register_tx(self.state, ms, cert, self._next_tx_id()))
            self.provisioned.append((ms, cert.hex))
            if len(records) % SETUP_BLOCK_TXS == 0:
                self._commit_full_block(records[-SETUP_BLOCK_TXS:])

    def fork(self, total: int) -> tuple:
        """A new (chain, state) holding the centers and the first `total` records.

        The chain takes the shared frozen blocks of the full record blocks; the
        state takes their frozen entries, shared too, since `WorldState.put`
        replaces an entry rather than changing it. The final partial block is
        sealed and validated on the fork alone.
        """
        self._grow(total)
        full = total // SETUP_BLOCK_TXS
        chain = Chain()
        for block in self.chain.blocks[: full + 1]:
            chain.append_block(block)
        state = self.state.copy_prefix(self._state_sizes[full])
        partial = self.records[full * SETUP_BLOCK_TXS : total]
        if partial:
            self.commit_setup_block(chain, state, partial)
        return chain, state


class LevelRun:
    """A single (step, tps level) execution over its own simulated world.

    Its ledger starts as a fork of `setup`; without one, the run builds a
    private `SetupWorld`.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        level,
        tracer: TraceWriter | None = None,
        setup: SetupWorld | None = None,
    ):
        self.config = config
        self.level = level
        self.profile = config.service_profile
        self.duration_us = config.duration_seconds * 1_000_000
        self.queue = EventQueue()
        self.meter = BandwidthMeter(window_us=self.duration_us)
        self.net = MessageLayer(self.queue, config.link, self.meter, tracer)
        self.setup = setup if setup is not None else SetupWorld(config)

        self.chain = Chain()
        self.state = WorldState()
        self.cluster = OrderingCluster(config.batch)

        window = self.duration_us
        self.endorse_stations = {
            ms: ServiceStation(f"endorse-{ms}", window) for ms in EU_MEMBER_STATES
        }
        self.commit_station = ServiceStation("commit", window)
        self.query_station = ServiceStation("query", window, self.profile.query_workers)
        self.orderer_station = ServiceStation("orderer", window)

        self.provisioned: list = []
        self.responses_us: list = []
        self.errors = 0
        self.accepted = 0
        self.committed = 0
        self.invalid_txs = 0
        self.started = 0
        self.completed = 0
        self.not_found = 0
        self._keepalive_at = self.profile.keepalive_interval_ms * 1000
        self._timer_armed_at: int | None = None
        self._broker_rr = 0
        self._tx_counter = 0
        self._scan_memo: int | None = None
        self._pending_acks: dict = {}

    # ------------------------------------------------------------------
    # world construction

    def _next_tx_id(self) -> bytes:
        """Ids of transactions made after `preload`; tagged with the level,
        which setup ids never are."""
        self._tx_counter += 1
        tag = "tx|%s|%s|%d|%d" % (
            self.config.step, self.level, self.config.seed, self._tx_counter
        )
        return hashlib.sha256(tag.encode()).digest()[:16]

    def _register_tx(self, ms: str, cert: CertificateHash) -> Transaction:
        """The register chaincode run on `cert` by the peer of `ms`, endorsed."""
        return self.setup.register_tx(self.state, ms, cert, self._next_tx_id())

    def preload(self, schedule: ArrivalSchedule) -> None:
        """Anchor centers and the pre-provisioned certificate population.

        A verify level also provisions one distinct target record per request
        in `schedule`. Setup happens before the measurement window: no
        messages, no bandwidth, sealed directly into setup blocks so the chain
        replays cleanly from genesis. The world is a fork of the setup world.
        """
        total = self.config.preloaded_records
        if self.config.step == "verify":
            total += len(schedule)
        self.chain, self.state = self.setup.fork(total)
        self.provisioned = self.setup.provisioned[:total]

    def anchor(self, ms: str, cert: CertificateHash) -> None:
        """Anchor one more certificate, after `preload`, in its own setup block."""
        self.setup.commit_setup_block(self.chain, self.state, [self._register_tx(ms, cert)])
        self.provisioned.append((ms, cert.hex))

    # ------------------------------------------------------------------
    # ambient traffic

    def _book_gossip(self) -> None:
        """Meter ring gossip between peers over the whole level: one series
        per link, sent every gossip interval up to the level's end."""
        step = self.profile.gossip_interval_ms * 1000
        for src, dst in zip(PEER_HOSTS, PEER_HOSTS[1:] + PEER_HOSTS[:1]):
            self.net.book(src, dst, self.profile.gossip_bytes, step, step, self.duration_us // step)

    def _book_keepalives(self, until: int) -> None:
        """Meter the keepalive ticks not yet booked before `until` and within
        the level: each peer pings the lead coordinator, read now, which
        answers on arrival. A fault books up to its instant before it applies."""
        lead = self.cluster.lead_instance("coordinator")
        host, size = f"coordinator-{lead}", self.profile.keepalive_bytes
        peers = PEER_HOSTS if lead is not None else ()
        at, step = self._keepalive_at, self.profile.keepalive_interval_ms * 1000
        ticks = max(0, -(-(min(until, self.duration_us + 1) - at) // step))
        for peer in peers:
            reply_at = self.net.book(peer, host, size, at, step, ticks)
            self.net.book(host, peer, size, reply_at, step, ticks)
        self._keepalive_at += ticks * step

    def _schedule_faults(self) -> None:
        for at_s, role, index, status in self.config.fault_schedule:
            at_us = round(at_s * 1_000_000)

            def fire(at_us=at_us, role=role, index=index, status=status):
                self._book_keepalives(at_us)
                self.cluster.set_instance_status(role, index, status == "up")
                self._try_cut()  # resume cutting after a recovery

            self.queue.schedule(at_us, fire)

    # ------------------------------------------------------------------
    # register flow

    def start_register(self, cert: CertificateHash, ms: str, arrived_at: int) -> None:
        """Client at `ms` asks its peer to anchor `cert`; the request arrived at `arrived_at`."""
        self.started += 1
        peer = _peer_host(ms)

        def endorsed():
            try:
                tx = self._register_tx(ms, cert)
            except ChaincodeError:
                self._fail_request(ms)
                return
            if not self.cluster.available:
                self._fail_request(ms)
                return
            sequencer = self.cluster.lead_instance("sequencer")
            seq_host = f"sequencer-{sequencer}"

            def at_sequencer():
                finish = self.orderer_station.enqueue(
                    self.queue.clock, self.profile.orderer_per_envelope_us
                )
                self.queue.schedule(finish, lambda: self._replicate(tx, ms, arrived_at))

            self.net.send(peer, seq_host, self.profile.envelope_bytes, "envelope", at_sequencer)

        at_peer = self._at_peer(self.endorse_stations[ms], self.profile.endorse_us, endorsed)
        self.net.send(_client_host(ms), peer, self.profile.proposal_bytes, "proposal", at_peer)

    def _at_peer(self, station: ServiceStation, service_us: int, then):
        """A request's delivery at its peer: REST overhead, `station` service, `then()`.
        Every enqueue on a peer station carries the same offset, so its order holds."""
        def arrived():
            at = self.queue.clock + self.profile.rest_overhead_us
            self.queue.schedule(station.enqueue(at, service_us), then)

        return arrived

    def _replicate(self, tx: Transaction, ms: str, arrived_at: int) -> None:
        """Sequencer hands the envelope to a broker; append happens on arrival."""
        ups = [i for i, up in enumerate(self.cluster.status["broker"]) if up]
        if not ups or not self.cluster.available:
            self._fail_request(ms)
            return
        broker = ups[self._broker_rr % len(ups)]
        self._broker_rr += 1
        sequencer = self.cluster.lead_instance("sequencer")
        seq_host = f"sequencer-{sequencer}"

        def at_broker():
            envelope = Envelope(
                transaction=tx,
                received_at=self.queue.clock,
                size_bytes=self.profile.envelope_bytes,
            )
            result = self.cluster.submit(envelope)
            if not result.accepted:
                self._fail_request(ms)
                return
            self.accepted += 1
            self._pending_acks[tx.tx_id] = (ms, arrived_at)
            self._try_cut()

        self.net.send(seq_host, f"broker-{broker}", self.profile.envelope_bytes, "envelope", at_broker)

    def _fail_request(self, ms: str) -> None:
        self.errors += 1
        self._respond(ms, self.profile.endorsement_bytes, None)

    def _try_cut(self) -> None:
        if not self.cluster.available:
            return  # cutting resumes via the fault event that restores health
        while True:
            batch = self.cluster.cut_batch(self.queue.clock)
            if batch is None:
                break
            self._seal_and_fanout(batch)
        self._arm_timer()

    def _arm_timer(self) -> None:
        deadline = self.cluster.next_timeout_deadline()
        if deadline is None or deadline == self._timer_armed_at:
            return
        self._timer_armed_at = deadline
        fire_at = max(deadline, self.queue.clock)

        def fire(expected=deadline):
            if self._timer_armed_at == expected:
                self._timer_armed_at = None
            self._try_cut()

        self.queue.schedule(fire_at, fire)

    def _seal_and_fanout(self, batch: list) -> None:
        """Seal and fan out `batch`; on commit, ack each valid transaction's
        client and send an error response for each invalid one."""
        block, flags = self.setup.seal(self.chain, self.state, batch)
        answers = {ms: [] for ms in EU_MEMBER_STATES}
        for tx, flag in zip(block.transactions, flags):
            if flag.valid:
                self.committed += 1
            else:
                self.invalid_txs += 1
            ms, arrived_at = self._pending_acks.pop(tx.tx_id)
            answers[ms].append((arrived_at, flag.valid))
        block_bytes = self.profile.block_base_bytes + self.profile.envelope_bytes * len(batch)
        sequencer = self.cluster.lead_instance("sequencer")
        seq_host = f"sequencer-{sequencer if sequencer is not None else 0}"
        commit_service = self.profile.commit_per_tx_us * len(batch)

        def delivered():
            finish = self.commit_station.enqueue(self.queue.clock, commit_service)
            self.queue.schedule(finish, committed)

        def committed():
            for ms, entries in answers.items():
                for arrived_at, valid in entries:
                    if valid:
                        self._respond(ms, self.profile.endorsement_bytes, arrived_at)
                    else:
                        self._fail_request(ms)

        self.net.send(seq_host, PEER_HOSTS, block_bytes, "block", delivered)

    def _respond(self, ms: str, size: int, arrived_at: int | None) -> None:
        """Peer `ms` answers its client. A request that arrived at `arrived_at`
        has its response time end on delivery; a failed one (None) has none."""
        def done():
            self.completed += 1
            if arrived_at is not None:
                self.responses_us.append(self.queue.clock - arrived_at)

        self.net.send(_peer_host(ms), _client_host(ms), size, "response", done)

    # ------------------------------------------------------------------
    # verify flow

    def scan_count(self) -> int:
        """Records one verification reads; `verify_certificate` runs once per level."""
        if self._scan_memo is None:
            ms, cert_hex = self.provisioned[-1]
            ctx = ChaincodeContext(caller=ms, state=self.state, query_mode=WORST_CASE_SCAN)
            result = verify_certificate(ctx, CertificateHash.from_hex(cert_hex), issuer_ms=ms)
            if not result.found:
                raise RuntimeError("provisioned verification target missing from state")
            self._scan_memo = result.scan_count
        return self._scan_memo

    def start_verify(self, target: tuple, ms: str, arrived_at: int) -> None:
        """Client at `ms` asks its peer whether `target` = (record ms, cert hex)
        is anchored; the request arrived at `arrived_at`."""
        self.started += 1
        record_ms, cert_hex = target

        def query_done():
            if self.state.get(cert_key(record_ms, cert_hex)) is None:
                self.not_found += 1
            self._respond(ms, self.profile.response_bytes, arrived_at)

        service = round(self.profile.query_per_record_us * self.scan_count())
        at_peer = self._at_peer(self.query_station, service, query_done)
        self.net.send(_client_host(ms), _peer_host(ms), self.profile.query_bytes, "query", at_peer)

    # ------------------------------------------------------------------
    # execution

    def execute(self) -> LevelMetrics:
        schedule = generate_arrivals(
            self.level, self.config.duration_seconds, self.config.arrival_mode, self.config.seed
        )
        self.preload(schedule)
        level_tag = round(float(self.level) * 1000)
        for index, at in enumerate(schedule.arrivals_us):
            if self.config.step == "register":
                ms = EU_MEMBER_STATES[index % len(EU_MEMBER_STATES)]
                digest = hashlib.sha256(b"live-cert|%d|%d" % (level_tag, index)).digest()
                cert = CertificateHash(digest)
                self.queue.schedule(at, lambda c=cert, m=ms, t=at: self.start_register(c, m, t))
            else:
                target = self.provisioned[index % len(self.provisioned)]
                self.queue.schedule(
                    at, lambda g=target, t=at: self.start_verify(g, EU_MEMBER_STATES[0], t)
                )
        self._book_gossip()
        self._schedule_faults()
        self.queue.run_until(self.duration_us)
        self._book_keepalives(self.duration_us + 1)
        self.queue.drain()
        return self._metrics(len(schedule))

    def _metrics(self, requests: int) -> LevelMetrics:
        if self.responses_us:
            ordered = sorted(self.responses_us)
            mean_ms = sum(ordered) / len(ordered) / 1000.0
            rank = max(0, -(-95 * len(ordered) // 100) - 1)
            p95_ms = ordered[rank] / 1000.0
        else:
            mean_ms = p95_ms = 0.0
        peer_kb = max(
            self.meter.host_kb_per_second(_peer_host(ms)) for ms in EU_MEMBER_STATES
        )
        ordering_kb = sum(
            self.meter.host_kb_per_second(host) for host in ORDERING_HOSTS
        )
        busy = {
            "endorse": max(s.busy_fraction() for s in self.endorse_stations.values()),
            "commit": self.commit_station.busy_fraction(),
            "query": self.query_station.busy_fraction(),
            "orderer": self.orderer_station.busy_fraction(),
        }
        # λ·S/c ≥ 1 at any station; every job comes from an arrival in (0, T].
        stations = [*self.endorse_stations.values(), self.query_station]
        stations += [self.commit_station, self.orderer_station]
        saturated = self.errors > 0 or any(
            s.offered_us >= self.duration_us * len(s.free_at) for s in stations
        )
        return LevelMetrics(
            tps=float(self.level),
            requests=requests,
            mean_response_ms=mean_ms,
            p95_response_ms=p95_ms,
            peer_bandwidth_kb=peer_kb,
            ordering_bandwidth_kb=ordering_kb,
            busy_fractions=busy,
            error_count=self.errors,
            saturated=saturated,
            accepted_submissions=self.accepted,
            committed_txs=self.committed,
            block_count=len(self.chain.blocks),
            scan_count=self._scan_memo or 0,
            processed_events=self.queue.processed,
        )


def run_level(
    config: ScenarioConfig,
    level,
    tracer: TraceWriter | None = None,
    setup: SetupWorld | None = None,
):
    """Run one TPS level, forked from `setup` if given; returns (LevelMetrics,
    LevelRun) for inspection."""
    run = LevelRun(config, level, tracer, setup)
    metrics = run.execute()
    return metrics, run

