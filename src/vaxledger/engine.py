"""End-to-end scenario engine: drives register/verify flows over the simulator.

One `LevelRun` owns the world of one offered-TPS level: 27 peers and their
shared replicated ledger, the ordering cluster, its step's stations, and
ambient gossip/keepalive traffic. Its ledger starts as a fork of a
`SetupWorld`, which depends on the scenario's step and seed alone, so the
levels of one scenario share it: the setup blocks of a level are a prefix of a
larger level's, up to its final partial block, so each full setup block is
endorsed, sealed and validated once per scenario. A fork gets its own chain
and state, sharing frozen blocks and state entries, so nothing a level writes
reaches the setup world or another level. Registration
follows client -> peer (REST, endorse) -> ordering (sequence, batch, seal) ->
block fan-out -> commit -> client ack; verification follows
client -> peer (REST, content query) -> client response. Every started
request gets one response; a rejected one gets an error response.

An event stays only where its callback reads state that can change at its
instant. A hop whose delivery touches no shared state is booked when sent,
and a FIFO station is entered when its job is booked, wherever the job order
is fixed (Lindley's recursion): the query pool and endorse stations at
request start, after one offset; the orderer station at the endorse finish,
after one envelope transit; the commit station at block delivery. So a
verification schedules no event. A registration keeps its endorse finish
(chaincode, cluster health, lead sequencer), orderer finish (broker choice)
and broker arrival (append, batch cut); a block keeps its delivery, as its
transit grows with its size and can reorder blocks. Faults go first, and win ties.
Heartbeats enter no station, so their bytes go straight into the meter:
gossip when the level is scheduled, keepalives between faults, each tick
booked to the lead coordinator in force at its instant. The REST hop is an
offset on the peer station's enqueue. A level is saturated if any request
failed or any station was offered at least its capacity, λ·S/c ≥ 1.

A level draws its arrival schedule once, when it is built, from its config
and offered TPS; `preload` provisions one verify target per arrival, which
lengthens the scan. Each flow has one implementation, `start_register` or
`start_verify`, which starts one request: `execute` calls it per arrival in
arrival order, the CLI once on a preloaded world, reading the request's
milestones from the message trace. A verification reads no state: the CLI
asks the chaincode's `verify_certificate` whether its target is anchored.

The canonical chain and world state are applied once, at seal time; the
commit station models commit timing only. This keeps a single authoritative
replay (the total order every peer receives) without 27 redundant state
copies. One commit station serves all 27 peers exactly: each block reaches
every peer at one instant and costs each the same, so their timelines agree.

Every verification is a worst-case content query at the peer of
`EU_MEMBER_STATES[0]`, charged query_per_record_us times the entries that
`rich_query` scans for the newest provisioned record. The engine runs it once
per level and memoizes the count: state does not change during a verify
level, so every request's query costs the same. One query station serves the
level exactly, as one commit station does: only one peer is ever queried.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .chaincode import (
    ChaincodeContext,
    ChaincodeError,
    MedicalCenterRecord,
    register_certificate,
    register_medical_center,
)
from .credential import CertificateHash, HMAC_SHA256, generate_did, generate_keypair
from .ledger import (
    Chain,
    EU_MEMBER_STATES,
    EndorsementPolicy,
    Transaction,
    WorldState,
    apply_block,
    endorse_fields,
    rich_query,
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
from .workload import generate_arrivals

__all__ = [
    "PEER_HOSTS", "ORDERING_HOSTS", "LevelMetrics", "LevelRun", "SetupWorld", "run_level",
]

# The deployment: one peer per member state, and the ordering cluster's
# instances in ROLES order (the ordering-bandwidth sum runs in this order).
PEER_HOSTS = tuple(f"peer-{ms}" for ms in EU_MEMBER_STATES)
_PEER = dict(zip(EU_MEMBER_STATES, PEER_HOSTS))  # member state -> its peer host
_CLIENT = {ms: f"client-{ms}" for ms in EU_MEMBER_STATES}  # member state -> its client host
_PEER_ORDER = {ms: i for i, ms in enumerate(EU_MEMBER_STATES)}  # member state -> its peer's place
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
    scan_count: int
    processed_events: int


def _tx_ids(*fields):
    """Transaction ids 1, 2, ...: the first 16 bytes of the sha256 of "tx", `fields` and the
    id's number, joined by "|"; the prefix before the number is encoded once."""
    prefix = ("tx" + "|%s" * len(fields) % fields + "|").encode()
    return (hashlib.sha256(prefix + b"%d" % n).digest()[:16] for n in itertools.count(1))


class SetupWorld:
    """The setup that the levels of one scenario share, grown as they need it.

    It owns the member-state and sealer keys, the center block, built with
    the world from setup tx ids 1–27, and the endorsed preload records in
    order. Each full block of `SETUP_BLOCK_TXS` records is sealed onto
    `chain` and validated into `state` once, when a level first needs it;
    `fork` hands a level its prefix. Setup transaction ids carry no level, so
    a level's setup blocks are a prefix of a larger level's, up to its final
    partial block.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ms_keys = {}  # deterministic per-member-state endorsement key pairs
        for ms in EU_MEMBER_STATES:
            did = generate_did("ms", ms.encode())
            self.ms_keys[ms] = generate_keypair(did, b"endorse|" + ms.encode(), HMAC_SHA256)
        self.policy = EndorsementPolicy(
            roster={ms: kp.public_key for ms, kp in self.ms_keys.items()},
            scheme_id=HMAC_SHA256,
        )
        sealer_did = generate_did("ordering", b"sealer")
        self.sealer_key = generate_keypair(sealer_did, b"sealer", HMAC_SHA256)
        self.chain = Chain()
        self.state = WorldState()
        self.records: list = []  # endorsed register transactions, in preload order
        self._next_tx_id = _tx_ids(config.step, config.seed).__next__
        self.center_dids = {}  # member state -> the DID text of its one center
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
        self.commit_setup_block(self.chain, self.state, center_txs)

    def _endorse(self, ms: str, response, tx_id: bytes) -> Transaction:
        """The transaction of chaincode `response`, endorsed by `ms` as `endorse_transaction` does."""
        return endorse_fields(self.ms_keys[ms], tx_id, ms, response.operation, response.read_set,
                              response.write_set)

    def register_tx(
        self, state: WorldState, ms: str, cert: CertificateHash, tx_id: bytes
    ) -> Transaction:
        """The register chaincode run on `cert` over `state` by the peer of `ms`, endorsed."""
        ctx = ChaincodeContext(caller=ms, state=state)
        return self._endorse(ms, register_certificate(ctx, cert, self.center_dids[ms]), tx_id)

    def seal(self, chain: Chain, state: WorldState, batch: list) -> tuple:
        """Seal a batch onto `chain` and apply it to `state`; returns (block, validity flags).

        The data hash and the endorsement check read the signing payload each
        transaction carries, its endorser's or the one `seal_block` attaches.
        """
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

    def fork(self, total: int) -> tuple:
        """A new (chain, state) holding the centers and the first `total` records.

        The chain takes the shared frozen blocks of the full record blocks; the
        state takes their frozen entries, one per center and per record (each
        writes one new key), shared too, since `WorldState.put` replaces an
        entry rather than changing it. The final partial block is sealed and
        validated on the fork alone. Records not yet endorsed are endorsed
        first, each full block of them sealed onto the world's chain as it fills.
        """
        records = self.records
        while len(records) < total:
            index = len(records)
            ms = EU_MEMBER_STATES[index % len(EU_MEMBER_STATES)]
            cert = CertificateHash(hashlib.sha256(b"preload-cert|%d" % index).digest())
            records.append(self.register_tx(self.state, ms, cert, self._next_tx_id()))
            if len(records) % SETUP_BLOCK_TXS == 0:
                self.commit_setup_block(self.chain, self.state, records[-SETUP_BLOCK_TXS:])
        full = total // SETUP_BLOCK_TXS
        chain = Chain()
        for block in self.chain.blocks[: full + 1]:
            chain.append_block(block)
        state = self.state.copy_prefix(len(EU_MEMBER_STATES) + full * SETUP_BLOCK_TXS)
        partial = records[full * SETUP_BLOCK_TXS : total]
        if partial:
            self.commit_setup_block(chain, state, partial)
        return chain, state


class LevelRun:
    """A single (step, tps level) execution over its own simulated world.

    `stations` maps each role to the stations its step's jobs enter, the only ones built.
    `preload` forks `chain` and `state` off `setup`, which must have been built
    for the same step and seed; without one, the run builds a private
    `SetupWorld`. `arrivals` is the level's request schedule, in µs.
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
        self.rest_us = round(self.profile.rest_overhead_ms * 1000)  # service times round to µs here
        self.duration_us = config.duration_seconds * 1_000_000
        self.queue = EventQueue()
        self.meter = BandwidthMeter(window_us=self.duration_us)
        self.net = MessageLayer(self.queue, config.link, self.meter, tracer)
        self.setup = setup if setup is not None else SetupWorld(config)
        built_for = self.setup.config.step, self.setup.config.seed
        if built_for != (config.step, config.seed):
            raise ValueError(f"setup world built for (step, seed) = {built_for}, "
                             f"not {(config.step, config.seed)}")
        self.arrivals = generate_arrivals(
            level, config.duration_seconds, config.arrival_mode, config.seed
        )

        self.cluster = OrderingCluster(config.batch)

        if config.step == "register":
            self.endorse_us = round(self.profile.endorse_ms * 1000)
            self.orderer_us = round(self.profile.orderer_per_envelope_ms * 1000)
            self.commit_per_tx_us = round(self.profile.commit_per_tx_ms * 1000)
            self.endorse_stations = {ms: ServiceStation(self.duration_us) for ms in EU_MEMBER_STATES}
            self.orderer_station = ServiceStation(self.duration_us)
            self.commit_station = ServiceStation(self.duration_us)
            self.stations = {"endorse": tuple(self.endorse_stations.values()),
                             "orderer": (self.orderer_station,), "commit": (self.commit_station,)}
        else:
            self.query_station = ServiceStation(self.duration_us, self.profile.query_workers)
            self.stations = {"query": (self.query_station,)}

        self.responses_us: list = []
        self.errors = 0
        self.accepted = 0
        self.committed = 0
        self.invalid_txs = 0
        self.started = 0
        self.completed = 0
        self._keepalive_at = self.profile.keepalive_interval_ms * 1000
        self._timer_armed_at: int | None = None  # the last batch deadline scheduled
        self._broker_rr = 0
        # Ids of transactions made after `preload`, tagged with the level, which setup ids never are.
        self._next_tx_id = _tx_ids(config.step, level, config.seed).__next__
        self.scan_count = 0  # records the level's one query scans, once the first verify runs it
        self._pending_acks: dict = {}

    # ------------------------------------------------------------------
    # world construction

    def preload(self) -> None:
        """Anchor centers and the pre-provisioned certificate population.

        A verify level also provisions one distinct target record per arrival
        in `self.arrivals`; `provisioned` holds the setup world's register transactions.
        Setup happens before the measurement window: no messages, no bandwidth,
        sealed directly into setup blocks so the chain replays cleanly from
        genesis. The world is a fork of the setup world.
        """
        total = self.config.preloaded_records
        if self.config.step == "verify":
            total += len(self.arrivals)
        self.chain, self.state = self.setup.fork(total)
        self.provisioned = self.setup.records[:total]

    def anchor(self, ms: str, cert: CertificateHash) -> None:
        """Anchor one more certificate, after `preload`, in its own setup block."""
        tx = self.setup.register_tx(self.state, ms, cert, self._next_tx_id())
        self.setup.commit_setup_block(self.chain, self.state, [tx])
        self.provisioned.append(tx)

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
        answers on arrival; with every coordinator down, no one. A fault books
        up to its instant before it applies."""
        size = self.profile.keepalive_bytes
        at, step = self._keepalive_at, self.profile.keepalive_interval_ms * 1000
        ticks = max(0, -(-(min(until, self.duration_us + 1) - at) // step))
        for lead in self.cluster.up_hosts["coordinator"][:1]:
            for peer in PEER_HOSTS:
                reply_at = self.net.book(peer, lead, size, at, step, ticks)
                self.net.book(lead, peer, size, reply_at, step, ticks)
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
        """Client at `ms` asks its peer to anchor `cert`; the request arrived at
        `arrived_at`. Every proposal enters its peer's endorse station after one
        offset, so requests started in arrival order are served FIFO."""
        self.started += 1
        delivery = self.net.post(
            _CLIENT[ms], _PEER[ms], self.profile.proposal_bytes, "proposal", arrived_at
        )
        finish = self.endorse_stations[ms].enqueue(delivery + self.rest_us, self.endorse_us)
        # Three defaults, not a four-cell closure: one such callback per request waits from
        # the level's start, and CPython keeps freed four-tuples on a free list.
        self.queue.schedule(finish, lambda c=cert, m=ms, t=arrived_at: self._endorsed(c, m, t))

    def _endorsed(self, cert: CertificateHash, ms: str, arrived_at: int) -> None:
        """Endorse finish: run the chaincode and send the envelope to the lead
        sequencer. Finishes fire in time order and every envelope has one
        transit, so the orderer station is entered in order at booking."""
        try:
            tx = self.setup.register_tx(self.state, ms, cert, self._next_tx_id())
        except ChaincodeError:
            self._fail_request(ms)
            return
        if not self.cluster.available:
            self._fail_request(ms)
            return
        seq_host = self.cluster.up_hosts["sequencer"][0]
        delivery = self.net.post(
            _PEER[ms], seq_host, self.profile.envelope_bytes, "envelope", self.queue.clock
        )
        finish = self.orderer_station.enqueue(delivery, self.orderer_us)
        self.queue.schedule(finish, lambda: self._replicate(tx, ms, arrived_at))

    def _replicate(self, tx: Transaction, ms: str, arrived_at: int) -> None:
        """Sequencer hands the envelope to a broker; append happens on arrival."""
        if not self.cluster.available:
            self._fail_request(ms)
            return
        brokers = self.cluster.up_hosts["broker"]
        broker = brokers[self._broker_rr % len(brokers)]
        self._broker_rr += 1
        seq_host = self.cluster.up_hosts["sequencer"][0]

        def at_broker():
            envelope = Envelope(tx, self.queue.clock, self.profile.envelope_bytes)
            if not self.cluster.submit(envelope).accepted:
                self._fail_request(ms)
                return
            self.accepted += 1
            self._pending_acks[tx.tx_id] = (ms, arrived_at)
            self._try_cut()

        self.net.send(seq_host, broker, self.profile.envelope_bytes, "envelope", at_broker)

    def _fail_request(self, ms: str) -> None:
        self.errors += 1
        self._respond(ms, self.profile.endorsement_bytes, None, self.queue.clock)

    def _try_cut(self) -> None:
        if not self.cluster.available:
            return  # cutting resumes via the fault event that restores health
        while True:
            batch = self.cluster.cut_batch(self.queue.clock)
            if batch is None:
                break
            self._seal_and_fanout(batch)
        # The loop leaves no timed-out envelope, so the oldest one's deadline
        # lies ahead; deadlines only grow, so each is scheduled once.
        deadline = self.cluster.next_timeout_deadline()
        if deadline is not None and deadline != self._timer_armed_at:
            self._timer_armed_at = deadline
            self.queue.schedule(deadline, self._try_cut)

    def _seal_and_fanout(self, batch: list) -> None:
        """Seal and fan out `batch`. On delivery the block enters the commit
        station, and each client is answered at the commit finish: an ack for
        a valid transaction, an error for an invalid one. Runs only while the
        cluster is available, so a sequencer leads."""
        block, flags = self.setup.seal(self.chain, self.state, batch)
        answers = []  # (ms, arrival time or None on error)
        for tx, flag in zip(block.transactions, flags):
            ms, arrived_at = self._pending_acks.pop(tx.tx_id)
            if flag.valid:
                self.committed += 1
            else:
                self.invalid_txs += 1
                self.errors += 1
                arrived_at = None
            answers.append((ms, arrived_at))
        answers.sort(key=lambda answer: _PEER_ORDER[answer[0]])  # in peer order
        block_bytes = self.profile.block_base_bytes + self.profile.envelope_bytes * len(batch)
        seq_host = self.cluster.up_hosts["sequencer"][0]
        commit_service = self.commit_per_tx_us * len(batch)

        # An event: transit grows with block size, so blocks may arrive out of seal order.
        def delivered():
            finish = self.commit_station.enqueue(self.queue.clock, commit_service)
            for ms, arrived_at in answers:
                self._respond(ms, self.profile.endorsement_bytes, arrived_at, finish)

        self.net.send(seq_host, PEER_HOSTS, block_bytes, "block", delivered)

    def _respond(self, ms: str, size: int, arrived_at: int | None, at: int) -> None:
        """Peer `ms` answers its client at `at`. A request that arrived at `arrived_at`
        has its response time end on delivery; a failed one (None) has none."""
        delivery = self.net.post(_PEER[ms], _CLIENT[ms], size, "response", at)
        self.completed += 1
        if arrived_at is not None:
            self.responses_us.append(delivery - arrived_at)

    # ------------------------------------------------------------------
    # verify flow

    def start_verify(self, ms: str, arrived_at: int) -> None:
        """Client at `ms` queries its peer; the request arrived at `arrived_at`.
        It books its hops and its query job, priced by the level's one query for
        the newest provisioned record, which the first call runs: found or not is
        the contract's answer. Every query enters the pool after one offset, so
        requests started in arrival order are served FIFO."""
        self.started += 1
        delivery = self.net.post(
            _CLIENT[ms], _PEER[ms], self.profile.query_bytes, "query", arrived_at
        )
        if not self.scan_count:
            cert_hex = self.provisioned[-1].write_set[0][1]["cert_hash"]
            query = {"doc_type": "cert", "cert_hash": cert_hex}
            matches, self.scan_count = rich_query(self.state, query)
            if not matches:
                raise RuntimeError("provisioned verification target missing from state")
            self._query_us = round(self.profile.query_per_record_us * self.scan_count)
        finish = self.query_station.enqueue(delivery + self.rest_us, self._query_us)
        self._respond(ms, self.profile.response_bytes, arrived_at, finish)

    # ------------------------------------------------------------------
    # execution

    def execute(self) -> LevelMetrics:
        self.preload()
        # Faults go first, so that a fault orders before any request event at its instant.
        self._schedule_faults()
        level_tag = round(float(self.level) * 1000)
        for index, at in enumerate(self.arrivals):
            if self.config.step == "register":
                ms = EU_MEMBER_STATES[index % len(EU_MEMBER_STATES)]
                digest = hashlib.sha256(b"live-cert|%d|%d" % (level_tag, index)).digest()
                self.start_register(CertificateHash(digest), ms, at)
            else:
                self.start_verify(EU_MEMBER_STATES[0], at)
        self._book_gossip()
        self.queue.run_until(self.duration_us)
        self._book_keepalives(self.duration_us + 1)
        self.queue.drain()
        # An outage that outlasts the run strands its uncut envelopes: answer each.
        for ms, _arrived_at in self._pending_acks.values():
            self._fail_request(ms)
        return self._metrics()

    def _metrics(self) -> LevelMetrics:
        if self.responses_us:
            ordered = sorted(self.responses_us)
            mean_ms = sum(ordered) / len(ordered) / 1000.0
            rank = max(0, -(-95 * len(ordered) // 100) - 1)
            p95_ms = ordered[rank] / 1000.0
        else:
            mean_ms = p95_ms = 0.0
        seconds = self.config.duration_seconds
        peer_kb = max(self.meter.host_kb(host) / seconds for host in PEER_HOSTS)
        # Divided per host, then summed: dividing the sum moves its last bits.
        ordering_kb = sum(self.meter.host_kb(host) / seconds for host in ORDERING_HOSTS)
        busy = {role: max(s.busy_fraction() for s in group)
                for role, group in self.stations.items()}
        # λ·S/c ≥ 1 at any station; every job comes from an arrival in (0, T].
        saturated = self.errors > 0 or any(s.offered_us >= self.duration_us * len(s.free_at)
                                           for group in self.stations.values() for s in group)
        return LevelMetrics(
            tps=float(self.level),
            requests=len(self.arrivals),
            mean_response_ms=mean_ms,
            p95_response_ms=p95_ms,
            peer_bandwidth_kb=peer_kb,
            ordering_bandwidth_kb=ordering_kb,
            busy_fractions=busy,
            error_count=self.errors,
            saturated=saturated,
            accepted_submissions=self.accepted,
            committed_txs=self.committed,
            scan_count=self.scan_count,
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

