"""Ordering cluster: availability gating, batching rules, block sealing."""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from vaxledger.credential import HMAC_SHA256, generate_did, generate_keypair
from vaxledger.ledger import Chain, Transaction, WorldState, apply_block, endorse_transaction
from vaxledger.ordering import (
    BatchConfig,
    Envelope,
    OrderingCluster,
    ROLES,
    ROLE_SIZES,
    seal_block,
)
from ledger_helpers import KEYS, POLICY, make_tx


def make_envelope(i: int, at: int = 0, size: int = 100) -> Envelope:
    ms = "DE"
    tx = Transaction(
        tx_id=hashlib.sha256(b"env%d" % i).digest()[:16],
        submitter=ms,
        operation=b"op",
        read_set=(),
        write_set=((f"{ms}/cert/{i}", {"i": i}),),
    )
    return Envelope(transaction=endorse_transaction(tx, KEYS[ms]), received_at=at, size_bytes=size)


SEALER = generate_keypair(generate_did("ordering", b"sealer"), b"sk", HMAC_SHA256)


class TestAvailability:
    def test_all_up(self):
        assert OrderingCluster().available

    def test_one_down_per_role_still_available(self):
        cluster = OrderingCluster()
        cluster.set_instance_status("coordinator", 0, False)
        cluster.set_instance_status("broker", 2, False)
        cluster.set_instance_status("sequencer", 1, False)
        assert cluster.available
        assert cluster.submit(make_envelope(1)).accepted

    def test_two_down_same_role_unavailable(self):
        cluster = OrderingCluster()
        cluster.set_instance_status("sequencer", 0, False)
        cluster.set_instance_status("sequencer", 2, False)
        assert not cluster.available
        assert not cluster.submit(make_envelope(1)).accepted

    def test_exhaustive_all_status_vectors(self):
        """Availability <=> every role has at most one Down, over all 2^10."""
        for bits in itertools.product((True, False), repeat=10):
            cluster = OrderingCluster()
            flat = []
            for role in ROLES:
                flat.extend((role, i) for i in range(ROLE_SIZES[role]))
            downs = {role: 0 for role in ROLES}
            for (role, index), up in zip(flat, bits):
                cluster.set_instance_status(role, index, up)
                if not up:
                    downs[role] += 1
            expected = all(count <= 1 for count in downs.values())
            assert cluster.available == expected, bits

    @settings(max_examples=300, deadline=None)
    @given(
        changes=st.lists(
            st.tuples(st.sampled_from(ROLES), st.integers(0, 3), st.booleans()), max_size=30
        )
    )
    @example(changes=[("broker", 1, False), ("broker", 1, False), ("broker", 1, True),
                      ("sequencer", 0, False), ("sequencer", 0, True), ("sequencer", 0, True)])
    @example(changes=[("coordinator", i % 3, i < 3) for i in range(6, -1, -1)])
    def test_health_state_matches_status_after_every_change(self, changes):
        """Any sequence of status changes, repeats and up-down-up included:
        after each, `available` and every role's Up hosts, lead first, equal
        a fresh recomputation from a model of the status vectors."""
        cluster = OrderingCluster()
        model = {role: [True] * ROLE_SIZES[role] for role in ROLES}
        for role, index, up in changes:
            index %= ROLE_SIZES[role]
            cluster.set_instance_status(role, index, up)
            model[role][index] = up
            assert cluster.available == all(ups.count(False) <= 1 for ups in model.values())
            for name, ups in model.items():
                up_indices = [i for i, flag in enumerate(ups) if flag]
                assert cluster.up_hosts[name] == tuple(f"{name}-{i}" for i in up_indices)

    def test_bad_index_rejected(self):
        cluster = OrderingCluster()
        with pytest.raises(ValueError):
            cluster.set_instance_status("broker", 4, False)
        with pytest.raises(ValueError):
            cluster.set_instance_status("nope", 0, False)


class TestSubmitAndLog:
    def test_resubmitted_copy_is_logged_and_invalidated_at_commit(self):
        """The log keeps no tx-id index: both copies are appended, and the
        second one's read of the certificate key as absent is stale at commit."""
        key = "DE/cert/ab"
        tx = make_tx("DE", key, {"doc_type": "cert", "cert_hash": "ab"}, reads=[(key, None)])
        env = Envelope(transaction=tx, received_at=0, size_bytes=100)
        cluster = OrderingCluster()
        assert cluster.submit(env).accepted
        assert cluster.submit(env).accepted  # duplicate resubmission
        assert cluster.log == [env, env]
        block = seal_block(cluster.cut_batch(cluster.batch.batch_timeout_us), Chain().tip, SEALER)
        state = WorldState()
        flags = apply_block(state, block, POLICY)
        assert [(flag.valid, flag.reason) for flag in flags] == [(True, None), (False, "stale-read")]
        assert [k for k, _entry in state.items_in_order()] == [key]

    def test_status_toggle_preserves_log(self):
        cluster = OrderingCluster()
        for i in range(5):
            cluster.submit(make_envelope(i))
        cluster.set_instance_status("broker", 2, False)
        cluster.set_instance_status("broker", 2, True)
        assert len(cluster.log) == 5

    def test_hundred_submissions_with_one_sequencer_down(self):
        cluster = OrderingCluster()
        cluster.set_instance_status("sequencer", 0, False)
        for i in range(100):
            assert cluster.submit(make_envelope(i, at=i)).accepted
        # count/uniqueness oracle over the log
        ids = [env.transaction.tx_id for env in cluster.log]
        assert len(ids) == 100
        assert len(set(ids)) == 100
        assert ids == sorted(ids, key=lambda t: ids.index(t))  # order preserved


class TestBatching:
    def test_count_rule(self):
        cluster = OrderingCluster(BatchConfig(max_message_count=10, batch_timeout_ms=1000))
        for i in range(10):
            cluster.submit(make_envelope(i, at=i))
        batch = cluster.cut_batch(now=10)
        assert [env.transaction.tx_id for env in batch] == [
            env.transaction.tx_id for env in cluster.log[:10]
        ]

    def test_timeout_rule(self):
        cluster = OrderingCluster(BatchConfig(batch_timeout_ms=40))
        cluster.submit(make_envelope(1, at=1000))
        assert cluster.cut_batch(now=40_999) is None
        batch = cluster.cut_batch(now=41_000)
        assert batch is not None and len(batch) == 1

    def test_empty_pending(self):
        assert OrderingCluster().cut_batch(now=10**9) is None

    def test_bytes_rule_overshoot_bounded(self):
        config = BatchConfig(max_message_count=100, max_batch_bytes=1000, batch_timeout_ms=10**6)
        cluster = OrderingCluster(config)
        for i in range(5):
            cluster.submit(make_envelope(i, at=0, size=400))
        batch = cluster.cut_batch(now=0)
        total = sum(env.size_bytes for env in batch)
        assert len(batch) == 3  # 400+400 < 1000, the third crosses the limit
        assert total <= config.max_batch_bytes + 400

    def test_partial_batch_below_thresholds_not_cut(self):
        cluster = OrderingCluster(BatchConfig(max_message_count=10, batch_timeout_ms=1000))
        for i in range(4):
            cluster.submit(make_envelope(i, at=0))
        assert cluster.cut_batch(now=100) is None

    def test_next_timeout_deadline(self):
        cluster = OrderingCluster(BatchConfig(batch_timeout_ms=40))
        assert cluster.next_timeout_deadline() is None
        cluster.submit(make_envelope(1, at=500))
        assert cluster.next_timeout_deadline() == 500 + 40_000


def reference_cuts(envelopes, config, now):
    """The cuts the module's documented rules make at `now`, until none fires.

    A cut fires when the pending count reaches max_message_count, pending
    bytes reach max_batch_bytes, or the oldest pending envelope has waited
    batch_timeout. It takes the oldest envelopes, at most max_message_count,
    and at most one envelope past the byte limit.
    """
    pending, cuts = list(envelopes), []
    while pending:
        fires = (
            len(pending) >= config.max_message_count
            or sum(env.size_bytes for env in pending) >= config.max_batch_bytes
            or now - pending[0].received_at >= config.batch_timeout_us
        )
        if not fires:
            break
        batch = []
        for env in pending[: config.max_message_count]:
            batch.append(env)
            if sum(e.size_bytes for e in batch) >= config.max_batch_bytes:
                break
        cuts.append(batch)
        pending = pending[len(batch):]
    return cuts, pending


PROPERTY_TXS = [make_envelope(i).transaction for i in range(24)]


class TestBatchCutProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 3000), st.integers(0, 30_000)), max_size=len(PROPERTY_TXS)
        ),
        max_message_count=st.integers(1, 12),
        max_batch_bytes=st.integers(1, 12_000),
        batch_timeout_ms=st.integers(1, 60),
        # `now` near some envelope's deadline, often exactly on it or one off.
        deadline_of=st.integers(0, len(PROPERTY_TXS) - 1),
        offset=st.integers(-1, 1) | st.integers(-100_000, 100_000),
    )
    def test_cut_matches_documented_rules(
        self, arrivals, max_message_count, max_batch_bytes, batch_timeout_ms, deadline_of, offset
    ):
        config = BatchConfig(max_message_count, max_batch_bytes, batch_timeout_ms)
        envelopes, at = [], 0
        for tx, (size, gap) in zip(PROPERTY_TXS, arrivals):
            at += gap
            envelopes.append(Envelope(transaction=tx, received_at=at, size_bytes=size))
        anchor = envelopes[deadline_of % len(envelopes)].received_at if envelopes else 0
        now = max(0, anchor + config.batch_timeout_us + offset)
        cluster = OrderingCluster(config)
        for env in envelopes:
            cluster.submit(env)
        cuts = []
        while (batch := cluster.cut_batch(now)) is not None:
            cuts.append(batch)
        expected, left = reference_cuts(envelopes, config, now)
        assert cuts == expected
        deadline = left[0].received_at + config.batch_timeout_us if left else None
        assert cluster.next_timeout_deadline() == deadline


class TestSealing:
    def test_numbering_and_prev_hash(self):
        chain = Chain()
        batch = [make_envelope(i) for i in range(3)]
        block = seal_block(batch, (-1, b"\x00" * 32), SEALER)
        assert block.number == 0
        chain.append_block(block)
        block2 = seal_block([make_envelope(9)], chain.tip, SEALER)
        assert block2.number == 1
        assert block2.prev_hash == chain.tip_hash
        chain.append_block(block2)
        assert chain.verify()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            seal_block([], (-1, b"\x00" * 32), SEALER)

    def test_tampered_transaction_breaks_data_hash(self):
        from dataclasses import replace

        block = seal_block([make_envelope(1), make_envelope(2)], (-1, b"\x00" * 32), SEALER)
        chain = Chain()
        chain.append_block(block)
        assert chain.verify()
        evil = replace(block.transactions[0], operation=b"evil")
        chain.blocks[0] = replace(block, transactions=(evil, block.transactions[1]))
        assert not chain.verify()

    def test_total_order_identical_state_on_all_replicas(self):
        """Byte-identical blocks replayed on independent replicas give
        byte-identical state digests."""
        cluster = OrderingCluster(BatchConfig(max_message_count=4, batch_timeout_ms=10**6))
        for i in range(12):
            cluster.submit(make_envelope(i, at=i))
        blocks = []
        tip = (-1, b"\x00" * 32)
        while True:
            batch = cluster.cut_batch(now=10**9)
            if batch is None:
                break
            block = seal_block(batch, tip, SEALER)
            blocks.append(block)
            from vaxledger.ledger import compute_block_hash

            tip = (block.number, compute_block_hash(block.number, block.prev_hash, block.data_hash))
        assert len(blocks) == 3
        digests = set()
        for _replica in range(3):
            chain, state = Chain(), WorldState()
            for block in blocks:
                chain.append_block(block)
                apply_block(state, block, POLICY)
            assert chain.verify()
            digests.add(state.digest())
        assert len(digests) == 1
