"""Chain integrity, endorsement-policy validation, world state, and queries."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vaxledger.credential import HMAC_SHA256, generate_did, generate_keypair
from vaxledger.ledger import (
    Block,
    BrokenChainError,
    Chain,
    EU_MEMBER_STATES,
    EndorsementPolicy,
    InvalidQueryError,
    OutOfOrderError,
    Transaction,
    WorldState,
    ZERO_DIGEST,
    apply_block,
    compute_block_hash,
    compute_data_hash,
    endorse_transaction,
    rich_query,
    validate_transaction,
    write_snapshot,
)


def ms_keys():
    keys = {}
    for ms in EU_MEMBER_STATES:
        did = generate_did("ms", ms.encode())
        keys[ms] = generate_keypair(did, b"k|" + ms.encode(), HMAC_SHA256)
    return keys


KEYS = ms_keys()
POLICY = EndorsementPolicy(
    roster={ms: kp.public_key for ms, kp in KEYS.items()}, scheme_id=HMAC_SHA256
)


def make_tx(submitter, key, value, reads=(), tx_tag=b"t"):
    tx = Transaction(
        tx_id=hashlib.sha256(tx_tag + key.encode()).digest()[:16],
        submitter=submitter,
        operation=b"op",
        read_set=tuple(reads),
        write_set=((key, value),),
    )
    return endorse_transaction(tx, KEYS[submitter])


def make_block(number, prev_hash, txs):
    return Block(
        number=number,
        prev_hash=prev_hash,
        data_hash=compute_data_hash(txs),
        transactions=tuple(txs),
    )


def test_roster_has_27_members():
    assert len(EU_MEMBER_STATES) == 27
    assert len(set(EU_MEMBER_STATES)) == 27


class TestBlockHash:
    def test_deterministic(self):
        d = hashlib.sha256(b"x").digest()
        assert compute_block_hash(3, d, d) == compute_block_hash(3, d, d)

    def test_number_sensitivity(self):
        d = hashlib.sha256(b"x").digest()
        assert compute_block_hash(3, d, d) != compute_block_hash(4, d, d)

    def test_genesis_header_matches_independent_oracle(self):
        data_hash = hashlib.sha256(b"fixture-data").digest()
        # independent reimplementation of the header encoding
        oracle = hashlib.sha256(
            (0).to_bytes(8, "big")
            + (32).to_bytes(4, "big") + ZERO_DIGEST
            + (32).to_bytes(4, "big") + data_hash
        ).hexdigest()
        digest = compute_block_hash(0, ZERO_DIGEST, data_hash)
        assert digest.hex() == oracle
        assert digest.hex() == "9fd9725f758ea02515672fce985e41c44d09e3f76bd1111b582a4c3b2a2fcfa2"


class TestValidation:
    def test_self_signed_own_namespace_valid(self):
        state = WorldState()
        tx = make_tx("DE", "DE/cert/abc", {"doc_type": "cert"})
        assert validate_transaction(tx, POLICY, state).valid

    def test_foreign_namespace_rejected(self):
        state = WorldState()
        tx = make_tx("FR", "DE/cert/abc", {"doc_type": "cert"})
        result = validate_transaction(tx, POLICY, state)
        assert not result.valid
        assert result.reason == "foreign-namespace"

    def test_stale_read_rejected(self):
        state = WorldState()
        state.put("DE/cert/abc", {"v": 1}, (0, 0))
        tx = make_tx("DE", "DE/cert/abc", {"v": 2}, reads=(("DE/cert/abc", None),))
        result = validate_transaction(tx, POLICY, state)
        assert result.reason == "stale-read"

    def test_missing_signature_rejected(self):
        state = WorldState()
        tx = Transaction(
            tx_id=b"x" * 16, submitter="DE", operation=b"op",
            read_set=(), write_set=(("DE/k", {"v": 1}),),
        )
        assert validate_transaction(tx, POLICY, state).reason == "bad-signature"

    def test_wrong_key_signature_rejected(self):
        state = WorldState()
        tx = Transaction(
            tx_id=b"y" * 16, submitter="DE", operation=b"op",
            read_set=(), write_set=(("DE/k", {"v": 1}),),
        )
        tx = endorse_transaction(replace(tx, submitter="FR"), KEYS["FR"])
        tx = replace(tx, submitter="DE")  # FR's signature presented as DE's
        assert validate_transaction(tx, POLICY, state).reason == "bad-signature"

    def test_cross_ms_diagonal_only(self):
        state = WorldState()
        valid_pairs = 0
        for submitter in EU_MEMBER_STATES:
            for target in EU_MEMBER_STATES:
                tx = make_tx(submitter, f"{target}/cert/h", {"doc_type": "cert"})
                if validate_transaction(tx, POLICY, state).valid:
                    valid_pairs += 1
                    assert submitter == target
        assert valid_pairs == 27


class TestChain:
    def test_genesis_append(self):
        chain = Chain()
        block = make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/a", {"v": 1})])
        chain.append_block(block)
        assert len(chain) == 1
        assert chain.verify()

    def test_out_of_order_rejected(self):
        chain = Chain()
        block = make_block(5, ZERO_DIGEST, [make_tx("DE", "DE/a", {"v": 1})])
        with pytest.raises(OutOfOrderError):
            chain.append_block(block)

    def test_broken_prev_hash_rejected(self):
        chain = Chain()
        chain.append_block(make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/a", {"v": 1})]))
        bad = make_block(1, hashlib.sha256(b"tampered").digest(), [make_tx("DE", "DE/b", {"v": 2})])
        with pytest.raises(BrokenChainError):
            chain.append_block(bad)

    def test_tampering_any_transaction_detected(self):
        chain = Chain()
        txs0 = [make_tx("DE", "DE/a", {"v": 1}), make_tx("FR", "FR/b", {"v": 2})]
        chain.append_block(make_block(0, ZERO_DIGEST, txs0))
        chain.append_block(make_block(1, chain.tip_hash, [make_tx("IT", "IT/c", {"v": 3})]))
        assert chain.verify()
        for block_index in range(2):
            for tx_index in range(len(chain.blocks[block_index].transactions)):
                original = chain.blocks[block_index]
                tampered_tx = replace(
                    original.transactions[tx_index], operation=b"evil"
                )
                txs = list(original.transactions)
                txs[tx_index] = tampered_tx
                chain.blocks[block_index] = replace(original, transactions=tuple(txs))
                assert not chain.verify(), (block_index, tx_index)
                chain.blocks[block_index] = original
        assert chain.verify()


class TestApplyBlock:
    def test_valid_write_lands_with_version(self):
        state = WorldState()
        block = make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/k", {"v": 1})])
        flags = apply_block(state, block, POLICY)
        assert flags[0].valid
        assert state.get("DE/k") == {"v": 1}
        assert state.version_of("DE/k") == (0, 0)

    def test_two_writers_second_stale(self):
        """Two transactions writing one key; the second read the key as absent
        and must invalidate. Cross-checked against a brute-force replay."""
        state = WorldState()
        tx1 = make_tx("DE", "DE/k", {"v": 1}, reads=(("DE/k", None),), tx_tag=b"a")
        tx2 = make_tx("DE", "DE/k", {"v": 2}, reads=(("DE/k", None),), tx_tag=b"b")
        block = make_block(0, ZERO_DIGEST, [tx1, tx2])
        flags = apply_block(state, block, POLICY)

        # brute-force replay oracle
        oracle_state = {}
        oracle_flags = []
        for index, tx in enumerate(block.transactions):
            ok = all(
                oracle_state.get(k, (None, None))[1] == v for k, v in tx.read_set
            )
            oracle_flags.append(ok)
            if ok:
                for k, value in tx.write_set:
                    oracle_state[k] = (value, (0, index))

        assert [f.valid for f in flags] == oracle_flags == [True, False]
        assert state.get("DE/k") == {"v": 1}
        assert state.version_of("DE/k") == (0, 0)

    def test_block_of_28_registrations(self):
        state = WorldState()
        txs = [
            make_tx("DE", f"DE/cert/{i:04x}", {"doc_type": "cert", "cert_hash": f"{i:04x}"})
            for i in range(28)
        ]
        block = make_block(0, ZERO_DIGEST, txs)
        flags = apply_block(state, block, POLICY)
        assert all(f.valid for f in flags)
        certs = [e.value for e in state.entries_in_order() if e.value.get("doc_type") == "cert"]
        assert len(certs) == 28

    def test_replay_reproduces_state(self):
        chain = Chain()
        live = WorldState()
        rng = random.Random(7)
        for number in range(6):
            txs = []
            for t in range(rng.randrange(1, 5)):
                ms = rng.choice(EU_MEMBER_STATES)
                txs.append(
                    make_tx(ms, f"{ms}/cert/{number}-{t}", {"n": number, "t": t},
                            tx_tag=b"%d-%d" % (number, t))
                )
            block = make_block(number, chain.tip_hash if chain.blocks else ZERO_DIGEST, txs)
            chain.append_block(block)
            apply_block(live, block, POLICY)
        replayed = WorldState()
        for block in chain.blocks:
            apply_block(replayed, block, POLICY)
        assert replayed.digest() == live.digest()


class TestQueries:
    def test_get_record(self):
        state = WorldState()
        state.put("DE/k", {"v": 1}, (0, 0))
        assert state.get("DE/k") == {"v": 1}
        assert state.get("DE/none") is None
        state.put("DE/k", {"v": 2}, (1, 0))
        assert state.get("DE/k") == {"v": 2}

    def test_empty_state(self):
        matches, scanned = rich_query(WorldState(), {"doc_type": "cert"})
        assert matches == [] and scanned == 0

    def test_match_subset_with_oracle(self):
        state = WorldState()
        for i in range(10):
            state.put(
                f"DE/cert/{i}",
                {"doc_type": "cert", "cert_hash": f"h{i}", "ms": "DE" if i % 3 else "FR"},
                (0, i),
            )
        matches, scanned = rich_query(state, {"ms": "FR"})
        oracle = [e.value for e in state.entries_in_order() if e.value.get("ms") == "FR"]
        assert matches == oracle
        assert len(matches) == 4  # i in {0, 3, 6, 9}
        assert scanned == 10

    def test_unique_match_last_costs_full_scan(self):
        state = WorldState()
        for i in range(1000):
            state.put(f"DE/cert/{i}", {"doc_type": "cert", "cert_hash": f"h{i}"}, (0, i))
        matches, scanned = rich_query(state, {"cert_hash": "h999"})
        assert len(matches) == 1
        assert scanned == 1000

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidQueryError):
            rich_query(WorldState(), {"nonexistent_field": 1})

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_query_equals_naive_filter(self, n, seed):
        rng = random.Random(seed)
        state = WorldState()
        for i in range(n):
            ms = rng.choice(("DE", "FR", "IT"))
            state.put(
                f"{ms}/cert/{i}",
                {"doc_type": "cert", "cert_hash": f"h{i % 7}", "ms": ms},
                (0, i),
            )
        predicate = {"ms": rng.choice(("DE", "FR", "IT")), "cert_hash": f"h{rng.randrange(7)}"}
        matches, scanned = rich_query(state, predicate)
        naive = [
            e.value
            for e in state.entries_in_order()
            if all(e.value.get(k) == v for k, v in predicate.items())
        ]
        assert matches == naive
        assert scanned == n


class TestSnapshot:
    def test_snapshot_round_trip_bytes(self, tmp_path):
        chain = Chain()
        chain.append_block(make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/a", {"v": 1})]))
        chain.append_block(make_block(1, chain.tip_hash, [make_tx("FR", "FR/b", {"v": 2})]))
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_snapshot(chain, p1)
        write_snapshot(chain, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == 3  # header + two blocks
        import json

        header = json.loads(lines[0])
        assert header["schema"] == "vaxledger-chain/1"
        assert header["blocks"] == 2
