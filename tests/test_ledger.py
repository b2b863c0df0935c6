"""Chain integrity, endorsement-policy validation, world state, and queries."""

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vaxledger.credential import HMAC_SHA256
from vaxledger.ledger import (
    _JSON,
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
    chain_snapshot_lines,
    compute_block_hash,
    compute_data_hash,
    encode_transaction,
    endorse_transaction,
    make_center_record,
    make_cert_record,
    rich_query,
    validate_transaction,
    write_snapshot,
)

from ledger_helpers import KEYS, POLICY, make_tx


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


def test_unknown_submitter_rejected():
    with pytest.raises(ValueError, match="unknown member state code: 'UK'"):
        Transaction(b"t" * 16, "UK", b"op", (), ())


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
    def test_empty_roster_rejected_when_the_policy_is_built(self):
        with pytest.raises(ValueError):
            EndorsementPolicy(roster={}, scheme_id=HMAC_SHA256)

    def test_roster_is_a_read_only_copy(self):
        """Once built, a policy's roster can be emptied neither through the
        dict it was built from nor through the policy."""
        roster = dict(POLICY.roster)
        policy = EndorsementPolicy(roster=roster, scheme_id=HMAC_SHA256)
        roster.clear()
        with pytest.raises(AttributeError):
            policy.roster.clear()
        with pytest.raises(TypeError):
            policy.roster["DE"] = KEYS["FR"].public_key
        tx = make_tx("DE", "DE/cert/abc", {"doc_type": "cert"})
        assert validate_transaction(tx, policy, WorldState()).valid

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

    def test_replaced_prev_hash_detected(self):
        chain = Chain()
        chain.append_block(make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/a", {"v": 1})]))
        chain.append_block(make_block(1, chain.tip_hash, [make_tx("IT", "IT/c", {"v": 3})]))
        for index in range(2):
            original = chain.blocks[index]
            forged = hashlib.sha256(b"forged").digest()
            chain.blocks[index] = replace(original, prev_hash=forged)
            assert not chain.verify(), index
            chain.blocks[index] = original
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
        certs = [
            e.value for _k, e in state.items_in_order() if e.value.get("doc_type") == "cert"
        ]
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


# The keys each chaincode call writes: `register_certificate` and `register_medical_center`.
RECORD_KEYS = {
    "cert": {"doc_type", "cert_hash", "ms", "issuer_did"},
    "center": {"doc_type", "center_id", "ms", "name", "address", "issuer_did"},
}


def test_records_hold_only_what_the_chaincode_writes(default_levels):
    """Every record of the largest default verify level, its setup world's
    included, holds exactly the keys its chaincode call writes, each a
    non-empty text that agrees with the record's state key."""
    _config, _setup, runs = default_levels["verify"]
    kinds = {"cert": 0, "center": 0}
    for key, entry in runs[-1][1].state.items_in_order():
        value = entry.value
        ms, kind, ident = key.split("/")
        assert value["doc_type"] == kind and set(value) == RECORD_KEYS[kind]
        assert all(v.__class__ is str and v for v in value.values())
        assert value["ms"] == ms and value["cert_hash" if kind == "cert" else "center_id"] == ident
        kinds[kind] += 1
    assert kinds["center"] == len(EU_MEMBER_STATES) and kinds["cert"] > 4700


def _plain(record: dict) -> dict:
    """An equal record built of plain dicts only."""
    return json.loads(json.dumps(record))


class TestReadOnlyRecords:
    """A record that `make_cert_record` or `make_center_record` returns refuses
    every change, and encodes, digests, exports and matches as the equal plain
    dict does."""

    RECORDS = {
        "cert": lambda: make_cert_record("ab" * 32, "DE", "did:ex:de"),
        "center": lambda: make_center_record("de-national-1", "DE", "DE Center", "1 Way", "did:ex:de"),
    }
    MUTATIONS = {
        "setitem": lambda r: r.__setitem__("ms", "FR"),
        "delitem": lambda r: r.__delitem__("ms"),
        "ior": lambda r: r.__ior__({"ms": "FR"}),
        "clear": lambda r: r.clear(),
        "pop": lambda r: r.pop("ms"),
        "popitem": lambda r: r.popitem(),
        "setdefault": lambda r: r.setdefault("extra", 1),
        "update": lambda r: r.update(ms="FR"),
    }

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("kind", RECORDS)
    def test_every_mutator_raises(self, kind, mutation):
        record = self.RECORDS[kind]()
        before = _plain(record)
        with pytest.raises(TypeError):
            self.MUTATIONS[mutation](record)
        assert record == before

    def test_a_copy_is_a_plain_dict(self):
        record = make_cert_record("ef" * 32, "IT", "did:ex:it")
        assert type({**record}) is type(record | {}) is type(record.copy()) is type(dict(record)) is dict

    @pytest.mark.parametrize("kind", ["cert", "center"])
    def test_bytes_equal_those_of_a_plain_dict(self, kind, tmp_path):
        record = self.RECORDS[kind]()
        plain = _plain(record)
        assert type(plain) is dict and plain == record
        assert "".join(_JSON(record, 0)) == "".join(_JSON(plain, 0)) == json.dumps(
            plain, sort_keys=True, separators=(",", ":"))
        states = [WorldState(), WorldState()]
        chains = [Chain(), Chain()]
        for state, chain, value in zip(states, chains, (record, plain)):
            state.put("DE/x", value, (0, 0))
            chain.append_block(make_block(0, ZERO_DIGEST, [make_tx("DE", "DE/x", value)]))
        assert states[0].digest() == states[1].digest()
        assert list(chain_snapshot_lines(chains[0])) == list(chain_snapshot_lines(chains[1]))

    def test_rich_query_matches_as_on_plain_dicts(self):
        records = [make_cert_record(f"{i:064x}", ms, f"did:ex:{ms}")
                   for i, ms in enumerate(EU_MEMBER_STATES)]
        records.append(make_center_record("de-national-1", "DE", "DE Center", "1 Way", "did:ex:DE"))
        states = [WorldState(), WorldState()]
        for i, record in enumerate(records):
            states[0].put(f"k{i}", record, (1, i))
            states[1].put(f"k{i}", _plain(record), (1, i))
        for predicate in ({"doc_type": "cert"}, {"issuer_did": "did:ex:DE"},
                          {"doc_type": "cert", "cert_hash": f"{5:064x}"}, {"ms": "none"}):
            assert rich_query(states[0], predicate) == rich_query(states[1], predicate)
        assert rich_query(states[0], {"issuer_did": "did:ex:DE"}) == (
            [_plain(records[10]), _plain(records[-1])], len(records))


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
        oracle = [e.value for _k, e in state.items_in_order() if e.value.get("ms") == "FR"]
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
            for _k, e in state.items_in_order()
            if all(e.value.get(k) == v for k, v in predicate.items())
        ]
        assert matches == naive
        assert scanned == n


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda values: st.lists(values, max_size=4) | st.dictionaries(st.text(), values, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
def test_canonical_json_equals_json_dumps(value):
    """The prebuilt encoder writes what `json.dumps` writes, non-ASCII text,
    non-finite floats and nesting included."""
    assert "".join(_JSON(value, 0)) == json.dumps(value, sort_keys=True, separators=(",", ":"))


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
        assert header["schema"] == "vaxledger-chain/2"
        assert header["blocks"] == 2

    def test_payload_size_reaches_no_byte(self):
        """A transaction's wire size is its envelope's: two transactions that
        differ only in `payload_size` encode, hash and export alike."""
        tx = make_tx("DE", "DE/a", {"v": 1})
        sized = replace(tx, payload_size=7000)
        assert encode_transaction(sized) == encode_transaction(tx)
        assert compute_data_hash([sized]) == compute_data_hash([tx])
        snapshots = []
        for t in (tx, sized):
            chain = Chain()
            chain.append_block(make_block(0, ZERO_DIGEST, [t]))
            snapshots.append(list(chain_snapshot_lines(chain)))
        assert snapshots[0] == snapshots[1]
