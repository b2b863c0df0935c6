"""Chaincode access control, conformity checks, and the anchor round trip."""

import hashlib

import pytest

from vaxledger.chaincode import (
    AccessDeniedError,
    AlreadyRegisteredError,
    ChaincodeContext,
    MedicalCenterRecord,
    NonconformantMessageError,
    UnknownIssuerError,
    encode_call,
    register_certificate,
    register_medical_center,
    verify_certificate,
)
from vaxledger.credential import CertificateHash
from vaxledger.ledger import WorldState, cert_key, rich_query


def fresh_hash(tag: bytes) -> CertificateHash:
    return CertificateHash(hashlib.sha256(tag).digest())


def center_record(ms="DE", center_id="berlin-1"):
    return MedicalCenterRecord(
        center_id=center_id,
        ms=ms,
        name="Berlin Vaccination Center",
        address="1 Gesundheitsweg, Berlin",
        issuer_did=f"did:center:{ms.lower()}{center_id}",
    )


def state_with_center(ms="DE", center_id="berlin-1"):
    state = WorldState()
    ctx = ChaincodeContext(caller=ms, state=state)
    response = register_medical_center(ctx, center_record(ms, center_id))
    for index, (key, value) in enumerate(response.write_set):
        state.put(key, value, (0, index))
    return state


class TestRegisterCenter:
    def test_writes_under_caller_namespace(self):
        ctx = ChaincodeContext(caller="DE", state=WorldState())
        response = register_medical_center(ctx, center_record())
        assert response.write_set[0][0] == "DE/center/berlin-1"
        # read of the (absent) key recorded for commit-time duplicate detection
        assert ("DE/center/berlin-1", None) in response.read_set

    def test_cross_ms_denied(self):
        ctx = ChaincodeContext(caller="FR", state=WorldState())
        with pytest.raises(AccessDeniedError):
            register_medical_center(ctx, center_record(ms="DE"))

    def test_empty_name_nonconformant(self):
        record = MedicalCenterRecord(
            center_id="x", ms="DE", name="", address="a", issuer_did="did:center:x"
        )
        ctx = ChaincodeContext(caller="DE", state=WorldState())
        with pytest.raises(NonconformantMessageError):
            register_medical_center(ctx, record)

    def test_duplicate_rejected(self):
        state = state_with_center()
        ctx = ChaincodeContext(caller="DE", state=state)
        with pytest.raises(AlreadyRegisteredError):
            register_medical_center(ctx, center_record())


class TestRegisterCertificate:
    def test_happy_path(self):
        state = state_with_center()
        ctx = ChaincodeContext(caller="DE", state=state)
        anchor = fresh_hash(b"cert-1")
        response = register_certificate(ctx, anchor, center_record().issuer_did)
        keys = [k for k, _ in response.write_set]
        assert keys == [f"DE/cert/{anchor.hex}"]
        # issuer's center record is a read dependency
        assert any(k == "DE/center/berlin-1" and v == (0, 0) for k, v in response.read_set)

    def test_unknown_issuer(self):
        state = state_with_center()
        ctx = ChaincodeContext(caller="DE", state=state)
        with pytest.raises(UnknownIssuerError):
            register_certificate(ctx, fresh_hash(b"c"), "did:center:unregistered")

    def test_foreign_center_not_usable(self):
        state = state_with_center(ms="DE")
        ctx = ChaincodeContext(caller="FR", state=state)
        with pytest.raises(UnknownIssuerError):
            register_certificate(ctx, fresh_hash(b"c"), center_record().issuer_did)

    def test_duplicate_hash_rejected(self):
        state = state_with_center()
        anchor = fresh_hash(b"cert-dup")
        ctx = ChaincodeContext(caller="DE", state=state)
        response = register_certificate(ctx, anchor, center_record().issuer_did)
        for index, (key, value) in enumerate(response.write_set):
            state.put(key, value, (1, index))
        ctx2 = ChaincodeContext(caller="DE", state=state)
        with pytest.raises(AlreadyRegisteredError):
            register_certificate(ctx2, anchor, center_record().issuer_did)

    def test_short_hash_nonconformant(self):
        state = state_with_center()
        ctx = ChaincodeContext(caller="DE", state=state)
        with pytest.raises(NonconformantMessageError):
            register_certificate(ctx, b"\x01" * 31, center_record().issuer_did)

    def test_concurrent_duplicate_invalidates_at_commit(self):
        """Two proposals for the same hash built on the same snapshot: the
        second one's absent-read goes stale once the first commits."""
        from vaxledger.ledger import validate_transaction
        from ledger_helpers import KEYS, POLICY
        from vaxledger.ledger import Transaction, endorse_transaction

        state = state_with_center()
        anchor = fresh_hash(b"race")
        responses = []
        for tag in (b"p1", b"p2"):
            ctx = ChaincodeContext(caller="DE", state=state)
            responses.append(register_certificate(ctx, anchor, center_record().issuer_did))
        txs = []
        for tag, response in zip((b"p1", b"p2"), responses):
            tx = Transaction(
                tx_id=hashlib.sha256(tag).digest()[:16],
                submitter="DE",
                operation=response.operation,
                read_set=response.read_set,
                write_set=response.write_set,
            )
            txs.append(endorse_transaction(tx, KEYS["DE"]))
        first = validate_transaction(txs[0], POLICY, state)
        assert first.valid
        for key, value in txs[0].write_set:
            state.put(key, value, (1, 0))
        second = validate_transaction(txs[1], POLICY, state)
        assert not second.valid
        assert second.reason == "stale-read"


def cert_query(anchor: CertificateHash) -> dict:
    """The content query the engine charges for one verification of `anchor`."""
    return {"doc_type": "cert", "cert_hash": anchor.hex}


class TestVerifyCertificate:
    def test_register_then_verify_found(self):
        state = state_with_center()
        anchor = fresh_hash(b"cert-rt")
        ctx = ChaincodeContext(caller="DE", state=state)
        response = register_certificate(ctx, anchor, center_record().issuer_did)
        for index, (key, value) in enumerate(response.write_set):
            state.put(key, value, (1, index))
        result = verify_certificate(ChaincodeContext(caller="DE", state=state), anchor)
        assert result.found
        assert result.record["cert_hash"] == anchor.hex
        matches, _scanned = rich_query(state, cert_query(anchor))
        assert matches[-1] is result.record

    def test_never_registered_not_found(self):
        state = state_with_center()
        ctx = ChaincodeContext(caller="DE", state=state)
        result = verify_certificate(ctx, fresh_hash(b"nope"))
        assert not result.found and result.record is None
        assert rich_query(state, cert_query(fresh_hash(b"nope"))) == ([], len(state))

    def test_worst_case_scan_cost(self):
        state = WorldState()
        last = None
        for i in range(10_000):
            digest = fresh_hash(b"m%d" % i)
            state.put(
                cert_key("DE", digest.hex),
                {"doc_type": "cert", "cert_hash": digest.hex, "ms": "DE"},
                (0, i),
            )
            last = digest
        matches, scanned = rich_query(state, cert_query(last))
        assert matches[-1]["cert_hash"] == last.hex
        assert scanned == 10_000

    def test_exact_mode_single_probe(self, monkeypatch):
        state = state_with_center()
        anchor = fresh_hash(b"cert-x")
        ctx = ChaincodeContext(caller="DE", state=state)
        response = register_certificate(ctx, anchor, center_record().issuer_did)
        for index, (key, value) in enumerate(response.write_set):
            state.put(key, value, (1, index))
        probes = []  # the keys read; a scan fails the test
        get = state.get
        monkeypatch.setattr(state, "get", lambda key: probes.append(key) or get(key))
        monkeypatch.setattr(state, "items_in_order", pytest.fail)
        ctx = ChaincodeContext(caller="FR", state=state)
        result = verify_certificate(ctx, anchor, issuer_ms="DE")
        assert result.found and probes == [cert_key("DE", anchor.hex)]

    def test_read_only(self):
        state = state_with_center()
        before = state.digest()
        verify_certificate(ChaincodeContext(caller="DE", state=state), fresh_hash(b"q"))
        rich_query(state, cert_query(fresh_hash(b"q")))
        assert state.digest() == before


class TestCallDescriptor:
    def test_byte_stable(self):
        a = encode_call("op", [b"x", b"y"])
        b = encode_call("op", [b"x", b"y"])
        assert a == b
        assert encode_call("op", [b"xy"]) != a
