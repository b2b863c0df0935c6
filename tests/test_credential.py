"""Credential construction, canonical encoding, hashing, and verification."""

import hashlib
import hmac
import json
import sys
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import example, given, settings, strategies as st

from vaxledger import credential as credential_module
from vaxledger.credential import (
    ED25519,
    HMAC_SHA256,
    CertificateHash,
    CredentialError,
    DecentralizedIdentifier,
    InvalidCredentialError,
    MissingProofError,
    canonicalize,
    credential_from_dict,
    credential_to_dict,
    generate_did,
    generate_keypair,
    hash_credential,
    issue_credential,
    sign_payload,
    verify_credential,
    verify_payload,
)
from vaxledger.engine import run_level
from vaxledger.ledger import EU_MEMBER_STATES
from vaxledger.scenario import default_verify_config

YEAR = 31_536_000


def make_issuer(seed=b"oracle"):
    did = generate_did("center", b"oracle-issuer")
    key = generate_keypair(did, b"oracle-key")
    return did, key


def make_credential(**overrides):
    issuer, key = make_issuer()
    subject = generate_did("citizen", b"oracle-subject")
    kwargs = dict(
        vaccine_product="mRNA-X",
        dose_number=2,
        total_doses=2,
        batch_id="LOT-42",
        issuance_date=1_700_000_000,
        validity_seconds=YEAR,
    )
    kwargs.update(overrides)
    return issue_credential(key, issuer, subject, **kwargs), key


class TestDid:
    def test_round_trip(self):
        did = DecentralizedIdentifier.parse("did:ms:abc123")
        assert did.method == "ms"
        assert did.text == "did:ms:abc123"
        assert DecentralizedIdentifier.parse(did.text) == did

    def test_generate_deterministic(self):
        assert generate_did("ms", b"seed-1") == generate_did("ms", b"seed-1")

    def test_generate_distinct_seeds(self):
        assert generate_did("ms", b"seed-1") != generate_did("ms", b"seed-2")

    def test_empty_method_rejected(self):
        with pytest.raises(ValueError):
            generate_did("", b"seed")
        with pytest.raises(ValueError):
            generate_did("ms", b"")

    def test_bad_text_rejected(self):
        for text in ("did:ms", "notdid:ms:x", "did:ms:bad/char"):
            with pytest.raises(ValueError):
                DecentralizedIdentifier.parse(text)

    def test_bad_method_rejected(self):
        for method in ("", "bad/char"):
            with pytest.raises(ValueError, match="DID method"):
                DecentralizedIdentifier(method, "abc")


class TestKeys:
    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            generate_keypair(generate_did("ms", b"x"), b"")

    def test_unknown_scheme_rejected(self):
        key = generate_keypair(generate_did("ms", b"x"), b"k", HMAC_SHA256)
        with pytest.raises(ValueError, match="rsa"):
            generate_keypair(key.owner, b"k", "rsa")
        with pytest.raises(ValueError, match="rsa"):
            sign_payload("rsa", key.private_key, b"p")
        with pytest.raises(ValueError, match="rsa"):
            verify_payload("rsa", key.public_key, b"p", b"s")


class TestIssue:
    def test_expiration_arithmetic(self):
        credential, _ = make_credential()
        assert credential.expiration_date == 1_700_000_000 + YEAR

    def test_dose_exceeding_total_rejected(self):
        with pytest.raises(InvalidCredentialError):
            make_credential(dose_number=3, total_doses=2)

    def test_zero_validity_rejected(self):
        with pytest.raises(ValueError):
            make_credential(validity_seconds=0)

    def test_empty_metadata_rejected(self):
        with pytest.raises(InvalidCredentialError):
            make_credential(vaccine_product="")
        with pytest.raises(InvalidCredentialError):
            make_credential(batch_id="")

    def test_invalid_fields_rejected(self):
        """Each field rule holds for a credential built field by field, not only when issued."""
        from dataclasses import replace

        credential, _ = make_credential()
        for change, message in (
            ({"context": ""}, "context"),
            ({"dose_number": 0}, "dose counts"),
            ({"expiration_date": credential.issuance_date}, "expiration_date"),
        ):
            with pytest.raises(InvalidCredentialError, match=message):
                replace(credential, **change)

    def test_issue_then_verify_round_trip(self):
        credential, key = make_credential()
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        outcome = verify_credential(credential, keys, now=credential.issuance_date)
        assert outcome.accepted


class TestCanonicalize:
    def test_deterministic(self):
        credential, _ = make_credential()
        assert canonicalize(credential) == canonicalize(credential)

    def test_proof_excluded(self):
        credential, _ = make_credential()
        from dataclasses import replace

        assert canonicalize(credential) == canonicalize(replace(credential, proof=None))

    def test_batch_id_changes_bytes(self):
        a, _ = make_credential()
        b, _ = make_credential(batch_id="LOT-43")
        assert canonicalize(a) != canonicalize(b)

    def test_serialize_parse_stable(self):
        credential, _ = make_credential()
        round_tripped = credential_from_dict(credential_to_dict(credential))
        assert canonicalize(round_tripped) == canonicalize(credential)

    @settings(max_examples=40)
    @given(
        product=st.text(min_size=1, max_size=20).filter(str.strip),
        batch=st.text(min_size=1, max_size=20).filter(str.strip),
        dose=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=5),
        issued=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_any_fields(self, product, batch, dose, extra, issued):
        credential, _ = make_credential(
            vaccine_product=product,
            batch_id=batch,
            dose_number=dose,
            total_doses=dose + extra,
            issuance_date=issued,
        )
        again = credential_from_dict(credential_to_dict(credential))
        assert canonicalize(again) == canonicalize(credential)
        assert hash_credential(again) == hash_credential(credential)


# Expected digest computed by the independent pipeline below and frozen.
ORACLE_ANCHOR = "b2a4aaf27c8a91d34babef66be1c87174a52b3b736998029eb684573cdc7c80f"


def independent_anchor(credential) -> str:
    """Second, independently written canonicalize+hash pipeline."""

    def piece(value):
        raw = value if isinstance(value, bytes) else str(value).encode()
        return len(raw).to_bytes(4, "big") + raw

    body = b"".join(
        piece(part)
        for part in (
            credential.context,
            credential.issuer.text,
            credential.subject.text,
            credential.vaccine_product,
            credential.dose_number,
            credential.total_doses,
            credential.batch_id,
            credential.issuance_date,
            credential.expiration_date,
        )
    )
    proof = (
        piece(credential.proof.scheme_id)
        + piece(credential.proof.verification_method.text)
        + piece(credential.proof.signature)
    )
    return hashlib.sha256(body + proof).hexdigest()


class TestHash:
    def test_matches_independent_oracle(self):
        credential, _ = make_credential()
        anchor = hash_credential(credential)
        assert anchor.hex == independent_anchor(credential)
        assert anchor.hex == ORACLE_ANCHOR

    def test_batch_id_flip_changes_digest(self):
        a, _ = make_credential()
        b, _ = make_credential(batch_id="LOT-42x")
        assert hash_credential(a) != hash_credential(b)

    def test_unsigned_rejected(self):
        credential, _ = make_credential()
        from dataclasses import replace

        with pytest.raises(MissingProofError):
            hash_credential(replace(credential, proof=None))

    def test_pure_function(self):
        credential, _ = make_credential()
        digests = {hash_credential(credential).hex for _ in range(1000)}
        assert len(digests) == 1

    def test_digest_length_enforced(self):
        with pytest.raises(ValueError):
            CertificateHash(b"\x00" * 31)


class TestVerify:
    def test_accepted_before_expiration(self):
        credential, key = make_credential()
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        assert verify_credential(credential, keys, credential.expiration_date - 1).accepted

    def test_expiration_is_exclusive(self):
        credential, key = make_credential()
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        outcome = verify_credential(credential, keys, credential.expiration_date)
        assert not outcome.accepted
        assert outcome.reason == "expired"

    def test_incomplete_doses_rejected(self):
        credential, key = make_credential(dose_number=1, total_doses=2)
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        outcome = verify_credential(credential, keys, credential.issuance_date)
        assert outcome.reason == "incomplete-doses"

    def test_unknown_issuer(self):
        credential, _ = make_credential()
        outcome = verify_credential(credential, {}, credential.issuance_date)
        assert outcome.reason == "unknown-issuer"

    def test_unsigned_rejected(self):
        from dataclasses import replace

        credential, key = make_credential()
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        outcome = verify_credential(replace(credential, proof=None), keys, credential.issuance_date)
        assert (outcome.accepted, outcome.reason) == (False, "signature")

    def test_tamper_any_field_rejected(self):
        credential, key = make_credential()
        keys = {credential.issuer.text: (key.scheme_id, key.public_key)}
        from dataclasses import replace

        mutations = [
            {"vaccine_product": "other"},
            {"batch_id": "LOT-99"},
            {"dose_number": 1},
            {"issuance_date": credential.issuance_date + 1},
            {"expiration_date": credential.expiration_date + 1},
            {"subject": generate_did("citizen", b"someone-else")},
            {"context": "https://elsewhere.example/v9"},
        ]
        for change in mutations:
            tampered = replace(credential, **change)
            outcome = verify_credential(tampered, keys, credential.issuance_date)
            assert not outcome.accepted, change
            assert outcome.reason == "signature", change


class TestFixtureFile:
    def test_save_load_round_trip(self, tmp_path):
        credential, _ = make_credential()
        path = tmp_path / "credential.json"
        path.write_text(json.dumps(credential_to_dict(credential)))
        assert credential_from_dict(json.loads(path.read_text())) == credential

    def test_unsupported_format_rejected(self):
        with pytest.raises(Exception):
            credential_from_dict({"format": "something-else"})

    @pytest.mark.parametrize(
        "change",
        [
            {"issuer": None},
            {"dose_number": [2]},
            {"proof": "not-an-object"},
            {"subject": 7},
            {"context": 5},
            {"vaccine_product": ["a"]},
            {"issuance_date": 1700000000.9},
            {"dose_number": True, "total_doses": True},
            {"issuer": "did:center:a b"},
            {"proof": {"scheme_id": "ed25519", "verification_method": "did:c:a", "signature": "zz"}},
            {"dose_number": "x"},
        ],
    )
    def test_wrong_typed_field_rejected(self, change):
        credential, _ = make_credential()
        doc = {**credential_to_dict(credential), **change}
        with pytest.raises(CredentialError):
            credential_from_dict(doc)


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8 % len(data)] ^= 1 << bit % 8
    return bytes(flipped)


class TestPreparedKeys:
    """Signing keys are prepared once per key; what they sign stays the same."""

    @settings(max_examples=150, deadline=None)
    @given(key=st.binary(max_size=130), payload=st.binary(max_size=4096), bit=st.integers(0, 2**15))
    @example(key=b"", payload=b"", bit=0)
    @example(key=b"k" * 64, payload=b"p", bit=3)  # one full block
    @example(key=b"k" * 65, payload=b"p" * 4096, bit=9)  # hashed first
    @example(key=b"k" * 130, payload=b"", bit=255)
    def test_hmac_matches_stdlib_and_rejects_a_flipped_bit(self, key, payload, bit):
        signature = sign_payload(HMAC_SHA256, key, payload)
        assert signature == hmac.digest(key, payload, "sha256")
        assert sign_payload(HMAC_SHA256, bytearray(key), payload) == signature
        assert verify_payload(HMAC_SHA256, key, payload, signature)
        assert not verify_payload(HMAC_SHA256, key, payload, _flip(signature, bit))
        if payload:
            assert not verify_payload(HMAC_SHA256, key, _flip(payload, bit), signature)

    @settings(max_examples=20, deadline=None)
    @given(secret=st.binary(min_size=32, max_size=32), payload=st.binary(max_size=512))
    def test_ed25519_matches_a_key_built_per_call(self, secret, payload):
        signature = sign_payload(ED25519, secret, payload)
        assert signature == Ed25519PrivateKey.from_private_bytes(secret).sign(payload)
        assert sign_payload(ED25519, secret, payload) == signature

    def test_rejected_keys_still_raise(self):
        with pytest.raises(ValueError):
            sign_payload(ED25519, b"short", b"p")
        with pytest.raises(TypeError):
            sign_payload(HMAC_SHA256, "text key", b"p")

    def test_concurrent_calls_agree_while_the_memo_is_cleared(self):
        """More threads than cores sign with more keys than the memo holds."""
        keys = [b"key-%d" % i for i in range(300)]
        wrong = []

        def sign_all(offset):
            for i in range(len(keys)):
                key = keys[(i + offset) % len(keys)]
                if sign_payload(HMAC_SHA256, key, key) != hmac.digest(key, key, "sha256"):
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sign_all, args=(n * 75,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_one_key_schedule_per_key_over_a_verify_level(self, monkeypatch):
        """A default verify level signs and checks every record, yet derives one
        schedule per key: 27 member-state endorsement keys and the sealer's."""
        derived = []

        class Memo(dict):
            def __setitem__(self, key, value):
                derived.append(key)
                super().__setitem__(key, value)

        monkeypatch.setattr(credential_module, "_PREPARED_KEYS", Memo())
        config = default_verify_config()
        metrics, _run = run_level(config, config.tps_levels[0])
        assert metrics.requests > 0
        assert len(derived) == len(set(derived)) == len(EU_MEMBER_STATES) + 1
