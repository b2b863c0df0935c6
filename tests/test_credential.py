"""Credential construction, canonical encoding, hashing, and verification."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from vaxledger.credential import (
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
    verify_credential,
)

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
