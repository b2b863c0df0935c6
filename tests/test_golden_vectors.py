"""Golden vectors: the committed credential fixture and its frozen anchor,
and the ledger's transaction encodings."""

import hashlib
import json
from pathlib import Path

import pytest

from vaxledger.credential import (
    credential_from_dict,
    hash_credential,
    verify_credential,
)
from vaxledger.engine import SetupWorld
from vaxledger.ledger import encode_transaction, transaction_signing_payload
from vaxledger.scenario import default_register_config

FIXTURE = Path(__file__).parent / "data" / "golden_credential.json"

# frozen at fixture creation time; any encoding or hashing change must show up here
GOLDEN_ANCHOR = "45081177cc2571f4b848caf747c5aa1fa99b40470d40f3ecae39c88e75f3a8c3"


def load_golden():
    doc = json.loads(FIXTURE.read_text())
    return credential_from_dict(doc), doc


def test_golden_anchor_digest_stable():
    credential, _doc = load_golden()
    assert hash_credential(credential).hex == GOLDEN_ANCHOR


def test_golden_signature_verifies():
    credential, doc = load_golden()
    issuer_keys = {
        credential.issuer.text: (
            credential.proof.scheme_id,
            bytes.fromhex(doc["issuer_public_key"]),
        )
    }
    outcome = verify_credential(credential, issuer_keys, now=credential.issuance_date + 1)
    assert outcome.accepted


def test_golden_fields():
    credential, doc = load_golden()
    assert doc["issuer_ms"] == "NL"
    assert credential.dose_number == credential.total_doses == 2
    assert credential.expiration_date - credential.issuance_date == 365 * 86400


# SHA-256 of (transaction_signing_payload, encode_transaction) for the first
# center and the first certificate transaction of a default register setup.
# The center reads its key as absent (None); the certificate reads the center
# at version (0, 0) and its own key as absent.
GOLDEN_TX_ENCODINGS = {
    "center": (
        "7f23c8f9559d837ea867592bfbfdee5835f4fa92ffb9d0a51cfff087730ff0b1",
        "5ce12c991f17cfc01275a219c57048841def82b040f2f81e901f927e18695ec9",
    ),
    "cert": (
        "28d3d7579b00b7beee7a0473c730f6cf1ce5025a3620c27777a76aa3ebab16e7",
        "970ea2a0037b031490a9480d1d67b5eebe7166dfc16f51c21b323aebd33a226d",
    ),
}


@pytest.fixture(scope="module")
def setup_transactions():
    chain, _state = SetupWorld(default_register_config()).fork(1)
    return {"center": chain.blocks[0].transactions[0], "cert": chain.blocks[1].transactions[0]}


@pytest.mark.parametrize("name", sorted(GOLDEN_TX_ENCODINGS))
def test_golden_transaction_encodings(setup_transactions, name):
    tx = setup_transactions[name]
    versions = {version is None for _key, version in tx.read_set}
    assert versions == ({True} if name == "center" else {True, False})
    digests = tuple(
        hashlib.sha256(encoded).hexdigest()
        for encoded in (transaction_signing_payload(tx), encode_transaction(tx))
    )
    assert digests == GOLDEN_TX_ENCODINGS[name]
