"""Vaccination credentials: DIDs, signing keys, issuance, hashing, verification.

A credential is a signed assertion by a medical-center issuer about a vaccinated
subject. Only its hash is ever anchored on the ledger; the credential itself
travels with the citizen. All operations here are pure functions over frozen
values and are safe to call concurrently, their bounded key memo `_PREPARED_KEYS` too.
The memo prepares each signing key and each Ed25519 public key once. Ed25519 comes
from `cryptography`, imported when the memo first prepares an Ed25519 key, so a
caller that signs only with HMAC-SHA256, as the simulator's sweeps do, never loads it.

Canonical encoding
------------------
Stable hashing and signing need a canonical byte form. Every field is encoded
as a 4-byte big-endian length followed by its UTF-8 bytes (integers rendered in
decimal), concatenated in the fixed order::

    context, issuer, subject, vaccine_product, dose_number, total_doses,
    batch_id, issuance_date, expiration_date

The proof is excluded from the body encoding; `hash_credential` appends the
proof's own canonical encoding (scheme_id, verification_method, signature).

Fixture file
------------
`credential_to_dict` / `credential_from_dict` map a single credential to and
from a JSON document with ``"format": "vaxledger-credential/1"``; byte fields
are lowercase hex. The CLI ``issue``/``verify`` subcommands, which add
resolution hints to the document, and the golden-vector tests share this
schema.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import re
import struct
from dataclasses import dataclass, replace

__all__ = [
    "CredentialError",
    "InvalidCredentialError",
    "MissingProofError",
    "DecentralizedIdentifier",
    "KeyPair",
    "Proof",
    "VaccinationCredential",
    "CertificateHash",
    "VerificationOutcome",
    "generate_did",
    "generate_keypair",
    "sign_payload",
    "verify_payload",
    "issue_credential",
    "canonicalize",
    "hash_credential",
    "verify_credential",
    "credential_to_dict",
    "credential_from_dict",
    "DEFAULT_CONTEXT",
    "ED25519",
    "HMAC_SHA256",
    "DIGEST_SIZE",
]


class CredentialError(Exception):
    """Base class for credential-layer failures."""


class InvalidCredentialError(CredentialError):
    """Credential fields violate an invariant (e.g. dose_number > total_doses)."""


class MissingProofError(CredentialError):
    """Operation requires a signed credential but no proof is attached."""


DIGEST_SIZE = 32  # SHA-256 everywhere; one hash, fixed project-wide

ED25519 = "ed25519"
HMAC_SHA256 = "hmac-sha256"

DEFAULT_CONTEXT = "https://vaxledger.example/credentials/vaccination/v1"

_DID_IDENT_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class DecentralizedIdentifier:
    """A method-scoped identifier, rendered as ``did:<method>:<identifier>``."""

    method: str
    identifier: str

    def __post_init__(self):
        if not self.method or not _DID_IDENT_RE.match(self.method):
            raise ValueError(f"invalid DID method: {self.method!r}")
        if not self.identifier or not _DID_IDENT_RE.match(self.identifier):
            raise ValueError(f"invalid DID identifier: {self.identifier!r}")

    @property
    def text(self) -> str:
        return f"did:{self.method}:{self.identifier}"

    @classmethod
    def parse(cls, text: str) -> "DecentralizedIdentifier":
        parts = text.split(":")
        if len(parts) != 3 or parts[0] != "did":
            raise ValueError(f"not a DID: {text!r}")
        return cls(method=parts[1], identifier=parts[2])


def generate_did(method: str, seed: bytes) -> DecentralizedIdentifier:
    """Derive a DID deterministically from a seed.

    The identifier is the first 16 bytes of SHA-256 over a domain-separated
    (method, seed) pair, rendered as hex: URI-safe, and distinct seeds collide
    only with negligible probability.
    """
    if not method:
        raise ValueError("DID method must be non-empty")
    if not seed:
        raise ValueError("DID seed must be non-empty")
    digest = hashlib.sha256(b"vaxledger-did|" + method.encode() + b"|" + seed).digest()
    return DecentralizedIdentifier(method=method, identifier=digest[:16].hex())


@dataclass(frozen=True)
class KeyPair:
    """Signing key material bound to an owner DID.

    `scheme_id` selects the signature scheme: Ed25519 (asymmetric, the default
    for credentials) or HMAC-SHA256 (symmetric, used for cheap intra-simulation
    endorsements; public and private halves are then the same secret).
    """

    public_key: bytes
    private_key: bytes
    owner: DecentralizedIdentifier
    scheme_id: str = ED25519


def generate_keypair(
    owner: DecentralizedIdentifier, seed: bytes, scheme_id: str = ED25519
) -> KeyPair:
    """Deterministically derive a key pair from a 1+ byte seed."""
    if not seed:
        raise ValueError("key seed must be non-empty")
    secret = hashlib.sha256(b"vaxledger-key|" + owner.text.encode() + b"|" + seed).digest()
    if scheme_id == ED25519:
        pub = _prepared(ED25519, secret).public_key().public_bytes_raw()
        return KeyPair(public_key=pub, private_key=secret, owner=owner, scheme_id=scheme_id)
    if scheme_id == HMAC_SHA256:
        return KeyPair(public_key=secret, private_key=secret, owner=owner, scheme_id=scheme_id)
    raise ValueError(f"unknown signature scheme: {scheme_id!r}")


# (tag, key bytes) -> the key prepared once. The tag is the scheme id for a signing key
# and _ED25519_PUBLIC for a checking one, so 32 equal bytes never stand for the other
# kind. HMAC-SHA256: the key schedule, SHA-256 states after the key (hashed if longer)
# padded to 64 bytes (RFC 2104). Ed25519: the private key object, or a public key's check.
_PREPARED_KEYS: dict = {}
_ED25519_PUBLIC = "ed25519-public"


def _prepared(tag: str, key: bytes):
    key = key if type(key) is bytes else bytes(memoryview(key))  # any bytes-like key, as before
    prepared = _PREPARED_KEYS.get((tag, key))
    if prepared is None:
        if len(_PREPARED_KEYS) >= 128:  # a bound; at worst 27 private + 27 public + 28 HMAC = 82
            _PREPARED_KEYS.clear()
        prepared = _PREPARED_KEYS[tag, key] = _prepare(tag, key)
    return prepared


def _prepare(tag: str, key: bytes):
    if tag == HMAC_SHA256:
        block = (hashlib.sha256(key).digest() if len(key) > 64 else key).ljust(64, b"\0")
        return tuple(hashlib.sha256(bytes(b ^ pad for b in block)) for pad in (0x36, 0x5C))
    # The Ed25519 backend (cryptography's compiled extension, with its own OpenSSL) is
    # imported at the first Ed25519 key, so a run that signs only with HMAC never loads it.
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

    if tag == ED25519:
        return Ed25519PrivateKey.from_private_bytes(key)
    public_key = Ed25519PublicKey.from_public_bytes(key)  # ValueError unless 32 bytes

    def check(payload: bytes, signature: bytes) -> bool:
        try:
            public_key.verify(signature, payload)
            return True
        except (InvalidSignature, ValueError):
            return False

    return check


def _hmac_sha256(key: bytes, payload: bytes) -> bytes:
    inner, outer = _prepared(HMAC_SHA256, key)
    inner, outer = inner.copy(), outer.copy()
    inner.update(payload)
    outer.update(inner.digest())
    return outer.digest()


def sign_payload(scheme_id: str, private_key: bytes, payload: bytes) -> bytes:
    """Sign bytes under the named scheme. Both schemes are deterministic."""
    if scheme_id == ED25519:
        return _prepared(ED25519, private_key).sign(payload)
    if scheme_id == HMAC_SHA256:
        return _hmac_sha256(private_key, payload)
    raise ValueError(f"unknown signature scheme: {scheme_id!r}")


def verify_payload(scheme_id: str, public_key: bytes, payload: bytes, signature: bytes) -> bool:
    if scheme_id == ED25519:
        try:
            check = _prepared(_ED25519_PUBLIC, public_key)
        except ValueError:  # not an Ed25519 public key
            return False
        return check(payload, signature)
    if scheme_id == HMAC_SHA256:
        return _hmac.compare_digest(_hmac_sha256(public_key, payload), signature)
    raise ValueError(f"unknown signature scheme: {scheme_id!r}")


@dataclass(frozen=True)
class Proof:
    scheme_id: str
    verification_method: DecentralizedIdentifier
    signature: bytes


@dataclass(frozen=True)
class CertificateHash:
    """A 32-byte anchor digest, rendered as lowercase hex."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_SIZE:
            raise ValueError(
                f"certificate hash must be {DIGEST_SIZE} bytes, got {len(self.digest)}"
            )

    @property
    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class VaccinationCredential:
    """A vaccination certificate; `proof` is absent until the issuer signs."""

    context: str
    issuer: DecentralizedIdentifier
    subject: DecentralizedIdentifier
    vaccine_product: str
    dose_number: int
    total_doses: int
    batch_id: str
    issuance_date: int  # UTC seconds
    expiration_date: int  # UTC seconds, exclusive bound
    proof: Proof | None = None

    def __post_init__(self):
        if not self.context:
            raise InvalidCredentialError("context must be a non-empty URI")
        if not self.vaccine_product or not self.batch_id:
            raise InvalidCredentialError("vaccine metadata fields must be non-empty")
        if self.dose_number < 1 or self.total_doses < 1:
            raise InvalidCredentialError("dose counts must be positive")
        if self.dose_number > self.total_doses:
            raise InvalidCredentialError(
                f"dose_number {self.dose_number} exceeds total_doses {self.total_doses}"
            )
        if self.expiration_date <= self.issuance_date:
            raise InvalidCredentialError("expiration_date must be after issuance_date")


_U32 = struct.Struct(">I").pack


def _lp(*values) -> bytes:
    """Each value length-prefixed: bytes as they are, text as UTF-8, an integer in decimal."""
    parts = []
    for value in values:
        value = value if isinstance(value, bytes) else str(value).encode()
        parts += _U32(len(value)), value
    return b"".join(parts)


def canonicalize(credential: VaccinationCredential) -> bytes:
    """Canonical byte form of the credential body, proof excluded."""
    return _lp(credential.context, credential.issuer.text, credential.subject.text,
               credential.vaccine_product, credential.dose_number, credential.total_doses,
               credential.batch_id, credential.issuance_date, credential.expiration_date)


def _canonical_proof(proof: Proof) -> bytes:
    return _lp(proof.scheme_id, proof.verification_method.text, proof.signature)


def issue_credential(
    issuer_key: KeyPair,
    issuer: DecentralizedIdentifier,
    subject: DecentralizedIdentifier,
    *,
    vaccine_product: str,
    dose_number: int,
    total_doses: int,
    batch_id: str,
    issuance_date: int,
    validity_seconds: int,
) -> VaccinationCredential:
    """Build and sign a credential; expiration = issuance + validity_seconds."""
    if validity_seconds <= 0:
        raise ValueError("validity_seconds must be positive")
    body = VaccinationCredential(
        context=DEFAULT_CONTEXT,
        issuer=issuer,
        subject=subject,
        vaccine_product=vaccine_product,
        dose_number=dose_number,
        total_doses=total_doses,
        batch_id=batch_id,
        issuance_date=issuance_date,
        expiration_date=issuance_date + validity_seconds,
    )
    signature = sign_payload(issuer_key.scheme_id, issuer_key.private_key, canonicalize(body))
    proof = Proof(
        scheme_id=issuer_key.scheme_id,
        verification_method=issuer_key.owner,
        signature=signature,
    )
    return replace(body, proof=proof)


def hash_credential(credential: VaccinationCredential) -> CertificateHash:
    """Anchor digest: SHA-256 over canonical body followed by canonical proof."""
    if credential.proof is None:
        raise MissingProofError("cannot hash an unsigned credential")
    h = hashlib.sha256()
    h.update(canonicalize(credential))
    h.update(_canonical_proof(credential.proof))
    return CertificateHash(h.digest())


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    reason: str | None = None


def verify_credential(
    credential: VaccinationCredential,
    issuer_keys: dict,
    now: int,
) -> VerificationOutcome:
    """Check signature, then expiration, then dose completeness, in that order.

    `issuer_keys` maps issuer DID text to (scheme_id, public_key) pairs.
    Expiration is exclusive: a credential is valid only while
    now < expiration_date. Acceptance requires a completed course
    (dose_number == total_doses).
    """
    entry = issuer_keys.get(credential.issuer.text)
    if entry is None:
        return VerificationOutcome(False, "unknown-issuer")
    scheme_id, public_key = entry
    if credential.proof is None:
        return VerificationOutcome(False, "signature")
    if credential.proof.scheme_id != scheme_id or not verify_payload(
        scheme_id, public_key, canonicalize(credential), credential.proof.signature
    ):
        return VerificationOutcome(False, "signature")
    if now >= credential.expiration_date:
        return VerificationOutcome(False, "expired")
    if credential.dose_number != credential.total_doses:
        return VerificationOutcome(False, "incomplete-doses")
    return VerificationOutcome(True)


FIXTURE_FORMAT = "vaxledger-credential/1"


def credential_to_dict(credential: VaccinationCredential) -> dict:
    doc = {
        "format": FIXTURE_FORMAT,
        "context": credential.context,
        "issuer": credential.issuer.text,
        "subject": credential.subject.text,
        "vaccine_product": credential.vaccine_product,
        "dose_number": credential.dose_number,
        "total_doses": credential.total_doses,
        "batch_id": credential.batch_id,
        "issuance_date": credential.issuance_date,
        "expiration_date": credential.expiration_date,
    }
    if credential.proof is not None:
        doc["proof"] = {
            "scheme_id": credential.proof.scheme_id,
            "verification_method": credential.proof.verification_method.text,
            "signature": credential.proof.signature.hex(),
        }
    return doc


def _field(doc: dict, name: str, kind: type = str, parse=None):
    if name not in doc:
        raise CredentialError(f"credential fixture lacks field {name!r}")
    value = doc[name]
    if type(value) is not kind:  # so no boolean passes for an integer
        raise CredentialError(f"credential field {name!r} must be {kind.__name__}")
    try:
        return value if parse is None else parse(value)
    except ValueError as exc:
        raise CredentialError(f"credential field {name!r}: {exc}") from exc


def credential_from_dict(doc: dict) -> VaccinationCredential:
    """Parse a fixture document; a malformed one raises CredentialError naming the field."""
    if not isinstance(doc, dict):
        raise CredentialError("credential fixture must be a JSON object")
    if doc.get("format") != FIXTURE_FORMAT:
        raise CredentialError(f"unsupported credential format: {doc.get('format')!r}")
    proof = None
    if "proof" in doc:
        p = _field(doc, "proof", dict)
        proof = Proof(
            scheme_id=_field(p, "scheme_id"),
            verification_method=_field(p, "verification_method", parse=DecentralizedIdentifier.parse),
            signature=_field(p, "signature", parse=bytes.fromhex),
        )
    return VaccinationCredential(
        context=_field(doc, "context"),
        issuer=_field(doc, "issuer", parse=DecentralizedIdentifier.parse),
        subject=_field(doc, "subject", parse=DecentralizedIdentifier.parse),
        vaccine_product=_field(doc, "vaccine_product"),
        dose_number=_field(doc, "dose_number", int),
        total_doses=_field(doc, "total_doses", int),
        batch_id=_field(doc, "batch_id"),
        issuance_date=_field(doc, "issuance_date", int),
        expiration_date=_field(doc, "expiration_date", int),
        proof=proof,
    )
