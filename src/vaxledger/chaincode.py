"""Smart-contract layer: access control, message conformity, register/verify.

Chaincode runs against a read snapshot of one peer's world state and records
every state access into read/write sets; the ledger's MVCC validation settles
conflicting concurrent writes at commit time, never the chaincode itself.
A caller acts only for its own member state. Verification is one key lookup;
the engine charges its simulated cost, a worst-case `rich_query`, itself.

Call descriptors (operation name plus length-prefixed arguments) give each
invocation a byte-stable encoding, which the transaction embeds as its operation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .credential import CertificateHash
from .ledger import (
    WorldState,
    cert_key,
    center_key,
    make_cert_record,
    make_center_record,
    require_member_state,
)

__all__ = [
    "ChaincodeError",
    "AccessDeniedError",
    "NonconformantMessageError",
    "UnknownIssuerError",
    "AlreadyRegisteredError",
    "MedicalCenterRecord",
    "ChaincodeContext",
    "ProposalResponse",
    "VerifyResult",
    "encode_call",
    "register_medical_center",
    "register_certificate",
    "verify_certificate",
]


class ChaincodeError(Exception):
    """Base class for chaincode rejections."""


class AccessDeniedError(ChaincodeError):
    """Caller attempted to act for a member state other than its own."""


class NonconformantMessageError(ChaincodeError):
    """Malformed or incomplete invocation arguments."""


class UnknownIssuerError(ChaincodeError):
    """Certificate registration names an issuer with no registered center."""


class AlreadyRegisteredError(ChaincodeError):
    """Key already present; duplicate registrations are rejected."""


@dataclass(frozen=True)
class MedicalCenterRecord:
    center_id: str
    ms: str
    name: str
    address: str
    issuer_did: str  # DID text form


@dataclass(slots=True)
class ChaincodeContext:
    """One invocation's view: the caller's member state, the peer state it
    reads, and the read and write sets it accumulates."""

    caller: str
    state: WorldState
    read_set: list = field(default_factory=list)
    write_set: list = field(default_factory=list)

    def __post_init__(self):
        require_member_state(self.caller)

    def get_state(self, key: str):
        value, version = self.state.read(key)
        self.read_set.append((key, version))
        return value

    def put_state(self, key: str, value: dict) -> None:
        self.write_set.append((key, value))


@dataclass(frozen=True)
class ProposalResponse:
    operation: bytes
    read_set: tuple
    write_set: tuple


@dataclass(frozen=True)
class VerifyResult:
    found: bool
    record: dict | None


_U16 = struct.Struct(">H").pack
_U32 = struct.Struct(">I").pack


def encode_call(name: str, args) -> bytes:
    """Byte-stable call descriptor: name + length-prefixed argument list."""
    name_bytes = name.encode()
    parts = [_U16(len(name_bytes)), name_bytes, _U16(len(args))]
    for arg in args:
        if isinstance(arg, str):
            arg = arg.encode()
        parts += _U32(len(arg)), arg
    return b"".join(parts)


def register_medical_center(ctx: ChaincodeContext, center: MedicalCenterRecord) -> ProposalResponse:
    """Record a national medical center under the caller's namespace.

    Only the center's own member state may register it. The key is read first
    so a concurrent duplicate registration invalidates at commit; a center
    already present at proposal time is rejected here.
    """
    if center.ms != ctx.caller:
        raise AccessDeniedError(f"{ctx.caller} cannot register a center for {center.ms}")
    if not center.center_id or not center.name or not center.address or not center.issuer_did:
        raise NonconformantMessageError("center fields must be non-empty")
    key = center_key(center.ms, center.center_id)
    if ctx.get_state(key) is not None:
        raise AlreadyRegisteredError(f"center {center.center_id} already registered")
    record = make_center_record(
        center.center_id, center.ms, center.name, center.address, center.issuer_did
    )
    ctx.put_state(key, record)
    operation = encode_call(
        "register_medical_center",
        [center.center_id, center.ms, center.name, center.address, center.issuer_did],
    )
    return ProposalResponse(operation, tuple(ctx.read_set), tuple(ctx.write_set))


def _find_center_by_did(ctx: ChaincodeContext, issuer_did: str):
    """Scan the caller's registered centers for the issuing DID.

    Only the matched center lands in the read set, creating the commit-time
    dependency that invalidates the registration if the center disappears.
    """
    for key, entry in ctx.state.items_in_order():
        value = entry.value
        if (value.get("issuer_did") == issuer_did and value.get("doc_type") == "center"
                and value["ms"] == ctx.caller):
            return key, value
    return None, None


def register_certificate(
    ctx: ChaincodeContext,
    cert_hash: CertificateHash,
    issuer_did: str,
) -> ProposalResponse:
    """Anchor a certificate hash under the caller's namespace.

    The issuer DID must belong to a medical center registered by the caller;
    that center record enters the read set so an unregistered issuer
    invalidates the transaction at commit.
    """
    if not isinstance(cert_hash, CertificateHash):
        raise NonconformantMessageError("certificate hash must be a CertificateHash")
    center_state_key, center = _find_center_by_did(ctx, issuer_did)
    if center is None:
        raise UnknownIssuerError(f"no registered center for issuer {issuer_did}")
    ctx.get_state(center_state_key)
    cert_hex = cert_hash.hex
    key = cert_key(ctx.caller, cert_hex)
    if ctx.get_state(key) is not None:
        raise AlreadyRegisteredError(f"certificate {cert_hex} already registered")
    record = make_cert_record(cert_hex, ctx.caller, issuer_did)
    ctx.put_state(key, record)
    operation = encode_call("register_certificate", [cert_hash.digest, issuer_did.encode()])
    return ProposalResponse(operation, tuple(ctx.read_set), tuple(ctx.write_set))


def verify_certificate(
    ctx: ChaincodeContext,
    cert_hash: CertificateHash,
    issuer_ms: str | None = None,
) -> VerifyResult:
    """Whether a certificate hash is anchored: one read-only key lookup under
    `issuer_ms`, the caller by default (a real verifier reads it off the credential)."""
    if issuer_ms is None:
        issuer_ms = ctx.caller
    record = ctx.state.get(cert_key(issuer_ms, cert_hash.hex))
    return VerifyResult(found=record is not None, record=record)
