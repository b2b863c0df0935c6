"""Smart-contract layer: access control, message conformity, register/verify.

Chaincode runs against a read snapshot of one peer's world state and records
every state access into read/write sets; the ledger's MVCC validation settles
conflicting concurrent writes at commit time, never the chaincode itself.

Call descriptors (operation name plus length-prefixed arguments) give each
invocation a byte-stable encoding used for payload-size accounting and for
embedding the operation in the transaction.
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
    rich_query,
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
    "EXACT_LOOKUP",
    "WORST_CASE_SCAN",
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


EXACT_LOOKUP = "exact_lookup"
WORST_CASE_SCAN = "worst_case_scan"


@dataclass(frozen=True)
class MedicalCenterRecord:
    center_id: str
    ms: str
    name: str
    address: str
    issuer_did: str  # DID text form


@dataclass
class ChaincodeContext:
    """One invocation's view: caller identity plus read/write accumulators.

    `query_mode` selects the verification cost model: exact-key lookup
    (realistic) or worst-case full scan (benchmark mode, where the matching
    record is assumed to be the newest entry).
    """

    caller: str
    state: WorldState
    caller_signature_valid: bool = True
    query_mode: str = EXACT_LOOKUP
    read_set: list = field(default_factory=list)
    write_set: list = field(default_factory=list)

    def __post_init__(self):
        require_member_state(self.caller)
        if self.query_mode not in (EXACT_LOOKUP, WORST_CASE_SCAN):
            raise ValueError(f"unknown query mode: {self.query_mode!r}")

    def get_state(self, key: str):
        value = self.state.get(key)
        version = self.state.version_of(key)
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
    scan_count: int


def encode_call(name: str, args) -> bytes:
    """Byte-stable call descriptor: name + length-prefixed argument list."""
    name_bytes = name.encode()
    parts = [struct.pack(">H", len(name_bytes)), name_bytes, struct.pack(">H", len(args))]
    for arg in args:
        if isinstance(arg, str):
            arg = arg.encode()
        parts.append(struct.pack(">I", len(arg)))
        parts.append(arg)
    return b"".join(parts)


def _require_caller(ctx: ChaincodeContext) -> None:
    if not ctx.caller_signature_valid:
        raise AccessDeniedError("caller signature invalid")


def register_medical_center(ctx: ChaincodeContext, center: MedicalCenterRecord) -> ProposalResponse:
    """Record a national medical center under the caller's namespace.

    Only the center's own member state may register it. The key is read first
    so a concurrent duplicate registration invalidates at commit; a center
    already present at proposal time is rejected here.
    """
    _require_caller(ctx)
    if center.ms != ctx.caller:
        raise AccessDeniedError(f"{ctx.caller} cannot register a center for {center.ms}")
    if not center.center_id or not center.name or not center.address or not center.issuer_did:
        raise NonconformantMessageError("center fields must be non-empty")
    require_member_state(center.ms)
    key = center_key(center.ms, center.center_id)
    existing = ctx.get_state(key)
    if existing is not None:
        raise AlreadyRegisteredError(f"center {center.center_id} already registered")
    record = make_center_record(
        center.center_id, center.ms, center.name, center.address, center.issuer_did
    )
    ctx.put_state(key, record)
    operation = encode_call(
        "register_medical_center",
        [center.center_id, center.ms, center.name, center.address, center.issuer_did],
    )
    return ProposalResponse(
        operation=operation, read_set=tuple(ctx.read_set), write_set=tuple(ctx.write_set)
    )


def _find_center_by_did(ctx: ChaincodeContext, issuer_did: str):
    """Scan the caller's registered centers for the issuing DID.

    Only the matched center lands in the read set, creating the commit-time
    dependency that invalidates the registration if the center disappears.
    """
    for entry in ctx.state.entries_in_order():
        value = entry.value
        if value.get("doc_type") == "center" and value.get("issuer_did") == issuer_did:
            if value["ms"] == ctx.caller:
                return center_key(value["ms"], value["center_id"]), value
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
    _require_caller(ctx)
    if not isinstance(cert_hash, CertificateHash):
        raise NonconformantMessageError("certificate hash must be a CertificateHash")
    center_state_key, center = _find_center_by_did(ctx, issuer_did)
    if center is None:
        raise UnknownIssuerError(f"no registered center for issuer {issuer_did}")
    ctx.get_state(center_state_key)
    key = cert_key(ctx.caller, cert_hash.hex)
    if ctx.get_state(key) is not None:
        raise AlreadyRegisteredError(f"certificate {cert_hash.hex} already registered")
    record = make_cert_record(cert_hash.hex, ctx.caller, issuer_did)
    ctx.put_state(key, record)
    operation = encode_call(
        "register_certificate", [cert_hash.digest, issuer_did.encode()]
    )
    return ProposalResponse(
        operation=operation, read_set=tuple(ctx.read_set), write_set=tuple(ctx.write_set)
    )


def verify_certificate(
    ctx: ChaincodeContext,
    cert_hash: CertificateHash,
    issuer_ms: str | None = None,
) -> VerifyResult:
    """Read-only check whether a certificate hash is anchored.

    Worst-case mode runs the content query (full scan, matching record
    expected newest); exact mode does a key lookup and needs the issuing
    member state (a real verifier reads it off the presented credential).
    The write set stays empty either way.
    """
    if ctx.query_mode == WORST_CASE_SCAN:
        matches, scan_count = rich_query(
            ctx.state, {"doc_type": "cert", "cert_hash": cert_hash.hex}
        )
        record = matches[-1] if matches else None
        return VerifyResult(found=record is not None, record=record, scan_count=scan_count)
    if issuer_ms is None:
        issuer_ms = ctx.caller
    record = ctx.state.get(cert_key(issuer_ms, cert_hash.hex))
    return VerifyResult(found=record is not None, record=record, scan_count=1)
