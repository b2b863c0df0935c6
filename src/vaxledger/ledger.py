"""One peer's replicated ledger: hash-chained blocks plus versioned world state.

The chain stores endorsed transactions in sealed blocks; the world state is the
key-value view obtained by replaying every valid transaction. Validation
applies the disjunctive endorsement policy (a transaction needs a valid
signature from its own submitting member state, nothing else), a namespace
check (each member state may write only under its own ``<code>/`` prefix), and
an MVCC read-version check.

Commit is single-writer; any number of readers may query committed state
concurrently.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass, replace

from .credential import DIGEST_SIZE, _lp, sign_payload, verify_payload

__all__ = [
    "EU_MEMBER_STATES",
    "LedgerError",
    "OutOfOrderError",
    "BrokenChainError",
    "InvalidQueryError",
    "Transaction",
    "Block",
    "ValidationResult",
    "EndorsementPolicy",
    "StateEntry",
    "WorldState",
    "Chain",
    "ZERO_DIGEST",
    "cert_key",
    "center_key",
    "make_cert_record",
    "make_center_record",
    "transaction_signing_payload",
    "endorse_transaction",
    "validate_transaction",
    "compute_data_hash",
    "compute_block_hash",
    "apply_block",
    "rich_query",
    "write_snapshot",
    "chain_snapshot_lines",
]

# EU-27 roster, ISO 3166-1 alpha-2 codes.
EU_MEMBER_STATES = (
    "AT", "BE", "BG", "HR", "CY", "CZ", "DK", "EE", "FI", "FR",
    "DE", "GR", "HU", "IE", "IT", "LV", "LT", "LU", "MT", "NL",
    "PL", "PT", "RO", "SK", "SI", "ES", "SE",
)

ZERO_DIGEST = b"\x00" * DIGEST_SIZE


class LedgerError(Exception):
    """Base class for ledger failures."""


class OutOfOrderError(LedgerError):
    """Block number does not extend the chain tip."""


class BrokenChainError(LedgerError):
    """Block prev_hash does not match the current tip hash."""


class InvalidQueryError(LedgerError):
    """Content query references a field no record schema declares."""


def require_member_state(code: str) -> str:
    if code not in EU_MEMBER_STATES:
        raise ValueError(f"unknown member state code: {code!r}")
    return code


def cert_key(ms: str, cert_hex: str) -> str:
    return f"{ms}/cert/{cert_hex}"


def center_key(ms: str, center_id: str) -> str:
    return f"{ms}/center/{center_id}"


def make_cert_record(cert_hex: str, ms: str, issuer_did: str) -> dict:
    # `registered_at` and `metadata` stay in the schema, always empty.
    return {
        "doc_type": "cert",
        "cert_hash": cert_hex,
        "ms": ms,
        "issuer_did": issuer_did,
        "registered_at": None,
        "metadata": {},
    }


def make_center_record(center_id: str, ms: str, name: str, address: str, issuer_did: str) -> dict:
    return {
        "doc_type": "center",
        "center_id": center_id,
        "ms": ms,
        "name": name,
        "address": address,
        "issuer_did": issuer_did,
    }


# Fields a content query may reference (union of the record schemas above).
QUERYABLE_FIELDS = frozenset(
    {
        "doc_type",
        "cert_hash",
        "ms",
        "issuer_did",
        "registered_at",
        "metadata",
        "center_id",
        "name",
        "address",
    }
)


@dataclass(frozen=True)
class Transaction:
    """An endorsed state change proposed by one member state.

    `read_set` holds (key, version) pairs observed at proposal time, version
    being a (block, tx index) pair or None for a key read as absent.
    `write_set` holds (key, record dict) pairs. `operation` is the encoded
    chaincode call descriptor the proposal executed.
    """

    tx_id: bytes
    submitter: str
    operation: bytes
    read_set: tuple
    write_set: tuple
    endorsements: tuple = ()
    payload_size: int = 0

    def __post_init__(self):
        require_member_state(self.submitter)


def _encode_version(version) -> bytes:
    if version is None:
        return b"\xff"
    return b"\x01" + struct.pack(">II", version[0], version[1])


_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode_value(value: dict) -> bytes:
    return _CANONICAL_JSON(value).encode()


def transaction_signing_payload(tx: Transaction) -> bytes:
    """Canonical bytes an endorsement signature covers (endorsements excluded)."""
    parts = [_lp(tx.tx_id), _lp(tx.submitter.encode()), _lp(tx.operation)]
    parts.append(struct.pack(">I", len(tx.read_set)))
    for key, version in tx.read_set:
        parts.append(_lp(key.encode()) + _encode_version(version))
    parts.append(struct.pack(">I", len(tx.write_set)))
    for key, value in tx.write_set:
        parts.append(_lp(key.encode()) + _lp(_encode_value(value)))
    return b"".join(parts)


def encode_transaction(tx: Transaction) -> bytes:
    """Full canonical encoding, endorsements included (hashed into blocks)."""
    parts = [transaction_signing_payload(tx), struct.pack(">I", len(tx.endorsements))]
    for ms, signature in tx.endorsements:
        parts.append(_lp(ms.encode()) + _lp(signature))
    parts.append(struct.pack(">I", tx.payload_size))
    return b"".join(parts)


def endorse_transaction(tx: Transaction, keypair) -> Transaction:
    """Return the transaction with the submitter's endorsement appended."""
    sig = sign_payload(keypair.scheme_id, keypair.private_key, transaction_signing_payload(tx))
    return replace(tx, endorsements=tx.endorsements + ((tx.submitter, sig),))


@dataclass(frozen=True)
class EndorsementPolicy:
    """Disjunctive ('OR') policy: the submitter's own signature suffices.

    `roster` maps member-state code to its registered endorsement public key.
    """

    roster: dict
    scheme_id: str


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reason: str | None = None

    VALID = None  # filled in below


ValidationResult.VALID = ValidationResult(valid=True)


def validate_transaction(tx: Transaction, policy: EndorsementPolicy, state: "WorldState") -> ValidationResult:
    """Policy, namespace, and MVCC checks, reported in that order.

    Returns Valid only when (a) the transaction bears a valid endorsement
    signature from its submitter, (b) every written key lies inside the
    submitter's namespace, and (c) every read version still matches the state.
    """
    if not policy.roster:
        raise ValueError("policy roster must be non-empty")
    public_key = policy.roster.get(tx.submitter)
    signature = next((sig for ms, sig in tx.endorsements if ms == tx.submitter), None)
    if public_key is None or signature is None:
        return ValidationResult(valid=False, reason="bad-signature")
    if not verify_payload(policy.scheme_id, public_key, transaction_signing_payload(tx), signature):
        return ValidationResult(valid=False, reason="bad-signature")
    prefix = tx.submitter + "/"
    for key, _value in tx.write_set:
        if not key.startswith(prefix):
            return ValidationResult(valid=False, reason="foreign-namespace")
    for key, version in tx.read_set:
        current = state.version_of(key)
        if current != (tuple(version) if version is not None else None):
            return ValidationResult(valid=False, reason="stale-read")
    return ValidationResult.VALID


@dataclass(frozen=True)
class Block:
    number: int
    prev_hash: bytes
    data_hash: bytes
    transactions: tuple
    sealer_signature: bytes = b""


def compute_data_hash(transactions) -> bytes:
    h = hashlib.sha256()
    for tx in transactions:
        h.update(_lp(encode_transaction(tx)))
    return h.digest()


def compute_block_hash(number: int, prev_hash: bytes, data_hash: bytes) -> bytes:
    """Digest over the canonical header encoding; chains block n+1 to block n."""
    return hashlib.sha256(struct.pack(">Q", number) + _lp(prev_hash) + _lp(data_hash)).digest()


@dataclass(frozen=True, slots=True)
class StateEntry:
    value: dict
    version: tuple  # (block number, tx index)


class WorldState:
    """Versioned key-value store; insertion order defines scan order.

    Overwritten keys keep their original scan position, so "the last record"
    is well defined for the worst-case content query. Entries are frozen: a
    write replaces the entry, so states may share entries.
    """

    def __init__(self):
        self._entries: dict[str, StateEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    def version_of(self, key: str) -> tuple | None:
        entry = self._entries.get(key)
        return entry.version if entry is not None else None

    def put(self, key: str, value: dict, version: tuple) -> None:
        # Assigning an existing key keeps its place in the scan order.
        self._entries[key] = StateEntry(value, version)

    def copy_prefix(self, count: int) -> "WorldState":
        """A new state holding the first `count` entries; since a write
        replaces an entry, a write to either state leaves the other unchanged."""
        copy = WorldState()
        copy._entries = dict(itertools.islice(self._entries.items(), count))
        return copy

    def entries_in_order(self):
        """Live view of the entries in insertion order; do not write while iterating."""
        return self._entries.values()

    def digest(self) -> bytes:
        """Order-sensitive digest of the full state, for replay comparisons."""
        h = hashlib.sha256()
        for key, entry in self._entries.items():
            h.update(_lp(key.encode()))
            h.update(_lp(_encode_value(entry.value)))
            h.update(struct.pack(">II", *entry.version))
        return h.digest()


class Chain:
    """Hash-chained block sequence with tamper-evident append."""

    def __init__(self):
        self.blocks: list[Block] = []
        self.tip_hash: bytes = ZERO_DIGEST

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> tuple:
        return (len(self.blocks) - 1, self.tip_hash)

    def append_block(self, block: Block) -> None:
        if block.number != len(self.blocks):
            raise OutOfOrderError(
                f"expected block {len(self.blocks)}, got {block.number}"
            )
        expected_prev = self.tip_hash if self.blocks else ZERO_DIGEST
        if block.prev_hash != expected_prev:
            raise BrokenChainError(f"block {block.number} does not chain to the tip")
        self.blocks.append(block)
        self.tip_hash = compute_block_hash(block.number, block.prev_hash, block.data_hash)

    def verify(self) -> bool:
        """Recompute every data hash and hash link from genesis."""
        prev = ZERO_DIGEST
        for block in self.blocks:
            if block.prev_hash != prev:
                return False
            if compute_data_hash(block.transactions) != block.data_hash:
                return False
            prev = compute_block_hash(block.number, block.prev_hash, block.data_hash)
        return prev == self.tip_hash


def apply_block(state: WorldState, block: Block, policy: EndorsementPolicy) -> list:
    """Validate and apply a committed block's transactions in order.

    Valid transactions' writes land with version (block number, tx index);
    invalid ones stay in the block but leave state untouched. Returns the
    per-transaction ValidationResult list.
    """
    flags = []
    for index, tx in enumerate(block.transactions):
        result = validate_transaction(tx, policy, state)
        flags.append(result)
        if result.valid:
            for key, value in tx.write_set:
                state.put(key, value, (block.number, index))
    return flags


def rich_query(state: WorldState, predicate: dict) -> tuple:
    """Content query: linear scan in insertion order over all entries.

    Returns (matching records, scan_count); scan_count is the number of
    entries visited, which is always the full entry count since every entry
    must be examined to find all matches. Unknown predicate fields raise
    InvalidQueryError.
    """
    for field_name in predicate:
        if field_name not in QUERYABLE_FIELDS:
            raise InvalidQueryError(f"unknown query field: {field_name!r}")
    items = predicate.items()
    matches = []
    entries = state.entries_in_order()
    for entry in entries:
        value = entry.value
        for k, v in items:
            if value.get(k) != v:
                break
        else:
            matches.append(value)
    return matches, len(entries)


SNAPSHOT_SCHEMA = "vaxledger-chain/1"


def chain_snapshot_lines(chain: Chain):
    """Yield the newline-delimited snapshot records, one block per line."""
    yield json.dumps(
        {"schema": SNAPSHOT_SCHEMA, "blocks": len(chain.blocks), "tip": chain.tip_hash.hex()},
        sort_keys=True,
        separators=(",", ":"),
    )
    for block in chain.blocks:
        record = {
            "number": block.number,
            "prev_hash": block.prev_hash.hex(),
            "data_hash": block.data_hash.hex(),
            "sealer_signature": block.sealer_signature.hex(),
            "transactions": [
                {
                    "tx_id": tx.tx_id.hex(),
                    "submitter": tx.submitter,
                    "operation": tx.operation.hex(),
                    "read_set": [[k, list(v) if v is not None else None] for k, v in tx.read_set],
                    "write_set": [[k, value] for k, value in tx.write_set],
                    "endorsements": [[ms, sig.hex()] for ms, sig in tx.endorsements],
                    "payload_size": tx.payload_size,
                }
                for tx in block.transactions
            ],
        }
        yield json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_snapshot(chain: Chain, path) -> None:
    """Export the chain for offline audit (one JSON block record per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in chain_snapshot_lines(chain):
            fh.write(line)
            fh.write("\n")
