"""One peer's replicated ledger: hash-chained blocks plus versioned world state.

The chain stores endorsed transactions in sealed blocks; the world state is the
key-value view obtained by replaying every valid transaction. Validation
applies the disjunctive endorsement policy (a transaction needs a valid
signature from its own submitting member state, nothing else), a namespace
check (each member state may write only under its own ``<code>/`` prefix), and
an MVCC read-version check.

A certificate record is `{doc_type, cert_hash, ms, issuer_did}` and a center
record `{doc_type, center_id, ms, name, address, issuer_did}`: the values their
chaincode calls write, nothing else. Records are read-only `dict`s, so an
encoding stays valid; hashing and validation read a transaction's signing
payload from the transaction alone, never from a caller.

Commit is single-writer; any number of readers may query committed state
concurrently.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass, field
from types import MappingProxyType

from .credential import DIGEST_SIZE, sign_payload, verify_payload

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
    "encode_signing_payload",
    "transaction_signing_payload",
    "endorse_fields",
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
_MEMBER_STATE_SET = frozenset(EU_MEMBER_STATES)

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
    if code not in _MEMBER_STATE_SET:
        raise ValueError(f"unknown member state code: {code!r}")
    return code


def cert_key(ms: str, cert_hex: str) -> str:
    return f"{ms}/cert/{cert_hex}"


def center_key(ms: str, center_id: str) -> str:
    return f"{ms}/center/{center_id}"


class _Record(dict):
    """A ledger record: a `dict`, as the C encoder needs, that no call can change."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("ledger records are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def make_cert_record(cert_hex: str, ms: str, issuer_did: str) -> dict:
    return _Record(doc_type="cert", cert_hash=cert_hex, ms=ms, issuer_did=issuer_did)


def make_center_record(center_id: str, ms: str, name: str, address: str, issuer_did: str) -> dict:
    return _Record(doc_type="center", center_id=center_id, ms=ms, name=name, address=address,
                   issuer_did=issuer_did)


# Fields a content query may reference: the keys the record schemas above write.
QUERYABLE_FIELDS = frozenset([*make_cert_record("", "", ""), *make_center_record("", "", "", "", "")])


@dataclass(frozen=True, slots=True)
class Transaction:
    """An endorsed state change proposed by one member state.

    `read_set` holds (key, version) pairs observed at proposal time, version
    being a (block, tx index) pair or None for a key read as absent.
    `write_set` holds (key, record dict) pairs. `operation` is the encoded
    chaincode call descriptor the proposal executed. `payload_size` reaches
    no byte: a transaction's wire size is its `Envelope.size_bytes`. It goes
    once the benchmark's `perfbench/workloads.py` stops passing it.
    """

    tx_id: bytes
    submitter: str
    operation: bytes
    read_set: tuple
    write_set: tuple
    endorsements: tuple = ()
    payload_size: int = 0
    # Its signing payload, from `endorse_fields` or `seal_block` to the next `apply_block`.
    _signing_payload: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_member_state(self.submitter)


# Canonical JSON: "".join(_JSON(v, 0)) is json.dumps(v, sort_keys=True, separators=(",", ":")),
# from one C encoder (sort_keys, allow_nan); it keeps no markers, so concurrent callers are safe.
_JSON = json.encoder.c_make_encoder(None, json.JSONEncoder().default,
                                    json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)
_U32 = struct.Struct(">I").pack
_VERSION = struct.Struct(">BII").pack  # a read version present: 0x01, block, tx index
_ABSENT = b"\xff"  # a key read as absent
_HEADER = struct.Struct(">QI").pack  # a block header's number and the length of its prev hash


def encode_signing_payload(tx_id: bytes, submitter: str, operation: bytes, read_set, write_set) -> bytes:
    """Canonical bytes an endorsement signature covers: a transaction's fields, endorsements excluded.

    Every byte string is length-prefixed (big-endian u32); each read set
    entry is followed by its version, and each write set entry's record is
    canonical JSON.
    """
    submitter = submitter.encode()
    parts = [
        _U32(len(tx_id)), tx_id, _U32(len(submitter)), submitter,
        _U32(len(operation)), operation, _U32(len(read_set)),
    ]
    for key, version in read_set:
        key = key.encode()
        parts += _U32(len(key)), key, _ABSENT if version is None else _VERSION(1, *version)
    parts.append(_U32(len(write_set)))
    for key, value in write_set:
        key, value = key.encode(), "".join(_JSON(value, 0)).encode()
        parts += _U32(len(key)), key, _U32(len(value)), value
    return b"".join(parts)


def transaction_signing_payload(tx: Transaction) -> bytes:
    """`encode_signing_payload` of the transaction's fields: the bytes it
    carries until its next commit, else encoded anew. Never attaches."""
    return tx._signing_payload or encode_signing_payload(
        tx.tx_id, tx.submitter, tx.operation, tx.read_set, tx.write_set)


def encode_transaction(tx: Transaction) -> bytes:
    """Full canonical encoding, endorsements included (hashed into blocks)."""
    parts = [transaction_signing_payload(tx), _U32(len(tx.endorsements))]
    for ms, signature in tx.endorsements:
        ms = ms.encode()
        parts += _U32(len(ms)), ms, _U32(len(signature)), signature
    return b"".join(parts)


def endorse_fields(keypair, tx_id, submitter, operation, read_set, write_set,
                   endorsements=()) -> Transaction:
    """The transaction of these fields, with `submitter`'s endorsement by `keypair` appended.

    The fields are encoded once. When they are immutable (bytes, tuples of
    pairs, None or tuple versions, read-only records) the signed bytes ride on
    the transaction to its first `apply_block`, which drops them.
    """
    payload = encode_signing_payload(tx_id, submitter, operation, read_set, write_set)
    signature = sign_payload(keypair.scheme_id, keypair.private_key, payload)
    tx = Transaction(tx_id, submitter, operation, read_set, write_set,
                     endorsements + ((submitter, signature),))
    _attach_signing_payload(tx, payload)
    return tx


def _attach_signing_payload(tx: Transaction, payload: bytes | None = None) -> None:
    """Attach `payload`, else the encoding of `tx`'s fields, to `tx`, unless it
    holds one already or an object that the encoding covers can change."""
    if tx._signing_payload is not None or not (
            tx.tx_id.__class__ is bytes and tx.operation.__class__ is bytes
            and tx.read_set.__class__ is tuple and tx.write_set.__class__ is tuple):
        return
    for pair in tx.read_set:
        if pair.__class__ is not tuple or not (pair[1] is None or pair[1].__class__ is tuple):
            return
    for pair in tx.write_set:
        if pair.__class__ is not tuple or pair[1].__class__ is not _Record:
            return
    object.__setattr__(tx, "_signing_payload", payload or transaction_signing_payload(tx))


def endorse_transaction(tx: Transaction, keypair) -> Transaction:
    """Return the transaction with the submitter's endorsement appended."""
    return endorse_fields(keypair, tx.tx_id, tx.submitter, tx.operation, tx.read_set,
                          tx.write_set, tx.endorsements)


@dataclass(frozen=True)
class EndorsementPolicy:
    """Disjunctive ('OR') policy: the submitter's own signature suffices.

    `roster` maps member-state code to its endorsement public key, read-only once built.
    """

    roster: dict
    scheme_id: str

    def __post_init__(self):
        if not self.roster:
            raise ValueError("policy roster must be non-empty")
        object.__setattr__(self, "roster", MappingProxyType(dict(self.roster)))


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reason: str | None = None


_VALID = ValidationResult(valid=True)


def validate_transaction(tx: Transaction, policy: EndorsementPolicy, state: WorldState) -> ValidationResult:
    """Policy, namespace, and MVCC checks, reported in that order.

    Returns Valid only when (a) the transaction bears a valid endorsement
    signature from its submitter, (b) every written key lies inside the
    submitter's namespace, and (c) every read version still matches the state.
    The signature is checked against `transaction_signing_payload(tx)`, the
    encoding of the transaction's own fields.
    """
    public_key = policy.roster.get(tx.submitter)
    signature = None
    for ms, sig in tx.endorsements:
        if ms == tx.submitter:
            signature = sig
            break
    if public_key is None or signature is None:
        return ValidationResult(valid=False, reason="bad-signature")
    if not verify_payload(policy.scheme_id, public_key, transaction_signing_payload(tx), signature):
        return ValidationResult(valid=False, reason="bad-signature")
    prefix = tx.submitter + "/"
    for key, _value in tx.write_set:
        if not key.startswith(prefix):
            return ValidationResult(valid=False, reason="foreign-namespace")
    for key, version in tx.read_set:
        if version.__class__ is not tuple and version is not None:
            version = tuple(version)
        if state.version_of(key) != version:
            return ValidationResult(valid=False, reason="stale-read")
    return _VALID


@dataclass(frozen=True, slots=True)
class Block:
    number: int
    prev_hash: bytes
    data_hash: bytes
    transactions: tuple
    sealer_signature: bytes = b""


def compute_data_hash(transactions) -> bytes:
    """Digest over the block's transaction encodings."""
    h = hashlib.sha256()
    for tx in transactions:
        encoded = encode_transaction(tx)
        h.update(_U32(len(encoded)) + encoded)
    return h.digest()


def compute_block_hash(number: int, prev_hash: bytes, data_hash: bytes) -> bytes:
    """Digest over the canonical header encoding; chains block n+1 to block n."""
    return hashlib.sha256(
        _HEADER(number, len(prev_hash)) + prev_hash + _U32(len(data_hash)) + data_hash
    ).digest()


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

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    def version_of(self, key: str) -> tuple | None:
        entry = self._entries.get(key)
        return entry.version if entry is not None else None

    def read(self, key: str) -> tuple:  # (value, version), both None if absent
        entry = self._entries.get(key)
        return (entry.value, entry.version) if entry is not None else (None, None)

    def put(self, key: str, value: dict, version: tuple) -> None:
        # Assigning an existing key keeps its place in the scan order.
        self._entries[key] = StateEntry(value, version)

    def copy_prefix(self, count: int) -> "WorldState":
        """A new state holding the first `count` entries; since a write
        replaces an entry, a write to either state leaves the other unchanged."""
        copy = WorldState()
        copy._entries = dict(itertools.islice(self._entries.items(), count))
        return copy

    def items_in_order(self):
        """Live view of the (key, entry) pairs in insertion order; do not write while iterating."""
        return self._entries.items()

    def digest(self) -> bytes:
        """Order-sensitive digest of the full state, for replay comparisons."""
        h = hashlib.sha256()
        for key, entry in self._entries.items():
            key, value = key.encode(), "".join(_JSON(entry.value, 0)).encode()
            h.update(_U32(len(key)) + key + _U32(len(value)) + value)
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
        if block.prev_hash != self.tip_hash:
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
    per-transaction ValidationResult list. Each validated transaction drops
    its signing payload, so no committed transaction holds one.
    """
    flags = []
    for index, tx in enumerate(block.transactions):
        result = validate_transaction(tx, policy, state)
        object.__setattr__(tx, "_signing_payload", None)
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
    entries = state.items_in_order()
    for _key, entry in entries:
        value = entry.value
        for k, v in items:
            if value.get(k) != v:
                break
        else:
            matches.append(value)
    return matches, len(entries)


SNAPSHOT_SCHEMA = "vaxledger-chain/2"


def chain_snapshot_lines(chain: Chain):
    """Yield the newline-delimited snapshot records, one block per line."""
    yield "".join(_JSON({"schema": SNAPSHOT_SCHEMA, "blocks": len(chain.blocks),
                         "tip": chain.tip_hash.hex()}, 0))
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
                }
                for tx in block.transactions
            ],
        }
        yield "".join(_JSON(record, 0))


def write_snapshot(chain: Chain, path) -> None:
    """Export the chain for offline audit (one JSON block record per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in chain_snapshot_lines(chain):
            fh.write(line)
            fh.write("\n")
