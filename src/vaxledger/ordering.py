"""Crash-tolerant ordering: total-order log, batch cutting, block sealing.

The cluster runs three roles (3 coordinators, 4 brokers, 3 sequencers), each
instance Up or Down; instance i of a role is the host "<role>-<i>". It stays
available while no role has more than one instance Down; an unavailable
cluster rejects submissions, which callers count as errors. Health is state:
`set_instance_status`, the only writer of the private status tuples, also
recomputes `available` and `up_hosts`, each role's Up hosts with its lead
first, so a read costs nothing and a fault pays once. Internals are modeled
as one logical replicated log gated by role health rather than
protocol-faithfully.

Batches are cut from the oldest pending envelopes when the pending count
reaches max_message_count, pending bytes reach max_batch_bytes (the envelope
crossing the byte boundary is included, so a block may exceed the limit by at
most one envelope), or the oldest pending envelope reaches batch_timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .credential import KeyPair, sign_payload
from .ledger import Block, Transaction, _attach_signing_payload, compute_data_hash, compute_block_hash

__all__ = [
    "ROLES",
    "ROLE_SIZES",
    "BatchConfig",
    "Envelope",
    "SubmitResult",
    "OrderingCluster",
    "seal_block",
]

ROLES = ("coordinator", "broker", "sequencer")
ROLE_SIZES = {"coordinator": 3, "broker": 4, "sequencer": 3}


@dataclass(frozen=True)
class BatchConfig:
    max_message_count: int = 10
    max_batch_bytes: int = 512 * 1024
    batch_timeout_ms: int = 40

    def __post_init__(self):
        if self.max_message_count <= 0 or self.max_batch_bytes <= 0 or self.batch_timeout_ms <= 0:
            raise ValueError("batch parameters must be strictly positive")

    @property
    def batch_timeout_us(self) -> int:
        return self.batch_timeout_ms * 1000


@dataclass(frozen=True, slots=True)
class Envelope:
    transaction: Transaction
    received_at: int  # simulated microseconds
    size_bytes: int = 0


@dataclass(frozen=True)
class SubmitResult:
    accepted: bool


_ACCEPTED, _REJECTED = SubmitResult(accepted=True), SubmitResult(accepted=False)


class OrderingCluster:
    """Replicated sequencing service with per-role instance health."""

    def __init__(self, batch_config: BatchConfig | None = None):
        self.batch = batch_config or BatchConfig()
        self._status = {role: (True,) * ROLE_SIZES[role] for role in ROLES}  # one Up flag per instance
        self.log: list[Envelope] = []
        self._cursor = 0  # log index of the first not-yet-batched envelope
        self._refresh()

    def set_instance_status(self, role: str, index: int, up: bool) -> None:
        if role not in ROLE_SIZES:
            raise ValueError(f"unknown role: {role!r}")
        if not 0 <= index < ROLE_SIZES[role]:
            raise ValueError(f"{role} index {index} out of range")
        ups = self._status[role]
        self._status[role] = ups[:index] + (up,) + ups[index + 1 :]
        self._refresh()

    def _refresh(self) -> None:
        """Recompute the health state from the status: `available`, Up iff
        every role has at most one instance Down, and `up_hosts`, each role's
        Up hosts in index order: its lead, the lowest-index Up one, first."""
        self.available = all(ups.count(False) <= 1 for ups in self._status.values())
        self.up_hosts = {
            role: tuple(f"{role}-{i}" for i, up in enumerate(ups) if up)
            for role, ups in self._status.items()
        }

    def submit(self, envelope: Envelope) -> SubmitResult:
        """Append to the replicated log, if available; a resubmitted copy is logged again."""
        if not self.available:
            return _REJECTED
        self.log.append(envelope)
        return _ACCEPTED

    def next_timeout_deadline(self) -> int | None:
        """Simulated time at which the oldest pending envelope forces a cut."""
        if self._cursor >= len(self.log):
            return None
        return self.log[self._cursor].received_at + self.batch.batch_timeout_us

    def cut_batch(self, now: int) -> list[Envelope] | None:
        """Emit the oldest pending envelopes when a cut rule fires, else None.

        One walk takes up to max_message_count envelopes, stopping after the
        one that brings the total to max_batch_bytes; the cut is ready if the
        walk reached either limit or the oldest envelope has timed out.
        """
        log, start = self.log, self._cursor
        if start >= len(log):
            return None
        limit, count = self.batch.max_batch_bytes, self.batch.max_message_count
        stop, total = start, 0
        end = min(len(log), start + count)
        while stop < end and total < limit:
            total += log[stop].size_bytes
            stop += 1
        if total < limit and stop - start < count:
            if now - log[start].received_at < self.batch.batch_timeout_us:
                return None
        self._cursor = stop
        return log[start:stop]


def seal_block(batch: list[Envelope], prev_tip: tuple, sealer_key: KeyPair) -> Block:
    """Seal a batch into the next block after `prev_tip` = (number, digest).

    A transaction holding no signing payload (a re-commit) gets one encoding
    attached, for the data hash and `apply_block`; a first commit holds its endorser's.
    """
    if not batch:
        raise ValueError("cannot seal an empty batch")
    prev_number, prev_digest = prev_tip
    transactions = tuple([envelope.transaction for envelope in batch])
    for tx in transactions:
        _attach_signing_payload(tx)
    data_hash = compute_data_hash(transactions)
    number = prev_number + 1
    header_hash = compute_block_hash(number, prev_digest, data_hash)
    signature = sign_payload(sealer_key.scheme_id, sealer_key.private_key, header_hash)
    return Block(number, prev_digest, data_hash, transactions, signature)
