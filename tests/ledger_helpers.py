"""Endorsement keys, policy and a transaction maker shared by the ledger-facing tests.

A plain module beside the tests: pytest puts this directory on `sys.path`
when it imports a test module here, so `from ledger_helpers import ...`
resolves from any working directory.
"""

import hashlib

from vaxledger.credential import HMAC_SHA256, generate_did, generate_keypair
from vaxledger.ledger import EU_MEMBER_STATES, EndorsementPolicy, Transaction, endorse_transaction


def ms_keys():
    keys = {}
    for ms in EU_MEMBER_STATES:
        did = generate_did("ms", ms.encode())
        keys[ms] = generate_keypair(did, b"k|" + ms.encode(), HMAC_SHA256)
    return keys


KEYS = ms_keys()
POLICY = EndorsementPolicy(
    roster={ms: kp.public_key for ms, kp in KEYS.items()}, scheme_id=HMAC_SHA256
)


def make_tx(submitter, key, value, reads=(), tx_tag=b"t"):
    tx = Transaction(
        tx_id=hashlib.sha256(tx_tag + key.encode()).digest()[:16],
        submitter=submitter,
        operation=b"op",
        read_set=tuple(reads),
        write_set=((key, value),),
    )
    return endorse_transaction(tx, KEYS[submitter])
