"""vaxledger: a deterministic desk-scale simulator and library for sharing
vaccination certificates over a 27-node permissioned ledger.

Subpackages cover credential issuance and hashing, the replicated ledger and
its smart-contract layer, the crash-tolerant ordering cluster, the
discrete-event network model, workload derivation, and the benchmark harness.
"""

from .credential import (
    CertificateHash,
    DecentralizedIdentifier,
    KeyPair,
    Proof,
    VaccinationCredential,
    VerificationOutcome,
    canonicalize,
    generate_did,
    generate_keypair,
    hash_credential,
    issue_credential,
    verify_credential,
)
from .ledger import (
    Block,
    Chain,
    EU_MEMBER_STATES,
    EndorsementPolicy,
    Transaction,
    WorldState,
    apply_block,
    compute_block_hash,
    rich_query,
    validate_transaction,
)
from .ordering import BatchConfig, Envelope, OrderingCluster, seal_block
from .netsim import EventQueue, LinkParams, transit_delay
from .workload import (
    display_tps,
    generate_arrivals,
    required_registration_tps,
    required_verification_tps,
)
from .scenario import ScenarioConfig, ServiceTimeProfile, DEFAULT_PROFILE
from .bench import MetricsReport, export_csv, run_scenario
from .calibrate import CalibrationError, calibrate

__version__ = "0.1.0"
