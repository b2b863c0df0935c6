"""vaxledger: a deterministic desk-scale simulator and library for sharing
vaccination certificates over a 27-node permissioned ledger.

Subpackages cover credential issuance and hashing, the replicated ledger and
its smart-contract layer, the crash-tolerant ordering cluster, the
discrete-event network model, workload derivation, and the benchmark harness.
The package root exports nothing else; import from the submodules.
"""

__version__ = "0.1.0"
