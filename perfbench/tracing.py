"""Span tracing for the benchmark's traced runs, from outside the program.

``SpanRecorder.install`` replaces public functions and methods of the
vaxledger modules with wrappers that record one span per call: its name,
start, end, parent span and the current level or round-trip id. A module that
bound a function with ``from .x import f`` holds its own reference (the engine
binds ``register_certificate`` and ``apply_block``, ordering binds
``compute_data_hash``), so every module global that is the original function
object is replaced, not only the one in the defining module.

``EventQueue.schedule`` is wrapped so that each event callback records an
``<layer>.event`` span in the layer whose module defined the callback. The
dispatch loop (``run_until``/``drain``) is then each event span's parent, and
its self time is the cost of dispatch alone.

Spans are kept in memory in flat arrays and written out with ``write``. A
span's self time is its duration minus the part of it that its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from vaxledger.chaincode import ChaincodeError

# (layer, name in the layer's module): the public calls a traced run times.
TARGETS = (
    ("credential", "issue_credential"),
    ("credential", "hash_credential"),
    ("credential", "verify_credential"),
    ("credential", "sign_payload"),
    ("credential", "verify_payload"),
    ("credential", "generate_keypair"),
    ("credential", "generate_did"),
    ("ledger", "transaction_signing_payload"),
    ("ledger", "endorse_transaction"),
    ("ledger", "validate_transaction"),
    ("ledger", "compute_data_hash"),
    ("ledger", "compute_block_hash"),
    ("ledger", "apply_block"),
    ("ledger", "rich_query"),
    ("ledger", "Chain.append_block"),
    ("chaincode", "register_medical_center"),
    ("chaincode", "register_certificate"),
    ("chaincode", "verify_certificate"),
    ("ordering", "seal_block"),
    ("ordering", "OrderingCluster.submit"),
    ("ordering", "OrderingCluster.cut_batch"),
    ("netsim", "EventQueue.run_until"),
    ("netsim", "EventQueue.drain"),
    ("netsim", "MessageLayer.send"),
    ("netsim", "ServiceStation.enqueue"),
    ("workload", "generate_arrivals"),
    ("engine", "run_level"),
    ("engine", "LevelRun.preload"),
    ("engine", "LevelRun.execute"),
)

PAUSED = "trace.paused"
LAYERS = ("credential", "ledger", "chaincode", "ordering", "netsim", "workload", "engine")


def _count_apply(counters, args, result):
    counters["ledger.applied_txs"] += len(result)
    counters["ledger.invalid_txs"] += sum(1 for flag in result if not flag.valid)


def _count_preload(counters, args, result):
    counters["engine.preloaded_records"] += len(args[0].provisioned)


# Counts read off a call's arguments or result, by span name.
RESULT_HOOKS = {
    "ledger.apply_block": _count_apply,
    "ledger.compute_data_hash": lambda c, a, r: c.update({"ledger.hashed_txs": len(a[0])}),
    "ledger.rich_query": lambda c, a, r: c.update({"ledger.scanned_records": r[1]}),
    "ordering.seal_block": lambda c, a, r: c.update({"ordering.sealed_txs": len(r.transactions)}),
    "ordering.OrderingCluster.cut_batch": lambda c, a, r: c.update(
        {"ordering.batches_cut": r is not None}
    ),
    "ordering.OrderingCluster.submit": lambda c, a, r: c.update(
        {"ordering.submit_rejected": not r.accepted}
    ),
    "engine.LevelRun.preload": _count_preload,
    "engine.LevelRun.execute": lambda c, a, r: c.update({"engine.requests": r.requests}),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._codes: dict = {}
        self.codes = array("i")
        self.idents = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list = []
        self.current_id = -1
        self.paused = 0
        self.counters = Counter()
        self.missing: list = []
        self._restore: list = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def call(self, code: int, fn, args, kwargs):
        """Run ``fn`` inside a span; the wrappers all come through here."""
        if self.paused:
            return fn(*args, **kwargs)
        index = len(self.starts)
        stack = self.stack
        self.codes.append(code)
        self.idents.append(self.current_id)
        self.parents.append(stack[-1] if stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        stack.append(index)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.starts[index] = t0
            self.ends[index] = t1

    @contextmanager
    def paused_span(self):
        """Stop recording for an untimed check. The gap is one ``trace.paused``
        span, so its time is no layer's self time."""
        index = len(self.starts)
        stack = self.stack
        self.codes.append(self.code(PAUSED))
        self.idents.append(self.current_id)
        self.parents.append(stack[-1] if stack else -1)
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1
            self.ends[index] = perf_counter_ns()

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def _wrapper(self, name: str, fn):
        code = self.code(name)
        hook = RESULT_HOOKS.get(name)
        call = self.call
        counters = self.counters
        recorder = self
        if name == "engine.run_level":
            def traced(*args, **kwargs):
                recorder.current_id = counters["engine.levels"]
                counters["engine.levels"] += 1
                return call(code, fn, args, kwargs)
        elif name.startswith("chaincode."):
            def traced(*args, **kwargs):
                try:
                    return call(code, fn, args, kwargs)
                except ChaincodeError:
                    if not recorder.paused:
                        counters["chaincode.rejections"] += 1
                    raise
        elif hook is not None:
            def traced(*args, **kwargs):
                result = call(code, fn, args, kwargs)
                if not recorder.paused:
                    hook(counters, args, result)
                return result
        else:
            def traced(*args, **kwargs):
                return call(code, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _event_wrapper(self, callback):
        module = getattr(callback, "__module__", None) or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("vaxledger.") else "other"
        code = self.code(f"{layer}.event")
        call = self.call

        def event():
            return call(code, callback, (), {})

        return event

    def install(self) -> None:
        """Wrap every target that exists; absent ones are listed in ``missing``."""
        functions = {}
        for layer, target in TARGETS:
            module = sys.modules[f"vaxledger.{layer}"]
            name = f"{layer}.{target}"
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original)
            if owner_name:
                self._set(owner, attr, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        # Each module that imported a function by name, the benchmark's own
        # included, holds the original object: swap every such binding.
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])
        queue_cls = sys.modules["vaxledger.netsim"].EventQueue
        schedule = vars(queue_cls)["schedule"]
        recorder = self

        def traced_schedule(queue, at, callback, *args, **kwargs):
            if not recorder.paused:
                callback = recorder._event_wrapper(callback)
            return schedule(queue, at, callback, *args, **kwargs)

        self._set(queue_cls, "schedule", traced_schedule)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def self_times(self, window_start: int, window_end: int) -> tuple:
        """Per-span self time, and the part of the window no root span covers.

        Children are recorded in start order, so the union of a span's child
        intervals is found in one pass by tracking the furthest end seen.
        """
        n = len(self.starts)
        start, end, parent = self.starts, self.ends, self.parents
        covered = [0] * n
        reach = [0] * n
        root_covered = 0
        root_reach = window_start
        for i in range(n):
            p = parent[i]
            if p < 0:
                lo = max(start[i], root_reach)
                hi = min(end[i], window_end)
                if hi > lo:
                    root_covered += hi - lo
                if hi > root_reach:
                    root_reach = hi
                continue
            lo = max(start[i], start[p], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > reach[p]:
                reach[p] = hi
        self_ns = [end[i] - start[i] - covered[i] for i in range(n)]
        return self_ns, root_covered

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": ["codes:i", "idents:q", "parents:q", "starts:q", "ends:q"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.codes, self.idents, self.parents, self.starts, self.ends):
                column.tofile(fh)


def layer_metrics(recorder: SpanRecorder, wall_ns: int, window: tuple) -> dict:
    """The per-layer metrics of one traced run, by their benchmark names.

    ``wall_ns`` is the traced run's wall with untimed checks taken off;
    ``window`` is its (start, end) in ``perf_counter_ns`` time.
    """
    self_ns, root_covered = recorder.self_times(*window)
    total = Counter()
    own = Counter()
    for code, s, e, own_ns in zip(recorder.codes, recorder.starts, recorder.ends, self_ns):
        name = recorder.names[code]
        total[name] += e - s
        own[name] += own_ns
    counts = recorder.counters
    calls = Counter()
    for code, n in Counter(recorder.codes).items():
        calls[recorder.names[code]] = n
    events = sum(n for name, n in calls.items() if name.endswith(".event"))

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_us(name):
        return ratio(total[name], calls[name]) / 1e3

    layer_self = Counter()
    for name, ns in own.items():
        layer_self[name.split(".", 1)[0]] += ns
    dispatch = own["netsim.EventQueue.run_until"] + own["netsim.EventQueue.drain"]
    preload = total["engine.LevelRun.preload"]
    levels = counts["engine.levels"]
    metrics = {
        "engine.preload_us_per_record": (ratio(preload, counts["engine.preloaded_records"]) / 1e3, "us"),
        "engine.preload_share": (ratio(preload, wall_ns), "ratio"),
        "engine.sim_phase_s": ((total["engine.LevelRun.execute"] - preload) / 1e9, "s"),
        "chaincode.register_certificate_us": (mean_us("chaincode.register_certificate"), "us"),
        "chaincode.verify_certificate_us": (mean_us("chaincode.verify_certificate"), "us"),
        "chaincode.calls": (
            calls["chaincode.register_certificate"]
            + calls["chaincode.verify_certificate"]
            + calls["chaincode.register_medical_center"],
            "count",
        ),
        "chaincode.rejections": (counts["chaincode.rejections"], "count"),
        "ledger.signing_payload_per_tx": (
            ratio(calls["ledger.transaction_signing_payload"], calls["ledger.endorse_transaction"]),
            "count",
        ),
        "ledger.endorse_us": (mean_us("ledger.endorse_transaction"), "us"),
        "ledger.validate_us": (mean_us("ledger.validate_transaction"), "us"),
        "ledger.apply_us_per_tx": (
            ratio(total["ledger.apply_block"], counts["ledger.applied_txs"]) / 1e3, "us"
        ),
        "ledger.data_hash_us_per_tx": (
            ratio(total["ledger.compute_data_hash"], counts["ledger.hashed_txs"]) / 1e3, "us"
        ),
        "ledger.rich_query_us_per_record": (
            ratio(total["ledger.rich_query"], counts["ledger.scanned_records"]) / 1e3, "us"
        ),
        "ledger.invalid_txs": (counts["ledger.invalid_txs"], "count"),
        "ordering.seal_us_per_tx": (
            ratio(total["ordering.seal_block"], counts["ordering.sealed_txs"]) / 1e3, "us"
        ),
        "ordering.txs_per_block": (
            ratio(counts["ordering.sealed_txs"], calls["ordering.seal_block"]), "count"
        ),
        "ordering.cut_hit_ratio": (
            ratio(counts["ordering.batches_cut"], calls["ordering.OrderingCluster.cut_batch"]),
            "ratio",
        ),
        "ordering.submit_rejected": (counts["ordering.submit_rejected"], "count"),
        "netsim.events": (events, "count"),
        "netsim.events_per_request": (ratio(events, counts["engine.requests"]), "count"),
        "netsim.dispatch_ns_per_event": (ratio(dispatch, events), "ns"),
        "netsim.send_us": (mean_us("netsim.MessageLayer.send"), "us"),
        "netsim.enqueue_us": (mean_us("netsim.ServiceStation.enqueue"), "us"),
        "credential.issue_us": (mean_us("credential.issue_credential"), "us"),
        "credential.verify_us": (mean_us("credential.verify_credential"), "us"),
        "credential.hash_us": (mean_us("credential.hash_credential"), "us"),
        "credential.sign_calls": (calls["credential.sign_payload"], "count"),
        "credential.keypair_calls": (calls["credential.generate_keypair"], "count"),
        "workload.arrivals_calls_per_level": (
            ratio(calls["workload.generate_arrivals"], levels), "count"
        ),
        "trace.unattributed_s": ((wall_ns - root_covered + total[PAUSED]) / 1e9, "s"),
        "trace.wall_s": (wall_ns / 1e9, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
    return metrics
