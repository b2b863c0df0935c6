"""Scenario execution, metrics aggregation, and CSV/table reporting.

`run_scenario` sweeps a scenario's TPS levels, each on its own simulated world
forked from one setup world per call; results are deterministic per
(config, seed). Response time is measured client-side, request to
acknowledgment. The per-role busy fractions are a utilization proxy, not a
reproduction of host CPU/memory percentages.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .engine import LevelMetrics, SetupWorld, run_level
from .ledger import write_snapshot
from .netsim import TraceWriter
from .scenario import ScenarioConfig

__all__ = ["MetricsReport", "run_scenario", "report_to_csv_text", "render_csv_table", "CSV_HEADER"]

CSV_HEADER = "step,tps,response_time_ms,peer_bandwidth_kb,ordering_bandwidth_kb,errors,saturated"


@dataclass(frozen=True)
class MetricsReport:
    step: str
    levels: tuple  # of LevelMetrics

    def level(self, tps) -> LevelMetrics:
        for metrics in self.levels:
            if metrics.tps == float(tps):
                return metrics
        raise KeyError(f"no metrics for tps level {tps}")


def run_scenario(
    config: ScenarioConfig,
    *,
    trace_path=None,
    snapshot_path=None,
    setup: SetupWorld | None = None,
) -> MetricsReport:
    """Run every TPS level of the scenario and aggregate a MetricsReport.

    The levels fork one `SetupWorld`, grown as they need it, so each setup
    block is built once and levels may come in any order: `setup`, which calls
    may share (built for the same step and seed), or a new one.

    `trace_path` dumps the newline-delimited event trace of all levels;
    `snapshot_path` exports the final level's ledger for audit/determinism
    comparisons.
    """
    levels = []
    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    try:
        tracer = TraceWriter(trace_fh) if trace_fh else None
        setup = setup if setup is not None else SetupWorld(config)
        for level in config.tps_levels:
            run = None  # release the previous level's world before the next is built
            metrics, run = run_level(config, level, tracer, setup)
            levels.append(metrics)
    finally:
        if trace_fh:
            trace_fh.close()
    if snapshot_path:
        write_snapshot(run.chain, snapshot_path)
    return MetricsReport(step=config.step, levels=tuple(levels))


def report_to_csv_text(report: MetricsReport) -> str:
    """One row per TPS level; fixed 1-decimal precision, diff-stable."""
    if not report.levels:
        raise ValueError("cannot export an empty report")
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for m in report.levels:
        out.write(
            f"{report.step},{m.tps:g},{m.mean_response_ms:.1f},"
            f"{m.peer_bandwidth_kb:.1f},{m.ordering_bandwidth_kb:.1f},"
            f"{m.error_count},{'true' if m.saturated else 'false'}\n"
        )
    return out.getvalue()


def render_csv_table(csv_text: str) -> str:
    """Render exported CSV as an aligned text table."""
    rows = [line.split(",") for line in csv_text.strip().splitlines() if line]
    if not rows:
        raise ValueError("empty CSV")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError(f"CSV line {','.join(row)!r} does not have {len(rows[0])} columns")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
    return "\n".join(lines) + "\n"
