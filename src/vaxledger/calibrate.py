"""Fit the service-time profile against measured benchmark targets.

The search is plain coordinate descent: each tunable parameter in turn is
probed with a fixed ladder of multiplicative factors, keeping any change that
improves the objective, until a full round yields no improvement. The whole
procedure is deterministic, so a fit is reproducible bit-for-bit from its
inputs.

The objective is the mean relative error of simulated mean response times
against the target rows, plus half the mean relative error of peer bandwidth,
plus a steep penalty for any row outside the acceptance bands (25% response,
35% bandwidth) and a milder penalty inside a 3-point safety margin of a band,
so a fitted profile keeps off a band edge. The committed `DEFAULT_PROFILE` is
not such a fit (see its note in scenario.py). Ordering bandwidth is
deliberately not fitted: the reference deployment routed verification through
ordering while this model treats verification as pure queries, so its
ordering column is not comparable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace

from .bench import run_scenario
from .scenario import (
    _STEPS,
    ScenarioConfig,
    ServiceTimeProfile,
    default_register_config,
    default_verify_config,
)

__all__ = [
    "CalibrationError",
    "TargetRow",
    "Residual",
    "CalibrationResult",
    "load_targets",
    "calibrate",
    "DEFAULT_TUNABLES",
]

RESPONSE_BAND = 0.25
BANDWIDTH_BAND = 0.35
SOFT_MARGIN = 0.03

DEFAULT_TUNABLES = (
    "endorse_ms",
    "commit_per_tx_ms",
    "orderer_per_envelope_ms",
    "query_per_record_us",
    "query_workers",
    "rest_overhead_ms",
    "gossip_bytes",
    "envelope_bytes",
)

# Utilization ceiling at measured rows: the reference system was not
# saturated anywhere in the table, so a profile that drives any station
# past this at a target level is wrong no matter how well it fits.
STABILITY_CEILING = 0.97

_PROBES = (0.8, 0.9, 0.95, 1.05, 1.1, 1.25)


class CalibrationError(Exception):
    """Fit failed or targets are unusable; carries the residual table."""

    def __init__(self, message: str, residuals=()):
        super().__init__(message)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class TargetRow:
    step: str
    tps: float
    response_time_ms: float
    peer_bandwidth_kb: float


@dataclass(frozen=True)
class Residual:
    step: str
    tps: float
    kind: str  # "response" or "peer_bandwidth"
    target: float
    simulated: float

    @property
    def relative_error(self) -> float:
        return abs(self.simulated - self.target) / self.target


@dataclass(frozen=True)
class CalibrationResult:
    profile: ServiceTimeProfile
    residuals: tuple
    response_mre: float
    bandwidth_mre: float
    rounds: int
    evaluations: int


def load_targets(path) -> list:
    """Read target rows from CSV with at least step,tps,response_time_ms,
    peer_bandwidth_kb columns (extra columns are ignored)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [f.name for f in fields(TargetRow) if f.name not in (reader.fieldnames or ())]
        if missing:
            raise CalibrationError(f"targets CSV lacks column(s): {', '.join(missing)}")
        for r in reader:
            if None in r.values():
                raise CalibrationError(f"targets CSV line {reader.line_num} lacks a value")
            rows.append(TargetRow(r["step"].strip(), float(r["tps"]),
                                  float(r["response_time_ms"]), float(r["peer_bandwidth_kb"])))
    return rows


def _check_targets(targets) -> None:
    """Reject unusable targets before any simulation runs."""
    if not targets:
        raise CalibrationError("no calibration targets provided")
    for t in targets:
        if t.step not in _STEPS:
            raise CalibrationError(f"target step must be one of {_STEPS}, got {t.step!r}")
        if min(t.tps, t.response_time_ms, t.peer_bandwidth_kb) <= 0:
            raise CalibrationError(f"{t.step}@{t.tps:g}: tps and targets must be positive")
    have = {(t.step, t.tps) for t in targets}
    required = {("register", 1.0), ("register", 28.0), ("verify", 1.0), ("verify", 100.0)}
    missing = required - have
    if missing:
        raise CalibrationError(f"targets missing required rows: {sorted(missing)}")


def _residuals(profile, targets, register_config, verify_config):
    by_step = {}
    for step, base in (("register", register_config), ("verify", verify_config)):
        levels = tuple(sorted({t.tps for t in targets if t.step == step}))
        config = replace(base, tps_levels=levels, service_profile=profile)
        by_step[step] = run_scenario(config)
    residuals = []
    instability = 0.0
    for target in targets:
        metrics = by_step[target.step].level(target.tps)
        for kind, wanted, simulated in (
            ("response", target.response_time_ms, metrics.mean_response_ms),
            ("peer_bandwidth", target.peer_bandwidth_kb, metrics.peer_bandwidth_kb),
        ):
            residuals.append(Residual(target.step, target.tps, kind, wanted, simulated))
        if metrics.saturated or metrics.error_count:
            instability += 2.0
        busiest = max(metrics.busy_fractions.values())
        if busiest > STABILITY_CEILING:
            instability += 10.0 * (busiest - STABILITY_CEILING)
    return residuals, instability


def _mre(residuals, kind: str) -> float:
    """Mean relative error of the residuals of one kind (0.0 if there are none)."""
    errors = [r.relative_error for r in residuals if r.kind == kind]
    return sum(errors) / len(errors) if errors else 0.0


def _objective(residuals) -> float:
    value = _mre(residuals, "response") + 0.5 * _mre(residuals, "peer_bandwidth")
    for r in residuals:
        band = RESPONSE_BAND if r.kind == "response" else BANDWIDTH_BAND
        overshoot = r.relative_error - band
        if overshoot > 0:
            value += 10.0 * overshoot
        near_edge = r.relative_error - (band - SOFT_MARGIN)
        if near_edge > 0:
            value += 2.0 * near_edge
    return value


def _with_param(profile: ServiceTimeProfile, name: str, value):
    current = getattr(profile, name)
    if isinstance(current, int):
        value = max(1, round(value))
    else:
        value = round(value, 2)  # 10 us precision keeps committed constants clean
    return replace(profile, **{name: value})


def calibrate(
    targets,
    initial: ServiceTimeProfile,
    *,
    register_config: ScenarioConfig | None = None,
    verify_config: ScenarioConfig | None = None,
    tunables=DEFAULT_TUNABLES,
    max_rounds: int = 4,
) -> CalibrationResult:
    """Coordinate-descent fit of the profile against target rows.

    The returned profile minimizes the documented objective; raises
    CalibrationError (with the residual table attached) when the final mean
    relative response error exceeds the response band.
    """
    _check_targets(targets)
    register_config = register_config or default_register_config()
    verify_config = verify_config or default_verify_config()

    evaluations = 0

    def evaluate(profile):
        nonlocal evaluations
        evaluations += 1
        residuals, instability = _residuals(profile, targets, register_config, verify_config)
        return _objective(residuals) + instability, residuals

    best_profile = initial
    best_score, best_residuals = evaluate(initial)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for name in tunables:
            base_value = getattr(best_profile, name)
            if base_value == 0:
                continue
            for factor in _PROBES:
                candidate = _with_param(best_profile, name, base_value * factor)
                if getattr(candidate, name) == getattr(best_profile, name):
                    continue
                score, residuals = evaluate(candidate)
                if score < best_score - 1e-9:
                    best_profile, best_score, best_residuals = candidate, score, residuals
                    base_value = getattr(best_profile, name)
                    improved = True
        if not improved:
            break

    response_mre = _mre(best_residuals, "response")
    if response_mre > RESPONSE_BAND:
        raise CalibrationError(
            f"calibration failed: mean relative response error {response_mre:.3f} "
            f"exceeds {RESPONSE_BAND:.2f}",
            residuals=best_residuals,
        )
    return CalibrationResult(
        profile=best_profile,
        residuals=tuple(best_residuals),
        response_mre=response_mre,
        bandwidth_mre=_mre(best_residuals, "peer_bandwidth"),
        rounds=rounds,
        evaluations=evaluations,
    )


def format_residuals(residuals) -> str:
    lines = ["step     tps      kind              target   simulated   rel_err"]
    for r in residuals:
        lines.append(
            f"{r.step:<8} {r.tps:<8g} {r.kind:<16} {r.target:>8.1f} {r.simulated:>10.1f}"
            f"   {r.relative_error:>6.1%}"
        )
    return "\n".join(lines)
