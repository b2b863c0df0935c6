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
import math
from dataclasses import dataclass, fields, replace

from .bench import run_scenario
from .engine import SetupWorld
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
            try:
                rows.append(TargetRow(r["step"].strip(), float(r["tps"]),
                                      float(r["response_time_ms"]), float(r["peer_bandwidth_kb"])))
            except ValueError as exc:
                raise CalibrationError(f"targets CSV line {reader.line_num}: {exc}") from exc
    return rows


def _check_targets(targets) -> None:
    """Reject unusable targets before any simulation runs."""
    if not targets:
        raise CalibrationError("no calibration targets provided")
    for t in targets:
        if t.step not in _STEPS:
            raise CalibrationError(f"target step must be one of {_STEPS}, got {t.step!r}")
        if not all(0 < v < math.inf for v in (t.tps, t.response_time_ms, t.peer_bandwidth_kb)):
            raise CalibrationError(f"{t.step}@{t.tps:g}: tps and targets must be finite and > 0")
    have = [(t.step, float(t.tps)) for t in targets]
    repeated = sorted({row for row in have if have.count(row) > 1})
    if repeated:
        raise CalibrationError(f"targets repeat row(s): {repeated}")
    required = {("register", 1.0), ("register", 28.0), ("verify", 1.0), ("verify", 100.0)}
    missing = required - set(have)
    if missing:
        raise CalibrationError(f"targets missing required rows: {sorted(missing)}")


def _residuals(profile, targets, configs: dict, worlds: dict):
    """Residuals and instability of `profile`, each step run at its config on its setup world."""
    by_step = {step: run_scenario(replace(config, service_profile=profile), setup=worlds[step])
               for step, config in configs.items()}
    residuals = []
    instability = 0.0
    for target in targets:
        metrics = by_step[target.step].level(target.tps)
        for kind, wanted, simulated in (
            ("response", target.response_time_ms, metrics.mean_response_ms),
            ("peer_bandwidth", target.peer_bandwidth_kb, metrics.peer_bandwidth_kb),
        ):
            residuals.append(Residual(target.step, target.tps, kind, wanted, simulated))
        if metrics.saturated:
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


def _with_param(profile: ServiceTimeProfile, name: str, factor: float):
    """`profile` with `name` times `factor`, rounded to a whole number for an int field and
    to 0.01 for a float one (10 us precision keeps committed constants clean). A value that
    rounds back moves one rounding step towards `factor` instead, floored at 1 or 0."""
    current = getattr(profile, name)
    is_int = profile.__dataclass_fields__[name].type == "int"
    digits, step, floor = (None, 1, 1) if is_int else (2, 0.01, 0.0)
    value = round(current * factor, digits)
    if value == current:
        value = round(current + (step if factor > 1 else -step), digits)
    return replace(profile, **{name: max(floor, value)})


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
    configs = {
        step: replace(base, tps_levels=tuple(sorted({t.tps for t in targets if t.step == step})))
        for step, base in (("register", register_config or default_register_config()),
                           ("verify", verify_config or default_verify_config()))
    }
    # A setup world depends on the step and seed alone, so one serves every profile.
    worlds = {step: SetupWorld(config) for step, config in configs.items()}
    scores = {}  # profile -> (score, residuals), for every profile the fit simulated

    def evaluate(profile) -> float:
        residuals, instability = _residuals(profile, targets, configs, worlds)
        scores[profile] = _objective(residuals) + instability, residuals
        return scores[profile][0]

    best_profile = initial
    evaluate(initial)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for name in tunables:
            for factor in _PROBES:
                candidate = _with_param(best_profile, name, factor)
                if candidate in scores:
                    continue  # the current profile, or one that lost to a best score, which only falls
                if evaluate(candidate) < scores[best_profile][0] - 1e-9:
                    best_profile = candidate
                    improved = True
        if not improved:
            break

    best_residuals = scores[best_profile][1]
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
        evaluations=len(scores),
    )


def format_residuals(residuals) -> str:
    lines = ["step     tps      kind              target   simulated   rel_err"]
    for r in residuals:
        lines.append(
            f"{r.step:<8} {r.tps:<8g} {r.kind:<16} {r.target:>8.1f} {r.simulated:>10.1f}"
            f"   {r.relative_error:>6.1%}"
        )
    return "\n".join(lines)
