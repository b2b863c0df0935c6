"""Load derivations and deterministic arrival schedules.

Rates are exact rationals; rounding happens only when a value is formatted
for display. Uniform schedules are the default (constant-rate benchmarking,
maximally reproducible); Poisson schedules are available for realism studies
and are reproducible per (tps, duration, seed).
"""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = [
    "SECONDS_PER_YEAR",
    "EU_POPULATION",
    "BUSIEST_MS_ANNUAL_PASSENGERS",
    "required_registration_tps",
    "required_verification_tps",
    "display_tps",
    "generate_arrivals",
]

SECONDS_PER_YEAR = 365 * 24 * 3600  # 31,536,000

# Eurostat-style planning figures used by the default scenarios.
EU_POPULATION = 447_500_000
BUSIEST_MS_ANNUAL_PASSENGERS = 3_200_000_000


def required_registration_tps(
    population: int, doses_per_person: int, horizon_seconds: int
) -> Fraction:
    """Transactions/s to register `doses_per_person` doses for everyone."""
    if population <= 0 or doses_per_person <= 0:
        raise ValueError("population and doses_per_person must be positive")
    if horizon_seconds <= 0:
        raise ValueError("horizon must be positive")
    return Fraction(population * doses_per_person, horizon_seconds)


def required_verification_tps(annual_passengers: int, horizon_seconds: int) -> Fraction:
    """Transactions/s to verify every passenger at the busiest member state."""
    if annual_passengers <= 0:
        raise ValueError("annual_passengers must be positive")
    if horizon_seconds <= 0:
        raise ValueError("horizon must be positive")
    return Fraction(annual_passengers, horizon_seconds)


def display_tps(tps: Fraction) -> str:
    """Presentation rounding: whole TPS below 100, '≈' nearest ten above."""
    if tps < 100:
        return str(round(tps))
    nearest_ten = round(Fraction(tps, 10)) * 10
    return f"≈{nearest_ten}"


def generate_arrivals(tps, duration_seconds: int, mode: str = "uniform", seed: int = 0) -> tuple:
    """Arrival timestamps in microseconds over (0, duration], as a sorted tuple.

    Uniform mode spaces round(tps*duration) arrivals exactly 1/tps apart,
    starting at 1/tps. Poisson mode draws exponential inter-arrival gaps from
    a generator seeded with `seed`. A level's `LevelRun` draws its schedule
    with this once, from its own config and offered TPS.
    """
    rate = Fraction(tps) if not isinstance(tps, Fraction) else tps
    if rate <= 0:
        raise ValueError("tps must be positive")
    if duration_seconds <= 0:
        raise ValueError("duration must be positive")
    if mode == "uniform":
        n, d = (1_000_000 / rate).as_integer_ratio()  # the step, in integers
        count = round(rate * duration_seconds)
        halves = (divmod(2 * n * k + d, 2 * d) for k in range(1, count + 1))  # q = ⌊nk/d + ½⌋
        return tuple(q - (q & 1 and not r) for q, r in halves)  # a tie (r = 0) rounds to even
    if mode == "poisson":
        rng = random.Random(seed)
        horizon_us = duration_seconds * 1_000_000
        rate_per_us = float(rate) / 1_000_000
        arrivals = []
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_us)
            if t > horizon_us:
                break
            arrivals.append(round(t))
        return tuple(arrivals)
    raise ValueError(f"unknown arrival mode: {mode!r}")
