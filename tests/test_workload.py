"""Load derivations (exact rationals) and arrival schedule generation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vaxledger.scenario import REGISTER_TPS_LEVELS, VERIFY_TPS_LEVELS, ScenarioConfig
from vaxledger.workload import (
    BUSIEST_MS_ANNUAL_PASSENGERS,
    EU_POPULATION,
    SECONDS_PER_YEAR,
    display_tps,
    generate_arrivals,
    required_registration_tps,
    required_verification_tps,
)


class TestRegistrationLoad:
    def test_eu_two_dose_rate(self):
        tps = required_registration_tps(EU_POPULATION, 2, SECONDS_PER_YEAR)
        assert tps == Fraction(895_000_000, 31_536_000)
        assert Fraction("28.3") < tps < Fraction("28.5")
        assert display_tps(tps) == "28"

    def test_unit_case(self):
        assert required_registration_tps(1, 1, 1) == 1

    def test_linearity_in_population(self):
        base = required_registration_tps(10_000, 2, 1000)
        doubled = required_registration_tps(20_000, 2, 1000)
        assert doubled == 2 * base

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            required_registration_tps(1000, 2, 0)

    def test_zero_population_or_doses_rejected(self):
        for population, doses in ((0, 2), (1000, 0)):
            with pytest.raises(ValueError, match="population"):
                required_registration_tps(population, doses, 1000)


class TestVerificationLoad:
    def test_busiest_ms_rate(self):
        tps = required_verification_tps(BUSIEST_MS_ANNUAL_PASSENGERS, SECONDS_PER_YEAR)
        assert Fraction("101.3") < tps < Fraction("101.6")
        assert display_tps(tps) == "≈100"

    def test_unit_case(self):
        assert required_verification_tps(SECONDS_PER_YEAR, SECONDS_PER_YEAR) == 1

    def test_linearity(self):
        full = required_verification_tps(3_200_000_000, SECONDS_PER_YEAR)
        half = required_verification_tps(1_600_000_000, SECONDS_PER_YEAR)
        assert half * 2 == full

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            required_verification_tps(0, SECONDS_PER_YEAR)
        with pytest.raises(ValueError):
            required_verification_tps(100, 0)


class TestArrivals:
    def test_uniform_two_tps_three_seconds(self):
        assert generate_arrivals(2, 3, "uniform") == (
            500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_000_000
        )

    def test_uniform_count_28tps_60s(self):
        assert len(generate_arrivals(28, 60, "uniform")) == 1680

    def test_uniform_count_is_rounded_product(self):
        assert len(generate_arrivals(Fraction(5, 2), 3, "uniform")) == round(Fraction(15, 2))

    def test_reproducible(self):
        a = generate_arrivals(10, 20, "poisson", seed=7)
        b = generate_arrivals(10, 20, "poisson", seed=7)
        assert a == b
        assert a != generate_arrivals(10, 20, "poisson", seed=8)

    def test_poisson_mean_interarrival(self):
        arrivals = generate_arrivals(10, 1000, "poisson", seed=3)
        gaps = [b - a for a, b in zip((0,) + arrivals, arrivals)]
        mean_gap_s = sum(gaps) / len(gaps) / 1_000_000
        assert abs(mean_gap_s - 0.1) / 0.1 < 0.05

    def test_arrivals_sorted_within_horizon(self):
        arrivals = generate_arrivals(50, 10, "poisson", seed=11)
        assert list(arrivals) == sorted(arrivals)
        assert arrivals[-1] <= 10_000_000

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(0, 10, "uniform")
        with pytest.raises(ValueError):
            generate_arrivals(5, 0, "uniform")
        with pytest.raises(ValueError):
            generate_arrivals(5, 10, "gaussian")


def _exact_uniform(tps, duration_seconds: int) -> tuple:
    """The uniform schedule in exact rationals, rounded half to even."""
    rate = Fraction(tps)
    step = Fraction(10**6) / rate
    return tuple(round(step * k) for k in range(1, round(rate * duration_seconds) + 1))


class TestUniformArrivalsInIntegers:
    """The integer schedule equals exact rational rounding, ties included."""

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.fractions(min_value=Fraction(1, 1000), max_value=250, max_denominator=10**4),
        seconds=st.integers(min_value=1, max_value=20),
    )
    def test_equals_exact_rounding(self, rate, seconds):
        assume(rate > 0 and round(rate * seconds) <= 5000)
        assert generate_arrivals(rate, seconds) == _exact_uniform(rate, seconds)

    def test_every_odd_arrival_ties(self):
        rate = Fraction(2_000_000, 1001)  # a step of 500.5 us
        arrivals = generate_arrivals(rate, 1)
        assert arrivals == _exact_uniform(rate, 1)
        assert arrivals[:4] == (500, 1001, 1502, 2002)  # 500.5 and 1501.5 go to the even side

    @pytest.mark.parametrize("tps", sorted({*REGISTER_TPS_LEVELS, *VERIFY_TPS_LEVELS}))
    def test_default_levels(self, tps):
        duration = ScenarioConfig().duration_seconds
        assert generate_arrivals(tps, duration) == _exact_uniform(tps, duration)

    @pytest.mark.parametrize("tps", [28.4, 0.3, 99.99])
    def test_float_tps(self, tps):
        assert generate_arrivals(tps, 7) == _exact_uniform(tps, 7)
