"""Load derivations (exact rationals) and arrival schedule generation."""

from fractions import Fraction

import pytest

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
