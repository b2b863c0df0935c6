"""Session fixtures shared across test modules."""

import pytest

from vaxledger.engine import SetupWorld, run_level
from vaxledger.scenario import default_register_config, default_verify_config


@pytest.fixture(scope="session")
def default_levels():
    """Every level of the default register and verify sweeps, run once per
    session and forked from one `SetupWorld` per step, as `run_scenario` runs
    them: {step: (config, setup, [(metrics, run) per level, in sweep order])}."""
    levels = {}
    for config in (default_register_config(), default_verify_config()):
        setup = SetupWorld(config)
        runs = [run_level(config, level, setup=setup) for level in config.tps_levels]
        levels[config.step] = (config, setup, runs)
    return levels
