"""Every name a vaxledger module exports resolves, and so does every call
the benchmark's traced runs wrap."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import vaxledger

MODULES = sorted(
    name for _finder, name, _ispkg in pkgutil.iter_modules(vaxledger.__path__, "vaxledger.")
)
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_package_attribute_is_the_module(module_name):
    """No name bound in the package root shadows a submodule, so a dotted
    path such as "vaxledger.calibrate.run_scenario" reaches the module."""
    importlib.import_module(module_name)
    assert getattr(vaxledger, module_name.rpartition(".")[2]) is sys.modules[module_name]


def test_trace_targets_resolve():
    """A renamed or removed target would otherwise show only in a traced
    benchmark run, as a missing span."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.SpanRecorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert recorder.missing == []
