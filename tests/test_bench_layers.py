"""Every layer the benchmark's tracer wraps exists in gprates, with the argument
positions its work counters read."""

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, function", [entry[:2] for entry in _bench_layers()])
def test_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"gprates.{module}"), function))


@pytest.mark.parametrize("module, function, index, name", [
    ("fitting", "fit", 3, "y"),
    ("norms", "lq_error", 3, "grid"),
    ("kernels", "gram", 1, "X"),
])
def test_counted_argument_position(module, function, index, name):
    fn = getattr(importlib.import_module(f"gprates.{module}"), function)
    assert list(inspect.signature(fn).parameters)[index] == name
