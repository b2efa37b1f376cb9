"""Every layer the benchmark's tracer wraps exists in gprates, with the argument
positions its work counters read."""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from gprates.designs import UNIT_INTERVAL, gen_grid
from gprates.errors import SingularDesignError
from gprates.fitting import MeanSpec, fit
from gprates.kernels import KernelSpec

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


class TestFactorTrace:
    """The benchmark counts ``fitting.cho_factor`` calls and flops under that name.

    If ``fit`` factored through another function, those counts would read 0
    while ``test_layer_resolves`` still passed.
    """

    @staticmethod
    def _fit(lam, n=50):
        X = gen_grid(n, UNIT_INTERVAL)
        return fit(KernelSpec(tau=2.0, lengthscale=0.2), MeanSpec(), X,
                   np.sin(6.0 * X.points), lam)

    @pytest.mark.parametrize("lam", [1e-3, 0.0])
    def test_one_call_per_well_conditioned_fit(self, failing_cho_factor, lam):
        calls = failing_cho_factor(0)
        self._fit(lam)
        assert calls == [50]

    @pytest.mark.parametrize("failures", [1, 2])
    def test_one_call_per_jitter_step(self, failing_cho_factor, failures):
        calls = failing_cho_factor(failures)
        model = self._fit(0.0)
        assert calls == [50] * (failures + 1)
        assert model.jitter == [1e-10, 1e-8, 1e-6][failures]

    @pytest.mark.parametrize("lam, steps", [(1e-3, 4), (0.0, 3)])
    def test_every_step_is_counted_before_giving_up(self, failing_cho_factor, lam, steps):
        calls = failing_cho_factor(steps)
        with pytest.raises(SingularDesignError):
            self._fit(lam)
        assert calls == [50] * steps
