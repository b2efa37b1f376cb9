"""Per-layer tracing for the benchmark child: call counts, self time, work counts.

Each traced layer is a public function of one ``gprates`` module.  The
tracer replaces the function object under every ``gprates`` module name that
binds it (``from .kernels import cross_matrix`` binds a second name in each
importing module), except for functions the package imports from scipy,
which are wrapped only in the module the metric is named after.

A layer's self time is its wall time minus the wall time of traced layers
it called.  Work counts are computed from the call's arguments or result,
so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _n_points(X) -> int:
    return int(np.shape(getattr(X, "points", X))[0])


def _flops_cholesky(args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    return n ** 3 / 3.0


def _fit_rhs(args, kwargs, result):
    y = np.asarray(_arg(args, kwargs, 3, "y"))
    return int(y.shape[1]) if y.ndim == 2 else 1


def _gram_entries(args, kwargs, result):
    return _n_points(_arg(args, kwargs, 1, "X")) ** 2


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _grid_points(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "grid").size)


def _p_greedy_steps(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "n"))


def _bo_steps(args, kwargs, result):
    return len(result.trace)


def _fill_pairs(args, kwargs, result):
    from gprates import designs

    X = _arg(args, kwargs, 0, "X")
    res = kwargs.get("probe_resolution") or (args[1] if len(args) > 1 else None)
    res = res or designs._default_probe(X.dim)
    return len(X) * (res ** X.dim + 2 ** X.dim)


# (module, function, work stat name or None, work counter, wrapped only in
# the named module).  Every entry yields ``<module>.<function>.calls`` and
# ``.self_s``; a work counter adds ``.<stat>``.
LAYERS = (
    ("fitting", "cho_factor", "flops", _flops_cholesky, True),
    ("fitting", "fit", "rhs", _fit_rhs, False),
    ("kernels", "gram", "entries", _gram_entries, False),
    ("kernels", "cross_matrix", "entries", _result_size, False),
    ("kernels", "matern_of_r", "entries", _result_size, False),
    ("fitting", "posterior_mean", "points", _result_size, False),
    ("norms", "lq_error", "grid_points", _grid_points, False),
    ("norms", "make_grid", None, None, False),
    ("designs", "gen_p_greedy", "steps", _p_greedy_steps, False),
    ("bayesopt", "run_gamma_F_n", "steps", _bo_steps, False),
    ("bayesopt", "solve_triangular", None, None, True),
    ("bayesopt", "expected_improvement", None, None, False),
    ("designs", "fill_distance", "pairs", _fill_pairs, False),
    ("designs", "separation_radius", None, None, False),
    ("targets", "eval_target", "points", _result_size, False),
    ("targets", "draw_noise", None, None, False),
    ("quadrature", "bq_estimate", None, None, False),
    ("experiments", "run_rate_experiment", None, None, False),
    ("experiments", "run_bq_experiment", None, None, False),
    ("experiments", "run_bo_experiment", None, None, False),
    ("experiments", "run_experiment", None, None, False),
    ("cli", "main", None, None, False),
)

# layers whose calls that raise are counted as ``<layer>.failed``
FAILURE_COUNTED = ("fitting.cho_factor",)


class Tracer:
    """Wraps the layers in ``LAYERS`` and accumulates their statistics."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._restore = []

    def install(self):
        for mod_name, fn_name, stat, counter, owner_only in LAYERS:
            owner = sys.modules[f"gprates.{mod_name}"]
            original = getattr(owner, fn_name)
            layer = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(layer, original, stat, counter)
            modules = [owner] if owner_only else [
                m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "gprates" or name.startswith("gprates."))
            ]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer, fn, stat, counter):
        entry = self.stats[layer] = {"calls": 0, "self_s": 0.0}
        if stat:
            entry[stat] = 0
        if layer in FAILURE_COUNTED:
            entry["failed"] = 0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if "failed" in entry:
                    entry["failed"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry["calls"] += 1
                entry["self_s"] += elapsed - children
            if counter is not None:
                entry[stat] += counter(args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<stat>`` values plus derived ratios."""
        out = {}
        for layer, entry in self.stats.items():
            for stat, value in entry.items():
                out[f"{layer}.{stat}"] = value
        factors = out["fitting.cho_factor.calls"] - out["fitting.cho_factor.failed"]
        out["fitting.rhs_per_factor"] = out["fitting.fit.rhs"] / factors if factors else 0.0
        return out
