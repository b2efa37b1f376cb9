"""One benchmark child: import gprates, write a workload's configs, run them.

Usage (started by ``run.py``, one child at a time):

    python3 perfbench/child.py --workload NAME --seed N --work DIR --result PATH
                               [--trace] [--setup-only] [--smoke]

The child imports ``gprates`` from the checkout's ``src/``, writes the
workload's config files under ``DIR/configs`` and then calls
``gprates.cli.main(["run", ...])`` once per config, in order, each into its
own fresh output directory under ``DIR/out``.  It writes a JSON result with
``time.monotonic()`` timestamps, which share one clock with the parent on
Linux, so the parent can time the child from spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

LADDER = [16, 32, 64, 128, 256, 512]

# The noiseless P-greedy rates ladder; the acceptance suite has no preset
# that runs gen_p_greedy, so the benchmark defines one (theory -2.0).
P_GREEDY = {
    "kind": "rates", "name": "pgreedy_l2",
    "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
    "target": {"name": "layered_tau2"},
    "design": {"kind": "p_greedy", "candidate_resolution": 2048},
    "ladder": LADDER, "replicates": 1, "burn_in": 1,
    "q": 2, "tolerance": 0.4, "grid_resolution": 8192,
}

WORKLOADS = {
    "regress_replicates": ("a4", "a5", "a3"),
    "interp_ladder": ("a1_l2", "a1_linf", "a2", "a6", "pgreedy_l2"),
    "bo_stabilized": ("a7",),
}


def workload_configs(workload: str, seed: int, smoke: bool) -> list[dict]:
    """The workload's raw configs, in run order; ``smoke`` cuts every ladder down."""
    from gprates.acceptance import acceptance_configs

    presets = acceptance_configs(seed)
    presets["pgreedy_l2"] = dict(P_GREEDY, seed=seed)
    configs = [dict(presets[name]) for name in WORKLOADS[workload]]
    if smoke:
        for cfg in configs:
            if cfg["kind"] == "bo":
                cfg["design"] = dict(cfg["design"], candidate_resolution=512)
                cfg["bo"] = dict(cfg["bo"], budgets=[8, 16])
            else:
                cfg["ladder"] = cfg["ladder"][:3]
                cfg["replicates"] = min(cfg["replicates"], 2)
                cfg["grid_resolution"] = 1024
                if "design" in cfg and "candidate_resolution" in cfg["design"]:
                    cfg["design"] = dict(cfg["design"], candidate_resolution=256)
    return configs


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import gprates
    import gprates.cli
    import gprates.experiments  # noqa: F401  (part of set-up by definition)

    if not os.path.abspath(gprates.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported gprates from {gprates.__file__}, not from {SRC}")

    config_dir = os.path.join(args.work, "configs")
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for cfg in workload_configs(args.workload, args.seed, args.smoke):
        path = os.path.join(config_dir, f"{cfg['name']}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        paths.append((cfg["name"], path))
    result = {"setup_done": time.monotonic(), "ops": [], "versions": versions()}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        result["first_call"] = time.monotonic()
        for name, path in paths:
            out = os.path.join(args.work, "out", name)
            os.makedirs(out)
            code = gprates.cli.main(
                ["run", "--config", path, "--out", out, "--seed", str(args.seed)]
            )
            result["ops"].append({"name": name, "code": code, "out": out})
        result["last_return"] = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
