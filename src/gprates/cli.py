"""Command-line harness.

Subcommands: ``run`` (one JSON config of any kind), ``accept`` (the full
acceptance suite), and ``list`` (registry contents).  Exit codes: 0 all
verdicts pass or non-gating, 1 a gated verdict failed, 2 config/validation
error, 3 numerical abort, for ``accept`` as for ``run``.

``main`` pins the BLAS thread pools to one thread (unless the environment
already sets them) before anything imports numpy, so a thread count never
changes results; per-experiment determinism comes from derived seeds.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import sys

_ENV_OUT = "GPRATES_OUT_DIR"


def _pin_blas_threads():
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gprates",
        description="Kernel interpolation/regression convergence-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a config of any kind")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory (default: cwd)")

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--skip-determinism", action="store_true",
                   help="skip the byte-identical rerun check")

    sub.add_parser("list", help="list registry targets, densities, designs, experiments")
    return parser


def _make_out(cli_out) -> str:
    """The output directory, created before any work: ``--out``, else
    ``$GPRATES_OUT_DIR``, else the working directory.  A path that cannot be
    a directory (a file, or a path through one) is a config error."""
    from .errors import ConfigurationError

    out = cli_out or os.environ.get(_ENV_OUT) or os.getcwd()
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write output directory {out!r}: {exc.strerror}") from exc
    return out


def _report_errors(command) -> int:
    """Exit code of ``command()``, with configuration and numerical errors as 2 and 3.

    An allocation that fails is a config error too: the config asked for
    arrays larger than the machine can hold (a huge ``grid_resolution``).
    """
    from .errors import ConfigurationError, SingularDesignError

    try:
        return command()
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except SingularDesignError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


def _cmd_run(args) -> int:
    from .experiments import config_from_dict, run_experiment

    out = _make_out(args.out)
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    except OSError as exc:  # no such file, a directory, no permission
        print(f"config error: cannot read {args.config!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bytes that are not UTF-8, an integer too long to convert
        print(f"config error: cannot read {args.config!r}: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    code, line, _, _ = run_experiment(config_from_dict(raw), out)
    print(line)
    return code


def _compare_runs(a: str, a_files, b: str, b_files) -> list[str]:
    """Files written by only one of two runs, or by both with different bytes.

    ``a_files`` and ``b_files`` are the paths each run wrote, relative to its
    directory ``a`` or ``b``; other files in those directories are ignored.
    """
    common = set(a_files) & set(b_files)
    bad = set(a_files) ^ set(b_files)
    bad.update(rel for rel in common if not filecmp.cmp(
        os.path.join(a, rel), os.path.join(b, rel), shallow=False))
    return sorted(bad)


def _cmd_accept(args) -> int:
    import tempfile

    from .acceptance import DEFAULT_SEED, run_acceptance
    from .experiments import write_json

    out = _make_out(args.out)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    summary, written = run_acceptance(out, seed=seed)
    all_ok = summary["all_pass"]
    if not args.skip_determinism:
        with tempfile.TemporaryDirectory() as tmp:
            _, rewritten = run_acceptance(tmp, seed=seed, echo=lambda *_: None)
            diffs = _compare_runs(out, written, tmp, rewritten)
        det_ok = not diffs
        line = (
            "[PASS] a10: rerun with the same seed is byte-identical"
            if det_ok
            else f"[FAIL] a10: artifacts differ on rerun: {diffs}"
        )
        print(line)
        write_json(os.path.join(out, "acceptance_determinism.json"),
                   {"ok": det_ok, "differing_files": diffs})
        all_ok = all_ok and det_ok
    return 0 if all_ok else 1


def _cmd_list() -> int:
    from .acceptance import acceptance_configs
    from .quadrature import DENSITY_REGISTRY
    from .targets import registry_entries

    print("targets (name, smoothness, description):")
    for name, tau, doc in registry_entries():
        tau_str = "smooth" if tau == float("inf") else f"tau_f={tau:g}"
        print(f"  {name:16s} {tau_str:12s} {doc}")
    print("densities:", ", ".join(sorted(DENSITY_REGISTRY)))
    print("designs: grid, random, p_greedy")
    print("experiments:", ", ".join(sorted(acceptance_configs())))
    return 0


def main(argv=None) -> int:
    _pin_blas_threads()
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "accept":
        return _report_errors(lambda: _cmd_accept(args))
    return _report_errors(lambda: _cmd_run(args))


if __name__ == "__main__":
    sys.exit(main())
