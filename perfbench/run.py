"""Benchmark for gprates: acceptance-ladder workloads timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (configs are the acceptance presets; see ``child.WORKLOADS``):

- ``regress_replicates``: a4, a5, a3.  Noisy ladders with 20 replicates per
  rung, so Cholesky and ``gram`` dominate.
- ``interp_ladder``: a1_l2, a1_linf, a2, a6 and a noiseless P-greedy ladder.
  One right-hand side per fit, so prediction on 8192-point grids dominates.
- ``bo_stabilized``: a7.  371 small refits, one triangular solve and one
  fill distance per step.

The load is a closed loop with one client: one child process at a time,
each a single Python process with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1.  Each child imports
gprates from ``src/`` and calls ``gprates.cli.main(["run", ...])`` once per
config, passing ``--seed`` on.

``--trace 0`` runs children back to back until ``--seconds`` have passed
(at least one), adds set-up-only children until there are
``SETUP_SAMPLES`` set-up times, and reports medians of ``wall_s`` (first
``cli.main`` call to last return), ``setup_s`` (spawn to gprates imported
and configs written) and ``peak_rss_mb`` (the child's max RSS from
``os.wait4``).  ``--trace 1`` runs one untraced child and two traced ones
and reports the per-layer metrics of ``layers.LAYERS``; the two traced runs
must give identical work counts.

One operation is one config run.  It fails if ``cli.main`` returns non-zero,
if an a7 report breaks the acceptance gate, if a report's ``fitted`` and
``rows`` differ from ``reference.json`` by more than 1e-9 relative (for the
seeds recorded there), or if the files it wrote differ in name set or bytes
from the first run of the same ``src/`` tree, workload and seed.  The last
line of standard output is the JSON result; the line before it holds the
quartiles, sample counts and the recorded context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from child import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# every child runs with BLAS and OpenMP pinned to one thread
CHILD_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
REFERENCE_RTOL = 1e-9
# unit of a metric by its last name component; the rest are counts
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
         "self_s": "s", "overhead_s": "s", "cpu_s": "s", "flops": "flop",
         "artifact_bytes": "bytes", "rhs_per_factor": "ratio", "cpu_per_wall": "ratio",
         "lines": "lines"}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def run_child(workload, seed, work, deadline, *, trace=False, setup_only=False, smoke=False):
    """Run one child to completion; returns its timings, rusage and result."""
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--work", work, "--result", result_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * smoke
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(work, "log.txt"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        status = None
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                status = None
                if time.monotonic() > deadline:
                    proc.kill()
                time.sleep(0.02)
        finally:
            if status is None:  # interrupted: leave no child running
                proc.kill()
                os.wait4(proc.pid, 0)
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"code": proc.returncode, "spawned": spawned, "exited": exited,
             "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mb": usage.ru_maxrss / 1024.0,
             "result": None}
    if proc.returncode == 0:
        with open(result_path) as fh:
            child["result"] = json.load(fh)
    else:
        with open(os.path.join(work, "log.txt")) as fh:
            sys.stderr.write(f"child exited with {proc.returncode}:\n{fh.read()[-4000:]}\n")
    return child


# ---------------------------------------------------------------------------
# correctness of one operation
# ---------------------------------------------------------------------------

def load_report(out: str, name: str) -> dict:
    with open(os.path.join(out, f"{name}_report.json")) as fh:
        return json.load(fh)


def report_summary(report: dict) -> dict:
    """The reference-checked numbers of a report: fitted exponent and table rows.

    A BO report has no fitted exponent: its regret slope and the per-budget
    ``(n, regret, sup_error)`` rows stand in for them.
    """
    if "runs" in report:
        return {"fitted": report["regret_slope_reported"],
                "rows": [[r["n"], r["regret"], r["sup_error"]] for r in report["runs"]]}
    return {"fitted": report["fitted"], "rows": report["rows"]}


def _close(a, b) -> bool:
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def a7_gate(runs: list) -> list[str]:
    """The a7 acceptance conditions, on the smallest and largest budgets."""
    first, last = runs[0], runs[-1]
    problems = []
    if not all(r["certificate_ok"] for r in runs):
        problems.append("certificate violated")
    if not all(r["rho_selected"] <= 8.0 for r in runs):
        problems.append("mesh ratio above 8")
    if not last["regret"] < first["regret"]:
        problems.append("regret did not drop")
    if not last["regret"] <= 1e-3:
        problems.append(f"regret({last['n']}) above 1e-3")
    if not all(r["proof_inequality_ok"] for r in runs):
        problems.append("proof inequality violated")
    return problems


def files_under(top: str) -> list[str]:
    """Relative paths of the files under ``top``, sorted, skipping bytecode caches."""
    found = []
    for root, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        found += [os.path.relpath(os.path.join(root, f), top) for f in files]
    return sorted(found)


def file_digests(out: str) -> dict:
    """sha256 of every file under ``out``, which holds only what the run wrote."""
    digests = {}
    for rel in files_under(out):
        with open(os.path.join(out, rel), "rb") as fh:
            digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_op(op, reference, first_digests) -> list[str]:
    problems = []
    if op["code"] != 0:
        problems.append(f"cli.main returned {op['code']}")
    if op["digests"] != first_digests.get(op["name"]):
        problems.append("artifacts differ from the first run of this src/ tree and seed")
    try:
        report = load_report(op["out"], op["name"])
        if "runs" in report:
            problems += a7_gate(report["runs"])
        if reference and op["name"] in reference:
            got, want = report_summary(report), reference[op["name"]]
            if not _close([got["fitted"], got["rows"]], [want["fitted"], want["rows"]]):
                problems.append("report differs from reference.json")
    except (OSError, KeyError, IndexError, ValueError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems


def check_children(children, workload, seed, smoke):
    """Check every operation of the children that ran configs.

    Returns ``(attempted, failed, problems)``.  The first set of artifact
    digests for this ``src/`` tree, workload and seed is stored under
    ``STATE_DIR`` and later runs are compared with it.
    """
    n_configs = len(WORKLOADS[workload])
    reference = None
    if not smoke and os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh).get(str(seed), {}).get(workload)
    src = hashlib.sha256()
    for rel in files_under(SRC):
        with open(os.path.join(SRC, rel), "rb") as fh:
            src.update(rel.encode() + b"\0" + fh.read())
    key = hashlib.sha256(f"{src.hexdigest()}|{workload}|{seed}|{smoke}".encode()).hexdigest()
    state_path = os.path.join(STATE_DIR, "digests", f"{key[:32]}.json")
    first_digests = None
    if os.path.exists(state_path):
        with open(state_path) as fh:
            first_digests = json.load(fh)

    attempted = failed = 0
    problems = []
    for child in children:
        attempted += n_configs
        if child["result"] is None:
            failed += n_configs
            problems.append(f"child exited with {child['code']}")
            continue
        ops = child["result"]["ops"]
        for op in ops:
            op["digests"] = file_digests(op["out"])
        if first_digests is None:
            first_digests = {op["name"]: op["digests"] for op in ops}
            os.makedirs(os.path.dirname(state_path), exist_ok=True)
            with open(state_path, "w") as fh:
                json.dump(first_digests, fh, indent=1, sort_keys=True)
        for op in ops:
            op_problems = check_op(op, reference, first_digests)
            if op_problems:
                failed += 1
                problems.append(f"{op['name']}: {'; '.join(op_problems)}")
        failed += n_configs - len(ops)
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def wall_s(child) -> float:
    return child["result"]["last_return"] - child["result"]["first_call"]


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(children, full, detail) -> dict:
    setups = [c["result"]["setup_done"] - c["spawned"] for c in children if c["result"]]
    walls = [wall_s(c) for c in full]
    rss = [c["maxrss_mb"] for c in full]
    cpu = [c["cpu_s"] / (c["exited"] - c["spawned"]) for c in full]
    detail.update({"wall_s": quartiles(walls), "setup_s": quartiles(setups),
                   "peak_rss_mb": quartiles(rss), "process.cpu_per_wall": quartiles(cpu)})
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(untraced, traced, detail) -> dict:
    counts = [{k: v for k, v in c["result"]["layers"].items() if not k.endswith("self_s")}
              for c in traced]
    if counts[0] != counts[1]:
        detail["problems"].append("work counts differ between the two traced runs")
    values = dict(traced[0]["result"]["layers"])
    src_lines = 0
    for rel in files_under(SRC):
        if rel.endswith(".py"):
            with open(os.path.join(SRC, rel), "rb") as fh:
                src_lines += fh.read().count(b"\n")
    values.update({
        "trace.overhead_s": statistics.median(map(wall_s, traced)) - wall_s(untraced),
        "process.cpu_s": untraced["cpu_s"],
        "process.cpu_per_wall": untraced["cpu_s"] / (untraced["exited"] - untraced["spawned"]),
        "src.lines": src_lines,
        "io.artifact_bytes": sum(
            os.path.getsize(os.path.join(op["out"], rel))
            for op in untraced["result"]["ops"] for rel in files_under(op["out"])
        ),
        "nproc": detail["context"]["nproc"],
    })
    return values


def context(children) -> dict:
    versions = next((c["result"]["versions"] for c in children if c["result"]), {})
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut every ladder down (for the benchmark's own test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gprates", "__init__.py")):
        print(f"no gprates source under {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    work_root = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work_root, ignore_errors=True)
    children = []

    def spawn(**kw):
        work = os.path.join(work_root, str(len(children)))
        children.append(run_child(args.workload, args.seed, work, deadline,
                                  smoke=args.smoke, **kw))
        return children[-1]

    try:
        if args.trace:
            full = [spawn(), spawn(trace=True), spawn(trace=True)]
        else:
            while not children or time.monotonic() - started < args.seconds:
                spawn()
            full = list(children)
            while len(children) < SETUP_SAMPLES:
                spawn(setup_only=True)
        attempted, failed, problems = check_children(full, args.workload, args.seed, args.smoke)
        if any(c["result"] is None for c in full):
            raise SystemExit("a benchmark child failed; no metrics to report")
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "children": len(children), "context": context(children),
                  "problems": problems}
        if args.trace:
            values = per_layer(full[0], full[1:], detail)
        else:
            values = end_to_end(children, full, detail)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    metrics = {name: {"value": value, "unit": UNITS.get(name.rsplit(".", 1)[-1], "count")}
               for name, value in values.items()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
