"""Record ``reference.json``: each workload's report numbers for given seeds.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py SEED [SEED ...]

For every workload and seed it runs one untraced child and stores each
report's fitted exponent and error-table rows (see ``run.report_summary``),
merged into the existing file.  Record only at a commit whose numerics are
the baseline: ``run.py`` fails any operation whose report then differs from
the reference by more than 1e-9 relative.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time

from child import WORKLOADS
from run import REFERENCE_PATH, STATE_DIR, load_report, report_summary, run_child

CHILD_TIMEOUT_S = 600.0


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    work = os.path.join(STATE_DIR, f"record-{os.getpid()}")
    try:
        for seed in map(int, argv):
            for workload in WORKLOADS:
                shutil.rmtree(work, ignore_errors=True)
                child = run_child(workload, seed, work, time.monotonic() + CHILD_TIMEOUT_S)
                ops = child["result"]["ops"] if child["result"] else []
                if len(ops) != len(WORKLOADS[workload]) or any(op["code"] for op in ops):
                    raise SystemExit(f"{workload} seed {seed}: a config run failed")
                reference.setdefault(str(seed), {})[workload] = {
                    op["name"]: report_summary(load_report(op["out"], op["name"])) for op in ops
                }
                print(f"recorded {workload} seed {seed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one table row per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(REFERENCE_PATH, "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
