"""Write perfbench/reference.json: the outputs of iteration 0 of every
workload at the pinned seed, which later runs at that seed must reproduce.

    python3 perfbench/make_reference.py

Take it at a commit whose outputs are known good; a change that is meant to
keep outputs identical must pass against the reference taken before it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported


def main() -> int:
    run._import_package()
    sys.path.insert(0, str(run.HERE))
    import workloads

    doc = {}
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=run.ROOT / ".perfbench"))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.FULL)
            tally = run.Tally()
            ctx = run.setup(wl, run.PINNED_SEED, workdir, tally)
            try:
                *_, out = run.run_iteration(wl, ctx, 0, tally)
                if tally.failed:
                    print("\n".join(tally.problems), file=sys.stderr)
                    return 1
                doc[name] = wl.fingerprint(ctx, out)
            finally:
                wl.teardown(ctx)
            print(f"{name}: {len(doc[name])} fingerprint entries")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
