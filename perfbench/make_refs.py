"""Write the reference reports that ``verify.py`` compares against.

Runs every scenario of one workload at ``verify.REFERENCE_SEED`` with
``--workers 1`` and the workload's BLAS thread count, and stores the
report texts and curve-CSV summaries in ``refs/<workload>-seed<N>.json.gz``.
Regenerate only when a change is meant to alter the reports:

    python3 perfbench/make_refs.py --workload ensemble --root .
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import tempfile

import verify
import workload as wl
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--root", default=".")
    args = ap.parse_args()

    wl.set_thread_budget(args.workload)
    gaplab = wl.import_gaplab(args.root)
    work = tempfile.mkdtemp(prefix="refs-", dir=os.path.abspath(args.root))
    try:
        paths = wl.write_configs(gaplab, args.workload, verify.REFERENCE_SEED, work)
        _, _, codes = wl.run_pass(gaplab, args.workload, paths, work, workers=1)
        if any(rc != 0 for rc in codes):
            raise SystemExit(f"reference run failed: exit codes {codes}")
        reports, csv = [], []
        for i, (_, config) in enumerate(paths):
            with open(os.path.join(work, f"report{i:02d}.json"), encoding="utf-8") as fh:
                reports.append(fh.read())
            if args.workload in workloads.CSV_WORKLOADS:
                csv.append(verify.csv_summary(os.path.join(work, f"csv{i:02d}"), config))
    finally:
        shutil.rmtree(work)
    os.makedirs(verify.REFS_DIR, exist_ok=True)
    with gzip.GzipFile(verify.ref_path(args.workload), "wb", mtime=0) as fh:
        fh.write(json.dumps({"reports": reports, "csv": csv}, indent=1).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
