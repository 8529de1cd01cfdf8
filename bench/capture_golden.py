#!/usr/bin/env python3
"""Regenerate golden.json: the claim metrics of every verify invocation of
every workload, as the current program reports them.

    python3 bench/capture_golden.py

run.py counts the claims whose metric differs from these copies as
`report.golden_diff`, information only: an intended number change stays
visible without failing the benchmark.
"""
import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def main():
    golden = {}
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT)
    try:
        for name, workload in WORKLOADS.items():
            bench = run.Bench(name, 0, 0, 1, work)
            bench.write_configs(workload.invocations)
            bench.import_cli()
            bench.warm_up()
            if bench.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            for inv_name, report in bench.reports.items():
                if report is not None:
                    golden[inv_name] = {c["claim_id"]: c["metric"] for c in report["report"]["claims"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} reports to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
