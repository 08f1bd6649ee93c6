#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the current build.

    python3 bench/record.py

Runs every workload once per recorded seed (0 to REF_SEEDS - 1) and stores
the compared output files under ``bench/reference/<workload>/seed<k>/``.
It refuses to record a run with an unexpected exit code or a traceback.
Re-record only when a change to the program's outputs is intended and
bounded; the benchmark then measures against the new files.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        for name, workload in run.WORKLOADS.items():
            for seed in range(run.REF_SEEDS):
                out = scratch / f"{name}-{seed}"
                result = run.run_child([*run.CLI, *workload.argv(seed, out)], scratch / "stderr")
                problems = run.run_problems(result, workload.exit_code)
                if problems:
                    print(f"error: {name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                dest = run.REFERENCE / name / f"seed{seed}"
                dest.mkdir(parents=True, exist_ok=True)
                for output in workload.outputs:
                    shutil.copyfile(out / output, dest / output)
                print(f"recorded {dest.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
