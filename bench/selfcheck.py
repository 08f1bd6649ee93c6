#!/usr/bin/env python3
"""Fast self-check of the benchmark harness on tiny inputs (about ten seconds).

    python3 bench/selfcheck.py

Checks that:

* the metric names and units in ``BENCHMARK.json`` are the ones the harness
  emits, and its workloads are the harness's workloads;
* a tiny ``sweep`` (n=40) measured against a reference recorded on the spot
  is correct and emits every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``);
* perturbing one reference cell makes every CLI run fail, so the error rate
  rises;
* ``verify.csv`` with its unquoted commas matches itself, and a perturbed
  statistic does not.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
import run


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches the harness", failures)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.PER_LAYER, "BENCHMARK.json per_layer matches the harness", failures)
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads match the harness", failures)

    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        config = scratch / "tiny.json"
        config.write_text(json.dumps({"dataset": {"kind": "gmm", "n": 40, "p": 4,
                                                  "components": 4}}), encoding="utf-8")
        tiny = run.Workload(("sweep", "--config", str(config)), 0, run.SWEEP_OUTPUTS)
        ref = scratch / "ref"
        recorded = run.run_child([*run.CLI, *tiny.argv(0, ref)], scratch / "record.err")
        check(not run.run_problems(recorded, 0), "tiny reference recorded", failures)

        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, _ = run.benchmark(tiny, [(0, ref)], 0.0, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"tiny sweep correct with trace={int(trace)}", failures)
            check(list(result["metrics"]) == list(units),
                  f"every metric emitted with trace={int(trace)}", failures)

        path = ref / "sweep_rbf.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-4))
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result, record = run.benchmark(tiny, [(0, ref)], 0.0, False)
        runs = record["runs"]["wall_s"]["samples"]
        check(result["failed"] == runs and record["error_rate"] > 0,
              f"one perturbed cell fails all {runs} runs", failures)

        verify = scratch / "verify"
        verify.mkdir()
        original = run.REFERENCE / "verify-all" / "seed0" / "verify.csv"
        shutil.copyfile(original, verify / "verify.csv")
        check(not oracle.compare_outputs(verify, original.parent, ["verify.csv"]),
              "verify.csv matches itself", failures)
        text = original.read_text(encoding="utf-8")
        head, row, tail = text.partition("\neigdev,")
        stat, rest = tail.split(",", 1)
        (verify / "verify.csv").write_text(f"{head}{row}{float(stat) * 1.01!r},{rest}",
                                           encoding="utf-8")
        check(bool(oracle.compare_outputs(verify, original.parent, ["verify.csv"])),
              "a perturbed verify.csv statistic is caught", failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("self-check " + ("passed" if not failures else f"failed: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
