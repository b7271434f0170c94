"""Self-test of the benchmark (not of the package).

    python3 bench/selftest.py

Takes about a minute.  It checks that:

- a short run of every workload, traced, measures every end-to-end and
  per-layer metric, and prints every per-layer metric with its unit;
- the command as a user types it prints every end-to-end metric with its
  unit on its last line;
- a planted wrong reference digest is counted as failed operations;
- a model the reach probe cannot set up is a failed operation, where a
  case over the time limit is not;
- without the package source next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}", flush=True)


def main() -> int:
    refs = json.loads((BENCH / "refs.json").read_text())

    for name in run.WORKLOADS:
        record, _, measured = run.run_workload(name, 0, 1, True, refs)
        expect(record["failed"] == 0 and record["attempted"] > 0,
               f"{name}: every operation of a short traced run passes")
        missing = [m for m in list(run.END_TO_END) + list(run.PER_LAYER) if m not in measured]
        expect(not missing, f"{name}: every metric measured {missing or ''}")
        printed = {k: v["unit"] for k, v in record["metrics"].items()}
        expect(printed == run.PER_LAYER, f"{name}: every per-layer metric printed with its unit")

    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "big_classes",
           "--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
           "the command prints the result record last")
    expect({k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END,
           "every end-to-end metric printed with its unit")

    planted = dict(refs)
    case = workloads.build("big_classes", run.SRC, 0)[0]
    planted[checks.input_key(case)] = "0" * 24
    record, report, _ = run.run_workload("big_classes", 0, 1, False, planted)
    expect(not record["correct"] and record["failed"] >= len(case["classes"]),
           f"a planted wrong reference counts as failed ({record['failed']} failed)")
    expect(any("reference" in line for line in report), "the mismatch is named in the report")

    ladder_case = workloads.ladder_case

    def refused(n):
        case = ladder_case(n)
        case["doc"] = dict(case["doc"], max_cones=[[1]])
        return case

    workloads.ladder_case = refused
    reached, steps, attempted, failed, _ = run.run_probe("selftest", 0, time.monotonic() + 120)
    workloads.ladder_case = ladder_case
    expect((reached, attempted, failed) == (workloads.LADDER.start - 1, 1, 1),
           f"a model the reach probe cannot set up is a failed operation ({steps})")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "class_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the package source: exit {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
