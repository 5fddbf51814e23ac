"""Self-test for the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

On real workloads (about a minute for all four) it checks that:

- spans nest: each lies inside its parent and its pass, and no self time
  is negative;
- every count metric repeats exactly across two traced runs of one seed;
- per traced pass, trace.covered_frac plus the cli.self_s share of the pass
  wall is 1;
- a corrupted output (one flipped CSV byte) is counted as a failure in
  fail_frac.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import run
import tracing


def traced_pair(name: str, seed: int):
    """Two traced runs of one workload and seed, one pass each."""
    return [run.run_workload(name, seed, 1, 1, time.monotonic() + run.DEADLINE_S)
            for _ in range(2)]


def check_traced(name: str, records) -> list:
    errors = []
    for i, rec in enumerate(records):
        if rec["failed"]:
            errors.append(f"{name} run {i}: {rec['failures'][:3]}")
        errors += [f"{name} run {i}: {e}"
                   for e in tracing.nesting_errors(rec["spans"])]
        for row in tracing.pass_breakdown(rec["spans"]):
            total = row["trace.covered_frac"] + row["cli.self_s"] / row["wall"]
            if abs(total - 1.0) > 1e-9:
                errors.append(f"{name} run {i}: shares sum to {total!r}")
    first, second = (r["metrics"] for r in records)
    for metric, unit in tracing.LAYER_METRICS:
        if unit == "count" and first[metric]["value"] != second[metric]["value"]:
            errors.append(f"{name}: {metric} {first[metric]['value']} != "
                          f"{second[metric]['value']}")
    if records[0]["counts"][0] != records[1]["counts"][0]:
        errors.append(f"{name}: raw per-pass counts differ between runs")
    return errors


def check_corruption(seed: int) -> list:
    """One flipped byte in the sweep CSV must be counted in fail_frac."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import Ledger, SweepRational

    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as tmp:
        workload = SweepRational(seed, Path(tmp))
        clean = Ledger()
        out = workload.run_pass(clean)
        workload.check_pass(clean, out)
        data = bytearray(out["csv"])
        data[len(data) // 2] ^= 0x01
        bad = Ledger()
        workload.check_pass(bad, {"csv": bytes(data)})
    errors = []
    if clean.failed:
        errors.append(f"clean sweep output failed: {clean.failures}")
    if not (bad.failed == 1 and bad.fail_frac > 0):
        errors.append(f"flipped byte counted as {bad.failed} failures, "
                      f"fail_frac {bad.fail_frac}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    errors = []
    for name in args.workload or run.WORKLOADS:
        found = check_traced(name, traced_pair(name, args.seed))
        print(f"{'PASS' if not found else 'FAIL'} traced {name}")
        errors += found
    found = check_corruption(args.seed)
    print(f"{'PASS' if not found else 'FAIL'} corrupted output counted")
    errors += found
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
