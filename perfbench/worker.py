"""One workload in a fresh process: set-up, timed passes, output checks.

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR \
        --seconds S --trace 0|1 --out RESULT.json

``run.py`` starts this script; it is not meant to be run by hand. Set-up is
the time from process start to the first pass: importing ``expsum_kit.cli``
(numpy, scipy, mpmath and every layer) and building the workload's inputs.
Untraced passes give the end-to-end numbers. With ``--trace 1`` untraced
and traced passes alternate, and only the per-layer numbers are kept. A
reference kernel runs after set-up and between passes to scale times to
reference speed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

#: Nominal seconds of reference_kernel. Times are reported at reference
#: speed: measured wall time times REF_S over the kernel's wall time, taken
#: in the same process right before and after. The host this benchmark was
#: built on drifts by up to 1.6x in speed over minutes, and that drift moves
#: the kernel and the kit alike; the raw wall times are kept in the record.
REF_S = 0.1
# The kernel works in place: its speed must not depend on the allocator's
# state, which the passes before it leave behind.
_REF_SMALL = np.random.default_rng(0).random(1 << 17)
_REF_SMALL_BUF = np.empty_like(_REF_SMALL)
_REF_LARGE = np.random.default_rng(1).random(1 << 20)
_REF_LARGE_BUF = np.empty_like(_REF_LARGE)


def environment() -> dict:
    import expsum_kit
    import mpmath
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "expsum_kit": str(Path(expsum_kit.__file__).resolve().parent),
        "pinned_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "MALLOC_MMAP_THRESHOLD_")},
        "expsum_kit_cache": os.environ.get("EXPSUM_KIT_CACHE"),
    }


def timed_pass(workload, ledger, tracer=None):
    """One pass; returns (outputs, wall seconds). Checks run after the clock."""
    if tracer is None:
        t0 = time.perf_counter()
        out = workload.run_pass(ledger)
        return out, time.perf_counter() - t0
    with tracer:
        return tracer.run_pass(lambda: workload.run_pass(ledger))


def reference_kernel() -> float:
    """Wall seconds of a fixed job mixing a pure-Python loop, numpy work
    inside the per-core L2 cache, and numpy streams over 8 MB arrays (the
    kit's 1e6-entry tables are that size)."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(200_000):
        acc += k * k
    for _ in range(12):
        np.cos(_REF_SMALL, out=_REF_SMALL_BUF)
        np.multiply(_REF_SMALL_BUF, _REF_SMALL, out=_REF_SMALL_BUF)
        _REF_SMALL_BUF.sort()
    for _ in range(8):
        np.cos(_REF_LARGE, out=_REF_LARGE_BUF)
        np.multiply(_REF_LARGE_BUF, _REF_LARGE, out=_REF_LARGE_BUF)
        np.add(_REF_LARGE_BUF, _REF_LARGE, out=_REF_LARGE_BUF)
    return time.perf_counter() - t0


def reference_speed() -> float:
    """REF_S over the median of three reference-kernel timings."""
    return REF_S / statistics.median(reference_kernel() for _ in range(3))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    setup_raw_s = time.perf_counter() - T_START
    setup = {"setup_raw_s": setup_raw_s,
             "setup_s": setup_raw_s * reference_speed()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ledger = Ledger()
    ledger.check("kit imported from this checkout",
                 environment()["expsum_kit"] == str(ROOT / "src" / "expsum_kit"))
    tracer = tracing.Tracer() if args.trace else None
    passes = {"untraced": [], "traced": []}
    kernel = reference_kernel()
    start = time.perf_counter()

    def one_pass(kind, tracer=None):
        nonlocal kernel
        out, wall = timed_pass(workload, ledger, tracer)
        after = reference_kernel()
        passes[kind].append((wall, REF_S * wall / ((kernel + after) / 2)))
        kernel = after
        workload.check_pass(ledger, out)
        return wall

    while True:
        wall = one_pass("untraced")
        if tracer is not None:
            wall += one_pass("traced", tracer)
        # Stop before a pass that would end past the window.
        if time.perf_counter() - start + wall >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = passes["untraced"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **setup,
        "pass_wall_raw_s": [w for w, _ in untraced],
        "pass_wall_s": [r for _, r in untraced],
        "wall_raw_s": statistics.median(w for w, _ in untraced),
        "wall_s": statistics.median(r for _, r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "commands": workload.commands(),
        "environment": environment(),
    }
    if tracer is not None:
        divergent = tracing.first_divergent_count(tracer.counts)
        ledger.check("counts repeat across traced passes", divergent is None,
                     f"{divergent} differs")
        errors = tracing.nesting_errors(tracer.spans)
        ledger.check("spans nest", not errors, "; ".join(errors[:5]))
        traced = passes["traced"]
        overhead = (statistics.median(r for _, r in traced)
                    / result["wall_s"] - 1.0)
        result["traced_wall_raw_s"] = [w for w, _ in traced]
        result["layers"] = tracing.layer_metrics(tracer, overhead)
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    workload.check_once(ledger)
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  fail_frac=ledger.fail_frac, failures=ledger.failures,
                  findings=ledger.findings)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
