"""expsum-kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the kit is imported from ./src.
Each workload runs in its own fresh process (``worker.py``) with a pinned
environment (see pinned_env), and command outputs go to a temp directory
under ``.bench_tmp/``.

With ``--trace 0`` the metrics are the end-to-end ones (BENCHMARK.json
``end_to_end``): the median untraced pass wall time, the set-up time (median
over the workload process and SETUP_PROBES extra fresh processes) and the
peak resident set. Both times are given at reference speed (see REF_S in
worker.py): each measured time is scaled by a fixed reference kernel's
nominal over measured time, taken in the same process next to it, so that
host speed drift cancels. The measured times are printed and recorded too.
With ``--trace 1`` the metrics are the per-layer ones from a traced run.
Every output is checked; a failed command or check makes ``correct``
false. A full record (environment, revision, every pass time,
spans, findings, failures) goes to ``.bench_out/``. The last stdout line is
the JSON result.

``--workload all`` runs every workload untraced and traced, and prints
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep-rational", "sweep-twisted", "decompose", "certify")

#: Extra fresh processes that only do set-up, for the set-up median.
SETUP_PROBES = 2
#: A run must end within 180 s; the worker is stopped past this.
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class RunError(RuntimeError):
    """The workload process failed to produce a result."""


def git_revision() -> str:
    """HEAD from .git in the checkout, read directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the kit's source files, names and bytes: identifies the
    code under test where the checkout has no .git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pinned_env() -> dict:
    """The environment of every workload process.

    - No EXPSUM_KIT_CACHE: every pass sieves its tables, as a default CLI
      run does.
    - BLAS/OpenMP threads set to 1.
    - A fixed glibc mmap threshold. With the default, dynamic threshold,
      repeated passes in one process alternate between reusing freed heap
      memory and faulting in fresh pages (3.5k against 36k minor faults
      per sweep pass), which splits run medians into two modes. Fixed,
      every large array is mapped fresh, as in a one-shot CLI run.
    """
    env = dict(os.environ)
    env.pop("EXPSUM_KIT_CACHE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_process(argv, env, deadline: float) -> str:
    """Run argv in its own process group; stdout, or RunError."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{argv[2:4]} timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"{argv[2:4]} exited {proc.returncode}: {err[-2000:]}")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    """Set-up probes plus one worker run; the full record."""
    env = pinned_env()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_tmp"))
    base = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
            "--tmp", str(tmp)]
    try:
        probes = [json.loads(run_process(base + ["--setup-only"], env, deadline)
                             .splitlines()[-1])
                  for _ in range(SETUP_PROBES)]
        out = tmp / "result.json"
        run_process(base + ["--seconds", str(seconds), "--trace", str(trace),
                            "--out", str(out)], env, deadline)
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["setup_samples_s"] = [record["setup_s"]] + [p["setup_s"] for p in probes]
    record["setup_raw_samples_s"] = ([record["setup_raw_s"]]
                                     + [p["setup_raw_s"] for p in probes])
    record["revision"] = git_revision()
    record["src_sha256"] = source_digest()
    if trace:
        values, units = record["layers"], tracing.LAYER_METRICS
    else:
        values = {"wall_s": record["wall_s"],
                  "setup_s": statistics.median(record["setup_samples_s"]),
                  "peak_rss_mb": record["peak_rss_mb"]}
        units = END_TO_END
    record["metrics"] = {m: {"value": values[m], "unit": u} for m, u in units}
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    return record


def describe(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name = record["workload"]
    print(f"== {name} seed={record['seed']} trace={record['trace']} "
          f"revision={record['revision']} env={json.dumps(record['environment'])}")
    walls = record["pass_wall_s"]
    print(f"  passes: {len(walls)} untraced; at reference speed min "
          f"{min(walls):.4f} s, max {max(walls):.4f} s")
    print(f"  wall_raw_s = {record['wall_raw_s']!r} s (median measured pass wall)")
    print(f"  setup_raw_s = {statistics.median(record['setup_raw_samples_s'])!r} s "
          f"(median of {len(record['setup_raw_samples_s'])} measured set-ups)")
    for metric, m in record["metrics"].items():
        print(f"  {metric} = {m['value']!r} {m['unit']}")
    print(f"  fail_frac = {record['fail_frac']!r} ratio "
          f"({record['failed']} of {record['attempted']} commands and checks)")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  findings: {sum(record['findings'].values())} stderr 'finding:' "
          f"lines ({len(record['findings'])} distinct)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "expsum_kit" / "cli.py").is_file():
        print(f"error: no kit sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    records = []
    for name, trace in runs:
        deadline = time.monotonic() + DEADLINE_S
        try:
            record = run_workload(name, args.seed, args.seconds, trace, deadline)
        except (RunError, OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        describe(record)
        records.append(record)

    # The set-up probes count as attempted commands; one that fails ends the run.
    attempted = sum(r["attempted"] + SETUP_PROBES for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in records
                   for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
