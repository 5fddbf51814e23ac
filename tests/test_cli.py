import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from expsum_kit import bounds as bnd
from expsum_kit import arith, cli, expsum, identity
from expsum_kit.arith import FUNCTIONS, MOBIUS, Segment, build_tables
from expsum_kit.audit import AuditReport, LemmaAudit
from expsum_kit.expsum import direct_sum
from expsum_kit.cli import (COMMANDS, ConfigError, RunConfig, flags_to_str, main,
                            parse_args, run)
from expsum_kit.diophantine import as_fraction
from expsum_kit.identity import RESIDUAL_BUDGET


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# expsum-kit v1"
    return list(csv.DictReader(lines[1:]))


def test_sweep_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = RunConfig(command="sweep", x=2000, q_range=(1, 6),
                        output=str(out), seed=3)
        assert run(cfg) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_workers_same_rows(tmp_path, monkeypatch):
    # the twists, and mu's integer table (alone at delta = 0), are read by
    # every worker thread from one map; 6 threads on faked CPUs, switching
    # every microsecond, still give the serial bytes
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for deltas in ((0.0, 8.0), (0.0,)):
            run(RunConfig(command="sweep", x=2000, q_range=(1, 6), output=str(out1),
                          delta_list=deltas))
            for workers in (2, 8):
                run(RunConfig(command="sweep", x=2000, q_range=(1, 6),
                              output=str(out2), delta_list=deltas, workers=workers))
                assert out1.read_bytes() == out2.read_bytes(), (deltas, workers)
    finally:
        sys.setswitchinterval(interval)


def test_sweep_builds_mobius_support_only_for_twists(tmp_path, monkeypatch):
    # at delta = 0 mu is folded from its int8 table: its support, 16 bytes
    # per squarefree n, is built only for the twists of a nonzero delta,
    # one window at a time
    windows = []

    def on_segment(segment):
        windows.append((segment.lo, segment.hi))
        return MOBIUS.on_segment(segment)
    monkeypatch.setitem(cli.FUNCTIONS, "mobius",
                        dataclasses.replace(MOBIUS, on_segment=on_segment))
    out = tmp_path / "golden.csv"
    assert main(["sweep", "--x", "1e4", "--q-range", "1", "12", "--seed", "0",
                 "--output", str(out)]) == 0
    assert windows == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d3ae5af67d0cc52ca31f2211abcecdaf201e0c2d90e1ae1fb21929092e6db346")
    run(RunConfig(command="sweep", x=2000, q_range=(1, 3), output=str(out),
                  delta_list=(0.0, 8.0)))
    assert windows == [(0, 2001)]


def test_sweep_one_fold_per_cover_modulus_per_segment(tmp_path, monkeypatch):
    # mu's table is folded once per modulus of its fold cover in each
    # segment (here 2 moduli serve q <= 16, over 3 segments of 2^13)
    monkeypatch.setattr(arith, "_SEGMENT", 1 << 13)
    adds = []

    class Counted(cli.IntegerClassSums):
        def add(self, values, lo):
            adds.append((len(self.totals), lo, len(values)))
            super().add(values, lo)
    monkeypatch.setattr(cli, "IntegerClassSums", Counted)
    run(RunConfig(command="sweep", x=20_000, q_range=(1, 16),
                  output=str(tmp_path / "s.csv")))
    widths = [m * max(1, 4096 // m) for m, _ in cli._fold_cover(range(1, 17))]
    assert len(widths) == 2
    assert sorted(adds) == sorted((w, lo, min(lo + 8192, 20_001) - lo)
                                  for w in widths for lo in (0, 8192, 16384))


@pytest.mark.parametrize("x", [1e5, 7_777.5])
@pytest.mark.parametrize("q_range", [(1, 16), (1, 100), (37, 41)])
def test_fold_cover_matches_per_q_fold(x, q_range, tables_100k):
    # mu's class sums by way of the fold cover, fed in windows off every
    # modulus' grid, have the bytes of one residue_weight_sums per q over
    # its support; at x = 7777.5 the tail past the last full row is
    # nonempty, and some moduli exceed x
    qs = range(q_range[0], q_range[1] + 1)
    cover = cli._fold_cover(qs)
    served = sorted(q for _, group in cover for q in group)
    assert served == list(qs)
    assert all(m % q == 0 and m <= max(cli._FOLD_CAP, q)
               for m, group in cover for q in group)
    assert len(cover) == {(1, 16): 2, (1, 100): 14, (37, 41): 2}[q_range]
    if x == 7_777.5:
        assert (math.floor(x) + 1) % cover[0][0] and any(m > x for m, _ in cover)
    t, top = tables_100k, math.floor(x)
    whole = Segment(0, top + 1, t.mobius[:top + 1], t.mangoldt_base[:top + 1])
    folds = [(cli.IntegerClassSums(m), group) for m, group in cover]
    for window in whole.windows(4_099):
        for fold, _ in folds:
            fold.add(MOBIUS.int_table(window), window.lo)
    support = MOBIUS.support(t)
    for fold, group in folds:
        for q in group:
            want = expsum.residue_weight_sums(support, q, x)
            got = fold.sums(q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), q


def test_sweep_keeps_no_buffer_after_return(tmp_path, monkeypatch):
    # the segment buffers, each window's support and its twists are made
    # inside the sweep and are gone once it returns, for 1 and 2 threads:
    # no module or thread-local state keeps one
    refs = []
    stream, fold = cli.segments, cli._fold_window

    def tracked_stream(n_max):
        for segment in stream(n_max):
            refs.extend(weakref.ref(a.base) for a in segment[2:])
            yield segment

    def tracked_fold(qs, f, n, by_delta, running):
        refs.append(weakref.ref(n))
        refs.extend(weakref.ref(v if v.base is None else v.base)
                    for v in by_delta.values())
        return fold(qs, f, n, by_delta, running)
    monkeypatch.setattr(cli, "segments", tracked_stream)
    monkeypatch.setattr(cli, "_fold_window", tracked_fold)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    for workers in (1, 2):
        run(RunConfig(command="sweep", x=70_000, q_range=(1, 4),
                      delta_list=(0.0, 8.0), workers=workers,
                      output=str(tmp_path / "s.csv")))
    gc.collect()
    # 2 sieve buffers per run; per window and thread, Lambda's n and its
    # weights at both delta, and mu's n and its twist: 2 windows, 1 + 2
    # threads
    assert len(refs) == 2 * 2 + (3 + 2) * 2 * 3
    assert all(ref() is None for ref in refs)


def test_verify_identity_builds_weight_sums_once(tmp_path, monkeypatch):
    # h_P, 1*h_P and (1*theta_P)(1*lambda_P) depend on neither f nor p:
    # one build serves both certificates
    calls = []
    original = identity.weight_sums

    def counted(ws, n_max):
        calls.append(n_max)
        return original(ws, n_max)
    monkeypatch.setattr(identity, "weight_sums", counted)
    assert run(RunConfig(command="verify-identity", x=3000, q_range=(3, 3),
                         weight_overrides=(10, 40, 5, 30),
                         output=str(tmp_path / "v.json"))) == 0
    assert calls == [3000]


def test_sweep_twists_do_not_stack(tmp_path, monkeypatch):
    # each window's twists are folded and dropped before the next ones are
    # made: when one is made, only the twist of the same f and window at
    # the other delta is alive, so the twists' peaks do not stack
    alive, twists = [], []
    original = cli.twisted_weights

    def twist(weights, beta, x):
        alive.append(sum(ref() is not None for ref in twists))
        out = original(weights, beta, x)
        twists.append(weakref.ref(out.values))
        return out
    monkeypatch.setattr(cli, "twisted_weights", twist)
    run(RunConfig(command="sweep", x=3 * 2**16 + 5, q_range=(1, 3),
                  output=str(tmp_path / "s.csv"), delta_list=(0.0, 8.0, -3.0)))
    # 4 windows, 2 f, 2 nonzero delta
    assert alive == [0, 1] * 8


def test_sweep_peak_does_not_grow_with_x(tmp_path):
    # one segment at a time: the peak at x = 2^22 (8 segments) is within
    # 1 MiB of the peak at 2^20 (2 segments), twists included
    peaks = []
    for x in (2**20, 2**22):
        tracemalloc.start()
        try:
            run(RunConfig(command="sweep", x=float(x), q_range=(1, 6),
                          delta_list=(0.0, 8.0), output=str(tmp_path / "s.csv")))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (1 << 20), peaks


def _whole_range_class_sums(x, qs, deltas):
    """The whole-range route that the streamed sweep replaced, kept as its
    reference: build_tables, then residue_weight_sums per q over each f's
    whole support, twisted at a nonzero delta."""
    tables = build_tables(math.floor(x))
    want = {}
    for f, fn in FUNCTIONS.items():
        support = fn.support(tables)
        for d in deltas:
            w = support if d == 0.0 else expsum.twisted_weights(
                support, as_fraction(d) / as_fraction(x), x)
            for q in qs:
                want.setdefault(q, {})[f, d] = expsum.residue_weight_sums(w, q, x)
    return want


def _assert_stream_matches_whole_range(x, deltas, workers=1):
    qs = list(range(1, 13))
    got = cli._class_sums(RunConfig(command="sweep", x=x, delta_list=deltas,
                                    workers=workers), qs)
    want = _whole_range_class_sums(x, qs, deltas)
    assert sorted(got) == sorted(want)
    for q in qs:
        assert sorted(got[q]) == sorted(want[q])
        for key, w in want[q].items():
            g = got[q][key]
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (x, q, key)


@pytest.mark.parametrize("deltas", [(0.0,), (0.0, 8.0, -20.0)])
@pytest.mark.parametrize("x", [1e5, 7_777.5, 3 * 2**19 - 1, 3 * 2**19, 3 * 2**19 + 1])
def test_streamed_class_sums_match_whole_range(x, deltas):
    # the stream's class sums, for both f and every delta, have the bytes
    # of the whole-range route: at x = 3 * 2^19 +- 1 the last segment is
    # one entry short of, at, and one past a segment edge
    _assert_stream_matches_whole_range(x, deltas)


def test_streamed_class_sums_at_short_segments(monkeypatch):
    # 2^16-entry segments put five segment edges under x = 3e5
    monkeypatch.setattr(arith, "_SEGMENT", 1 << 16)
    for deltas in ((0.0,), (0.0, 8.0, -20.0)):
        _assert_stream_matches_whole_range(3e5, deltas)


def test_streamed_class_sums_any_worker_count(monkeypatch):
    # 3 threads, on faked CPUs, switching every microsecond, over 4
    # segments: each class sum is written by one thread, in order
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        _assert_stream_matches_whole_range(3 * 2**19 + 1, (0.0, 8.0), workers=3)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("argv", [
    ["sweep", "--x", "1e7", "--q-range", "1", "3", "--delta", "1e300"],
    ["compare", "--x", "1e7", "--q-range", "1", "2", "--delta", "1e200"],
])
def test_delta_checked_before_sieve(argv, tmp_path, monkeypatch, capsys):
    def no_sieve(n_max):
        raise AssertionError("sieved before the delta was checked")
    monkeypatch.setattr(cli, "build_tables", no_sieve)
    monkeypatch.setattr(cli, "segments", no_sieve)
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "overflows" in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("place", ["missing-directory", "a-directory"])
def test_unwritable_output_checked_before_sieve(command, place, tmp_path,
                                                monkeypatch, capsys):
    # an output path that cannot be written ends the run before any work,
    # with no file made on the way
    def no_sieve(n_max):
        raise AssertionError("sieved before the output path was checked")
    monkeypatch.setattr(cli, "build_tables", no_sieve)
    monkeypatch.setattr(cli, "segments", no_sieve)
    out = tmp_path / "missing" / "out" if place == "missing-directory" else tmp_path
    assert main([command, "--x", "1000", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify-identity", "--x", "1e8"],
    ["verify-identity", "--x", "1000", "--n-max", "100000000"],
    ["verify-identity", "--x", "1000", "--n-max", str(identity.MAX_N_MAX + 1)],
])
def test_identity_range_checked_before_sieve(argv, tmp_path, monkeypatch, capsys):
    def no_sieve(n_max):
        raise AssertionError("sieved before the identity range was checked")
    monkeypatch.setattr(cli, "build_tables", no_sieve)
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: identity range ") and "Traceback" not in err


def test_sweep_delta0_golden_bytes(tmp_path):
    # the delta = 0 rows are a byte contract: a change to the untwisted
    # path, or to the row layout, shows here
    out = tmp_path / "golden.csv"
    assert main(["sweep", "--x", "1e4", "--q-range", "1", "12", "--seed", "0",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d3ae5af67d0cc52ca31f2211abcecdaf201e0c2d90e1ae1fb21929092e6db346")


@pytest.mark.parametrize("x, digest", [
    ("1e5", "88423984e657ca36dd4e5131666b5e1f9a7a161097f1edbfc1111cadd0b8c906"),
    ("1e6", "36f2133b0d40b55ebdffc4e9ecb98f3ccebf6927722efe35ac9b1ed1137622eb"),
])
def test_sweep_twisted_golden_bytes(x, digest, tmp_path):
    # the delta != 0 rows are a byte contract too: a change to the twist's
    # phases, its block anchors or its residue sums shows here
    out = tmp_path / "golden.csv"
    assert main(["sweep", "--x", x, "--q-range", "1", "6", "--seed", "0",
                 "--delta", "0", "--delta", "8", "--delta", "-20",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_compare_golden_bytes_except_I2(tmp_path):
    # the whole compare CSV is a byte contract. The I2 rows are pinned by
    # their own digest (their closed-form inner sums are checked against
    # the per-pair loop in test_expsum), so the first digest alone shows
    # that the direct, I1, II and tail rows are unchanged. It was re-pinned
    # when Lambda's I1 and both II rows moved to coefficient-row sums,
    # which test_expsum checks against the per-m route and a 40-digit sum,
    # again when the direct, tail and mu's h-only I1 rows moved to the
    # same kernel, which test_expsum holds to the same 40-digit sum, and
    # again when Lambda's I1 at q = 2, 3 and the I2 rows became one row
    # each, summed once, checked against that sum and the per-pair loop
    out = tmp_path / "compare.csv"
    assert main(["compare", "--x", "20000", "--q-range", "1", "4",
                 "--a-mode", "sample:1", "--delta", "0", "--delta", "8",
                 "--seed", "0", "--weight-overrides", "10", "40", "5", "30",
                 "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.endswith(",I2")]
    assert len(lines) == 2 + 2 * 4 * 2 * 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b1723a2078acfd0f85df6ad14d6c76c37c8a9dea1ab1e943642ac6961e4acea1")
    i2 = [ln for ln in out.read_text().splitlines() if ln.endswith(",I2")]
    assert len(i2) == 2 * 4 * 2
    assert hashlib.sha256("\n".join(i2).encode()).hexdigest() == (
        "b3517f848d5564678a0f3693c943b2640d0d6e49234291f6edd7253846e8d3ca")


def test_compare_decompose_config_residual(tmp_path):
    # the benchmark's decompose run (canonical weights at x = 2e5, q <= 4,
    # delta 0 and 8, one sampled a, seed 0): every sum but I2 is within
    # 83u sum|w| of its exact value, so the largest recombination residual
    # stays below 1e-10, far inside the 1e-9 x budget (2e-4)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--x", "200000", "--q-range", "1", "4",
                 "--a-mode", "sample:1", "--delta", "0", "--delta", "8",
                 "--seed", "0", "--output", str(out)]) == 0
    groups = {}
    for r in _read_csv(out):
        key = (r["function"], r["q"], r["a"], r["delta"])
        groups.setdefault(key, {})[r["component"]] = complex(float(r["re"]),
                                                            float(r["im"]))
    assert len(groups) == 2 * 4 * 2
    residual = max(abs(p["direct"] - (p["I1"] - p["I2"] + p["II"] + p["tail"]))
                   for p in groups.values())
    assert residual <= 1e-10, residual


@pytest.mark.parametrize("delta", ["1e-310", "1e-320", "5e-324"])
def test_compare_tiny_delta_matches_delta_zero(delta, tmp_path):
    # alpha = delta/x rounds to a subnormal or to 0: the I2 rows, whose
    # closed-form inner sums divide by sin(pi k alpha), agree with delta = 0
    i2 = {}
    for d in ("0", delta):
        out = tmp_path / f"c{d}.csv"
        assert main(["compare", "--x", "1000", "--q-range", "1", "1",
                     "--delta", d, "--output", str(out)]) == 0
        i2[d] = {r["function"]: complex(float(r["re"]), float(r["im"]))
                 for r in _read_csv(out) if r["component"] == "I2"}
    assert i2["0"].keys() == i2[delta].keys() == {"mangoldt", "mobius"}
    for f, want in i2["0"].items():
        assert abs(i2[delta][f] - want) <= 1e-12 * abs(want), f


def test_compare_recombination_failure(tmp_path, monkeypatch, capsys):
    # a type-II sum off by 1 for mu fails every mu recombination: each
    # (a, q) prints one error line and the run exits 1, with Lambda's five
    # rows per (a, q) still written
    type_ii = expsum.type_II

    def broken(f, *args):
        s = type_ii(f, *args)
        return s if f == "mangoldt" else dataclasses.replace(
            s, real_part=s.real_part + 1.0)

    monkeypatch.setattr(expsum, "type_II", broken)
    out = tmp_path / "c.csv"
    assert main(["compare", "--x", "2000", "--q-range", "1", "3",
                 "--weight-overrides", "5", "20", "4", "10",
                 "--output", str(out)]) == 1
    errors = capsys.readouterr().err.splitlines()
    pairs = [(a, q) for q in (1, 2, 3) for a in range(q) if math.gcd(a, q) == 1]
    assert len(errors) == len(pairs) == 4
    assert all(e.startswith("error: residual ") and "f=mobius" in e
               for e in errors)
    rows = _read_csv(out)
    assert {r["function"] for r in rows} == {"mangoldt"}
    assert sorted((int(r["a"]), int(r["q"])) for r in rows) == sorted(pairs * 5)


@pytest.mark.parametrize("x", [10_000, 100_000])
def test_sweep_twisted_rows_match_direct_sum(x, tables_10k, tables_100k,
                                             tmp_path):
    # the twisted residue aggregation against the direct sum it replaced
    tables = tables_10k if x == 10_000 else tables_100k
    out = tmp_path / "s.csv"
    run(RunConfig(command="sweep", x=float(x), q_range=(1, 12),
                  delta_list=(8.0, -20.0, 250.0), output=str(out)))
    rows = _read_csv(out)
    assert len(rows) == 2 * 3 * sum(math.gcd(a, q) == 1 for q in range(1, 13)
                                    for a in range(q))
    for r in rows:
        alpha = Fraction(int(r["a"]), int(r["q"])) + Fraction(r["delta"]) / x
        want = abs(direct_sum(r["function"], alpha, x, tables))
        assert abs(float(r["s_abs"]) - want) <= 1e-9 * x, r


def test_sweep_bound_work_once_per_q_delta(tmp_path, monkeypatch):
    calls = {"choose_params": 0, "main_bound": 0}
    for name in calls:
        original = getattr(bnd, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(bnd, name, counted)
    run(RunConfig(command="sweep", x=2000, q_range=(1, 6),
                  delta_list=(0.0, 8.0), output=str(tmp_path / "s.csv")))
    # 6 q times 2 delta, once more per function for the bound
    assert calls == {"choose_params": 12, "main_bound": 24}


def test_sweep_pool_capped_at_q_count(tmp_path, monkeypatch):
    # 64 workers for 3 q on as many CPUs as asked: the pool gets 3 threads
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert main(["sweep", "--x", "2000", "--q-range", "1", "3", "--workers", "64",
                 "-o", str(tmp_path / "s.csv")]) == 0
    assert sizes == [3]
    # and at most one thread per usable CPU
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["sweep", "--x", "2000", "--q-range", "1", "3", "--workers", "64",
                 "-o", str(tmp_path / "s.csv")]) == 0
    assert sizes == [3, 2]


def _live_children(pid):
    """Pids of the non-zombie processes whose parent is pid, from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and _proc_state(entry.name)[1] == pid:
            found.append(int(entry.name))
    return found


def _proc_state(pid):
    """(state, ppid) of a process, or ("gone", None); a zombie has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return "gone", None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


@pytest.mark.skipif(not Path("/proc/self/stat").exists()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads the process table from /proc; needs 2 CPUs")
def test_sweep_workers_exit_when_owner_is_killed(tmp_path, kit_env):
    # --workers 2 starts threads, not processes, so SIGTERM ends the whole
    # run at once and it writes no output
    out = tmp_path / "s.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "expsum_kit.cli", "sweep", "--x", "2e6",
         "--q-range", "1", "100", "--delta", "8", "--workers", "2",
         "-o", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**kit_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    try:
        task = Path(f"/proc/{proc.pid}/task")
        deadline = time.monotonic() + 60
        while (proc.poll() is None and time.monotonic() < deadline
               and len(list(task.iterdir())) < 3):  # the main and 2 workers
            time.sleep(0.01)
        assert proc.poll() is None, "the sweep ended before its threads started"
        assert _live_children(proc.pid) == []
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM  # killed mid-run
        assert not out.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_sweep_flags_consistent_with_reevaluation(tmp_path):
    out = tmp_path / "s.csv"
    run(RunConfig(command="sweep", x=2000, q_range=(1, 8), output=str(out),
                  delta_list=(0.0, 6.0)))
    for row in _read_csv(out):
        q = int(row["q"])
        delta0 = float(row["delta0"])
        pc = bnd.choose_params(2000.0, q, delta0, 1.0 / 15.0)
        assert row["flags"] == flags_to_str(pc.condition_flags)
        assert row["all_flags"] == str(int(all(pc.condition_flags.values())))
        assert delta0 == max(1.0, abs(float(row["delta"])) / 4.0)


def test_sweep_emits_both_functions_per_pair(tmp_path):
    out = tmp_path / "s.csv"
    run(RunConfig(command="sweep", x=2000, q_range=(1, 5), output=str(out)))
    rows = _read_csv(out)
    pairs = {(r["function"], r["q"], r["a"]) for r in rows}
    phis = sum(1 if q == 1 else len([a for a in range(1, q) if math.gcd(a, q) == 1])
               for q in range(1, 6))
    assert len(rows) == 2 * phis
    assert len(pairs) == len(rows)


def test_sweep_sample_mode(tmp_path):
    out = tmp_path / "s.csv"
    run(RunConfig(command="sweep", x=2000, q_range=(97, 97), output=str(out),
                  a_mode="sample:4", seed=11))
    rows = _read_csv(out)
    assert len(rows) == 2 * 4


def test_compare_residual_within_budget(tmp_path):
    out = tmp_path / "c.csv"
    code = run(RunConfig(command="compare", x=2000, q_range=(3, 3),
                         a_mode="sample:1", output=str(out),
                         weight_overrides=(5.0, 20.0, 4.0, 10.0)))
    assert code == 0
    rows = _read_csv(out)
    by_fn = {}
    for r in rows:
        by_fn.setdefault(r["function"], {})[r["component"]] = complex(
            float(r["re"]), float(r["im"]))
    for fn, comps in by_fn.items():
        combined = comps["I1"] - comps["I2"] + comps["II"] + comps["tail"]
        assert abs(comps["direct"] - combined) < 1e-9 * 2000


def test_bound_command_json(tmp_path):
    out = tmp_path / "b.json"
    code = run(RunConfig(command="bound", x=10**6, q_range=(2, 2),
                         output=str(out), format="json"))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["q"] == 2 and "bound_mangoldt" in payload
    assert payload["config"]["command"] == "bound"


def test_verify_identity_command(tmp_path):
    out = tmp_path / "v.json"
    code = run(RunConfig(command="verify-identity", x=300, q_range=(1, 1),
                         weight_overrides=(2.0, 4.0, 3.0, 5.0),
                         output=str(out), format="json"))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mangoldt"]["max_abs_residual"] < RESIDUAL_BUDGET
    assert payload["mobius"]["max_abs_residual"] < RESIDUAL_BUDGET


def test_config_errors():
    with pytest.raises(ConfigError):
        run(RunConfig(command="sweep", x=50))
    with pytest.raises(ConfigError):
        run(RunConfig(command="sweep", eta=0.5))
    with pytest.raises(ConfigError):
        run(RunConfig(command="sweep", a_mode="sample:zero"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="nope"))


def test_negative_zero_delta_is_zero():
    # -0.0 labels its rows 0.0, so it cannot stand beside a 0.0
    cfg = RunConfig(command="sweep", delta_list=(8.0, -0.0))
    cfg.validate()
    assert [math.copysign(1.0, d) for d in cfg.delta_list] == [1.0, 1.0]


def test_degenerate_derived_weights_is_config_error(tmp_path):
    # at x = 400, q = 2 the canonical R drops below 1
    with pytest.raises(ConfigError, match="degenerate"):
        run(RunConfig(command="compare", x=400, q_range=(2, 2),
                      a_mode="sample:1", output=str(tmp_path / "c.csv")))


def test_main_exit_codes(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bound", "--x", "1000000", "--q-range", "3", "3",
                 "-o", str(out)]) == 0
    assert main(["bound", "--x", "50", "-o", str(out)]) == 2


def test_cli_subprocess_smoke(tmp_path, kit_env):
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "expsum_kit.cli", "sweep", "--x", "1000",
         "--q-range", "1", "3", "-o", str(out)],
        capture_output=True, text=True, env=kit_env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_parser_defaults_are_run_config_defaults(name):
    got = parse_args([name])
    got.validate()
    want = RunConfig(command=name)
    want.validate()
    assert got == want
    assert want.format == COMMANDS[name].formats[0]


def test_parser_fills_every_flag():
    got = parse_args(["compare", "--x", "2e4", "--eta", "0.05", "--q-range", "2", "5",
                      "--a-mode", "sample:2", "--delta", "1", "--delta", "-3",
                      "--weight-overrides", "1", "2", "3", "4", "-o", "out.csv",
                      "--format", "json", "--seed", "7", "--workers", "2",
                      "--n-max", "900"])
    assert got == RunConfig(command="compare", x=2e4, eta=0.05, q_range=(2, 5),
                            a_mode="sample:2", delta_list=(1.0, -3.0),
                            weight_overrides=(1.0, 2.0, 3.0, 4.0), output="out.csv",
                            format="json", seed=7, workers=2, n_max=900)


@pytest.mark.parametrize("argv", [
    ["sweep", "--x", "2e8"],
    ["sweep", "--x", "nan"],
    ["sweep", "--x", "inf"],
    ["sweep", "--x", "1000", "--delta", "nan"],
    ["sweep", "--x", "1000", "--delta", "inf"],
    ["sweep", "--x", "1000", "--q-range", "7", "7", "--a-mode", "sample:1",
     "--seed", "-1"],
    ["verify-identity", "--weight-overrides", "10", "1e9", "10", "30"],
    ["verify-identity", "--x", "300", "--n-max", "-5",
     "--weight-overrides", "2", "4", "3", "5"],
    ["compare", "--x", "1000", "--q-range", "1", "1",
     "--weight-overrides", "2", "nan", "3", "5"],
    ["bound", "--x", "1e6", "--q-range", "100000", "100000"],
    ["bound", "--format", "csv"],
    ["audit", "--format", "csv"],
    ["verify-identity", "--format", "csv"],
    ["sweep", "--x", "1000", "--delta", "8", "--delta", "8"],
    ["sweep", "--x", "1000", "--delta", "0", "--delta", "-0.0"],
    ["compare", "--x", "1000", "--q-range", "1", "2", "--delta", "8", "--delta", "8"],
    ["compare", "--x", "1000", "--q-range", "1", "2", "--delta", "-0.0",
     "--delta", "0"],
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--x", "1e4", "--q-range", "1", "3", "--delta", "1e300"],
    ["compare", "--x", "1e4", "--q-range", "1", "2", "--delta", "1e200"],
    ["bound", "--x", "1e6", "--q-range", "5", "5", "--delta", "1e300"],
])
def test_huge_delta_exits_2_without_traceback(argv, tmp_path, kit_env):
    # (delta0 q)^(5/2) overflows a float in choose_params
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "expsum_kit.cli", *argv, "-o", str(out)],
        capture_output=True, text=True, env=kit_env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: ") and "overflows" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_classical_vaughan_override_accepted(tmp_path):
    # U = 1 with U1 = U and R = 1: the classical Vaughan weights
    out = tmp_path / "v.json"
    assert main(["verify-identity", "--x", "300", "--q-range", "1", "1",
                 "--weight-overrides", "1", "1", "1", "5", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mangoldt"]["max_abs_residual"] < RESIDUAL_BUDGET
    assert payload["mobius"]["max_abs_residual"] < RESIDUAL_BUDGET


def test_verify_identity_certify_residuals(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify-identity", "--x", "3000", "--q-range", "3", "3",
                 "--weight-overrides", "10", "40", "5", "30", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    for f in ("mangoldt", "mobius"):
        got = {key: payload[f][key] for key in
               ("max_abs_residual", "argmax_n", "budget_ratio", "nonzero_count")}
        assert got == {"max_abs_residual": 0.0, "argmax_n": 1,
                       "budget_ratio": 0.0, "nonzero_count": 0}


def test_verify_identity_above_the_former_cap(tmp_path):
    # 6e5 lies above the 5e5 that the Python-object engine was capped at
    out = tmp_path / "v.json"
    assert main(["verify-identity", "--x", "1000", "--n-max", "600000",
                 "--q-range", "3", "3", "--weight-overrides", "10", "40", "5", "30",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    for f in ("mangoldt", "mobius"):
        assert payload[f]["n_max"] == 600_000
        assert payload[f]["nonzero_count"] == 0


def test_audit_runs_once_on_violation(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_audit(seed, tables, raise_on_violation=True):
        calls.append(raise_on_violation)
        lemma = LemmaAudit("lemma")
        lemma.record(2.0, 1.0, {"n": 5})
        return AuditReport(seed, {"lemma": lemma})

    monkeypatch.setattr(cli, "build_tables", lambda n_max: None)
    monkeypatch.setattr(cli, "inequality_audit", fake_audit)
    out = tmp_path / "a.json"
    assert main(["audit", "-o", str(out)]) == 1
    assert calls == [False]
    assert json.loads(out.read_text())["total_violations"] == 1
    assert "audit violations: 1" in capsys.readouterr().err


def test_sweep_ignores_old_cache_env(tmp_path, monkeypatch, capsys):
    # tables are always sieved: a directory named by the retired cache
    # variable is neither read nor written
    cache = tmp_path / "cache"
    cache.mkdir()
    garbage = cache / "arith_1000.npz"
    garbage.write_bytes(b"not an npz file")
    argv = ["sweep", "--x", "1000", "--q-range", "1", "3"]
    assert main([*argv, "-o", str(tmp_path / "plain.csv")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("EXPSUM_KIT_CACHE", str(cache))
    assert main([*argv, "-o", str(tmp_path / "env.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert [f.name for f in cache.iterdir()] == ["arith_1000.npz"]
    assert garbage.read_bytes() == b"not an npz file"
    assert ((tmp_path / "env.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())
