"""Batch front door: identity certification, inequality audits,
bound-vs-actual sweeps, single bound reports, and decomposition compares.

Outputs are machine-readable: CSV (RFC 4180, with one leading comment
line "# expsum-kit v1" carrying the schema version) or JSON (UTF-8,
stable key order, resolved config embedded). Runs are deterministic
given (config, seed): rows are fully sorted before writing, so the CSV
is byte-identical for any worker count. Only sweep reads --workers: its q
run on that many threads of the one process. Exit status 0 is success, 1 is
an internal or hard-assert failure or a closed output pipe, 2 a config
error: a bad flag value, a q-range above x, a format the command does not
write, an output path that is a directory or in a missing directory, or
parameters outside the sieve cap or the theorem's domain.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bnd
from . import identity
from .arith import (FUNCTIONS, MAX_N_MAX, Segment, TableRangeError, build_tables,
                    coprime_residues, segments)
from .audit import inequality_audit
from .diophantine import as_fraction, delta0_of
from .expsum import (IntegerClassSums, RecombinationError,
                     rational_sum_from_residues, recombine, twisted_weights)
from .weights import WeightConfig, WeightSystem

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """One run. The defaults here are the CLI's defaults too."""

    command: str
    x: float = 1e5
    eta: float = 1.0 / 15.0
    q_range: Tuple[int, int] = (1, 10)
    a_mode: str = "all-coprime"      # or "sample:K"
    delta_list: Tuple[float, ...] = (0.0,)
    weight_overrides: Optional[Tuple[float, float, float, float]] = None
    output: str = "-"
    format: Optional[str] = None     # None: the command's default format
    seed: int = 0
    workers: int = 1
    n_max: Optional[int] = None      # identity range override

    def validate(self) -> None:
        """Check every field; fill in the command's default format."""
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not 0 < self.eta <= 0.1:
            raise ConfigError("eta must lie in (0, 1/10]")
        if not 100 <= self.x <= MAX_N_MAX:
            raise ConfigError(f"x must lie in [100, {MAX_N_MAX}]")
        if not all(map(math.isfinite, self.delta_list)):
            raise ConfigError("delta must be finite")
        self.delta_list = tuple(0.0 + d for d in self.delta_list)  # -0.0 is 0.0
        if len(set(self.delta_list)) < len(self.delta_list):
            raise ConfigError("each delta may be given once")
        if not 1 <= self.q_range[0] <= self.q_range[1]:
            raise ConfigError("q-range must satisfy 1 <= min <= max")
        if self.q_range[1] > self.x:  # every class array has q entries
            raise ConfigError("q-range max must not exceed x")
        if self.a_mode != "all-coprime":
            k = self.a_mode.removeprefix("sample:")
            if k == self.a_mode or not k.isdigit() or int(k) < 1:
                raise ConfigError("a-mode must be 'all-coprime' or 'sample:K', K >= 1")
        formats = COMMANDS[self.command].formats
        self.format = self.format or formats[0]
        if self.format not in formats:
            raise ConfigError(f"{self.command} writes {' or '.join(formats)} only")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.n_max is not None and not 1 <= self.n_max <= MAX_N_MAX:
            raise ConfigError(f"n-max must lie in [1, {MAX_N_MAX}]")
        if self.output != "-" and (os.path.isdir(self.output) or not os.path.isdir(
                os.path.dirname(self.output) or ".")):  # checked, not created
            raise ConfigError(f"output {self.output!r} is a directory, or its directory is missing")


class ConfigError(ValueError):
    """User error in the run configuration (exit status 2)."""


# ---------------------------------------------------------------------------
# Output plumbing


@contextmanager
def _open_out(output: str):
    if output == "-":
        yield sys.stdout
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_csv(rows: List[Dict], columns: Sequence[str], output: str) -> None:
    with _open_out(output) as fh:
        fh.write(f"# expsum-kit v{SCHEMA_VERSION}\r\n")
        writer = csv.DictWriter(fh, fieldnames=list(columns),
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(row[k]) if isinstance(row[k], float)
                             else str(row[k]) for k in columns})


def write_json(payload: Dict, output: str) -> None:
    with _open_out(output) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(cfg: RunConfig, rows: List[Dict], columns: Sequence[str]) -> None:
    """The rows of a sweep or compare run as CSV, or as JSON with the config."""
    if cfg.format == "csv":
        write_csv(rows, columns, cfg.output)
    else:
        write_json({"config": asdict(cfg), "rows": rows}, cfg.output)


def flags_to_str(flags: Dict[str, bool]) -> str:
    return ";".join(f"{k}={int(v)}" for k, v in sorted(flags.items()))


# ---------------------------------------------------------------------------
# sweep


def _residues(cfg: RunConfig, q: int) -> List[int]:
    """The a of one q: all coprime residues, or a seeded sample of K."""
    all_a = coprime_residues(q)
    if cfg.a_mode == "all-coprime":
        return all_a
    k = int(cfg.a_mode.split(":", 1)[1])
    if len(all_a) <= k:
        return all_a
    rng = np.random.default_rng((cfg.seed, q))
    picked = rng.choice(len(all_a), size=k, replace=False)
    return sorted(all_a[i] for i in picked)


#: Largest modulus of a fold cover, unless a q is larger (_fold_cover).
_FOLD_CAP = 1 << 17


def _fold_cover(qs: Sequence[int]) -> List[Tuple[int, List[int]]]:
    """(L, the q of qs that L serves) pairs, greedily from the largest q:
    each L is the lcm of the q not yet served that keep it at most
    max(_FOLD_CAP, the largest of them), and serves each of them that
    divides it. Every q is served once: q <= 16 by 2 moduli, q <= 100 by 14."""
    left, cover = sorted(qs, reverse=True), []
    while left:
        cap, modulus = max(_FOLD_CAP, left[0]), 1
        for q in left:
            if math.lcm(modulus, q) <= cap:
                modulus = math.lcm(modulus, q)
        cover.append((modulus, [q for q in left if modulus % q == 0]))
        left = [q for q in left if modulus % q]
    return cover


def _delta_plan(cfg: RunConfig, q: int) -> List[Tuple]:
    """(delta, delta0, (u, u0), flags column, all_flags) of every delta at q."""
    plan = []
    for delta in cfg.delta_list:
        delta0 = delta0_of(delta)
        flags = bnd.choose_params(cfg.x, q, delta0, cfg.eta).condition_flags
        plan.append((delta, delta0, bnd.coordinates(cfg.x, q, delta0),
                     flags_to_str(flags), int(all(flags.values()))))
    return plan


def _sweep_rows_for_q(q: int, cfg: RunConfig, plan: List[Tuple],
                      sums: Dict[Tuple[str, float], np.ndarray]) -> List[Dict]:
    """The rows of one q, from the class sums mod q of each (f, delta)."""
    x, eta = cfg.x, cfg.eta
    n = int(math.floor(x))
    numerators = _residues(cfg, q)
    rows: List[Dict] = []
    for f in FUNCTIONS:
        for delta, delta0, (u, u0), flags, all_flags in plan:
            per_residue = sums[f, delta]
            try:
                bound = bnd.main_bound(f, x, q, delta0, eta)
            except bnd.BoundDomainError:
                bound = math.nan
            for a in numerators:
                s_abs = abs(rational_sum_from_residues(per_residue, a, q, n))
                rows.append({
                    "function": f, "q": q, "a": a, "delta": delta,
                    "delta0": delta0, "u": u, "u0": u0,
                    "s_abs": s_abs, "bound": bound, "ratio": s_abs / bound,
                    "flags": flags, "all_flags": all_flags,
                })
    return rows


SWEEP_COLUMNS = ("function", "q", "a", "delta", "delta0", "u", "u0",
                 "s_abs", "bound", "ratio", "flags", "all_flags")

#: The running class sums of each q: (f, delta) -> q sums, float, or
#: complex for a twist.
_Running = Dict[int, Dict[Tuple[str, float], np.ndarray]]

#: Entries of n per window of a sweep with twists (expsum._BLOCK): each
#: window's support, twists and classes stay near 1 MiB apiece, where
#: a segment's twist of mu takes 5 MiB per delta.
_TWIST_WINDOW = 1 << 16


def _fold_window(qs: Sequence[int], f: str, n: np.ndarray,
                 by_delta: Dict[float, np.ndarray], running: _Running) -> None:
    """Add f's weights on the support n (increasing, int32) of one window
    to the running class sums mod each q of qs: np.add.at adds each term
    in index order, so each class keeps the running sum, in increasing n,
    of one np.bincount over the whole support (on complex sums each part
    apart, as two float add.at calls would). n % q is made once per q,
    for every delta, as n - q (n // q) in int32, whose division by a
    scalar is several times faster than np.remainder's; it goes into
    int64 classes, as add.at is slower on int32 indices."""
    quotient = np.empty_like(n)
    classes = np.empty(len(n), dtype=np.int64)
    for q in qs:
        np.floor_divide(n, q, out=quotient)
        quotient *= -q
        quotient += n
        classes[:] = quotient
        for delta, values in by_delta.items():
            np.add.at(running[q][f, delta], classes, values)


def _class_sums(cfg: RunConfig, qs: Sequence[int]) -> _Running:
    """The class sums mod each q of qs of each (f, delta) on n <= x: float
    for delta = 0, complex for a twist, with residue_weight_sums' bits
    over the whole support.

    They are folded one sieve segment at a time (arith.segments), and each
    segment is dropped once folded, so the memory does not grow with x: no
    whole-range table is built.
    - An f with an integer table (mu) at delta = 0: the segment's table is
      folded as exact integers (IntegerClassSums), once per modulus L of
      _fold_cover, and the classes mod each q that L serves are read off
      the sums mod L at the end.
    - Every other (f, delta): the f's support (on_segment), twisted at a
      nonzero delta (twisted_weights, from the 2^16-block of its first n),
      is added to running class sums per q (_fold_window), float, or
      complex for a twist, from 0.0 in increasing n: the bits of one
      np.bincount over the whole support.
      With a twist this goes one _TWIST_WINDOW at a time, else one segment
      at a time. mu's support is built only for its twists.
    The q and the moduli are dealt round-robin to --workers threads, capped
    at the number of q and of usable CPUs. Per segment, the main thread
    sieves; then each thread folds mu's table by its moduli, and builds
    the supports and twists and folds them into its q (numpy calls that
    release the GIL). A sum is written by one thread alone, in the same
    order for any number of threads, so the bytes do not depend on it.
    """
    exact = [(name, IntegerClassSums(modulus), served)
             for name, f in FUNCTIONS.items()
             if f.int_table is not None and 0.0 in cfg.delta_list
             for modulus, served in _fold_cover(qs)]
    folded = {name for name, _, _ in exact}
    deltas = {name: ds for name in FUNCTIONS
              if (ds := [d for d in cfg.delta_list if d or name not in folded])}
    running: _Running = {q: {(f, d): np.zeros(q, float if d == 0.0 else complex)
                             for f, ds in deltas.items() for d in ds} for q in qs}
    betas = {d: as_fraction(d) / as_fraction(cfg.x) for d in cfg.delta_list if d}

    def fold(segment: Segment, share: Tuple[List[int], List[Tuple]]) -> None:
        mine, folds = share
        for name, by_modulus, _ in folds:
            by_modulus.add(FUNCTIONS[name].int_table(segment), segment.lo)
        for window in segment.windows(_TWIST_WINDOW) if betas else (segment,):
            for name, ds in deltas.items():
                support = FUNCTIONS[name].on_segment(window)
                _fold_window(mine, name, support.n.astype(np.int32), {
                    d: twisted_weights(support, betas[d]).values if d
                    else support.values for d in ds}, running)
    threads = min(cfg.workers, len(qs), len(os.sched_getaffinity(0)))
    shares = [(qs[i::threads], exact[i::threads]) for i in range(threads)]
    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
          else nullcontext()) as pool:
        for segment in segments(int(cfg.x)):
            if pool is None:  # in the caller: a pool thread ran 1-3% slower here
                fold(segment, shares[0])
            else:
                list(pool.map(functools.partial(fold, segment), shares))
    for name, by_modulus, served in exact:
        for q in served:
            running[q][name, 0.0] = by_modulus.sums(q)
    return running


def _sweep_rows(cfg: RunConfig) -> List[Dict]:
    """Every sweep row, unsorted. choose_params runs for every (q, delta)
    before the sieve, so a delta outside the theorem's domain ends the run
    before any segment is sieved; then the class sums are streamed
    (_class_sums), and each row is read off them."""
    qs = list(range(cfg.q_range[0], cfg.q_range[1] + 1))
    plans = {q: _delta_plan(cfg, q) for q in qs}
    sums = _class_sums(cfg, qs)
    return [row for q in qs for row in _sweep_rows_for_q(q, cfg, plans[q], sums[q])]


def run_sweep(cfg: RunConfig) -> int:
    rows = _sweep_rows(cfg)
    rows.sort(key=lambda r: (r["function"], r["q"], r["a"], r["delta"]))
    _write_rows(cfg, rows, SWEEP_COLUMNS)
    over = [r for r in rows if not math.isnan(r["ratio"]) and r["ratio"] > 1.0]
    for r in over:
        print(f"finding: ratio {r['ratio']:.3f} > 1 at function={r['function']} "
              f"q={r['q']} a={r['a']} delta={r['delta']}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# compare


COMPARE_COLUMNS = ("function", "x", "a", "q", "delta", "delta0",
                   "re", "im", "abs", "component")


def _weight_config(cfg: RunConfig, q: int, delta0: float) -> WeightConfig:
    """The override weights, else choose_params' at (x, q, delta0); the
    one place weight parameters are checked."""
    if cfg.weight_overrides is not None:
        u, u1, r, v = cfg.weight_overrides
    else:
        pc = bnd.choose_params(cfg.x, q, delta0, cfg.eta)
        u, u1, r, v = pc.U, pc.U1, pc.R, pc.V
    try:
        return WeightConfig(U=u, U1=u1, R=r, V=v, q=q)
    except ValueError as exc:
        raise ConfigError(
            f"weight parameters degenerate at x={cfg.x}, q={q} (U={u:.3g}, "
            f"U1={u1:.3g}, R={r:.3g}, V={v:.3g}): {exc}; supply valid "
            "--weight-overrides") from exc


def run_compare(cfg: RunConfig) -> int:
    qs = range(cfg.q_range[0], cfg.q_range[1] + 1)
    # every weight choice is checked before the sieve
    configs = {(q, delta0_of(d)): _weight_config(cfg, q, delta0_of(d))
               for q in qs for d in cfg.delta_list}
    tables = build_tables(int(cfg.x))
    rows: List[Dict] = []
    status = 0
    for q in qs:
        for delta in cfg.delta_list:
            delta0 = delta0_of(delta)
            ws = WeightSystem(configs[q, delta0], tables)
            for a in _residues(cfg, q):
                alpha = Fraction(a, q) + as_fraction(delta) / as_fraction(cfg.x)
                for f in FUNCTIONS:
                    try:
                        rep = recombine(f, alpha, cfg.x, ws, tables)
                    except RecombinationError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        status = 1
                        continue
                    rows.extend({"function": f, **row}
                                for row in rep.rows(a, q, delta, delta0))
    rows.sort(key=lambda r: (r["function"], r["q"], r["a"], r["delta"],
                             r["component"]))
    _write_rows(cfg, rows, COMPARE_COLUMNS)
    return status


# ---------------------------------------------------------------------------
# verify-identity / audit / bound


def run_verify_identity(cfg: RunConfig) -> int:
    q = cfg.q_range[0]
    n_max = cfg.n_max or int(cfg.x)
    if n_max > identity.MAX_N_MAX:
        raise ConfigError(f"identity range {n_max} exceeds cap {identity.MAX_N_MAX}"
                          " (--n-max, or --x when it is not given)")
    wc = _weight_config(cfg, q, 1.0)
    tables = build_tables(max(n_max, wc.h_support_bound, q))
    ws = WeightSystem(wc, tables)
    # the public per-function entry points, so a wrapper on each sees its
    # call; one decomposition's terms are alive at a time, and both read
    # the one weight_sums
    sums = identity.weight_sums(ws, n_max)
    certificates = {"mangoldt": identity.decompose_mangoldt(n_max, ws, tables, sums),
                    "mobius": identity.decompose_mobius(n_max, ws, tables, sums)}
    del sums
    payload = {"config": asdict(cfg)}
    for name in FUNCTIONS:
        payload[name] = identity.residual_report(certificates[name], ws, tables)
    write_json(payload, cfg.output)
    worst = max(payload[f]["max_abs_residual"] for f in FUNCTIONS)
    return 0 if worst < identity.RESIDUAL_BUDGET else 1


def run_audit(cfg: RunConfig) -> int:
    tables = build_tables(max(2_000_000, int(cfg.x)))
    report = inequality_audit(cfg.seed, tables, raise_on_violation=False)
    if report.total_violations:
        print(f"audit violations: {report.total_violations}, witnesses in the "
              "report", file=sys.stderr)
    write_json({"config": asdict(cfg), **report.as_dict()}, cfg.output)
    return 1 if report.total_violations else 0


def run_bound(cfg: RunConfig) -> int:
    q = cfg.q_range[0]
    payload = bnd.bound_report(cfg.x, q, delta0_of(cfg.delta_list[0]), cfg.eta)
    payload["config"] = asdict(cfg)
    write_json(payload, cfg.output)
    return 0


# ---------------------------------------------------------------------------
# entry point


@dataclass(frozen=True)
class Command:
    run: Callable[[RunConfig], int]
    formats: Tuple[str, ...]  # the first is the default
    help: str


COMMANDS: Dict[str, Command] = {
    "verify-identity": Command(run_verify_identity, ("json",),
                               "certify the weighted decomposition residuals"),
    "audit": Command(run_audit, ("json",),
                     "randomized audit of the explicit inequalities"),
    "sweep": Command(run_sweep, ("csv", "json"),
                     "bound-vs-actual sweep over (a, q, delta)"),
    "bound": Command(run_bound, ("json",), "single bound report"),
    "compare": Command(run_compare, ("csv", "json"),
                       "direct sum vs type-I/II decomposition"),
}


def run(cfg: RunConfig) -> int:
    cfg.validate()
    try:
        return COMMANDS[cfg.command].run(cfg)
    except (TableRangeError, bnd.BoundDomainError) as exc:
        raise ConfigError(f"parameters out of range: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    """Every flag of every command; defaults come from RunConfig alone."""
    parser = argparse.ArgumentParser(
        prog="expsum-kit",
        description="Exponential-sum verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--x", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--q-range", type=int, nargs=2, metavar=("MIN", "MAX"))
        p.add_argument("--a-mode", help="'all-coprime' or 'sample:K'")
        p.add_argument("--delta", type=float, action="append", dest="delta_list",
                       help="repeatable; default one run at delta = 0")
        p.add_argument("--weight-overrides", type=float, nargs=4,
                       metavar=("U", "U1", "R", "V"))
        p.add_argument("--output", "-o")
        p.add_argument("--format", help=" or ".join(command.formats))
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--n-max", type=int,
                       help="identity certification range (default: x)")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    args = vars(_build_parser().parse_args(argv))
    # argparse hands sequences over as lists; RunConfig holds tuples
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                        for k, v in args.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = parse_args(argv)
    try:
        status = run(cfg)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piped into head: what is left goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
