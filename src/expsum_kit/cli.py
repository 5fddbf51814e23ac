"""Batch front door: identity certification, inequality audits,
bound-vs-actual sweeps, single bound reports, and decomposition compares.

Outputs are machine-readable: CSV (RFC 4180, with one leading comment
line "# expsum-kit v1" carrying the schema version) or JSON (UTF-8,
stable key order, resolved config embedded). Runs are deterministic
given (config, seed): rows are fully sorted before writing, so the CSV
is byte-identical for any worker count. Exit status 0 is success, 1 is
an internal or hard-assert failure, 2 a config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bnd
from .arith import ArithTables, TableRangeError, build_tables
from .audit import AuditViolation, inequality_audit
from .diophantine import as_fraction, delta0_of
from .expsum import (RecombinationError, direct_sum, rational_sum_from_residues,
                     recombine, residue_weight_sums)
from .identity import decompose_mangoldt, decompose_mobius, residual_report
from .weights import WeightConfig, WeightSystem

SCHEMA_VERSION = 1
CACHE_ENV = "EXPSUM_KIT_CACHE"

COMMANDS = ("verify-identity", "audit", "sweep", "bound", "compare")


@dataclass
class RunConfig:
    command: str
    x: float = 1e5
    eta: float = 1.0 / 15.0
    q_range: Tuple[int, int] = (1, 10)
    a_mode: str = "all-coprime"      # or "sample:K"
    delta_list: Tuple[float, ...] = (0.0,)
    weight_overrides: Optional[Tuple[float, float, float, float]] = None
    output: str = "-"
    format: str = "csv"
    seed: int = 0
    workers: int = 1
    n_max: Optional[int] = None      # identity range override

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not 0 < self.eta <= 0.1:
            raise ConfigError("eta must lie in (0, 1/10]")
        if self.x < 100:
            raise ConfigError("x must be >= 100")
        lo, hi = self.q_range
        if not 1 <= lo <= hi:
            raise ConfigError("q-range must satisfy 1 <= min <= max")
        if self.a_mode != "all-coprime":
            if not self.a_mode.startswith("sample:"):
                raise ConfigError("a-mode must be 'all-coprime' or 'sample:K'")
            try:
                k = int(self.a_mode.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError("a-mode sample size must be an integer") from exc
            if k < 1:
                raise ConfigError("a-mode sample size must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.weight_overrides is not None:
            u, u1, r, v = self.weight_overrides
            if not (u > 1 and u1 >= u and r >= 1 and v > 1):
                raise ConfigError("weight overrides need U>1, U1>=U, R>=1, V>1")

    def as_dict(self) -> Dict:
        return {
            "command": self.command, "x": self.x, "eta": self.eta,
            "q_range": list(self.q_range), "a_mode": self.a_mode,
            "delta_list": list(self.delta_list),
            "weight_overrides": (list(self.weight_overrides)
                                 if self.weight_overrides else None),
            "output": self.output, "format": self.format,
            "seed": self.seed, "workers": self.workers, "n_max": self.n_max,
        }


class ConfigError(ValueError):
    """User error in the run configuration (exit status 2)."""


# ---------------------------------------------------------------------------
# Table cache


def tables_for(n_max: int) -> ArithTables:
    """build_tables with an optional on-disk cache (env EXPSUM_KIT_CACHE)."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return build_tables(n_max)
    path = Path(cache_dir) / f"arith_{n_max}.npz"
    if path.exists():
        data = np.load(path)
        return ArithTables(n_max=n_max, spf=data["spf"], mobius=data["mobius"],
                           totient=data["totient"],
                           mangoldt_base=data["mangoldt_base"],
                           primes=data["primes"])
    tables = build_tables(n_max)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, spf=tables.spf, mobius=tables.mobius,
             totient=tables.totient, mangoldt_base=tables.mangoldt_base,
             primes=tables.primes)
    return tables


# ---------------------------------------------------------------------------
# Output plumbing


def _open_out(output: str):
    if output == "-":
        return sys.stdout, False
    return open(output, "w", encoding="utf-8", newline=""), True


def write_csv(rows: List[Dict], columns: Sequence[str], output: str) -> None:
    fh, close = _open_out(output)
    try:
        fh.write(f"# expsum-kit v{SCHEMA_VERSION}\r\n")
        writer = csv.DictWriter(fh, fieldnames=list(columns),
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in columns})
    finally:
        if close:
            fh.close()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_json(payload: Dict, output: str) -> None:
    fh, close = _open_out(output)
    try:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def flags_to_str(flags: Dict[str, bool]) -> str:
    return ";".join(f"{k}={int(v)}" for k, v in sorted(flags.items()))


# ---------------------------------------------------------------------------
# sweep


def _coprime_residues(q: int) -> List[int]:
    if q == 1:
        return [0]
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def _residues(cfg: RunConfig, q: int) -> List[int]:
    """The a of one q: all coprime residues, or a seeded sample of K."""
    all_a = _coprime_residues(q)
    if cfg.a_mode == "all-coprime":
        return all_a
    k = int(cfg.a_mode.split(":", 1)[1])
    if len(all_a) <= k:
        return all_a
    rng = np.random.default_rng((cfg.seed, q))
    picked = rng.choice(len(all_a), size=k, replace=False)
    return sorted(all_a[i] for i in picked)


_WORKER_TABLES: Optional[ArithTables] = None


def _init_worker(tables: ArithTables) -> None:
    global _WORKER_TABLES
    _WORKER_TABLES = tables


def _sweep_rows_for_q(args) -> List[Dict]:
    q, cfg_dict = args
    cfg = RunConfig(**cfg_dict)
    tables = _WORKER_TABLES
    x, eta = cfg.x, cfg.eta
    n = int(math.floor(x))
    per_residue = {}
    if 0.0 in cfg.delta_list:
        per_residue = {f: residue_weight_sums(f, q, x, tables)
                       for f in ("mangoldt", "mobius")}
    rows: List[Dict] = []
    for a in _residues(cfg, q):
        for delta in cfg.delta_list:
            delta0 = delta0_of(delta)
            u, u0 = bnd.coordinates(x, q, delta0)
            pc = bnd.choose_params(x, q, delta0, eta)
            flags = pc.condition_flags
            for f in ("mangoldt", "mobius"):
                if delta == 0.0:
                    s = rational_sum_from_residues(per_residue[f], a, q, n)
                else:
                    alpha = Fraction(a, q) + as_fraction(delta) / as_fraction(x)
                    s = direct_sum(f, alpha, x, tables)
                try:
                    bound = bnd.main_bound(f, x, q, delta0, eta)
                    ratio = abs(s) / bound
                except bnd.BoundDomainError:
                    bound = math.nan
                    ratio = math.nan
                rows.append({
                    "function": f, "q": q, "a": a, "delta": delta,
                    "delta0": delta0, "u": u, "u0": u0,
                    "s_abs": abs(s), "bound": bound, "ratio": ratio,
                    "flags": flags_to_str(flags),
                    "all_flags": int(all(flags.values())),
                })
    return rows


SWEEP_COLUMNS = ("function", "q", "a", "delta", "delta0", "u", "u0",
                 "s_abs", "bound", "ratio", "flags", "all_flags")


def run_sweep(cfg: RunConfig) -> int:
    tables = tables_for(int(cfg.x))
    qs = list(range(cfg.q_range[0], cfg.q_range[1] + 1))
    tasks = [(q, cfg.as_dict()) for q in qs]
    if cfg.workers == 1:
        _init_worker(tables)
        chunks = [_sweep_rows_for_q(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=_init_worker,
                                 initargs=(tables,)) as pool:
            chunks = list(pool.map(_sweep_rows_for_q, tasks))
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["function"], r["q"], r["a"], r["delta"]))
    if cfg.format == "csv":
        write_csv(rows, SWEEP_COLUMNS, cfg.output)
    else:
        write_json({"config": cfg.as_dict(), "rows": rows}, cfg.output)
    over = [r for r in rows if not math.isnan(r["ratio"]) and r["ratio"] > 1.0]
    for r in over:
        print(f"finding: ratio {r['ratio']:.3f} > 1 at function={r['function']} "
              f"q={r['q']} a={r['a']} delta={r['delta']}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# compare


COMPARE_COLUMNS = ("function", "x", "a", "q", "delta", "delta0",
                   "re", "im", "abs", "component")


def _weight_params(cfg: RunConfig, q: int, delta0: float) -> Tuple[float, float, float, float]:
    if cfg.weight_overrides is not None:
        return cfg.weight_overrides
    pc = bnd.choose_params(cfg.x, q, delta0, cfg.eta)
    return pc.U, pc.U1, pc.R, pc.V


def _weight_system(cfg: RunConfig, q: int, delta0: float,
                   tables: ArithTables) -> WeightSystem:
    u, u1, r, v = _weight_params(cfg, q, delta0)
    try:
        wc = WeightConfig(U=u, U1=u1, R=r, V=v, q=q, eta=cfg.eta)
    except ValueError as exc:
        raise ConfigError(
            f"derived weight parameters degenerate at x={cfg.x}, q={q} "
            f"(U={u:.3g}, U1={u1:.3g}, R={r:.3g}, V={v:.3g}): {exc}; "
            "supply --weight-overrides") from exc
    return WeightSystem(wc, tables)


def run_compare(cfg: RunConfig) -> int:
    tables = tables_for(int(cfg.x))
    rows: List[Dict] = []
    status = 0
    for q in range(cfg.q_range[0], cfg.q_range[1] + 1):
        for a in _residues(cfg, q):
            for delta in cfg.delta_list:
                delta0 = delta0_of(delta)
                alpha = Fraction(a, q) + as_fraction(delta) / as_fraction(cfg.x)
                ws = _weight_system(cfg, q, delta0, tables)
                for f in ("mangoldt", "mobius"):
                    try:
                        rep = recombine(f, alpha, cfg.x, ws, tables)
                    except RecombinationError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        status = 1
                        continue
                    for row in rep.rows(a, q, delta, delta0):
                        rows.append({"function": f, **row})
    rows.sort(key=lambda r: (r["function"], r["q"], r["a"], r["delta"],
                             r["component"]))
    if cfg.format == "csv":
        write_csv(rows, COMPARE_COLUMNS, cfg.output)
    else:
        write_json({"config": cfg.as_dict(), "rows": rows}, cfg.output)
    return status


# ---------------------------------------------------------------------------
# verify-identity / audit / bound


def run_verify_identity(cfg: RunConfig) -> int:
    q = cfg.q_range[0]
    n_max = cfg.n_max or int(cfg.x)
    _, u1, r, _ = _weight_params(cfg, q, 1.0)
    table_span = max(n_max, int(math.floor(u1 * r)), q)
    tables = tables_for(table_span)
    ws = _weight_system(cfg, q, 1.0, tables)
    payload = {"config": cfg.as_dict()}
    worst = 0.0
    for name, decompose in (("mangoldt", decompose_mangoldt),
                            ("mobius", decompose_mobius)):
        report = residual_report(decompose(n_max, ws, tables), ws, tables)
        payload[name] = report
        worst = max(worst, report["max_abs_residual"])
    write_json(payload, cfg.output)
    return 0 if worst < 1e-25 else 1


def run_audit(cfg: RunConfig) -> int:
    tables = tables_for(max(2_000_000, int(cfg.x)))
    try:
        report = inequality_audit(cfg.seed, tables, raise_on_violation=True)
        status = 0
    except AuditViolation as exc:
        report = inequality_audit(cfg.seed, tables, raise_on_violation=False)
        print(f"audit violations: {exc}", file=sys.stderr)
        status = 1
    write_json({"config": cfg.as_dict(), **report.as_dict()}, cfg.output)
    return status


def run_bound(cfg: RunConfig) -> int:
    q = cfg.q_range[0]
    payload = bnd.bound_report(cfg.x, q, delta0_of(cfg.delta_list[0]), cfg.eta)
    payload["config"] = cfg.as_dict()
    write_json(payload, cfg.output)
    return 0


# ---------------------------------------------------------------------------
# entry point


def run(cfg: RunConfig) -> int:
    cfg.validate()
    dispatch = {
        "sweep": run_sweep,
        "compare": run_compare,
        "verify-identity": run_verify_identity,
        "audit": run_audit,
        "bound": run_bound,
    }
    try:
        return dispatch[cfg.command](cfg)
    except TableRangeError as exc:
        raise ConfigError(f"parameters exceed the sieved range: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum-kit",
        description="Exponential-sum verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("verify-identity", "certify the weighted decomposition residuals"),
            ("audit", "randomized audit of the explicit inequalities"),
            ("sweep", "bound-vs-actual sweep over (a, q, delta)"),
            ("bound", "single bound report"),
            ("compare", "direct sum vs type-I/II decomposition")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--x", type=float, default=1e5)
        p.add_argument("--eta", type=float, default=1.0 / 15.0)
        p.add_argument("--q-range", type=int, nargs=2, default=(1, 10),
                       metavar=("MIN", "MAX"))
        p.add_argument("--a-mode", default="all-coprime",
                       help="'all-coprime' or 'sample:K'")
        p.add_argument("--delta", type=float, action="append", dest="delta_list",
                       help="repeatable; default one run at delta = 0")
        p.add_argument("--weight-overrides", type=float, nargs=4,
                       metavar=("U", "U1", "R", "V"))
        p.add_argument("--output", "-o", default="-")
        p.add_argument("--format", choices=("csv", "json"),
                       default="json" if name in ("verify-identity", "audit",
                                                  "bound") else "csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--n-max", type=int, default=None,
                       help="identity certification range (default: x)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        x=args.x,
        eta=args.eta,
        q_range=tuple(args.q_range),
        a_mode=args.a_mode,
        delta_list=tuple(args.delta_list) if args.delta_list else (0.0,),
        weight_overrides=(tuple(args.weight_overrides)
                          if args.weight_overrides else None),
        output=args.output,
        format=args.format,
        seed=args.seed,
        workers=args.workers,
        n_max=args.n_max,
    )
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
