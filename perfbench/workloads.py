"""The four benchmark workloads: inputs made from the seed, one timed pass,
and the checks on each pass's outputs.

Each workload drives the kit through its public entry points:
``expsum_kit.cli.main(argv)`` in-process, plus direct calls for the work
that has no CLI command (partitions, the Mobius partial-sum bounds, and the
audit at a benchmark-sized instance count). Every command runs serially
(``--workers 1``); command outputs go to the run's temp directory.

Sizes are cut from the desk-scale cases so one pass takes about 1-3 s on a
shared 2-core x86-64 VM, which leaves 6-15 passes per 20 s run for the
median.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

from expsum_kit import arith, audit, cli, expsum, partition, weights
from expsum_kit.diophantine import as_fraction

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

#: Recombination and twisted-sweep agreement budget, as a multiple of x.
RECOMBINE_TOL = 1e-9
#: Identity residual budget at 50 digits.
IDENTITY_TOL = 1e-25


class Ledger:
    """Counts attempted commands and output checks, and the ones that failed.

    A nonzero exit status, an exception or a failed check each count as
    one failure. stderr lines starting with ``finding:`` are kept apart:
    the sweep reports bound ratios above 1 that way, and they are not
    failures.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.findings: Dict[str, int] = {}

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(f"{label}: {detail}")

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(label, detail or "check failed")
        return ok

    def call(self, label: str, fn: Callable[[], object]):
        """Run one direct API command; None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed command is counted, not fatal
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def cli(self, argv: List[str]) -> bool:
        """Run ``expsum-kit <argv>`` in-process; True on exit status 0."""
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            status = exc.code
        except Exception as exc:  # a failed command is counted, not fatal
            status = f"{type(exc).__name__}: {exc}"
        for line in err.getvalue().splitlines():
            if line.startswith("finding:"):
                self.findings[line] = self.findings.get(line, 0) + 1
        if status != 0:
            self._fail(argv[0], f"exit status {status!r}; stderr {err.getvalue()[-500:]!r}")
            return False
        return True


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_rows(data: bytes) -> List[Dict[str, str]]:
    """Rows of a kit CSV (after its schema comment line)."""
    text = data.decode("utf-8")
    lines = text.split("\r\n")
    if not lines or lines[0] != f"# expsum-kit v{cli.SCHEMA_VERSION}":
        raise ValueError("missing schema line")
    return list(csv.DictReader(io.StringIO("\r\n".join(lines[1:]))))


def coprime_residues(q: int) -> List[int]:
    """The numerators a sweep visits for q in all-coprime mode (a = 0 for q = 1)."""
    return [a for a in range(q) if math.gcd(a, q) == 1]


class Workload:
    """One named workload. Subclasses set the inputs in __init__ (set-up),
    do the timed work in run_pass and check outputs in check_pass (every
    pass) and check_once (reference work, once per run). A workload keeps
    only what check_once needs, so peak RSS is that of one pass.

    The default pass is one CLI command, self.argv, writing self.out.
    """

    name = ""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.argv: List[str] = []
        self.out = tmp / f"{self.name}.out"

    def commands(self) -> List[List[str]]:
        return [self.argv]

    def run_pass(self, ledger: Ledger) -> Dict:
        self.out.unlink(missing_ok=True)
        ledger.cli(self.argv)
        return {"csv": self._read(self.out)}

    def check_pass(self, ledger: Ledger, out: Dict) -> None:
        raise NotImplementedError

    def check_once(self, ledger: Ledger) -> None:
        pass

    def _read(self, path: Path) -> bytes:
        return path.read_bytes() if path.exists() else b""


class SweepRational(Workload):
    """delta=0, all-coprime sweep: sieve plus residue-aggregated sums."""

    name = "sweep-rational"
    X, Q = 2_000_000, (1, 16)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.argv = ["sweep", "--x", str(self.X), "--q-range", *map(str, self.Q),
                     "--workers", "1", "--seed", str(seed), "-o", str(self.out)]

    def check_pass(self, ledger, out):
        digest = sha256(out["csv"])
        ledger.check("sweep-rational csv sha256",
                     digest == GOLDEN["sweep-rational"]["sha256"],
                     f"got {digest}")


class SweepTwisted(Workload):
    """delta in {0, 8} sweep: one direct sum per (f, q, a) at delta=8."""

    name = "sweep-twisted"
    X, Q, DELTAS = 1_000_000, (1, 6), ("0", "8")
    N_REFERENCE = 4

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.out2 = tmp / "sweep-twisted-workers2.out"
        deltas = [arg for d in self.DELTAS for arg in ("--delta", d)]
        self.argv = ["sweep", "--x", str(self.X), "--q-range", *map(str, self.Q),
                     *deltas, "--workers", "1", "--seed", str(seed),
                     "-o", str(self.out)]
        self.argv2 = self.argv[:self.argv.index("--workers")] + [
            "--workers", "2", "--seed", str(seed), "-o", str(self.out2)]
        twisted = [(f, q, a) for f in ("mangoldt", "mobius")
                   for q in range(self.Q[0], self.Q[1] + 1)
                   for a in coprime_residues(q)]
        self.n_rows = len(twisted) * len(self.DELTAS)
        self.reference_rows = random.Random(seed).sample(twisted, self.N_REFERENCE)
        self.first_csv: Optional[bytes] = None

    def commands(self):
        return [self.argv, self.argv2]

    def check_pass(self, ledger, out):
        data = out["csv"]
        if self.first_csv is not None:
            ledger.check("sweep-twisted bytes equal across passes",
                         data == self.first_csv)
            return
        self.first_csv = data
        try:
            rows = csv_rows(data)
        except ValueError as exc:
            ledger.check("sweep-twisted csv parses", False, str(exc))
            return
        ledger.check("sweep-twisted row count", len(rows) == self.n_rows,
                     f"{len(rows)} rows, want {self.n_rows}")
        lines = data.decode("utf-8").split("\r\n")
        delta_col = lines[1].split(",").index("delta")
        rational = [ln for ln in lines[2:]
                    if ln and ln.split(",")[delta_col] == "0.0"]
        digest = sha256("\r\n".join(rational).encode())
        ledger.check("sweep-twisted delta=0 rows sha256",
                     digest == GOLDEN["sweep-twisted"]["delta0_sha256"],
                     f"got {digest}")

    def check_once(self, ledger):
        """Sampled delta=8 rows against expsum.direct_sum, and the same
        bytes from a --workers 2 run."""
        try:
            rows = csv_rows(self.first_csv or b"")
        except ValueError:
            rows = []  # already counted by check_pass; the rows below fail
        by_key = {(r["function"], int(r["q"]), int(r["a"]), r["delta"]): r
                  for r in rows}
        tables = ledger.call("reference tables",
                             lambda: arith.build_tables(self.X))
        for f, q, a in self.reference_rows:
            row = by_key.get((f, q, a, "8.0"))
            if row is None or tables is None:
                ledger.check(f"sweep-twisted reference {f} q={q} a={a}", False,
                             "row or tables missing")
                continue
            alpha = Fraction(a, q) + as_fraction(8.0) / as_fraction(float(self.X))
            ref = abs(expsum.direct_sum(f, alpha, float(self.X), tables))
            got = float(row["s_abs"])
            ledger.check(f"sweep-twisted reference {f} q={q} a={a}",
                         abs(got - ref) <= RECOMBINE_TOL * self.X,
                         f"s_abs {got!r} vs direct_sum {ref!r}")
        self.out2.unlink(missing_ok=True)
        ledger.cli(self.argv2)
        ledger.check("sweep-twisted --workers 2 bytes equal --workers 1",
                     self._read(self.out2) == self.first_csv)


class Decompose(Workload):
    """compare: direct sum against its type-I/type-II decomposition at
    rational (delta=0) and twisted (delta=8) alphas."""

    name = "decompose"
    X, Q, DELTAS = 200_000, (1, 4), ("0", "8")
    COMPONENTS = {"direct", "I1", "I2", "II", "tail"}

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        deltas = [arg for d in self.DELTAS for arg in ("--delta", d)]
        self.argv = ["compare", "--x", str(self.X), "--q-range", *map(str, self.Q),
                     "--a-mode", "sample:1", *deltas, "--workers", "1",
                     "--seed", str(seed), "-o", str(self.out)]
        self.n_groups = 2 * (self.Q[1] - self.Q[0] + 1) * len(self.DELTAS)

    def check_pass(self, ledger, out):
        try:
            rows = csv_rows(out["csv"])
        except ValueError as exc:
            ledger.check("compare csv parses", False, str(exc))
            return
        groups: Dict[tuple, Dict[str, complex]] = {}
        for r in rows:
            key = (r["function"], r["q"], r["a"], r["delta"])
            groups.setdefault(key, {})[r["component"]] = complex(
                float(r["re"]), float(r["im"]))
        ledger.check("compare group count", len(groups) == self.n_groups,
                     f"{len(groups)} groups, want {self.n_groups}")
        for key, parts in sorted(groups.items()):
            if not ledger.check(f"compare components {key}",
                                set(parts) == self.COMPONENTS,
                                f"components {sorted(parts)}"):
                continue
            combined = parts["I1"] - parts["I2"] + parts["II"] + parts["tail"]
            residual = abs(parts["direct"] - combined)
            ledger.check(f"compare recombination {key}",
                         residual <= RECOMBINE_TOL * self.X,
                         f"residual {residual:.3e}")


class Certify(Workload):
    """Identity certification, the inequality audit, partitions and the
    Mobius partial-sum bounds."""

    name = "certify"
    IDENTITY_X = 3000
    TABLES_N = 1_000_000
    AUDIT_INSTANCES = 150
    PARTITION_M, PARTITION_Q = 30_000, 7
    PARTIAL_X = (1e5, 1e6)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.argv = ["verify-identity", "--x", str(self.IDENTITY_X),
                     "--q-range", "3", "3", "--weight-overrides", "10", "40", "5", "30",
                     "--seed", str(seed), "--workers", "1", "-o", str(self.out)]
        m, q = self.PARTITION_M, self.PARTITION_Q
        self.partitions = [(kind, float(m), q, L)
                           for kind in ("primes", "integers")
                           for L in (10.0, m / q)]

    def run_pass(self, ledger):
        self.out.unlink(missing_ok=True)
        ledger.cli(self.argv)
        out = {"identity": self._read(self.out), "partitions": [], "partials": []}
        tables = ledger.call("build_tables",
                             lambda: arith.build_tables(self.TABLES_N))
        if tables is None:
            return out
        out["tables"] = tables
        out["audit"] = ledger.call("inequality_audit", lambda: audit.inequality_audit(
            self.seed, tables, n_instances=self.AUDIT_INSTANCES))
        for kind, m, q, L in self.partitions:
            build = (partition.partition_primes if kind == "primes"
                     else partition.partition_integers)
            p = ledger.call(f"partition_{kind}", lambda: build(m, q, L, tables))
            bad = ledger.call("spacing_violations", p.spacing_violations) if p else None
            out["partitions"].append((kind, m, q, L, p, bad))
        for X in self.PARTIAL_X:
            out["partials"].append((X, ledger.call(
                "mobius_partial_bounds_hold",
                lambda: weights.mobius_partial_bounds_hold(X, tables))))
        return out

    def check_pass(self, ledger, out):
        try:
            report = json.loads(out["identity"])
            residuals = [report[f]["max_abs_residual"] for f in ("mangoldt", "mobius")]
        except (ValueError, KeyError) as exc:
            ledger.check("identity json parses", False, repr(exc))
        else:
            for f, r in zip(("mangoldt", "mobius"), residuals):
                ledger.check(f"identity {f} residual", r < IDENTITY_TOL, f"{r!r}")
        rep = out.get("audit")
        if rep is not None:
            ledger.check("audit total_violations", rep.total_violations == 0,
                         f"{rep.total_violations}")
        for kind, m, q, L, p, bad in out["partitions"]:
            label = f"partition_{kind} M={m:g} q={q} L={L:g}"
            if p is None or bad is None:
                continue  # already counted as a failed command
            ledger.check(f"{label} spacing", bad == [], f"{len(bad)} violations")
            cap = (math.ceil(partition.separation_bound(L, q, out["tables"]))
                   if kind == "primes" else math.ceil(L))
            ledger.check(f"{label} class cap", p.class_count <= cap,
                         f"{p.class_count} > {cap}")
        for X, flags in out["partials"]:
            if flags is not None:
                ledger.check(f"partial-sum flags X={X:g}", all(flags.values()),
                             f"{flags}")


WORKLOADS = {w.name: w for w in (SweepRational, SweepTwisted, Decompose, Certify)}
