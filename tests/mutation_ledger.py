"""The mutation ledger: small, deliberate faults in src, each with the test
that is expected to kill it.

    python tests/mutation_ledger.py

For each mutant the repository's src, tests, perfbench and pyproject.toml
are copied to a temporary directory, the mutant's one edit is applied
there, and its named test is run; if that test passes, Tier-1 runs with -x.
Each mutant prints the test that killed it (or SURVIVED) and the time taken;
the survivors are listed at the end. Every edit's old text must occur
exactly once in its file, else the ledger exits 2 before any run, so that
the list stays current with the code. The file has no test_ prefix, so
Tier-1 does not collect it: a full run takes minutes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    killer: str  # a pytest node id


MUTANTS = [
    # the complex twist and its folds
    Mutant("twist multiplies only the real part by the weight",
           "src/expsum_kit/expsum.py",
           "    im *= weights.values\n", "",
           "tests/test_expsum.py::test_twisted_weights_bytes_match_unit_exponentials"),
    Mutant("the twist's rounding scratch aliases its phases",
           "src/expsum_kit/expsum.py",
           "_fracs_at(beta, weights.n, im, re)", "_fracs_at(beta, weights.n, im, im)",
           "tests/test_expsum.py::test_twisted_weights_bytes_match_unit_exponentials"),
    Mutant("a twist's class sums start as float",
           "src/expsum_kit/cli.py",
           "np.zeros(q, float if d == 0.0 else complex)", "np.zeros(q)",
           "tests/test_cli.py::test_sweep_twisted_golden_bytes"),
    Mutant("floats drops the scatter",
           "src/expsum_kit/arith.py",
           "        out[n] = values\n", "",
           "tests/test_arith.py::test_registry_floats_match_exact_values"),
    Mutant("the q cap rejects q = x",
           "src/expsum_kit/cli.py",
           "if self.q_range[1] > self.x:", "if self.q_range[1] >= self.x:",
           "tests/test_cli.py::test_q_range_up_to_x_runs"),
    Mutant("a closed stdout is not pointed at devnull",
           "src/expsum_kit/cli.py",
           "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", "pass",
           "tests/test_cli.py::test_closed_stdout_ends_quietly"),
    Mutant("main leaves the last flush to the exit",
           "src/expsum_kit/cli.py",
           "        sys.stdout.flush()  # a closed pipe raises here, not at exit\n", "",
           "tests/test_cli.py::test_closed_stdout_ends_quietly"),
    # the streamed sieve and folds
    Mutant("a segment's sieve starts one late",
           "src/expsum_kit/arith.py",
           "first = max(lo, 2)", "first = max(lo + 1, 2)",
           "tests/test_arith.py::test_tables_match_whole_range_sieve"),
    Mutant("a p^k base at a segment's first n is lost",
           "src/expsum_kit/arith.py",
           "np.searchsorted(pk, (lo, hi))", "np.searchsorted(pk, (lo + 1, hi))",
           "tests/test_arith.py::test_tables_match_whole_range_sieve"),
    Mutant("the p^2 zeroing is skipped",
           "src/expsum_kit/arith.py",
           "            mu[(-lo) % (p * p) :: p * p] = 0\n", "            pass\n",
           "tests/test_acceptance.py::test_criterion_1_identity_certification"),
    Mutant("mu's fold is rolled one class too far",
           "src/expsum_kit/expsum.py",
           "shift = lo % width", "shift = (lo + 1) % width",
           "tests/test_cli.py::test_fold_cover_matches_per_q_fold"),
    Mutant("twist blocks are not cut at multiples of 2^16",
           "src/expsum_kit/expsum.py",
           "(int(k[0]) - 1) // _BLOCK * _BLOCK", "int(k[0]) - 1",
           "tests/test_expsum.py::test_twist_of_a_window_has_the_whole_twists_bits"),
    Mutant("the wheel is copied one entry late",
           "src/expsum_kit/arith.py",
           "wheel[lo % _WHEEL:]", "wheel[(lo + 1) % _WHEEL:]",
           "tests/test_arith.py::test_tables_match_whole_range_sieve"),
    # the audit
    Mutant("the weighted non-divisible check keeps the multiples of q0",
           "src/expsum_kit/audit.py",
           "ms = ms[ms % q0 != 0]", "ms = ms",
           "tests/test_audit.py::test_audit_report_golden"),
    Mutant("the gcd period misses each p^j-th entry",
           "src/expsum_kit/audit.py",
           "period[p ** j - 1::p ** j]", "period[p ** j::p ** j]",
           "tests/test_audit.py::test_gcd_period_is_np_gcd"),
    # the bounds reports
    Mutant("the partial-sum bounds lose their X = 1 guard",
           "src/expsum_kit/weights.py",
           " if log_x else (math.inf, math.inf)", "",
           "tests/test_weights.py::test_partial_bounds_at_small_x"),
    Mutant("the bound report drops its error budget",
           "src/expsum_kit/bounds.py",
           "        \"error_budget\": error_budget_report(pc, x, q, delta0),\n", "",
           "tests/test_cli.py::test_bound_command_json"),
    # the exact partial sums
    Mutant("the high part is split at 2^25",
           "src/expsum_kit/weights.py",
           "np.multiply(m, 2.0 ** -26, out=p)", "np.multiply(m, 2.0 ** -25, out=p)",
           "tests/test_weights.py::test_exact_sum_is_fsum_bitwise"),
    Mutant("the low part is formed with 2^25",
           "src/expsum_kit/weights.py",
           "        p *= 2.0 ** 26\n", "        p *= 2.0 ** 25\n",
           "tests/test_weights.py::test_exact_sum_is_fsum_bitwise"),
    Mutant("the high part's bincount is dropped",
           "src/expsum_kit/weights.py",
           "high += np.bincount(e, weights=p, minlength=_EXP_BINS)",
           "high += 0.0 * np.bincount(e, weights=p, minlength=_EXP_BINS)",
           "tests/test_weights.py::test_exact_sum_is_fsum_bitwise"),
    Mutant("the exponent offset is one short",
           "src/expsum_kit/weights.py",
           "        e += _EXP_OFFSET\n", "        e += _EXP_OFFSET - 1\n",
           "tests/test_weights.py::test_exact_sum_is_fsum_bitwise"),
    Mutant("the final shift is off by one",
           "src/expsum_kit/weights.py",
           "shift = bins[0] - _EXP_OFFSET - 53", "shift = bins[0] - _EXP_OFFSET - 52",
           "tests/test_weights.py::test_exact_sum_is_fsum_bitwise"),
]


def _stale(mutant: Mutant) -> bool:
    return (ROOT / mutant.path).read_text().count(mutant.old) != 1


def _pytest(where: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                           "no:cacheprovider", *args], cwd=where, env=env,
                          capture_output=True, text=True)


def _first_failure(proc: subprocess.CompletedProcess) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return found.group(1) if found else f"exit status {proc.returncode}"


def run_mutant(mutant: Mutant) -> str:
    """The node id of the test that killed the mutant, or "" if none did."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, where / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, where / name)
        target = where / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        proc = _pytest(where, mutant.killer)
        if proc.returncode in (1, 2):  # failed, or failed to collect
            return mutant.killer
        if proc.returncode != 0:
            raise RuntimeError(f"{mutant.killer}: pytest exit status "
                               f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
        proc = _pytest(where)
        return _first_failure(proc) if proc.returncode else ""


def main() -> int:
    stale = [m.name for m in MUTANTS if _stale(m)]
    if stale:
        print("stale: the old text is not in its file exactly once:", *stale,
              sep="\n  ", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed_by = run_mutant(mutant)
        seconds = time.perf_counter() - start
        print(f"{mutant.name}: {killed_by or 'SURVIVED'} ({seconds:.1f} s)", flush=True)
        if not killed_by:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
