"""Outside-in layer tracing for the benchmark.

The kit has no spans of its own, so a traced pass replaces selected public
functions of each layer module with wrappers that record a span (name,
start, end, parent, pass id) and per-call work counts. The wrapper goes on
the defining module, on every ``expsum_kit`` module that imported the same
object by name, and on the class for methods. Nothing under ``src/`` is
edited; ``Tracer.uninstall`` puts every original back.

Spans stay in memory and are turned into per-layer metrics when the run
ends. A span's self time is its duration minus the durations of its
children; calls made in one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _n_terms(result) -> int:
    # type_I_1/type_I_2 return a pair of ExpSumValue with split=True.
    value = result[0] if isinstance(result, tuple) else result
    return value.n_terms


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _recombine_budget_ratio(args, kwargs, result) -> float:
    x = _arg(args, kwargs, 2, "x")
    tol = kwargs.get("tol", args[5] if len(args) > 5 else 1e-9)
    return result.residual / (tol * x)


def _audit_instances(result) -> int:
    return sum(lemma.n_instances for lemma in result.lemmas.values())


def _partition_members(result) -> int:
    return sum(len(c) for c in result.classes)


# (module, attribute path, span name, counters). A counter maps
# (args, kwargs, result) to a number and is keyed by the metric it feeds;
# names ending in "_max" keep the maximum over calls, all others are summed.
# Every wrapped function also counts its calls as "<span name>.calls".
TRACED: List[Tuple[str, str, str, Dict[str, Callable]]] = [
    ("arith", "build_tables", "arith.build_tables",
     {"arith.build_tables.entries": lambda a, k, r: _arg(a, k, 0, "n_max")}),
    ("expsum", "residue_weight_sums", "expsum.residue_weight_sums",
     {"expsum.residue_weight_sums.terms":
      lambda a, k, r: int(math.floor(_arg(a, k, 2, "x")))}),
    ("expsum", "rational_sum_from_residues", "expsum.rational_sum_from_residues", {}),
    ("expsum", "direct_sum", "expsum.direct_sum",
     {"expsum.direct_sum.terms": lambda a, k, r: r.n_terms}),
    ("expsum", "type_I_1", "expsum.type_I_1",
     {"expsum.type_I_1.terms": lambda a, k, r: _n_terms(r)}),
    ("expsum", "type_I_2", "expsum.type_I_2",
     {"expsum.type_I_2.terms": lambda a, k, r: _n_terms(r)}),
    ("expsum", "type_II", "expsum.type_II",
     {"expsum.type_II.terms": lambda a, k, r: r.n_terms}),
    ("expsum", "h_only_sum", "expsum.h_only_sum", {}),
    ("expsum", "recombine", "expsum.recombine",
     {"expsum.recombine.budget_ratio_max": _recombine_budget_ratio}),
    ("weights", "WeightSystem.__init__", "weights.WeightSystem", {}),
    ("weights", "WeightSystem.h_float", "weights.h_float", {}),
    ("weights", "WeightSystem.h_mp", "weights.h_mp", {}),
    ("weights", "WeightSystem.conv_theta_lambda", "weights.conv_theta_lambda", {}),
    ("weights", "mobius_partial", "weights.mobius_partial", {}),
    ("identity", "decompose_mangoldt", "identity.decompose_mangoldt", {}),
    ("identity", "decompose_mobius", "identity.decompose_mobius", {}),
    ("identity", "residual_report", "identity.residual_report",
     {"identity.n_certified": lambda a, k, r: r["n_max"]}),
    ("audit", "inequality_audit", "audit.inequality_audit",
     {"audit.instances": lambda a, k, r: _audit_instances(r)}),
    ("partition", "partition_primes", "partition.partition_primes",
     {"partition.members": lambda a, k, r: _partition_members(r)}),
    ("partition", "partition_integers", "partition.partition_integers",
     {"partition.members": lambda a, k, r: _partition_members(r)}),
    ("partition", "Partition.spacing_violations", "partition.spacing_violations", {}),
    ("bounds", "choose_params", "bounds.choose_params", {}),
    ("bounds", "main_bound", "bounds.main_bound", {}),
]

#: Per-layer metrics reported for every workload: (name, unit). Layers a
#: workload never enters report 0.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("arith.build_tables.s", "s"),
    ("arith.build_tables.entries", "count"),
    ("expsum.residue_weight_sums.s", "s"),
    ("expsum.residue_weight_sums.calls", "count"),
    ("expsum.residue_weight_sums.terms", "count"),
    ("expsum.rational_sum_from_residues.s", "s"),
    ("expsum.direct_sum.s", "s"),
    ("expsum.direct_sum.calls", "count"),
    ("expsum.direct_sum.terms", "count"),
    ("expsum.type_I_2.s", "s"),
    ("expsum.type_I_2.terms", "count"),
    ("expsum.type_I_1.s", "s"),
    ("expsum.type_I_1.terms", "count"),
    ("expsum.type_II.s", "s"),
    ("expsum.type_II.terms", "count"),
    ("expsum.h_only_sum.s", "s"),
    ("expsum.recombine.s", "s"),
    ("expsum.recombine.calls", "count"),
    ("expsum.recombine.budget_ratio_max", "ratio"),
    ("weights.WeightSystem.s", "s"),
    ("weights.h_float.s", "s"),
    ("weights.conv_theta_lambda.s", "s"),
    ("weights.h_mp.s", "s"),
    ("weights.mobius_partial.s", "s"),
    ("weights.mobius_partial.calls", "count"),
    ("identity.decompose_mangoldt.s", "s"),
    ("identity.decompose_mobius.s", "s"),
    ("identity.residual_report.s", "s"),
    ("identity.n_certified", "count"),
    ("audit.inequality_audit.s", "s"),
    ("audit.instances", "count"),
    ("partition.partition_primes.s", "s"),
    ("partition.partition_integers.s", "s"),
    ("partition.spacing_violations.s", "s"),
    ("partition.members", "count"),
    ("bounds.choose_params.s", "s"),
    ("bounds.choose_params.calls", "count"),
    ("bounds.main_bound.s", "s"),
    ("bounds.main_bound.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.covered_frac", "ratio"),
]

ROOT_SPAN = "pass"


class Tracer:
    """Span recorder for traced passes.

    A span is a list [name, start, end, parent, pass_id]; its index in
    ``spans`` is its id. Counts are kept per pass.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[Dict[str, float]] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, counters: Dict[str, Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    len(self.counts) - 1]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts = self.counts[-1]
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for metric, counter in counters.items():
                value = counter(args, kwargs, result)
                if metric.endswith("_max"):
                    counts[metric] = max(counts.get(metric, value), value)
                else:
                    counts[metric] = counts.get(metric, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Replace every TRACED function, wherever the kit holds it by name."""
        kit_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "expsum_kit" or n.startswith("expsum_kit.")]
        for module_name, path, span_name, counters in TRACED:
            module = importlib.import_module(f"expsum_kit.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, span_name, counters))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, span_name, counters)
            for mod in kit_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- passes ---------------------------------------------------------------

    def run_pass(self, body: Callable[[], object]):
        """Run body() under a root span; return (result, wall seconds)."""
        self.counts.append({})
        pass_id = len(self.counts) - 1
        sid = len(self.spans)
        root = [ROOT_SPAN, 0.0, 0.0, None, pass_id]
        self.spans.append(root)
        self._stack.append(sid)
        root[1] = time.perf_counter()
        try:
            result = body()
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
        return result, root[2] - root[1]


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans: List[list]) -> List[float]:
    """Duration minus the children's durations, per span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def nesting_errors(spans: List[list]) -> List[str]:
    """Spans that end before they start, leave their parent's interval,
    cross passes, or have negative self time."""
    errors = []
    for sid, s in enumerate(spans):
        if s[2] < s[1]:
            errors.append(f"span {sid} {s[0]} ends before it starts")
        parent = s[3]
        if parent is not None:
            p = spans[parent]
            if not (p[1] <= s[1] and s[2] <= p[2]):
                errors.append(f"span {sid} {s[0]} leaves parent {parent} {p[0]}")
            if p[4] != s[4]:
                errors.append(f"span {sid} {s[0]} crosses passes")
        elif s[0] != ROOT_SPAN:
            errors.append(f"span {sid} {s[0]} has no pass")
    for sid, t in enumerate(self_times(spans)):
        if t < 0:
            errors.append(f"span {sid} {spans[sid][0]} self time {t:.3e} < 0")
    return errors


def pass_breakdown(spans: List[list]) -> List[Dict[str, float]]:
    """Per pass: self time by span name, the pass wall, cli.self_s (the
    root span's self time: wall minus the outermost layer spans) and
    trace.covered_frac (the layer spans' self times over the wall).

    When spans nest, layer self times partition the outermost layer spans,
    so the two shares sum to 1.
    """
    own = self_times(spans)
    passes: Dict[int, Dict[str, float]] = {}
    for sid, s in enumerate(spans):
        row = passes.setdefault(s[4], {"covered": 0.0})
        if s[0] == ROOT_SPAN:
            row["wall"] = s[2] - s[1]
            row["cli.self_s"] = own[sid]
        else:
            row[s[0]] = row.get(s[0], 0.0) + own[sid]
            row["covered"] += own[sid]
    out = []
    for pass_id in sorted(passes):
        row = passes[pass_id]
        row["trace.covered_frac"] = row.pop("covered") / row["wall"]
        out.append(row)
    return out


def layer_metrics(tracer: Tracer, overhead_frac: float) -> Dict[str, float]:
    """Every LAYER_METRICS value: medians of per-pass self times, counts
    from the first traced pass; trace.overhead_frac as given."""
    rows = pass_breakdown(tracer.spans)
    counts = tracer.counts[0]
    out: Dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
        elif name in ("cli.self_s", "trace.covered_frac"):
            out[name] = statistics.median(r[name] for r in rows)
        elif name.endswith(".s"):
            out[name] = statistics.median(r.get(name[:-2], 0.0) for r in rows)
        else:
            out[name] = counts.get(name, 0)
    return out


def first_divergent_count(counts: List[Dict[str, float]]) -> Optional[str]:
    """Name of a count that differs between passes, or None."""
    for row in counts[1:]:
        for key in set(row) | set(counts[0]):
            if row.get(key) != counts[0].get(key):
                return key
    return None
