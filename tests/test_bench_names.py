import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # the bench tracer wraps these (module, attribute path) pairs by name;
    # a refactor that drops one must fail here, not in a traced bench run
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, path, span_name, _ in tracing.TRACED:
        owner = importlib.import_module(f"expsum_kit.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), (module_name, path)
            owner = getattr(owner, attr)
        assert callable(owner), span_name


# (module, function, parameter, index): the arguments the bench tracer's
# counters read by position when a caller passes them positionally
POSITIONAL_READS = [
    ("arith", "build_tables", "n_max", 0),
    ("expsum", "residue_weight_sums", "x", 2),
    ("expsum", "recombine", "x", 2),
    ("expsum", "recombine", "tol", 5),
]


def test_traced_positional_reads_hold():
    # a signature that moves one of these would break only a traced bench run
    for module_name, name, param, index in POSITIONAL_READS:
        fn = getattr(importlib.import_module(f"expsum_kit.{module_name}"), name)
        params = list(inspect.signature(fn).parameters)
        assert len(params) > index and params[index] == param, (name, params)
