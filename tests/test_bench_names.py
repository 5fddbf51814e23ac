import importlib
import importlib.util
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
