import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCH / "tracing.py"


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


def _kit_names_read(path):
    """Every (module, attribute) a bench file reads off an expsum_kit
    module, through `from expsum_kit import m` or
    `from expsum_kit.m import name`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "expsum_kit":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("expsum_kit.")):
            module = node.module.removeprefix("expsum_kit.")
            names.update((module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return names


def test_bench_api_names_resolve():
    # the workloads call the kit by name; a deletion or rename that one of
    # them still uses must fail here, not only in a bench run
    read = set().union(*(_kit_names_read(p) for p in sorted(BENCH.glob("*.py"))))
    assert {("arith", "build_tables"), ("cli", "main"),
            ("partition", "separation_bound")} <= read
    missing = sorted((m, a) for m, a in read
                     if not hasattr(importlib.import_module(f"expsum_kit.{m}"), a))
    assert missing == []
