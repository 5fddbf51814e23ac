import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "expsum_kit"

# Public top-level names that no other definition in src, no benchmark file
# and no acceptance test reads: each is wired in by a ROADMAP item. A
# helper that only unit tests reach does not belong here; a test oracle
# lives under tests (oracles.py).
UNREACHED = {
    "theorem_bound_components": "ROADMAP item 6: per-piece bounds in compare",
    "gq_lower_bound_holds": "ROADMAP item 7: weights block of verify-identity",
    "lbsum_b_report": "ROADMAP item 7: weights block of verify-identity",
    "lbsum_c_report": "ROADMAP item 7: weights block of verify-identity",
    "thtsum_report": "ROADMAP item 7: weights block of verify-identity",
    "dirichlet_approx": "ROADMAP item 7: bound --alpha",
    "alternate_approx": "ROADMAP item 7: bound --alpha",
}


def _names_read(tree, strings=False):
    """Every Name and attribute name in tree; with strings, also each
    dotted part of a string constant (the bench tracer names its targets
    as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


# Public methods (Class.name) that no other definition in src, no benchmark
# file and no acceptance test reads by name, tagged the same way.
UNREACHED_METHODS = {
    "ComponentReport.consistency_ratio_mangoldt": "ROADMAP item 6: bounds block of compare",
    "ComponentReport.consistency_ratio_mobius": "ROADMAP item 6: bounds block of compare",
    "WeightSystem.lambda_findings": "ROADMAP item 7: weights block of verify-identity",
}


def _public_definitions_and_reads():
    """(public top-level function and class names of src, their public
    methods as Class.name, the names every top-level statement and every
    class-body statement of src reads apart from its own name)."""
    defined, methods, read = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # a re-export is not a use
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            if not isinstance(node, ast.ClassDef):
                read |= _names_read(node) - {own}
                continue
            for part in node.decorator_list + node.bases + node.keywords:
                read |= _names_read(part)
            for item in node.body:
                name = getattr(item, "name", None)
                if isinstance(item, ast.FunctionDef) and not name.startswith("_"):
                    methods.add(f"{own}.{name}")
                read |= _names_read(item) - {own, name}
    return defined, methods, read


def _outside_reads():
    """The names the benchmark files and the acceptance tests read."""
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= _names_read(ast.parse(path.read_text()), strings=True)
    read |= _names_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    return read


def test_every_public_definition_is_reached():
    defined, _, read = _public_definitions_and_reads()
    read |= _outside_reads()
    assert sorted(defined - read) == sorted(UNREACHED)


def test_every_public_method_is_reached():
    # a method is read as an attribute, so only its name can be matched
    _, methods, read = _public_definitions_and_reads()
    read |= _outside_reads()
    unreached = {m for m in methods if m.split(".")[1] not in read}
    assert sorted(unreached) == sorted(UNREACHED_METHODS)


# Defaulted parameters of public src functions and methods that no call in
# src, no benchmark file and no acceptance test passes, by position or by
# keyword. A default that only unit tests change is an option with one
# value in use: it belongs in the body as a constant, or here with a reason.
UNPASSED_DEFAULTS = {
    "recombine.tol": "the bench tracer reads argument 5 (test_bench_names pins it)",
    "theorem_bound_components.require_flags": "ROADMAP item 6: compare passes False",
}


def _defaulted_parameters():
    """{"[Class.]function.param": (callee name, positional slot, param)} for
    each defaulted parameter of a public function of src, or of a public
    method of a public class; a method's slot skips self, and a
    keyword-only parameter's slot is inf."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owned = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                owned = [(f"{node.name}.{item.name}", item, 1) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qual, fn, skip in owned:
                if fn.name.startswith("_"):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for slot, arg in enumerate(positional[first:], first):
                    out[f"{qual}.{arg.arg}"] = (fn.name, slot - skip, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[f"{qual}.{arg.arg}"] = (fn.name, math.inf, arg.arg)
    return out


def _calls_by_name():
    """{callee name: [(positional argument count, inf with a *splat;
    keyword names, with None for a **splat)]} over every call in src, the
    benchmark files and the acceptance tests."""
    paths = (sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            out.setdefault(name, []).append((n, {k.arg for k in node.keywords}))
    return out


def test_every_default_is_passed_outside_unit_tests():
    calls = _calls_by_name()
    unpassed = {key for key, (name, slot, param) in _defaulted_parameters().items()
                if not any(n > slot or param in kws or None in kws
                           for n, kws in calls.get(name, []))}
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


# Parameters of src functions and methods that their body never reads, each
# kept for a caller. Any other unread parameter is dead input: it goes, or
# it is read.
UNREAD_PARAMETERS = {
    "Decomposition.max_residual.tables": "test_acceptance passes it",
    "separation_bound.tables": "perfbench/workloads.py passes three arguments",
    "partition_integers.tables": "the bench and the acceptance tests call it "
                                 "as they call partition_primes",
}


def _functions(node, prefix=""):
    """("[Class.][outer.]name", node) for each function and method below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def test_every_parameter_is_read():
    # a nested function's body is part of its enclosing body, so a
    # parameter that only a closure reads counts as read
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for qual, fn in _functions(ast.parse(path.read_text())):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unread |= {f"{qual}.{a.arg}" for a in params if a.arg not in read}
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)
