import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "expsum_kit"

# Public top-level names that no other definition in src, no benchmark file
# and no acceptance test reads: each is wired in by a ROADMAP item, or is a
# test oracle. A helper that only unit tests reach does not belong here.
UNREACHED = {
    "theorem_bound_components": "ROADMAP item 6: per-piece bounds in compare",
    "error_budget_report": "ROADMAP item 6: error_budget in bound",
    "gq_lower_bound_holds": "ROADMAP item 7: weights block of verify-identity",
    "lbsum_b_report": "ROADMAP item 7: weights block of verify-identity",
    "lbsum_c_report": "ROADMAP item 7: weights block of verify-identity",
    "thtsum_report": "ROADMAP item 7: weights block of verify-identity",
    "dirichlet_approx": "ROADMAP item 7: bound --alpha",
    "alternate_approx": "ROADMAP item 7: bound --alpha",
    "dirichlet_convolve": "test oracle: exact Dirichlet convolution",
    "unit_table": "test oracle: dirichlet_convolve operand",
    "mobius_table": "test oracle: dirichlet_convolve operand",
    "mangoldt_table": "test oracle: dirichlet_convolve operand",
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


def _public_definitions_and_reads():
    """(public top-level function and class names of src, the names every
    top-level statement of src reads apart from its own name)."""
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # a re-export is not a use
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            read |= _names_read(node) - {own}
    return defined, read


def test_every_public_definition_is_reached():
    defined, read = _public_definitions_and_reads()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= _names_read(ast.parse(path.read_text()), strings=True)
    read |= _names_read(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert sorted(defined - read) == sorted(UNREACHED)
