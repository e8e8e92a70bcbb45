"""Every module-level function and class of the library has a caller outside
its own definition: the library itself, a script or the benchmark harness.
A second copy of a concept that only its own tests call fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "epidiff"

# Kept on purpose although nothing outside the tests calls them.
UNCALLED = {
    # the reference curves of the oracle's lower-bound law (ROADMAP item 8)
    "delta2_quotient",
    "proximal_modulus_scan",
    # the paper's first-order and parabolic chain rules
    "subderivative_chain",
    "parabolic_chain",
    # the indicator of {0}, a catalog member that only the tests build so far
    "zero_set",
}


def _definitions():
    names = set()
    for path in LIBRARY.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _references():
    """Names, attributes and string constants of the library (its package
    re-exports aside), the scripts and the benchmark harness; a definition's
    mentions of its own name inside its body do not count."""
    files = [p for p in LIBRARY.rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    found = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            seen = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.add(node.value)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen.discard(stmt.name)
            found |= seen
    return found


def test_every_library_definition_has_a_caller():
    assert _definitions() - _references() == UNCALLED
