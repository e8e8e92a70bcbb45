"""Every module-level function and class of the library has a caller outside
its own definition: the library itself, a script or the benchmark harness.
So does every method and dataclass field of a library class.  A second copy
of a concept, or a setting or record field, that only its own tests use
fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "epidiff"
LAYERS = ROOT / "perfbench" / "layers.py"

# Kept on purpose although nothing outside the tests calls them.
UNCALLED = {
    # the empirical proximal modulus, which ROADMAP item 8 turns into the
    # prox-regularity check or deletes
    "proximal_modulus_scan",
    # the paper's first-order and parabolic chain rules
    "subderivative_chain",
    "parabolic_chain",
    # the indicator of {0}, a catalog member that only the tests build so far
    "zero_set",
    # the oracle's stand-alone second-subderivative estimate; its library
    # callers read the level table it folds instead
    "estimate_second_subderivative",
}

# Class members kept on purpose although nothing in the sources reads them.
UNREAD = {
    # the tau-box enlargements that verify's report will print (ROADMAP item 4)
    "MultiplierSet.tau_enlargements",
    # the identity map, which the tests build problems from
    "PolyMap.identity",
    # argparse's own hook, which argparse calls on a bad argument
    "_Parser.error",
}


def _sources():
    """The library (its package re-exports aside), the scripts and the
    benchmark harness."""
    files = [p for p in LIBRARY.rglob("*.py") if p.name != "__init__.py"]
    return files + [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]


def _is_library_module(base: Path, parts) -> bool:
    target = base.joinpath(*parts)
    inside = target == LIBRARY or LIBRARY in target.parents
    return inside and (target.with_suffix(".py").is_file() or (target / "__init__.py").is_file())


def _module_aliases(path: Path, tree) -> set:
    """The names a file binds to library modules by its imports."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and _is_library_module(LIBRARY.parent, alias.name.split(".")):
                    aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = path.parents[node.level - 1]
            elif (node.module or "").split(".")[0] == LIBRARY.name:
                base = LIBRARY.parent
            else:
                continue
            parts = node.module.split(".") if node.module else []
            for alias in node.names:
                if _is_library_module(base, parts + [alias.name]):
                    aliases.add(alias.asname or alias.name)
    return aliases


def _definitions():
    names = set()
    for path in LIBRARY.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _references():
    """Bare names, `module.name` of an imported library module and string
    constants of the sources; a definition's mentions of its own name inside
    its body do not count."""
    found = set()
    for path in _sources():
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(path, tree)
        for stmt in tree.body:
            seen = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Name) and node.value.id in aliases:
                        seen.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.add(node.value)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen.discard(stmt.name)
            found |= seen
    return found


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _members():
    """"Class.name" of every method (dunders aside) and dataclass field of a
    library class."""
    members = set()
    for path in LIBRARY.rglob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        members.add(f"{cls.name}.{node.name}")
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if _is_dataclass(cls):
                        members.add(f"{cls.name}.{node.target.id}")
    return members


def _loads(node, owner=None, cls=None):
    """(name, owner) of every `obj.name` load under node, owner being the
    "Class.method" whose body holds it, or None."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cls is not None and owner is None:
        owner = f"{cls}.{node.name}"
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, owner
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, owner, cls)


def _member_is_read(member: str, loads, strings) -> bool:
    name = member.split(".", 1)[1]
    return name in strings or any(attr == name and owner != member for attr, owner in loads)


def test_every_library_definition_has_a_caller():
    assert _definitions() - _references() == UNCALLED


def test_every_method_and_field_is_read():
    loads = [load for path in _sources() for load in _loads(ast.parse(path.read_text()))]
    strings = {node.value for node in ast.walk(ast.parse(LAYERS.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = {m for m in _members() if not _member_is_read(m, loads, strings)}
    assert unread == UNREAD
