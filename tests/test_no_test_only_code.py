"""Every function, class and method defined in src/ has a caller outside the
tests: a reference in src/ outside its own definition, or one in scripts/
or perfbench/, where the (module, function) names the benchmark traces
count too.  Re-exports in the package's __init__ do not count.  Names are
matched as identifiers, so a local variable of the same name also counts;
the guard catches a name that no code outside tests mentions at all."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expander_forge"


def _definitions(tree):
    """The module-level functions and classes of tree, and the methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _references(node, inside=()):
    """(identifier, enclosing definitions) of each name and attribute read
    below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield child.id, inside
        elif isinstance(child, ast.Attribute):
            yield child.attr, inside
        nested = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _references(child, inside + (child,) if nested else inside)


def _traced_names(tree):
    """The function names of the benchmark's TRACED table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return {function for _, function in ast.literal_eval(node.value)}
    return set()


def test_no_definition_in_src_is_referenced_only_by_tests():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = set()
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= {name for name, _ in _references(tree)} | _traced_names(tree)
    src_refs = [ref for path, tree in modules.items() if path.name != "__init__.py"
                for ref in _references(tree)]
    unused = []
    for path, tree in modules.items():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in outside:
                continue
            if not any(ref == name and node not in inside for ref, inside in src_refs):
                unused.append(f"{path.name}: {name}")
    assert not unused, "defined in src/ but referenced only by tests: " + ", ".join(unused)
