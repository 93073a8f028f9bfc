"""Every public module-level function and class of canonfn has a caller.

A name has a caller when something other than its own definition and the
package __init__ refers to it: a name, an attribute or an import in a
module of the package, in tests/test_acceptance.py or in perfbench/, a
string in perfbench/ (its tracer binds functions by name), or a word of
README.md.  Unit tests do not count: a name only they reach is machinery
without a caller.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "canonfn"

# Public names kept without a caller, one reason each.
ALLOWED = {
    "formats.dump_function_table": "writes the tables that `check --f table:<file>` "
                                   "reads; `canonize --out` is to call it (ROADMAP item 6)",
}


def _references(tree: ast.AST, strings: bool, skip: ast.AST | None = None) -> set[str]:
    """Names the tree refers to, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _callerless() -> list[str]:
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set(_references(_parse(ROOT / "tests" / "test_acceptance.py"), strings=False))
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(_parse(p), strings=True)
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    found = []
    for path, tree in modules.items():
        others = set(readme) | outside
        for other, other_tree in modules.items():
            if other != path:
                others |= _references(other_tree, strings=False)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in others:
                continue
            if node.name not in _references(tree, strings=False, skip=node):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_public_name_has_a_caller():
    # Equality, not inclusion: an allowed name that gains a caller leaves
    # the list.
    assert sorted(_callerless()) == sorted(ALLOWED)
