"""The package holds what a command runs: no optional dependency, no name
that only the tests call (their references live in ``tests/reference.py``)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expprod"


def _names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` reads, imports or takes as an attribute,
    outside the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _library_layout() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]


def test_no_package_module_mentions_scipy():
    assert [p.name for p in PACKAGE.glob("*.py") if "scipy" in p.read_text()] == []


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    # the bench reads some names only as the strings of its traced calls
    outside = set()
    for path in [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        outside |= set(re.findall(r"\w+", path.read_text()))
    named = set(re.findall(r"\w+", _library_layout()))
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            in_src = any(node.name in _names_read(other, skip=node)
                         for other in modules.values())
            if not (in_src or node.name in outside or node.name in named):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
