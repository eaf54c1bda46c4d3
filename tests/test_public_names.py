"""Every public top-level name of the package has a caller in the package."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stokesdarcy"

#: Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY = {
    "build_rect_mesh": "uniform meshes for the manufactured-solution checks",
    "l2_error": "region error norm of the manufactured-solution and FEM tests",
    "l2_norm": "region norm of the quadrature tests; compare_solutions reuses its kernel",
    "monolithic_solve": "independent direct-solve oracle of the interface solver",
    "read_csv": "reads the CLI outputs back in the output tests",
}


def _definitions(tree):
    """Public module-level functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _referenced(tree, skip) -> set[str]:
    """Identifiers used in ``tree`` outside the subtree ``skip``."""
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def test_every_public_name_is_used_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unused = sorted(
        name
        for tree in trees
        for name, node in _definitions(tree)
        if not any(name in _referenced(other, node) for other in trees)
    )
    assert unused == sorted(TEST_ONLY)
