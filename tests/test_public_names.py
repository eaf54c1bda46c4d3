"""Every public name of the package, and every member of a public class,
has a reader in the package."""

from __future__ import annotations

import ast
from collections import Counter
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

#: Class members whose only readers are tests, each with the reason it stays.
TEST_ONLY_MEMBERS = {
    "IcddProblem.n_g": "interface size of the acceptance gate on iteration counts",
    "IcddResult.dual_velocity": "auxiliary-solution norm of the acceptance gate "
    "on interface convergence",
    "IcddResult.dual_pressure": "auxiliary-solution norm of the acceptance gate "
    "on interface convergence",
}


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


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
    trees = _trees()
    unused = sorted(
        name
        for tree in trees
        for name, node in _definitions(tree)
        if not any(name in _referenced(other, node) for other in trees)
    )
    assert unused == sorted(TEST_ONLY)


def _members(tree):
    """Public members of the public classes of a module.

    Yields ``(class, member, node)`` for every public method and
    property, every field of a dataclass (an annotated name in the class
    body) and every attribute set on ``self`` in ``__init__``; ``node``
    is the member's definition.
    """
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    yield cls.name, node.name, node
                if node.name != "__init__":
                    continue
                for stmt in ast.walk(node):
                    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                    for t in targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            and not t.attr.startswith("_")
                        ):
                            yield cls.name, t.attr, stmt
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if not node.target.id.startswith("_"):
                    yield cls.name, node.target.id, node


def _reads(node) -> Counter:
    """Attribute names read (``ast.Load``) inside ``node``."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_every_class_member_is_read_in_src():
    """A public member counts as used when an attribute of its name is
    read somewhere in ``src/`` outside its own definition.

    The check goes by name, not by type: a member whose name another
    class also uses passes on the other's readers (for example a
    ``velocity`` method of one class next to a ``velocity`` attribute
    of another), so it catches only members with unique names.
    """
    trees = _trees()
    reads = sum((_reads(tree) for tree in trees), Counter())
    unread = sorted(
        f"{cls}.{name}"
        for tree in trees
        for cls, name, node in _members(tree)
        if reads[name] - _reads(node)[name] == 0
    )
    assert unread == sorted(TEST_ONLY_MEMBERS)
