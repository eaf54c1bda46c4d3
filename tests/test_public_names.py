"""Every public name of the package, and every member of a public class,
has a reader in the package."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from stokesdarcy.cli import DEFAULTS, SCHEMA

SRC = Path(__file__).resolve().parents[1] / "src" / "stokesdarcy"

#: Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY = {
    "build_rect_mesh": "uniform meshes for the manufactured-solution checks",
    "l2_error": "region error norm of the manufactured-solution and FEM tests",
    "l2_norm": "region norm of the quadrature tests; compare_solutions reuses its kernel",
    "monolithic_solve": "independent direct-solve oracle of the interface solver",
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


#: Defaulted parameters that no caller in the package passes, each with
#: the reason it stays.
TEST_ONLY_DEFAULTS = {
    "main(argv)": "argument list of the CLI tests; the console script passes none",
    "build_rect_mesh(order)": "Q2 meshes of the manufactured-solution checks",
    "l2_error(n_gauss)": "quadrature order of the manufactured-solution checks",
    "l2_error(align_mean)": "pressure-level alignment of the manufactured-solution "
    "checks",
    "assemble_darcy(source)": "mass source of the manufactured Darcy solution",
}


def _defaulted(tree):
    """Defaulted parameters of the module's functions and methods.

    Yields ``(label, function, parameter, position)``: ``label`` reads
    ``function(parameter)`` or ``Class.method(parameter)``, and
    ``position`` is the parameter's place among the positional
    arguments of a call (``self`` not counted), None if keyword-only.
    ``__init__`` is left out, since it is called through its class's
    name, and so are dataclass fields.
    """
    functions = [(None, node) for node in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(cls.name, node) for node in cls.body]
    for cls, node in functions:
        if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        method = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        params = [
            (arg.arg, i - method)
            for i, arg in enumerate(positional)
            if i >= len(positional) - len(args.defaults)
        ]
        params += [
            (arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        owner = f"{cls}." if cls else ""
        for name, position in params:
            yield f"{owner}{node.name}({name})", node.name, name, position


def _passes(call, name, position) -> bool:
    """Whether a call passes the parameter ``name`` at ``position``; a
    call that unpacks ``*args`` or ``**kwargs`` may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return True
    if any(k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_in_src():
    """A parameter with a default counts as used when a call in
    ``src/`` to a function of its function's name passes it, by keyword
    or by position.  Like the member check, it goes by name."""
    trees = _trees()
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = sorted(
        label
        for tree in trees
        for label, function, name, position in _defaulted(tree)
        if not any(_passes(c, name, position) for c in calls.get(function, []))
    )
    assert unpassed == sorted(TEST_ONLY_DEFAULTS)


def test_every_config_key_is_read():
    """Every key of ``cli.SCHEMA`` is read in ``cli.py``, as
    ``config[key]`` or ``config.get(key, ...)`` with a literal name."""
    tree = ast.parse((SRC / "cli.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if getattr(owner, "id", None) == "config" and isinstance(key, ast.Constant):
            read.add(key.value)
    assert read == {k for keys in SCHEMA.values() for k in keys}


def test_config_keys_are_flat():
    """``cli.RunConfig`` keys values by key name alone: no key name is
    in two sections of ``cli.SCHEMA``, and every default is a key."""
    names = Counter(k for keys in SCHEMA.values() for k in keys)
    assert [k for k, n in names.items() if n > 1] == []
    assert set(DEFAULTS) <= set(names)
