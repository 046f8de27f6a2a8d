"""No dead code: every top-level function or class in the package is
referenced somewhere in it, outside its own definition.  For a public name
the export list ``_exports.py`` counts as a reference, and so does a
decorator that registers it in a table, as ``@_suite`` puts each suite in
``verify.SUITES``."""

import ast
from collections import Counter
from pathlib import Path

import hesschrom

PACKAGE = Path(hesschrom.__file__).parent


def referenced_names(node):
    """Names a syntax tree reads or imports, with multiplicity."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def registrars(tree):
    """The top-level functions of a module that store into one of its
    module-level tables, as ``_suite`` stores each suite in ``SUITES``."""
    tables = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Subscript)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in tables
            for sub in ast.walk(node)
        )
    }


def unreferenced_defs(paths, private=True):
    """(file name, def name) of each private (or public) top-level function
    or class that no code in paths refers to outside the definition itself
    and, if public, that no decorator of its module registers."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        registering = registrars(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name.startswith("_") != private:
                continue
            if any(isinstance(d, ast.Name) and d.id in registering for d in node.decorator_list):
                continue
            if total[name] == referenced_names(node)[name]:
                dead.append((path.name, name))
    return dead


def test_no_private_def_is_dead():
    assert unreferenced_defs(sorted(PACKAGE.glob("*.py"))) == []


def test_no_public_def_is_dead():
    """A public name is exported, called inside the package or registered."""
    assert unreferenced_defs(sorted(PACKAGE.glob("*.py")), private=False) == []


def test_dead_and_self_referencing_defs_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "TABLE = {}\n"
        "def _used():\n"
        "    return 1\n"
        "def _imported_elsewhere():\n"
        "    return 2\n"
        "def _recursive(k):\n"
        "    return _recursive(k - 1) if k else 0\n"
        "class _Unused:\n"
        "    pass\n"
        "def _decorator(fn):\n"
        "    return fn\n"
        "def _register(fn):\n"
        "    TABLE[fn.__name__] = fn\n"
        "    return fn\n"
        "@_decorator\n"
        "def public():\n"
        "    return _used()\n"
        "@_register\n"
        "def registered():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "class Helper:\n"
        "    def method(self):\n"
        "        return called()\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from .probe import _imported_elsewhere, exported\n")
    assert unreferenced_defs([probe, other]) == [
        ("probe.py", "_recursive"),
        ("probe.py", "_Unused"),
    ]
    assert unreferenced_defs([probe, other], private=False) == [
        ("probe.py", "public"),
        ("probe.py", "Helper"),
    ]
