"""No dead private code: every private top-level function or class in the
package is referenced somewhere in it, outside its own definition."""

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


def unreferenced_private_defs(paths):
    """(file name, def name) of each private top-level function or class
    that no code in paths refers to outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if total[name] == referenced_names(node)[name]:
                dead.append((path.name, name))
    return dead


def test_no_private_def_is_dead():
    assert unreferenced_private_defs(sorted(PACKAGE.glob("*.py"))) == []


def test_dead_and_self_referencing_defs_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
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
        "@_decorator\n"
        "def public():\n"
        "    return _used()\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from .probe import _imported_elsewhere\n")
    assert unreferenced_private_defs([probe, other]) == [
        ("probe.py", "_recursive"),
        ("probe.py", "_Unused"),
    ]
