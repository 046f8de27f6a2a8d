"""Pipeline independence, enforced on the import graph.

The tableau pipeline (``betti``) and the qsym pipeline (``chromatic``,
``qsym``, ``pathqsym``, ``character``) share no code beyond ``base`` and
``hessenberg``; only ``verify`` compares them. Their agreement is then
evidence, not tautology.
"""

import ast
from pathlib import Path

import hesschrom

PACKAGE = Path(hesschrom.__file__).parent
QSYM_PIPELINE = ("chromatic", "qsym", "pathqsym", "character")


def imported_modules(path):
    """The hesschrom modules a source file imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "hesschrom" if node.level == 1 else (node.module or "")
            if node.level == 1 and node.module:
                base += "." + node.module
            names = [base] if "." in base else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "hesschrom" and len(parts) > 1:
                out.add(parts[1])
    return out


def test_betti_imports_only_base_and_hessenberg():
    assert imported_modules(PACKAGE / "betti.py") == {"base", "hessenberg"}


def test_qsym_pipeline_does_not_import_betti():
    for name in QSYM_PIPELINE:
        assert "betti" not in imported_modules(PACKAGE / f"{name}.py"), name


def test_every_import_form_is_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import itertools\n"
        "from .betti import x\n"
        "from . import qsym\n"
        "from hesschrom.chromatic import y\n"
        "from hesschrom import hessenberg\n"
        "import hesschrom.pathqsym\n"
        "def f():\n"
        "    from .character import z\n"
    )
    assert imported_modules(probe) == {
        "betti", "qsym", "chromatic", "hessenberg", "pathqsym", "character"
    }


def test_chromatic_and_pathqsym_do_not_import_each_other():
    """Xi_{D(m)} = X_{G(m)} compares two engines that share no code."""
    assert "pathqsym" not in imported_modules(PACKAGE / "chromatic.py")
    assert "chromatic" not in imported_modules(PACKAGE / "pathqsym.py")


def test_pipelines_do_not_import_verify():
    """A pipeline never depends on the suites that compare it."""
    for name in ("betti",) + QSYM_PIPELINE:
        assert "verify" not in imported_modules(PACKAGE / f"{name}.py"), name
