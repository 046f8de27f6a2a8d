"""Pipeline independence, enforced on the import graph.

The tableau pipeline (``betti``) and the qsym pipeline (``chromatic``,
``qsym``, ``pathqsym``, ``character``) share no code beyond ``base`` and
``hessenberg``; only ``verify`` compares them. Their agreement is then
evidence, not tautology.

A CLI request imports only its own pipeline, so a cold process pays
for nothing else; the subprocess tests below check what each subcommand
leaves in ``sys.modules``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hesschrom

PACKAGE = Path(hesschrom.__file__).parent
QSYM_PIPELINE = ("chromatic", "qsym", "pathqsym", "character")


def imported_modules(path, module_level=False):
    """The hesschrom modules a source file imports: anywhere in it, or
    with ``module_level`` only in its top-level import statements (not
    inside functions or ``if TYPE_CHECKING:``)."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in tree.body if module_level else ast.walk(tree):
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
    assert imported_modules(probe, module_level=True) == {
        "betti", "qsym", "chromatic", "hessenberg", "pathqsym"
    }


def test_chromatic_and_pathqsym_do_not_import_each_other():
    """Xi_{D(m)} = X_{G(m)} compares two engines that share no code."""
    assert "pathqsym" not in imported_modules(PACKAGE / "chromatic.py")
    assert "chromatic" not in imported_modules(PACKAGE / "pathqsym.py")


def test_pipelines_do_not_import_verify():
    """A pipeline never depends on the suites that compare it."""
    for name in ("betti",) + QSYM_PIPELINE:
        assert "verify" not in imported_modules(PACKAGE / f"{name}.py"), name


def test_cli_imports_only_base_and_hessenberg_at_module_level():
    assert imported_modules(PACKAGE / "cli.py", module_level=True) == {"base", "hessenberg"}


def modules_after(argv):
    """The hesschrom modules in ``sys.modules`` after one CLI request,
    run as ``python -m hesschrom.cli`` is, in a fresh process."""
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'hesschrom'\n"
        "try:\n"
        "    runpy.run_module('hesschrom.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(*sorted(name for name in sys.modules if name.startswith('hesschrom.')),"
        " file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent)] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("hesschrom.") for name in proc.stderr.split()}


TABLEAU_ONLY = {"chromatic", "qsym", "pathqsym", "character", "verify", "_exports"}


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["betti", "--m", "2,3,3", "--lambda", "2,1,1"], {"betti"}, TABLEAU_ONLY),
        (["enumerate", "--n", "4"], set(), TABLEAU_ONLY | {"betti"}),
        (
            ["xi", "--edges", "1>2,2>3", "--vertices", "4"],
            {"pathqsym", "qsym"},
            {"chromatic", "character", "betti", "verify", "_exports"},
        ),
        (
            ["xg", "--m", "2,3,3", "--basis", "M"],
            {"chromatic", "qsym"},
            {"pathqsym", "betti", "verify", "_exports"},
        ),
    ],
    ids=["betti", "enumerate", "xi", "xg"],
)
def test_cli_request_imports_only_its_pipeline(argv, used, unused):
    loaded = modules_after(argv)
    assert {"base", "hessenberg"} | used <= loaded
    assert not loaded & unused, sorted(loaded & unused)
