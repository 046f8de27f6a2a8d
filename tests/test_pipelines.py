"""Pipeline independence, enforced on the import graph.

The tableau pipeline (``betti``) and the qsym pipeline (``chromatic``,
``qsym``, ``sym``, ``pathqsym``, ``pathcovers``, ``character`` and the
``oracles`` that check them) share no code beyond ``base`` and
``hessenberg``; only ``verify`` compares them.  Their agreement is then
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
QSYM_PIPELINE = ("chromatic", "qsym", "sym", "pathqsym", "pathcovers", "character", "oracles")


def imported_names(path, module_level=False):
    """The absolute dotted names a source file imports: anywhere in it, or
    with ``module_level`` only in its top-level import statements (not
    inside functions or ``if TYPE_CHECKING:``)."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "hesschrom" if node.level == 1 else (node.module or "")
            if node.level == 1 and node.module:
                base += "." + node.module
            if "." in base:
                out.add(base)
            else:
                out.update(f"{base}.{a.name}" for a in node.names)
    return out


def imported_modules(path, module_level=False):
    """The hesschrom modules among ``imported_names``, by short name."""
    out = set()
    for name in imported_names(path, module_level):
        parts = name.split(".")
        if parts[0] == "hesschrom" and len(parts) > 1:
            out.add(parts[1])
    return out


def test_betti_imports_only_base_and_hessenberg():
    assert imported_modules(PACKAGE / "betti.py") == {"base", "hessenberg"}


def test_qsym_pipeline_does_not_import_betti():
    for name in QSYM_PIPELINE:
        assert "betti" not in imported_modules(PACKAGE / f"{name}.py"), name


def top_level_defs(path):
    """The names of the functions and classes a source file defines at
    module level."""
    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


BRIDGE = {"t_inversions_of_cover", "sw_inversions_of_cover", "sw_to_t_bijection"}


def test_the_bridge_lives_in_verify_and_the_rules_in_betti():
    """The SW-to-T bijection applies the tableau pipeline's inversion rules
    to path covers, so no qsym-pipeline module may hold it; the rules have
    one definition, in ``betti``."""
    for name in QSYM_PIPELINE:
        assert not top_level_defs(PACKAGE / f"{name}.py") & BRIDGE, name
    assert BRIDGE <= top_level_defs(PACKAGE / "verify.py")
    rules = {"t_inversions", "reading_inversions"}
    for path in sorted(PACKAGE.glob("*.py")):
        defined = top_level_defs(path) & rules
        assert defined == (rules if path.name == "betti.py" else set()), path.name


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
    assert {name.split(".")[0] for name in imported_names(probe)} == {"itertools", "hesschrom"}


def test_no_module_imports_dataclasses():
    """Value types are hand-written and slotted: importing ``dataclasses``
    (and the ``inspect`` it loads) would cost every cold request."""
    for path in sorted(PACKAGE.glob("*.py")):
        tops = {name.split(".")[0] for name in imported_names(path)}
        assert "dataclasses" not in tops, path.name


def test_base_does_not_import_fractions():
    """Only a p expansion with a remainder, a character solve or an
    oracle makes a Fraction; ``base`` is imported by all."""
    assert not {n for n in imported_names(PACKAGE / "base.py") if n.split(".")[0] == "fractions"}


def test_chromatic_and_pathqsym_do_not_import_each_other():
    """Xi_{D(m)} = X_{G(m)} compares two engines that share no code."""
    assert "pathqsym" not in imported_modules(PACKAGE / "chromatic.py")
    assert "pathcovers" not in imported_modules(PACKAGE / "chromatic.py")
    assert "chromatic" not in imported_modules(PACKAGE / "pathqsym.py")
    assert "chromatic" not in imported_modules(PACKAGE / "pathcovers.py")


def test_path_dp_imports_only_what_an_xi_request_runs():
    """The explicit path covers and their oracle live in ``pathcovers``,
    and the partition-space layer in ``sym``: an ``xi`` request compiles
    neither."""
    assert imported_modules(PACKAGE / "pathqsym.py") == {"base", "hessenberg", "qsym"}
    assert imported_modules(PACKAGE / "qsym.py", module_level=True) == {"base"}


def test_only_verify_and_exports_import_the_oracles():
    """The brute-force oracles are off every request's path: no module a
    CLI request can load imports them."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("verify", "_exports"):
            assert "oracles" not in imported_modules(path), path.name
    assert "oracles" in imported_modules(PACKAGE / "verify.py", module_level=True)
    assert "oracles" in imported_modules(PACKAGE / "_exports.py", module_level=True)


def test_pipelines_do_not_import_verify():
    """A pipeline never depends on the suites that compare it."""
    for name in ("betti",) + QSYM_PIPELINE:
        assert "verify" not in imported_modules(PACKAGE / f"{name}.py"), name


def test_cli_imports_only_base_and_hessenberg_at_module_level():
    assert imported_modules(PACKAGE / "cli.py", module_level=True) == {"base", "hessenberg"}


def modules_after(argv):
    """The modules in ``sys.modules`` after one CLI request, run as
    ``python -m hesschrom.cli`` is, in a fresh process: the hesschrom
    modules by short name, and every other module by full name."""
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'hesschrom'\n"
        "try:\n"
        "    runpy.run_module('hesschrom.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent)] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.split()
    package = {name.removeprefix("hesschrom.") for name in loaded if name.startswith("hesschrom.")}
    return package, {name for name in loaded if name.split(".")[0] != "hesschrom"}


TABLEAU_ONLY = {
    "chromatic", "qsym", "sym", "pathqsym", "pathcovers", "character", "oracles", "verify",
    "_exports",
}
# Standard-library modules no request below needs: the value types are not
# dataclasses, only a p expansion with a remainder or a character makes a
# Fraction, and the CLI reads argv without argparse (and the gettext and
# locale it loads).
NOT_NEEDED = {"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale"}
# What an xg or omega-xg request never loads, in any basis.
NOT_XG = {"pathqsym", "pathcovers", "character", "betti", "oracles", "verify", "_exports"}


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["betti", "--m", "2,3,3", "--lambda", "2,1,1"], {"betti"}, TABLEAU_ONLY),
        (["enumerate", "--n", "4"], set(), TABLEAU_ONLY | {"betti"}),
        (
            ["xi", "--edges", "1>2,2>3", "--vertices", "4"],
            {"pathqsym", "qsym"},
            {"chromatic", "sym", "pathcovers", "character", "betti", "oracles", "verify",
             "_exports"},
        ),
        (["xg", "--m", "2,3,3", "--basis", "M"], {"chromatic", "qsym"}, NOT_XG | {"sym"}),
        (["omega-xg", "--m", "2,3,3", "--basis", "m"], {"chromatic", "qsym"}, NOT_XG | {"sym"}),
        (["xg", "--m", "2,3,3", "--basis", "e"], {"chromatic", "qsym", "sym"}, NOT_XG),
        (["xg", "--m", "2,3,4,4", "--basis", "h"], {"chromatic", "qsym", "sym"}, NOT_XG),
        (["xg", "--m", "2,3,3", "--basis", "s"], {"chromatic", "qsym", "sym"}, NOT_XG),
        (["omega-xg", "--m", "3,3,4,5", "--basis", "e"], {"chromatic", "qsym", "sym"}, NOT_XG),
    ],
    ids=["betti", "enumerate", "xi", "xg", "omega-xg", "xg-e", "xg-h", "xg-s", "omega-xg-e"],
)
def test_cli_request_imports_only_its_pipeline(argv, used, unused):
    loaded, stdlib = modules_after(argv)
    assert {"base", "hessenberg"} | used <= loaded
    assert not loaded & unused, sorted(loaded & unused)
    assert not stdlib & NOT_NEEDED, sorted(stdlib & NOT_NEEDED)


def test_a_text_request_does_not_load_json():
    """Only ``--json`` prints a document, so only it imports ``json``."""
    argv = ["betti", "--m", "2,3", "--lambda", "2,1"]
    assert "json" not in modules_after(argv)[1]
    assert "json" in modules_after(argv + ["--json"])[1]


def test_xi_request_loads_only_the_path_dp():
    loaded, _ = modules_after(["xi", "--edges", "1>2,2>1,2>3", "--stat", "des"])
    assert loaded == {"base", "hessenberg", "pathqsym", "qsym"}


def test_basis_solve_loads_fractions():
    """The other side of ``NOT_NEEDED``: a p-basis request divides by
    z_lambda, leaves remainders and needs ``fractions`` and the
    partition-space layer ``sym``, so the subprocess check sees both kinds
    of module."""
    loaded, stdlib = modules_after(["xg", "--m", "2,3,3", "--basis", "p"])
    assert {"chromatic", "qsym", "sym"} <= loaded
    assert not loaded & NOT_XG
    assert {"fractions", "decimal"} <= stdlib
    assert not stdlib & {"dataclasses", "inspect"}
