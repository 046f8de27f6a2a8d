"""The package namespace: ``hesschrom`` re-exports the public API of its
modules, loading it from ``_exports`` on the first access to a public
name, so that importing one module does not import every pipeline."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hesschrom

SRC = Path(hesschrom.__file__).parent.parent

PUBLIC = [
    "BettiVector", "BoundExceededError", "ClassFunction", "Composition",
    "DegreeMismatchError", "Digraph", "Graph", "HessenbergFunction",
    "InvalidCoverError", "NotSymmetricError", "OrderedPathCover", "Partition",
    "Permutation", "QSymElement", "Report", "TPoly", "Tableau",
    "admissible_tableaux", "betti_vector", "betti_vector_bruteforce",
    "betti_vectors", "c_coeffs",
    "c_via_path_covers", "cell_dimension", "check_palindromic", "chromatic_qsym",
    "chromatic_qsym_bruteforce", "complement", "compositions", "digraph",
    "dot_character", "e_positivity_report", "enumerate_hessenberg",
    "expand_in_basis", "f_to_m", "fixed_space_dims", "frobenius_image",
    "generator", "incomparability_graph", "irreducible_multiplicities",
    "is_palindromic", "is_symmetric", "kostka", "kostka_bruteforce", "m_to_f",
    "new_hessenberg", "omega", "omega_x_of", "ordered_path_covers", "partitions",
    "path_qsym", "path_qsym_bruteforce", "poset_relation", "quasi_shuffle",
    "schur_positivity_report", "stable_ordered_partitions", "staircase",
    "sw_inversions_of_cover", "sw_to_t_bijection", "t_inversions_of_cover",
    "to_m_basis", "unified_dimension", "verify_reciprocity", "verify_sw_betti",
    "weight", "x_of", "z_of",
]


def fresh_python(code, *args):
    """Run ``code`` with ``args`` in a new interpreter and return what it
    printed as JSON, so that nothing this test process imported is loaded
    there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_is_exactly_the_public_api():
    assert hesschrom.__all__ == PUBLIC
    assert not [n for n in PUBLIC if isinstance(getattr(hesschrom, n), types.ModuleType)]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hesschrom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[n] is getattr(hesschrom, n) for n in PUBLIC)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'hesschrom' has no attribute 'nope'"):
        hesschrom.nope
    with pytest.raises(AttributeError, match="module 'hesschrom' has no attribute '_nope'"):
        hesschrom._nope


def test_nothing_loads_until_a_public_name_is_used():
    out = fresh_python(
        "import json, sys\n"
        "import hesschrom, hesschrom.betti\n"
        "probed = hasattr(hesschrom, '__wrapped__')\n"
        "before = sorted(m for m in sys.modules if m.startswith('hesschrom.'))\n"
        "listed = dir(hesschrom)\n"
        "print(json.dumps([probed, before, listed]))\n"
    )
    probed, before, listed = out
    assert not probed
    assert before == ["hesschrom.base", "hesschrom.betti", "hesschrom.hessenberg"]
    assert set(PUBLIC) <= set(listed) and listed == sorted(listed)


def test_first_public_name_loads_the_whole_api_once():
    """Later names are plain attributes: a sweep that touched one public
    name before its timed loop pays no import inside it."""
    out = fresh_python(
        "import json, sys\n"
        "import hesschrom\n"
        "hesschrom.HessenbergFunction\n"
        "print(json.dumps([sorted(vars(hesschrom)), 'hesschrom.verify' in sys.modules]))\n"
    )
    bound, verify_loaded = out
    assert set(PUBLIC) <= set(bound) and verify_loaded


# Patch a pipeline function the way perfbench's tracer does: import every
# module, then rebind each attribute that holds the function.
PATCH = """
import contextlib, importlib, io, json, pkgutil, sys
import hesschrom

module, name, argv = json.loads(sys.argv[1])
for info in pkgutil.iter_modules(hesschrom.__path__):
    importlib.import_module(f"hesschrom.{info.name}")
original = getattr(sys.modules[f"hesschrom.{module}"], name)
calls = []

def wrapper(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)

for mod in list(sys.modules.values()):
    if mod.__name__.split(".")[0] == "hesschrom":
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
with contextlib.redirect_stdout(io.StringIO()):
    rc = hesschrom.cli.run(argv)
print(json.dumps([getattr(hesschrom, name) is wrapper, rc, len(calls)]))
"""


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("betti", "betti_vector", ["betti", "--m", "2,3,3", "--lambda", "2,1,1"]),
        ("pathqsym", "path_qsym", ["xi", "--edges", "1>2,2>3"]),
        ("chromatic", "chromatic_qsym", ["xg", "--m", "2,3", "--basis", "e"]),
        ("qsym", "omega", ["omega-xg", "--m", "2,3"]),
        ("character", "dot_character", ["character", "--m", "2,3", "--d", "1"]),
    ],
)
def test_patched_functions_are_what_the_package_and_cli_call(module, name, argv):
    package_sees_patch, rc, calls = fresh_python(PATCH, json.dumps([module, name, argv]))
    assert package_sees_patch and rc == 0 and calls == 1
