"""The package namespace: ``hesschrom`` re-exports the public API of its
modules, loading it from ``_exports`` on the first access to a public
name, so that importing one module does not import every pipeline."""

import json
import os
import pydoc
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import hesschrom
from hesschrom import character
from hesschrom.base import BoundExceededError, Composition, Partition
from hesschrom.hessenberg import HessenbergFunction, digraph, incomparability_graph

SRC = Path(hesschrom.__file__).parent.parent

PUBLIC = [
    "BoundExceededError", "ClassFunction", "Composition",
    "DegreeMismatchError", "Digraph", "Graph", "HessenbergFunction",
    "HessenbergValidationError", "IntegralityError",
    "InvalidCoverError", "NotSymmetricError", "OrderedPathCover", "Partition",
    "Permutation", "QSymElement", "Report", "TPoly", "Tableau",
    "admissible_tableaux", "betti_vector", "betti_vector_bruteforce",
    "betti_vectors",
    "c_via_path_covers", "cell_dimension", "check_palindromic", "chromatic_qsym",
    "chromatic_qsym_bruteforce", "complement", "compositions", "contract_to_m",
    "cover_paths",
    "digraph",
    "dot_character", "e_positivity_report", "enumerate_hessenberg",
    "expand_in_basis", "f_to_m", "fixed_space_dims", "frobenius_image",
    "generator", "incomparability_graph", "irreducible_multiplicities",
    "is_symmetric", "kostka", "kostka_bruteforce", "m_to_f",
    "omega", "omega_x_of", "ordered_path_covers", "partitions",
    "path_qsym", "path_qsym_bruteforce", "poset_relation", "quasi_shuffle",
    "reading_inversions", "schur_positivity_report", "stable_ordered_partitions",
    "staircase", "sw_inversions_of_cover", "sw_to_t_bijection", "t_inversions",
    "t_inversions_of_cover",
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


def test_errors_of_public_functions_are_caught_by_their_public_names(monkeypatch):
    try:
        hesschrom.HessenbergFunction(3, (2, 1))
    except hesschrom.HessenbergValidationError as err:
        assert err.index == 2
    else:
        pytest.fail("m_2 = 1 < 2 is not a Hessenberg function")
    monkeypatch.setattr(
        character, "_solve_exact", lambda matrix, rhs: [Fraction(1, 7)] * len(rhs)
    )
    try:
        hesschrom.dot_character(HessenbergFunction(3, (2, 3)), 1)
    except hesschrom.IntegralityError as err:
        assert str(err).startswith("chi([3]): non-integral value ")
    else:
        pytest.fail("a solve of sevenths is not integral")


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


# Every exponential entry point, with arguments whose size n is 3.
M3 = HessenbergFunction(3, (2, 3))
LAM3 = Partition((2, 1))
GUARDED = [
    ("admissible_tableaux", (M3, LAM3)),
    ("betti_vector", (M3, LAM3)),
    ("betti_vectors", (M3,)),
    ("betti_vector_bruteforce", (M3, LAM3)),
    ("check_palindromic", (M3, LAM3)),
    ("x_of", (M3,)),
    ("omega_x_of", (M3,)),
    ("dot_character", (M3, 1)),
    ("fixed_space_dims", (M3, 1)),
    ("irreducible_multiplicities", (M3, 1)),
    ("e_positivity_report", (M3,)),
    ("schur_positivity_report", (M3,)),
    ("stable_ordered_partitions", (incomparability_graph(M3),)),
    ("chromatic_qsym", (incomparability_graph(M3),)),
    ("chromatic_qsym_bruteforce", (incomparability_graph(M3),)),
    ("path_qsym", (digraph(M3),)),
    ("ordered_path_covers", (digraph(M3),)),
    ("path_qsym_bruteforce", (digraph(M3),)),
    ("verify_reciprocity", (digraph(M3),)),
    ("c_via_path_covers", (M3, Composition((2, 1)))),
    ("verify_sw_betti", (M3,)),
    ("enumerate_hessenberg", (3,)),
]


@pytest.mark.parametrize("name, args", GUARDED, ids=[name for name, _ in GUARDED])
def test_every_entry_point_keeps_the_one_size_guard(name, args):
    """max_n = n - 1 raises, force=True lifts it, and help() names both."""
    fn = getattr(hesschrom, name)
    with pytest.raises(BoundExceededError):
        fn(*args, max_n=2)
    assert fn(*args, max_n=2, force=True) == fn(*args)
    text = pydoc.render_doc(fn, renderer=pydoc.plaintext)
    assert "max_n" in text and "force" in text


@pytest.mark.parametrize("size", [2.0, "3", True, None])
@pytest.mark.parametrize("name, args", GUARDED, ids=[name for name, _ in GUARDED])
def test_the_size_guard_refuses_what_is_not_a_size(name, args, size):
    """The first argument is an int or has an int n; a bool is neither."""
    fn = getattr(hesschrom, name)
    with pytest.raises(TypeError, match=rf"^{name}: {re.escape(repr(size))} is neither an int"):
        fn(size, *args[1:])


def test_guarded_table_lists_every_guarded_name():
    guarded = {n for n in PUBLIC if "Size guard:" in (getattr(hesschrom, n).__doc__ or "")}
    assert guarded == {name for name, _ in GUARDED}


def test_base_loads_without_inspect():
    """inspect costs a cold CLI request several ms."""
    out = fresh_python(
        "import json, sys\n"
        "import hesschrom.base\n"
        "print(json.dumps('inspect' in sys.modules))\n"
    )
    assert out is False
