"""Differential tests for the subset DPs behind ``chromatic_qsym`` and
``path_qsym``.

The oracles are ``chromatic_qsym_bruteforce`` (a sum over every stable
ordered partition) and ``path_qsym_bruteforce`` (a sum over every ordered
path cover). Each DP must agree with its oracle exactly: on every
Hessenberg function for n <= 5, on hypothesis draws at n = 6, and on
random graphs and digraphs whose labels are not 1..n.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hesschrom.base import BoundExceededError, Composition, TPoly
from hesschrom.chromatic import chromatic_qsym, chromatic_qsym_bruteforce
from hesschrom.hessenberg import (
    Digraph,
    Graph,
    HessenbergFunction,
    complement,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
)
from hesschrom.pathcovers import path_qsym_bruteforce, sequencing_stat
from hesschrom.pathqsym import path_qsym
from hesschrom.qsym import QSymElement

STATS = ("asc", "des")


@st.composite
def hessenberg_functions(draw, n):
    m, lo = [], 1
    for i in range(1, n):
        lo = draw(st.integers(max(i, lo), n))
        m.append(lo)
    return HessenbergFunction(n, m)


# Labels from a sparse range, so that they are rarely 1..n, and edges at
# any density, so that isolated vertices are common.
LABELS = st.lists(st.integers(-20, 40), min_size=0, max_size=5, unique=True)


@st.composite
def graphs(draw):
    vs = draw(LABELS)
    pairs = list(itertools.combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = frozenset(frozenset(p) for p, k in zip(pairs, keep) if k)
    return Graph(frozenset(vs), edges)


@st.composite
def digraphs(draw):
    vs = draw(LABELS)
    pairs = list(itertools.permutations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(frozenset(vs), frozenset(p for p, k in zip(pairs, keep) if k))


# --- X_G(m) --------------------------------------------------------------

@pytest.mark.parametrize("stat", STATS)
@pytest.mark.parametrize("n", range(1, 6))
def test_chromatic_every_function(n, stat):
    for m in enumerate_hessenberg(n):
        g = incomparability_graph(m)
        assert chromatic_qsym(g, stat) == chromatic_qsym_bruteforce(g, stat), m


@settings(max_examples=15, deadline=None)
@given(hessenberg_functions(6), st.sampled_from(STATS))
def test_chromatic_random_functions_n6(m, stat):
    g = incomparability_graph(m)
    assert chromatic_qsym(g, stat) == chromatic_qsym_bruteforce(g, stat)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.sampled_from(STATS))
def test_chromatic_random_graphs(g, stat):
    assert chromatic_qsym(g, stat) == chromatic_qsym_bruteforce(g, stat)


def test_chromatic_isolated_vertices_and_gapped_labels():
    # a path 10 - 3 - 7 plus two isolated vertices, labels out of order
    g = Graph(
        frozenset({3, 7, 10, -2, 25}),
        frozenset({frozenset({10, 3}), frozenset({3, 7})}),
    )
    for stat in STATS:
        assert chromatic_qsym(g, stat) == chromatic_qsym_bruteforce(g, stat)


# --- Xi_D ----------------------------------------------------------------

@pytest.mark.parametrize("stat", STATS)
@pytest.mark.parametrize("n", range(1, 6))
def test_path_every_digraph_and_complement(n, stat):
    for m in enumerate_hessenberg(n):
        for d in (digraph(m), complement(digraph(m))):
            assert path_qsym(d, stat) == path_qsym_bruteforce(d, stat), m


@settings(max_examples=10, deadline=None)
@given(hessenberg_functions(6), st.sampled_from(STATS))
def test_path_random_functions_n6(m, stat):
    for d in (digraph(m), complement(digraph(m))):
        assert path_qsym(d, stat) == path_qsym_bruteforce(d, stat)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.sampled_from(STATS))
def test_path_random_digraphs(d, stat):
    assert path_qsym(d, stat) == path_qsym_bruteforce(d, stat)


def test_path_isolated_vertices_and_gapped_labels():
    # 9 -> 4 -> 12, one 2-cycle 4 <-> 12, and two isolated vertices
    d = Digraph(frozenset({4, 9, 12, -1, 30}), frozenset({(9, 4), (4, 12), (12, 4)}))
    for stat in STATS:
        assert path_qsym(d, stat) == path_qsym_bruteforce(d, stat)


# --- both ----------------------------------------------------------------

@pytest.mark.parametrize("stat", STATS)
def test_empty_graph_is_one(stat):
    one = QSymElement(0, "M", {Composition(()): TPoly.const(1)})
    empty = frozenset()
    assert chromatic_qsym(Graph(empty, empty), stat) == one
    assert chromatic_qsym_bruteforce(Graph(empty, empty), stat) == one
    assert path_qsym(Digraph(empty, empty), stat) == one
    assert path_qsym_bruteforce(Digraph(empty, empty), stat) == one


@pytest.mark.parametrize("n", range(1, 7))
def test_xi_of_d_equals_x_of_g(n):
    """Xi_{D(m)} = X_{G(m)}, both sides from the DPs, which share no code."""
    for m in enumerate_hessenberg(n):
        assert path_qsym(digraph(m)) == chromatic_qsym(incomparability_graph(m)), m


def test_size_guard():
    m = HessenbergFunction(9, (9,) * 8)
    g, d = incomparability_graph(m), digraph(m)
    with pytest.raises(BoundExceededError):
        chromatic_qsym(g)
    with pytest.raises(BoundExceededError):
        path_qsym(d)
    assert chromatic_qsym(g, force=True).n == 9
    assert path_qsym(d, force=True).n == 9


def test_bad_stat():
    m = HessenbergFunction(3, (2, 3))
    with pytest.raises(ValueError, match="stat"):
        chromatic_qsym(incomparability_graph(m), "inv")
    with pytest.raises(ValueError, match="stat"):
        path_qsym(digraph(m), "inv")


# Every function that takes the asc/des statistic, called on D((2,3)) or
# G((2,3)) with an unknown one; sequencing_stat reads q = (1,2,3).
STAT_TAKERS = {
    "chromatic_qsym": lambda m: chromatic_qsym(incomparability_graph(m), stat="x"),
    "chromatic_qsym_bruteforce": lambda m: chromatic_qsym_bruteforce(
        incomparability_graph(m), stat="x"
    ),
    "path_qsym": lambda m: path_qsym(digraph(m), stat="x"),
    "path_qsym_bruteforce": lambda m: path_qsym_bruteforce(digraph(m), stat="x"),
    "sequencing_stat": lambda m: sequencing_stat((1, 2, 3), digraph(m), stat="x"),
}


@pytest.mark.parametrize("name", sorted(STAT_TAKERS))
def test_every_stat_taker_rejects_an_unknown_stat(name):
    with pytest.raises(ValueError, match="^stat must be 'asc' or 'des': 'x'$"):
        STAT_TAKERS[name](HessenbergFunction(3, (2, 3)))
