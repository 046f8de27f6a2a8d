"""Differential tests for the dict-accumulating producers.

Each oracle below is the earlier form of a producer: it sums one
``QSymElement.monomial`` term at a time with ``+``,
which copies the whole term map on every step. The library builds each
result once from plain dicts; the two must agree term for term.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hesschrom.base import Composition, TPoly, compositions, partitions, z_of
from hesschrom.character import dot_character, frobenius_image
from hesschrom.chromatic import chromatic_qsym, stable_ordered_partitions
from hesschrom.hessenberg import (
    Digraph,
    enumerate_hessenberg,
    incomparability_graph,
    weight,
)
from hesschrom.pathcovers import ordered_path_covers, sequencing_stat
from hesschrom.pathqsym import path_qsym
from hesschrom.qsym import QSymElement, f_to_m, m_to_f, omega, quasi_shuffle, to_m_basis
from hesschrom.sym import contract_to_m, generator, kostka


# --- oracles: the sum-by-+ producers ------------------------------------

def oracle_chromatic(graph, stat):
    out = QSymElement(len(graph.vertices), "M")
    for blocks in stable_ordered_partitions(graph, force=True):
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        d = 0
        for e in graph.edges:
            u, v = sorted(e)
            d += block_of[v] > block_of[u] if stat == "asc" else block_of[u] > block_of[v]
        alpha = Composition(tuple(len(b) for b in blocks))
        out += QSymElement.monomial(alpha, "M", TPoly.t(d))
    return out


def oracle_path(d, stat):
    out = QSymElement(len(d.vertices), "M")
    for cover in ordered_path_covers(d, force=True):
        out += QSymElement.monomial(cover.beta, "M", TPoly.t(sequencing_stat(cover.q, d, stat)))
    return out


def oracle_f_to_m(x):
    out = QSymElement(x.n, "M")
    for alpha, c in x.terms.items():
        for beta in compositions(x.n):
            if alpha.bars() <= beta.bars():  # alpha is coarser than beta
                out += QSymElement.monomial(beta, "M", c)
    return out


def oracle_m_to_f(x):
    out = QSymElement(x.n, "F")
    for alpha, c in x.terms.items():
        for beta in compositions(x.n):
            if alpha.bars() <= beta.bars():  # alpha is coarser than beta
                sign = (-1) ** (beta.num_bars - alpha.num_bars)
                out += QSymElement.monomial(beta, "F", c * sign)
    return out


def oracle_omega(x):
    out = QSymElement(x.n, "M")
    for beta, c in x.terms.items():
        sign = (-1) ** (x.n - beta.length)
        for alpha in compositions(x.n):
            if alpha.bars() <= beta.bars():  # alpha is coarser than beta
                out += QSymElement.monomial(alpha, "M", c * sign)
    return out


def _qshuffles(a, b):
    if not a or not b:
        yield a + b
        return
    for rest in _qshuffles(a[1:], b):
        yield (a[0],) + rest
    for rest in _qshuffles(a, b[1:]):
        yield (b[0],) + rest
    for rest in _qshuffles(a[1:], b[1:]):
        yield (a[0] + b[0],) + rest


def oracle_quasi_shuffle(x, y):
    out = QSymElement(x.n + y.n, "M")
    for alpha, ca in x.terms.items():
        for beta, cb in y.terms.items():
            for parts in _qshuffles(alpha.parts, beta.parts):
                out += QSymElement.monomial(Composition(parts), "M", ca * cb)
    return out


def oracle_contract_to_m(x):
    out = QSymElement(x.n, "m")
    for lam, c in x.terms.items():
        out += to_m_basis(generator(x.basis, lam)).scaled(c)
    return out


# --- strategies ----------------------------------------------------------

hessenberg_functions = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_hessenberg(n))
)


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 5))
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(frozenset(range(1, n + 1)), frozenset(p for p, k in zip(pairs, keep) if k))


polys = st.dictionaries(st.integers(-2, 3), st.integers(-3, 3), max_size=3).map(TPoly)


@st.composite
def elements(draw, basis, max_degree=4):
    """A few terms with small Laurent coefficients, so that sums cancel."""
    n = draw(st.integers(0, max_degree))
    alphas = draw(st.lists(st.sampled_from(list(compositions(n))), max_size=4))
    return QSymElement(n, basis, [(alpha, draw(polys)) for alpha in alphas])


# --- the differential tests ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(hessenberg_functions, st.sampled_from(["asc", "des"]))
def test_chromatic_qsym_matches_sum_oracle(m, stat):
    g = incomparability_graph(m)
    assert chromatic_qsym(g, stat) == oracle_chromatic(g, stat)


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.sampled_from(["asc", "des"]))
def test_path_qsym_matches_sum_oracle(d, stat):
    assert path_qsym(d, stat) == oracle_path(d, stat)


@settings(max_examples=60, deadline=None)
@given(elements("M"), elements("M"))
def test_quasi_shuffle_matches_sum_oracle(x, y):
    assert quasi_shuffle(x, y) == oracle_quasi_shuffle(x, y)


@settings(max_examples=60, deadline=None)
@given(elements("M", max_degree=6))
def test_omega_matches_sum_oracle(x):
    assert omega(x) == oracle_omega(x)


@settings(max_examples=60, deadline=None)
@given(elements("F", max_degree=6), elements("M", max_degree=6))
def test_basis_changes_match_sum_oracles(fx, mx):
    assert f_to_m(fx) == oracle_f_to_m(fx)
    assert m_to_f(mx) == oracle_m_to_f(mx)


def test_cancelled_terms_are_dropped():
    def M(*parts):
        return QSymElement.monomial(Composition(parts), "M")

    def F(*parts):
        return QSymElement.monomial(Composition(parts), "F")

    # the M(1,1) contributions of F(2) and -F(1,1) cancel
    assert f_to_m(F(2) - F(1, 1)).terms == {Composition((2,)): TPoly.const(1)}
    # M(1)*M(1,1) and -M(1)*M(2) share the terms M(1,2) and M(2,1)
    assert quasi_shuffle(M(1), M(1, 1) - M(2)).terms == {
        Composition((1, 1, 1)): TPoly.const(3),
        Composition((3,)): TPoly.const(-1),
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_producers_match_sum_oracles(n):
    for lam in partitions(n):
        schur = QSymElement(n, "M")
        for alpha in compositions(n):
            schur += QSymElement.monomial(alpha, "M", kostka(lam, alpha.sorted_partition()))
        assert generator("s", lam) == schur
        for basis in ("e", "h", "p", "s"):
            x = QSymElement(n, basis, {lam: TPoly({0: 2, 1: Fraction(-1, 3)})})
            assert contract_to_m(x) == oracle_contract_to_m(x)


@pytest.mark.parametrize("n", range(1, 5))
def test_frobenius_image_matches_sum_oracle(n):
    for m in enumerate_hessenberg(n):
        for d in range(weight(m) + 1):
            chi = dot_character(m, d)
            out = QSymElement(n, "m")
            for mu, value in chi.values:
                out += to_m_basis(generator("p", mu)).scaled(Fraction(value, z_of(mu)))
            assert frobenius_image(chi) == out
