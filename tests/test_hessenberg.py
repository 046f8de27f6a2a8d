import math

import pytest

from hesschrom.base import BoundExceededError
from hesschrom.hessenberg import (
    Digraph,
    HessenbergFunction,
    HessenbergValidationError,
    complement,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
    new_hessenberg,
    poset_relation,
    staircase,
    weight,
)


def brute_count(n):
    """Independent oracle: count weakly increasing sequences with
    i <= m_i <= n by direct recursion over value choices."""

    def rec(i, lo):
        if i == n:
            return 1
        return sum(rec(i + 1, v) for v in range(max(i, lo), n + 1))

    return rec(1, 1)


class TestValidation:
    def test_valid(self):
        assert new_hessenberg(3, (2, 3)).m == (2, 3)
        assert new_hessenberg(3, (1, 2)).m == (1, 2)  # the staircase

    def test_not_increasing(self):
        with pytest.raises(HessenbergValidationError) as err:
            new_hessenberg(3, (3, 2))
        assert err.value.index == 2

    @pytest.mark.parametrize(
        "n, m, index",
        [
            (3, (2.0, 3), 1), (3, (1.5, 3), 1), (3, (2, 3.0), 2), (3.0, (2, 3), 0),
            (True, (), 0), (2, (True,), 1),
        ],
    )
    def test_non_integer_rejected_with_its_index(self, n, m, index):
        with pytest.raises(HessenbergValidationError) as err:
            new_hessenberg(n, m)
        assert err.value.index == index

    def test_below_diagonal(self):
        with pytest.raises(HessenbergValidationError):
            new_hessenberg(3, (2, 1))

    def test_above_n(self):
        with pytest.raises(HessenbergValidationError):
            new_hessenberg(3, (2, 4))

    def test_m_at_convention(self):
        m = new_hessenberg(3, (2, 3))
        assert m.m_at(1) == 2 and m.m_at(3) == 3


class TestWeight:
    def test_examples(self):
        assert weight(new_hessenberg(3, (2, 3))) == 2
        for n in range(1, 8):
            assert weight(staircase(n)) == 0
            assert weight(new_hessenberg(n, (n,) * (n - 1))) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_weight_equals_edge_count(self, n):
        for m in enumerate_hessenberg(n):
            assert weight(m) == len(incomparability_graph(m).edges)


class TestEnumerate:
    def test_small(self):
        assert [f.m for f in enumerate_hessenberg(2)] == [(1,), (2,)]
        assert len(enumerate_hessenberg(3)) == 5
        assert len(enumerate_hessenberg(4)) == 14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan(self, n):
        count = len(enumerate_hessenberg(n))
        assert count == brute_count(n)
        assert count == math.comb(2 * n, n) // (n + 1)

    def test_guard(self):
        with pytest.raises(BoundExceededError):
            enumerate_hessenberg(9)
        assert len(enumerate_hessenberg(9, force=True)) == 4862


class TestDerivedStructures:
    def test_poset_examples(self):
        assert poset_relation(new_hessenberg(3, (2, 3))) == {(1, 3)}
        assert poset_relation(staircase(3)) == {(1, 2), (1, 3), (2, 3)}
        assert poset_relation(new_hessenberg(3, (3, 3))) == set()

    def test_graph_examples(self):
        g = incomparability_graph(new_hessenberg(3, (2, 3)))
        assert g.edges == frozenset({frozenset({1, 2}), frozenset({2, 3})})
        assert not incomparability_graph(staircase(4)).edges
        kn = incomparability_graph(new_hessenberg(4, (4, 4, 4)))
        assert len(kn.edges) == 6

    @pytest.mark.parametrize("n", range(1, 8))
    def test_incomparability(self, n):
        for m in enumerate_hessenberg(n):
            rel = poset_relation(m)
            g = incomparability_graph(m)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    incomparable = (i, j) not in rel and (j, i) not in rel
                    assert g.has_edge(i, j) == incomparable

    def test_digraph_examples(self):
        d = digraph(staircase(2))
        assert d.edges == frozenset({(2, 1)})
        assert complement(d).edges == frozenset({(1, 2)})
        d2 = digraph(new_hessenberg(2, (2,)))
        assert not d2.edges
        assert complement(d2).edges == frozenset({(1, 2), (2, 1)})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_involution(self, n):
        for m in enumerate_hessenberg(n):
            d = digraph(m)
            assert complement(complement(d)) == d

    @pytest.mark.parametrize("n", range(2, 7))
    def test_digraph_acyclic_and_dense_part_bidirected(self, n):
        for m in enumerate_hessenberg(n):
            d = digraph(m)
            # D(m) edges go from larger poset elements down; u -> v implies u > v
            assert all(u > v for u, v in d.edges)
            dbar = complement(d)
            for u in range(1, n):
                for v in range(u + 1, m.m_at(u) + 1):
                    assert dbar.has_edge(u, v) and dbar.has_edge(v, u)
