import pytest

from hesschrom.base import Composition, TPoly, compositions, partitions, rearrangements
from hesschrom.chromatic import chromatic_qsym
from hesschrom.hessenberg import (
    Digraph,
    HessenbergFunction,
    complement,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
    staircase,
)
from hesschrom.pathcovers import (
    c_via_path_covers,
    ordered_path_covers,
    sequencing_stat,
    verify_reciprocity,
)
from hesschrom.pathqsym import path_qsym
from hesschrom import verify
from hesschrom.qsym import QSymElement


def dg(vertices, edges=()):
    return Digraph(frozenset(vertices), frozenset(edges))


def M(*parts):
    return QSymElement.monomial(Composition(parts), "M")


class TestOrderedPathCovers:
    def test_edgeless_pair(self):
        covers = ordered_path_covers(dg({1, 2}))
        assert len(covers) == 2
        assert all(c.beta.parts == (1, 1) for c in covers)

    def test_single_arc(self):
        covers = ordered_path_covers(dg({1, 2}, [(1, 2)]))
        assert len(covers) == 3
        twos = [c for c in covers if c.beta.parts == (2,)]
        assert len(twos) == 1 and twos[0].q == (1, 2)

    def test_complete_bidirected_pair(self):
        covers = ordered_path_covers(dg({1, 2}, [(1, 2), (2, 1)]))
        assert len(covers) == 4

    def test_single_vertex(self):
        covers = ordered_path_covers(dg({7}))
        assert len(covers) == 1 and covers[0].q == (7,)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_refinement_closure(self, n):
        # deleting a bar's worth of path edges only subdivides paths
        for m in enumerate_hessenberg(n):
            d = complement(digraph(m))
            covers = {(c.q, c.beta) for c in ordered_path_covers(d)}
            for q, beta in covers:
                for other in _coarser(beta):
                    assert (q, other) in covers


def _coarser(beta):
    """Compositions finer than beta in the bar order (more bars)."""
    from itertools import combinations

    n = beta.n
    base = beta.bars()
    free = [b for b in range(1, n) if b not in base]
    for r in range(1, len(free) + 1):
        for extra in combinations(free, r):
            yield Composition.from_bars(n, base | set(extra))


class TestPathQsym:
    def test_edgeless_pair(self):
        assert path_qsym(dg({1, 2})) == M(1, 1).scaled(TPoly({0: 1, 1: 1}))

    def test_complete_bidirected_pair(self):
        expected = (M(1, 1) + M(2)).scaled(TPoly({0: 1, 1: 1}))
        assert path_qsym(dg({1, 2}, [(1, 2), (2, 1)])) == expected

    def test_agrees_with_chromatic_on_poset_instance(self):
        m = HessenbergFunction(3, (2, 3))
        assert path_qsym(digraph(m)) == chromatic_qsym(incomparability_graph(m))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_chromatic_all_m(self, n):
        for m in enumerate_hessenberg(n):
            lhs = path_qsym(digraph(m), "asc")
            rhs = chromatic_qsym(incomparability_graph(m), "asc")
            assert lhs == rhs


class TestReciprocity:
    def test_edgeless_pair(self):
        result = verify_reciprocity(dg({1, 2}))
        assert result.ok

    def test_single_vertex(self):
        assert verify_reciprocity(dg({4})).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_hessenberg_digraphs(self, n):
        for m in enumerate_hessenberg(n):
            assert verify_reciprocity(digraph(m)).ok

    @pytest.mark.parametrize("max_n", [1, 2, 3, 5])
    def test_suite_draws_no_digraph_above_max_n(self, monkeypatch, max_n):
        seen = []

        def record(d, *args, **kwargs):
            seen.append(len(d.vertices))
            return verify_reciprocity(d, *args, **kwargs)

        monkeypatch.setattr(verify, "verify_reciprocity", record)
        report = verify.suite_reciprocity(max_n=max_n, seed=3, random_count=50)
        assert report.ok and len(seen) == report.checked
        assert max(seen) == max_n

    def test_suite_below_one_vertex_checks_nothing(self):
        report = verify.suite_reciprocity(max_n=0)
        assert report.checked == 0 and not report.ok


class TestCViaPathCovers:
    def test_n2_examples(self):
        m = HessenbergFunction(2, (2,))
        assert c_via_path_covers(m, Composition((2,))) == TPoly({0: 1, 1: 1})
        assert c_via_path_covers(m, Composition((1, 1))) == TPoly({0: 1, 1: 1})

    def test_staircase_long_path(self):
        # complement of D(staircase) keeps only upward edges u -> v, u < v;
        # brute force for n=3 shows exactly one 3-vertex path, q=(1,2,3),
        # with asc q = 0 (all pairs are comparable, hence not neutral)
        m = staircase(3)
        covers = ordered_path_covers(complement(digraph(m)))
        assert [c.q for c in covers if c.beta == Composition((3,))] == [(1, 2, 3)]
        assert c_via_path_covers(m, Composition((3,))) == TPoly({0: 1})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_the_enumerated_covers(self, n):
        """The DP readout against the covers themselves: for every alpha,
        the statistic counted over the covers of composition alpha."""
        for m in enumerate_hessenberg(n):
            dbar = complement(digraph(m))
            counts = {}
            for cover in ordered_path_covers(dbar):
                for stat in ("asc", "des"):
                    slot = counts.setdefault((stat, cover.beta), {})
                    d = sequencing_stat(cover.q, dbar, stat)
                    slot[d] = slot.get(d, 0) + 1
            for alpha in compositions(n):
                for stat in ("asc", "des"):
                    expected = TPoly(counts.get((stat, alpha), {}))
                    assert c_via_path_covers(m, alpha, stat) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("stat", ["asc", "des"])
    def test_rearrangement_invariance(self, n, stat):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                reference = None
                for alpha in rearrangements(lam):
                    counts = c_via_path_covers(m, alpha, stat)
                    if reference is None:
                        reference = counts
                    else:
                        assert counts == reference

    @pytest.mark.parametrize("n", range(1, 6))
    def test_asc_equals_des_counts(self, n):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                alpha = lam.reversed_composition()
                assert c_via_path_covers(m, alpha, "asc") == c_via_path_covers(
                    m, alpha, "des"
                )

    def test_bad_composition(self):
        m = HessenbergFunction(2, (2,))
        with pytest.raises(ValueError):
            c_via_path_covers(m, Composition((3,)))
