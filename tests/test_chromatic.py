import itertools

import pytest

from hesschrom.base import Composition, TPoly
from hesschrom.chromatic import chromatic_qsym
from hesschrom.hessenberg import (
    Graph,
    HessenbergFunction,
    enumerate_hessenberg,
    incomparability_graph,
)
from hesschrom.oracles import stable_ordered_partitions
from hesschrom.qsym import QSymElement, is_symmetric


def graph(vertices, edges=()):
    return Graph(frozenset(vertices), frozenset(frozenset(e) for e in edges))


def M(*parts):
    return QSymElement.monomial(Composition(parts), "M")


def coloring_expansion(g: Graph, k: int, stat="asc"):
    """Independent oracle: sum t^{stat kappa} x_kappa over proper colorings
    with colors in [k]; returns exponent-tuple -> TPoly."""
    vs = sorted(g.vertices)
    out = {}
    for colors in itertools.product(range(1, k + 1), repeat=len(vs)):
        kappa = dict(zip(vs, colors))
        if any(kappa[u] == kappa[v] for e in g.edges for u, v in [sorted(e)]):
            continue
        count = 0
        for e in g.edges:
            u, v = sorted(e)
            if stat == "asc":
                count += kappa[u] < kappa[v]
            else:
                count += kappa[u] > kappa[v]
        expo = tuple(colors.count(c) for c in range(1, k + 1))
        out[expo] = out.get(expo, TPoly()) + TPoly.t(count)
    return {e: c for e, c in out.items() if c}


def qsym_expansion(x: QSymElement, k: int):
    """Expand an M-basis element in k variables."""
    out = {}
    for alpha, c in x.terms.items():
        for idxs in itertools.combinations(range(k), alpha.length):
            expo = [0] * k
            for i, p in zip(idxs, alpha.parts):
                expo[i] = p
            out[tuple(expo)] = out.get(tuple(expo), TPoly()) + c
    return {e: c for e, c in out.items() if c}


class TestStableOrderedPartitions:
    def test_counts(self):
        assert len(stable_ordered_partitions(graph({1, 2}))) == 3  # Fubini(2)
        assert len(stable_ordered_partitions(graph({1, 2}, [(1, 2)]))) == 2
        k3 = graph({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
        assert len(stable_ordered_partitions(k3)) == 6

    def test_fubini_edgeless(self):
        fubini = [1, 1, 3, 13, 75, 541]
        for n in range(1, 6):
            g = graph(set(range(1, n + 1)))
            assert len(stable_ordered_partitions(g)) == fubini[n]


class TestChromaticQsym:
    def test_edgeless_pair(self):
        x = chromatic_qsym(graph({1, 2}))
        assert x == M(2) + M(1, 1).scaled(2)

    def test_single_edge(self):
        x = chromatic_qsym(graph({1, 2}, [(1, 2)]))
        assert x == M(1, 1).scaled(TPoly({0: 1, 1: 1}))

    @pytest.mark.parametrize("stat", ["asc", "des"])
    def test_path_matches_coloring_oracle(self, stat):
        m = HessenbergFunction(3, (2, 3))
        g = incomparability_graph(m)
        x = chromatic_qsym(g, stat)
        assert qsym_expansion(x, 3) == coloring_expansion(g, 3, stat)

    def test_noncontiguous_labels(self):
        x = chromatic_qsym(graph({2, 5}, [(2, 5)]))
        assert x == M(1, 1).scaled(TPoly({0: 1, 1: 1}))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_asc_equals_des_on_unit_interval(self, n):
        for m in enumerate_hessenberg(n):
            g = incomparability_graph(m)
            assert chromatic_qsym(g, "asc") == chromatic_qsym(g, "des")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_on_unit_interval(self, n):
        for m in enumerate_hessenberg(n):
            assert is_symmetric(chromatic_qsym(incomparability_graph(m)))

    def test_symmetry_failure_witness(self):
        # the claw K_{1,3} is not a unit interval graph; its X_G(t) is
        # quasisymmetric but not symmetric
        claw = graph({1, 2, 3, 4}, [(1, 2), (1, 3), (1, 4)])
        x = chromatic_qsym(claw)
        assert x.n == 4
        assert not is_symmetric(x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_t1_chromatic_polynomial(self, k):
        # setting t=1 and summing over colorings with <= k colors recovers
        # the proper-coloring count
        for edges in [[], [(1, 2)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)]]:
            vs = {1, 2, 3} | {v for e in edges for v in e}
            g = graph(vs, edges)
            x = chromatic_qsym(g)
            total = sum(
                c.evaluate(1) * _monomials_at_k(alpha, k)
                for alpha, c in x.terms.items()
            )
            brute = sum(
                all(
                    kappa[u] != kappa[v]
                    for e in g.edges
                    for u, v in [sorted(e)]
                )
                for kappa in (
                    dict(zip(sorted(vs), cols))
                    for cols in itertools.product(range(k), repeat=len(vs))
                )
            )
            assert total == brute


def _monomials_at_k(alpha, k):
    """Number of monomials of M_alpha surviving in k variables, evaluated
    at x_i = 1: the number of length-l increasing index choices."""
    import math

    return math.comb(k, alpha.length)


class TestAcyclicOrientationCount:
    @pytest.mark.parametrize(
        "edges", [[], [(1, 2)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)], [(1, 2), (2, 3), (3, 4), (1, 4)]]
    )
    def test_finest_blocks_count_linear_orders(self, edges):
        vs = {v for e in edges for v in e} | {1, 2}
        g = graph(vs, edges)
        x = chromatic_qsym(g)
        alpha = Composition((1,) * len(vs))
        # orderings into singleton blocks = linear orders = |V|! regardless
        # of edges; each is compatible with exactly one acyclic orientation
        import math

        assert x.coeff(alpha).evaluate(1) == math.factorial(len(vs))
