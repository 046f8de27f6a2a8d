"""The chromatic quasisymmetric function X_G(x,t), computed exactly in
the M basis as a finite sum over ordered partitions of the vertex set
into stable sets, with either the asc or the des statistic."""

from __future__ import annotations

from .base import Composition, DEFAULT_MAX_N, TPoly, check_bound
from .hessenberg import Graph
from .qsym import QSymElement


def _stable_subsets(vertices, graph: Graph):
    """Nonempty stable subsets of the given vertex list, ordered by the
    bitmask over the sorted vertex list (lexicographic and reproducible)."""
    vs = sorted(vertices)
    for mask in range(1, 1 << len(vs)):
        block = [v for i, v in enumerate(vs) if mask >> i & 1]
        if all(
            not graph.has_edge(u, v)
            for i, u in enumerate(block)
            for v in block[i + 1 :]
        ):
            yield frozenset(block)


def stable_ordered_partitions(
    graph: Graph, max_n: int = DEFAULT_MAX_N, force: bool = False
):
    """All ordered partitions of V(G) into stable blocks."""
    check_bound(len(graph.vertices), max_n, force)
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(tuple(prefix))
            return
        for block in _stable_subsets(remaining, graph):
            prefix.append(block)
            rec(remaining - block, prefix)
            prefix.pop()

    rec(frozenset(graph.vertices), [])
    return out


def _stat_of_partition(blocks, graph: Graph, stat: str) -> int:
    """asc: edges {u,v}, u<v, with v in a strictly later block; des swaps
    the roles of u and v."""
    position = {}
    for i, block in enumerate(blocks):
        for v in block:
            position[v] = i
    count = 0
    for e in graph.edges:
        u, v = sorted(e)
        if stat == "asc":
            count += position[v] > position[u]
        else:
            count += position[u] > position[v]
    return count


def chromatic_qsym(
    graph: Graph, stat: str = "asc", max_n: int = DEFAULT_MAX_N, force: bool = False
) -> QSymElement:
    """X_G(x,t) in the M basis."""
    if stat not in ("asc", "des"):
        raise ValueError(f"stat must be 'asc' or 'des': {stat!r}")
    acc = {}
    for blocks in stable_ordered_partitions(graph, max_n, force):
        d = _stat_of_partition(blocks, graph, stat)
        slot = acc.setdefault(tuple(len(b) for b in blocks), {})
        slot[d] = slot.get(d, 0) + 1
    return QSymElement(
        len(graph.vertices),
        "M",
        {Composition(parts): TPoly(slot) for parts, slot in acc.items()},
    )
