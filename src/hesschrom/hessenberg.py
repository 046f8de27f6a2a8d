"""Hessenberg functions and their derived combinatorics: the natural unit
interval order P(m), its incomparability graph G(m), the digraph D(m),
digraph complementation, and exhaustive enumeration."""

from __future__ import annotations

import itertools

from .base import _Frozen, _is_number, guarded


class HessenbergValidationError(ValueError):
    """Raised with the offending index when m is not a Hessenberg function."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class Graph(_Frozen):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):
        # edges: frozensets of size 2
        for e in edges:
            if len(e) != 2 or not e <= vertices:
                raise ValueError(f"bad edge {set(e)}")
        super().__init__(vertices, edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self.edges


class Digraph(_Frozen):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):
        # edges: ordered pairs (u, v), u != v
        for u, v in edges:
            if u == v or u not in vertices or v not in vertices:
                raise ValueError(f"bad directed edge {(u, v)}")
        super().__init__(vertices, edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, u, v) -> bool:
        return (u, v) in self.edges


def complement(d: Digraph) -> Digraph:
    edges = frozenset(
        (u, v)
        for u, v in itertools.permutations(sorted(d.vertices), 2)
        if (u, v) not in d.edges
    )
    return Digraph(d.vertices, edges)


class HessenbergFunction(_Frozen):
    """m = (m_1, ..., m_{n-1}), weakly increasing with i <= m_i <= n.

    The convention m_n = n is implicit and exposed through m_at.
    """

    __slots__ = _fields = ("n", "m")

    def __init__(self, n: int, m: tuple):
        m = tuple(m)
        if not _is_number(n):
            raise HessenbergValidationError(0, f"n={n!r} is not an integer")
        if n < 1 or len(m) != n - 1:
            raise HessenbergValidationError(
                0, f"need exactly n-1={n - 1} values, got {len(m)}"
            )
        for i, v in enumerate(m, start=1):
            if not _is_number(v):
                raise HessenbergValidationError(i, f"m_{i}={v!r} is not an integer")
            if v < i:
                raise HessenbergValidationError(i, f"m_{i}={v} violates m_i >= i")
            if v > n:
                raise HessenbergValidationError(i, f"m_{i}={v} exceeds n={n}")
            if i > 1 and v < m[i - 2]:
                raise HessenbergValidationError(
                    i, f"m_{i}={v} breaks weak monotonicity"
                )
        super().__init__(n, m)

    def m_at(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"m_{i} is defined only for 1 <= i <= n={self.n}")
        return self.m[i - 1] if i < self.n else self.n

    def __str__(self):
        return "(" + ",".join(map(str, self.m)) + ")"


def staircase(n: int) -> HessenbergFunction:
    """The minimal Hessenberg function (1, 2, ..., n-1)."""
    return HessenbergFunction(n, tuple(range(1, n)))


def weight(m: HessenbergFunction) -> int:
    """Sum of m_i - i; equals the edge count of G(m)."""
    return sum(v - i for i, v in enumerate(m.m, start=1))


@guarded
def enumerate_hessenberg(n: int):
    """All Hessenberg functions for n, lexicographically; C_n of them."""
    if n < 1:
        raise ValueError(f"n={n}: a Hessenberg function needs n >= 1")

    def rec(i, lo):
        if i == n:
            yield ()
            return
        for v in range(max(i, lo), n + 1):
            for rest in rec(i + 1, v):
                yield (v,) + rest

    return [HessenbergFunction(n, parts) for parts in rec(1, 1)]


def poset_relation(m: HessenbergFunction):
    """P(m): the pairs (i, j) with i < j in the order, i.e. j > m_i."""
    return {
        (i, j)
        for i in range(1, m.n + 1)
        for j in range(m.m_at(i) + 1, m.n + 1)
    }


def incomparability_graph(m: HessenbergFunction) -> Graph:
    edges = frozenset(
        frozenset((i, j))
        for i in range(1, m.n)
        for j in range(i + 1, m.m_at(i) + 1)
    )
    return Graph(frozenset(range(1, m.n + 1)), edges)


def digraph(m: HessenbergFunction) -> Digraph:
    """D(m): edge u -> v iff v precedes u in P(m)."""
    rel = poset_relation(m)
    return Digraph(
        frozenset(range(1, m.n + 1)),
        frozenset((u, v) for v, u in rel),
    )
