"""The qsym pipeline's brute-force oracles, kept apart from the routes
they check so that no CLI request compiles them: only ``verify``,
``_exports`` and the tests import this module.

- The M-basis route into the symmetric bases: ``generator`` builds e, h
  and p as ``quasi_shuffle`` products of their one-row pieces and s from
  ``kostka_bruteforce``, which fills tableaux cell by cell; it is the
  oracle for every column of the e, h, p and s matrices of
  ``sym._matrix``, which never takes it.
- The sum over stable ordered partitions: ``chromatic_qsym_bruteforce``
  adds the statistic over every ``stable_ordered_partitions`` of G, the
  oracle for ``chromatic.chromatic_qsym``'s subset DP.  It builds its
  compositions without the DP's key decoder.
"""

from __future__ import annotations

from functools import lru_cache

from .base import (
    Composition,
    DegreeMismatchError,
    Partition,
    compositions,
    guarded,
    partitions,
    rearrangements,
)
from .hessenberg import Graph
from .qsym import QSymElement, _add_scaled, _check_stat, _freeze


def _qshuffles(a: tuple, b: tuple):
    """Quasi-shuffles (overlapping shuffles) of two part tuples, with
    multiplicity."""
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in _qshuffles(a[1:], b):
        yield (a[0],) + rest
    for rest in _qshuffles(a, b[1:]):
        yield (b[0],) + rest
    for rest in _qshuffles(a[1:], b[1:]):
        yield (a[0] + b[0],) + rest


def quasi_shuffle(x: QSymElement, y: QSymElement) -> QSymElement:
    """Product of monomial quasisymmetric functions (degrees add)."""
    if x.basis != "M" or y.basis != "M":
        raise ValueError("quasi_shuffle expects both factors in the M basis")
    acc = {}
    for alpha, ca in x.terms.items():
        for beta, cb in y.terms.items():
            c = ca * cb
            for parts in _qshuffles(alpha.parts, beta.parts):
                _add_scaled(acc, parts, c)
    return _freeze(x.n + y.n, "M", {Composition(p): slot for p, slot in acc.items()})


def m_partition_to_qsym(lam: Partition) -> QSymElement:
    """The monomial symmetric function m_lambda as a sum of M_alpha."""
    return QSymElement(lam.n, "M", dict.fromkeys(rearrangements(lam), 1))


@lru_cache(maxsize=None)
def kostka_bruteforce(lam: Partition, mu: Partition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu,
    by filling the cells one at a time; the oracle for ``sym.kostka``."""
    if lam.n != mu.n:
        raise DegreeMismatchError("shape and content must have the same size")
    shape = lam.parts
    content = list(mu.parts)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]

    def fill(idx, rows, remaining):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])          # rows weakly increase
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)      # columns strictly increase
        for v in range(lo, len(content) + 1):
            if remaining[v - 1] == 0:
                continue
            rows[r].append(v)
            remaining[v - 1] -= 1
            total += fill(idx + 1, rows, remaining)
            remaining[v - 1] += 1
            rows[r].pop()
        return total

    return fill(0, [[] for _ in shape], content)


@lru_cache(maxsize=None)
def _one_part_generator(kind: str, k: int) -> QSymElement:
    if kind == "p":
        return QSymElement.monomial(Composition((k,)), "M")
    if kind == "e":
        return QSymElement.monomial(Composition((1,) * k), "M")
    if kind == "h":
        return QSymElement(k, "M", dict.fromkeys(compositions(k), 1))
    raise ValueError(f"no one-part generator of kind {kind!r}")


@lru_cache(maxsize=None)
def generator(kind: str, lam: Partition) -> QSymElement:
    """e/h/p/s_lambda expanded in the M basis; the oracle for the columns
    of ``sym._matrix(n, kind)``.

    e, h, p are quasi-shuffle products of their one-row pieces; s_lambda
    is the Kostka expansion over semistandard tableaux.
    """
    if kind == "s":
        terms = {}
        for mu in partitions(lam.n):
            k = kostka_bruteforce(lam, mu)
            if k:
                terms.update(dict.fromkeys(m_partition_to_qsym(mu).terms, k))
        return QSymElement(lam.n, "M", terms)
    if kind not in ("e", "h", "p"):
        raise ValueError(f"unknown generator kind: {kind!r}")
    out = QSymElement(0, "M", {Composition(()): 1})
    for part in lam.parts:
        out = quasi_shuffle(out, _one_part_generator(kind, part))
    return out


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


@guarded
def stable_ordered_partitions(graph: Graph):
    """All ordered partitions of V(G) into stable blocks."""
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


@guarded
def chromatic_qsym_bruteforce(graph: Graph, stat: str = "asc") -> QSymElement:
    """Oracle for ``chromatic.chromatic_qsym``: sum the statistic over
    every stable ordered partition."""
    _check_stat(stat)
    acc = {}
    for blocks in stable_ordered_partitions(graph, force=True):
        d = _stat_of_partition(blocks, graph, stat)
        slot = acc.setdefault(Composition(tuple(len(b) for b in blocks)), {})
        slot[d] = slot.get(d, 0) + 1
    return _freeze(len(graph.vertices), "M", acc)
