"""The chromatic quasisymmetric function X_G(x,t), computed exactly in
the M basis as a finite sum over ordered partitions of the vertex set
into stable sets, with either the asc or the des statistic.

``chromatic_qsym`` is a dynamic programme over subsets. Number the
vertices by sorted label. A state is the bitmask U of vertices placed in
the blocks so far; its value maps (block sizes so far, t-exponent) to a
count. A move appends a nonempty stable block B of unplaced vertices, and
the statistic grows by the edges between U and B: for asc, the edges from
each v in B down to a smaller vertex of U; for des, up to a larger one.
That is at most 3^n moves in place of one per ordered partition.
The (block sizes, t-exponent) pairs are packed into one int key, which
``qsym._unpack`` decodes; ``pathqsym`` shares that decoder and nothing
else. Its oracle, the sum over ``stable_ordered_partitions`` in
``oracles.chromatic_qsym_bruteforce``, lives apart, so an ``xg`` request
does not compile it.

This module does not import ``pathqsym``, nor ``pathqsym`` this one:
X_{G(m)} = Xi_{D(m)} compares two independent computations."""

from __future__ import annotations

from .base import guarded
from .hessenberg import Graph
from .qsym import QSymElement, _check_stat, _unpack


@guarded
def chromatic_qsym(graph: Graph, stat: str = "asc") -> QSymElement:
    """X_G(x,t) in the M basis, by the subset DP of the module docstring."""
    _check_stat(stat)
    vs = sorted(graph.vertices)
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [0] * n
    for e in graph.edges:
        u, v = (index[x] for x in e)
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    # asc charges v for its smaller neighbours already placed, des for its
    # larger ones
    charged = [
        nb & ((1 << i) - 1) if stat == "asc" else nb >> (i + 1) << (i + 1)
        for i, nb in enumerate(nbrs)
    ]
    full = (1 << n) - 1
    # stable[mask]: no edge joins two vertices of mask
    stable = [True] * (full + 1)
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        stable[mask] = stable[rest] and not nbrs[low] & rest
    # states[U] maps (block sizes, exponent) to a count, packed into one
    # int key as qsym._unpack reads it: appending B at position |U| adds
    # bit |U| and shifts the exponent by the step. None once expanded.
    states = [{} for _ in range(full + 1)]
    states[0][0] = 1
    for used in range(full):
        value, states[used] = states[used], None
        start = 1 << used.bit_count()
        free = full ^ used
        block = free
        while block:
            if stable[block]:
                step, rest = 0, block
                while rest:
                    low = rest & -rest
                    step += (used & charged[low.bit_length() - 1]).bit_count()
                    rest ^= low
                delta = step << n | start
                target = states[used | block]
                for key, count in value.items():
                    target[key + delta] = target.get(key + delta, 0) + count
            block = (block - 1) & free
    return _unpack(n, states[full])

