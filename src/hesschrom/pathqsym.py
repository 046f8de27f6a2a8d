"""The path quasisymmetric function Xi_D(x,t) of a digraph, summed over
its ordered path covers by a dynamic programme over subsets.

Number the vertices by sorted label. A state is (U, last): the bitmask U
of vertices already in the sequencing and the last vertex of the open
path. Its value maps (path lengths so far, t-exponent) to a count. A move
either starts a new path at any free vertex w or extends the open path
to a free w with last -> w an edge, and the statistic grows by the
neutral pairs between U and w: for asc, those with a smaller vertex of
U; for des, with a larger one. That is at most n^2 2^n moves in place of
one per ordered path cover. The (path lengths, t-exponent) pairs are
packed into one int key, which ``qsym._unpack`` decodes; ``chromatic``
shares that decoder and nothing else.

Everything built on explicit path covers, including the oracle
``path_qsym_bruteforce``, the reciprocity check and the SW-to-T
bijection, is in ``pathcovers``. This module imports only ``base``,
``hessenberg`` and ``qsym``, so an ``xi`` request compiles nothing else.
It does not import ``chromatic``, nor ``chromatic`` this one:
Xi_{D(m)} = X_{G(m)} compares two independent computations."""

from __future__ import annotations

from .base import guarded
from .hessenberg import Digraph
from .qsym import QSymElement, _check_stat, _unpack


@guarded
def path_qsym(d: Digraph, stat: str = "asc") -> QSymElement:
    """Xi_D(x,t) in the M basis, by the subset DP of the module docstring."""
    _check_stat(stat)
    vs = sorted(d.vertices)
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    succ = [0] * n
    for u, v in d.edges:
        succ[index[u]] |= 1 << index[v]
    # w is charged for the neutral pairs {u, w} with u already placed and,
    # for asc, u < w; for des, u > w
    charged = [0] * n
    for u in range(n):
        for w in range(n):
            if u != w and (succ[u] >> w & 1) == (succ[w] >> u & 1):
                if (u < w) == (stat == "asc"):
                    charged[w] |= 1 << u
    full = (1 << n) - 1
    # states[U]: {last: {key: count}}, where the key packs (path lengths,
    # exponent) as qsym._unpack reads it: starting a path at position |U|
    # adds bit |U|, and every move shifts the exponent by its step. The
    # empty sequencing has no open path (last = -1). None once expanded.
    states = [{} for _ in range(full + 1)]
    states[0][-1] = {0: 1}
    for used in range(full + 1):
        value, states[used] = states[used], None
        # a new path may follow any last vertex, so merge over last first
        closed = {}
        for by_key in value.values():
            for key, count in by_key.items():
                closed[key] = closed.get(key, 0) + count
        if used == full:
            return _unpack(n, closed)
        start = 1 << used.bit_count()
        for w in range(n):
            bit = 1 << w
            if used & bit:
                continue
            shift = (used & charged[w]).bit_count() << n
            slot = states[used | bit].setdefault(w, {})
            delta = shift | start
            for key, count in closed.items():
                slot[key + delta] = slot.get(key + delta, 0) + count
            for last, by_key in value.items():
                if last >= 0 and succ[last] & bit:
                    for key, count in by_key.items():
                        slot[key + shift] = slot.get(key + shift, 0) + count
