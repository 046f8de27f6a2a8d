"""Tymoczko's tableau model for Betti numbers of regular Hessenberg
varieties: admissible tableaux, cell dimensions, Betti vectors and their
palindromicity.

``betti_vector`` is a dynamic programme over reading-order prefixes: the
unified statistic charges each entry k for the entries i with
k < i <= m_k read before it, so a prefix of the reading word matters only
through the set of values it holds and its last entry (which admissibility
tests against the next entry of the same row). ``betti_vector_bruteforce``
keeps the n! permutation filter (``admissible_tableaux`` and
``cell_dimension``) as its oracle.

This is the tableau pipeline. It imports only ``base`` and
``hessenberg``, so its agreement with the qsym pipeline (``chromatic``,
``qsym``, ``pathqsym``, ``character``) is evidence, not tautology;
``tests/test_pipelines.py`` enforces the split.

Row convention: Tableau rows are stored top-down (usual Young diagram
order); "lower row" means visually lower, i.e. larger top-down index.
The unified statistic reads the filling bottom row first, each row left
to right.
"""

from __future__ import annotations

import itertools

from .base import (
    DEFAULT_MAX_N,
    Partition,
    TPoly,
    _Frozen,
    check_bound,
    is_palindromic,
)
from .hessenberg import HessenbergFunction, weight


class Tableau(_Frozen):
    """A bijective filling of the Young diagram of ``shape`` with 1..n."""

    __slots__ = _fields = ("shape", "rows")

    def __init__(self, shape: Partition, rows: tuple):
        rows = tuple(tuple(r) for r in rows)  # top row first
        if tuple(len(r) for r in rows) != shape.parts:
            raise ValueError("rows do not match the shape")
        entries = sorted(v for r in rows for v in r)
        if entries != list(range(1, shape.n + 1)):
            raise ValueError("entries must be a permutation of 1..n")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.shape == other.shape and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.shape, self.rows))


class BettiVector(_Frozen):
    __slots__ = _fields = ("values", "weight")

    def __init__(self, values: tuple, weight: int):
        # values: pairs (2d, count), increasing degree
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weight", weight)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.values == other.values and self.weight == other.weight
        return NotImplemented

    def __hash__(self):
        return hash((self.values, self.weight))

    def as_dict(self):
        return dict(self.values)

    def total(self) -> int:
        return sum(c for _, c in self.values)

    def poincare(self) -> TPoly:
        return TPoly({deg: c for deg, c in self.values})


def admissible_tableaux(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
):
    """All fillings with k immediately left of j only if k <= m_j."""
    if lam.n != m.n:
        raise ValueError(f"{lam} is not a partition of {m.n}")
    check_bound(m.n, max_n, force)
    shape = lam.parts
    out = []
    for perm in itertools.permutations(range(1, m.n + 1)):
        rows, pos = [], 0
        for width in shape:
            rows.append(perm[pos : pos + width])
            pos += width
        if all(
            row[c] <= m.m_at(row[c + 1])
            for row in rows
            for c in range(len(row) - 1)
        ):
            out.append(Tableau(lam, tuple(rows)))
    return out


def cell_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Tymoczko's two-case count of inverted pairs in the filling."""
    count = 0
    for row in t.rows:
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                i, k = row[a], row[b]
                if k < i and (b + 1 == len(row) or i <= m.m_at(row[b + 1])):
                    count += 1
    for upper in range(len(t.rows)):
        for lower in range(upper + 1, len(t.rows)):
            for k in t.rows[upper]:
                for i in t.rows[lower]:
                    if k < i <= m.m_at(k):
                        count += 1
    return count


def unified_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Single-statistic form: pairs (i, k) with i before k in the
    bottom-to-top, left-to-right reading order and k < i <= m_k."""
    reading = [v for row in reversed(t.rows) for v in row]
    count = 0
    for a in range(len(reading)):
        for b in range(a + 1, len(reading)):
            i, k = reading[a], reading[b]
            if k < i <= m.m_at(k):
                count += 1
    return count


def _add_shifted(acc: dict, dims: dict, shift: int) -> None:
    for d, c in dims.items():
        acc[d + shift] = acc.get(d + shift, 0) + c


def betti_vector(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
) -> BettiVector:
    """Count admissible tableaux of shape lam by unified dimension, one
    reading-order position at a time.

    A state is (placed, last): the bitmask of values read so far (bit k-1
    for value k) and the last value of the open row, 0 at a row start.
    Placing k after last needs last <= m_k and adds the number of placed
    values in k+1..m_k to the dimension."""
    if lam.n != m.n:
        raise ValueError(f"{lam} is not a partition of {m.n}")
    check_bound(m.n, max_n, force)
    n = m.n
    cap = [0] + [m.m_at(k) for k in range(1, n + 1)]
    charged = [0] + [(1 << cap[k]) - (1 << k) for k in range(1, n + 1)]
    # (placed, last) -> {dimension: number of prefixes}
    layer = {(0, 0): {0: 1}}
    for width in reversed(lam.parts):
        for _ in range(width):
            nxt = {}
            for (placed, last), dims in layer.items():
                for k in range(1, n + 1):
                    if placed >> (k - 1) & 1 or last > cap[k]:
                        continue
                    step = (placed & charged[k]).bit_count()
                    key = (placed | 1 << (k - 1), k)
                    _add_shifted(nxt.setdefault(key, {}), dims, step)
            layer = nxt
        # a new row starts: forget the last value
        closed = {}
        for (placed, _), dims in layer.items():
            _add_shifted(closed.setdefault((placed, 0), {}), dims, 0)
        layer = closed
    (dims,) = layer.values()
    return BettiVector(tuple(sorted((2 * d, c) for d, c in dims.items())), weight(m))


def betti_vector_bruteforce(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
) -> BettiVector:
    """Oracle for ``betti_vector``: filter all n! fillings, then sum
    Tymoczko's two-case ``cell_dimension`` over the admissible ones."""
    counts = {}
    for t in admissible_tableaux(m, lam, max_n, force):
        d = cell_dimension(t, m)
        counts[2 * d] = counts.get(2 * d, 0) + 1
    return BettiVector(tuple(sorted(counts.items())), weight(m))


def check_palindromic(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
) -> bool:
    """Palindromicity of q(t) = sum_i beta_i t^(i - |m|) about 0."""
    bv = betti_vector(m, lam, max_n, force)
    q = bv.poincare().shifted(-bv.weight)
    return is_palindromic(q, 0)
