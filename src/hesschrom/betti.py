"""Tymoczko's tableau model for Betti numbers of regular Hessenberg
varieties: admissible tableaux, cell dimensions, Betti vectors and their
palindromicity.

A Betti vector is the ``TPoly`` sum_d beta_{2d} t^d, in which t^d counts
H^{2d}: the type of the coefficient [m_lambda] omega X_{G(m)}(t) that it
equals, so the two sides of the main identity compare as polynomials.
Only the CLI prints the cohomological degree 2d.

The Betti numbers come from a dynamic programme over reading-order
prefixes: the unified statistic charges each entry k for the entries i
with k < i <= m_k read before it, so a prefix of the reading word matters
only through the set of values it holds and the values its last entry
bars from coming next in the same row (admissibility). Read bottom
row first, a shape's row lengths weakly increase, and the shapes of n form
a trie of such sequences. ``betti_vectors`` walks the whole trie once:
shapes that share their lower rows share those rows' prefixes, and an open
row is extended one cell at a time and closed at every length the trie
allows, so each length reuses the cells before it. ``betti_vector`` walks
only the one path of its shape, at the cost of one shape.
``betti_vector_bruteforce`` keeps the n! permutation filter
(``admissible_tableaux`` and ``cell_dimension``) as the oracle of both.

Each inversion rule is defined once, as a set of pairs: ``t_inversions``
and ``reading_inversions``. ``cell_dimension`` and ``unified_dimension``
count them, and ``verify``'s SW-to-T bijection applies them to path covers.

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
from math import factorial

from .base import Partition, TPoly, _Frozen, guarded, partitions
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
        super().__init__(shape, rows)


@guarded
def admissible_tableaux(m: HessenbergFunction, lam: Partition):
    """All fillings with k immediately left of j only if k <= m_j."""
    if lam.n != m.n:
        raise ValueError(f"{lam} is not a partition of {m.n}")
    shape = lam.parts
    cap = m.m + (m.n,)
    out = []
    for perm in itertools.permutations(range(1, m.n + 1)):
        rows, pos = [], 0
        for width in shape:
            rows.append(perm[pos : pos + width])
            pos += width
        if all(
            row[c] <= cap[row[c + 1] - 1]
            for row in rows
            for c in range(len(row) - 1)
        ):
            # a permutation cut by the shape: valid by construction
            out.append(Tableau._of(lam, tuple(rows)))
    return out


def t_inversions(rows, m: HessenbergFunction) -> set:
    """Tymoczko's T-inversions of a filling whose rows, of any lengths, are
    listed bottom row first: the pairs (i, k) with k < i and either
    - k right of i in one row, and k last in it or i <= m_j for the entry
      j right after k; or
    - i in a lower row than k, and i <= m_k."""
    cap = m.m + (m.n,)
    out = set()
    for row in rows:
        for b, k in enumerate(row):
            bound = cap[row[b + 1] - 1] if b + 1 < len(row) else m.n
            for i in row[:b]:
                if k < i <= bound:
                    out.add((i, k))
    for lo, lower in enumerate(rows):
        for upper in rows[lo + 1 :]:
            for k in upper:
                for i in lower:
                    if k < i <= cap[k - 1]:
                        out.add((i, k))
    return out


def reading_inversions(word, m: HessenbergFunction) -> set:
    """The pairs (i, k) with i before k in the word and k < i <= m_k."""
    cap = m.m + (m.n,)
    return {
        (i, k)
        for a, i in enumerate(word)
        for k in word[a + 1 :]
        if k < i <= cap[k - 1]
    }


def cell_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Tymoczko's two-case count: the number of ``t_inversions``."""
    return len(t_inversions(t.rows[::-1], m))


def unified_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Single-statistic form: the number of ``reading_inversions`` of the
    bottom-to-top, left-to-right reading word."""
    return len(reading_inversions([v for row in reversed(t.rows) for v in row], m))


def _walk(m: HessenbergFunction, path=None) -> dict:
    """Row lengths, bottom row first -> the Betti vector sum_d count_d t^d
    of that shape, for every shape on the trie, or only for the shape whose
    row lengths are ``path``.

    Placing k right after j in a row needs j <= m_k, so the values barred
    after j are the k with m_k < j, an initial segment, and the future of
    a prefix depends only on the values it holds and on those of the
    barred values not yet placed. A state packs both into one int: the
    values held (bit k-1 for value k) below bit n, the barred unplaced
    ones above it; a row starts with none barred. Its value packs
    sum_d count_d t^d into one int, count_d at bit ``field * d``; no count
    exceeds n!, so the fields never carry. Placing k shifts the value by
    the number of placed values in k+1..m_k, and the fields are read back
    into a ``TPoly`` once per shape."""
    n = m.n
    cap = [0] + [m.m_at(k) for k in range(1, n + 1)]
    charged = [0] + [(1 << cap[k]) - (1 << k) for k in range(1, n + 1)]
    barred = [0] + [
        sum(1 << (j - 1) for j in range(1, n + 1) if cap[j] < k)
        for k in range(1, n + 1)
    ]
    full = (1 << n) - 1
    field = factorial(n).bit_length()
    out = {}

    def grow(closed: dict, rows: tuple, done: int) -> None:
        # closed: placed -> value, all rows so far closed; the next row is
        # at least as long as the last one
        if done == n:
            out[rows] = closed[full]
            return
        if path is None:
            shortest, longest = (rows[-1] if rows else 1), n - done
        else:
            shortest = longest = path[len(rows)]
        layer = closed
        for length in range(1, longest + 1):
            nxt = {}
            get = nxt.get
            for state, value in layer.items():
                placed = state & full
                free = ~(state | state >> n) & full
                while free:
                    low = free & -free
                    k = low.bit_length()
                    now = placed | low
                    key = now | (barred[k] & ~now) << n
                    step = (placed & charged[k]).bit_count()
                    nxt[key] = get(key, 0) + (value << field * step)
                    free ^= low
            layer = nxt
            left = n - done - length
            if length >= shortest and (left == 0 or left >= length):
                # close the row here: nothing is barred at a row start
                ends = {}
                for state, value in layer.items():
                    ends[state & full] = ends.get(state & full, 0) + value
                grow(ends, rows + (length,), done + length)

    grow({0: 1}, (), 0)
    mask = (1 << field) - 1
    polys = {}
    for rows, value in out.items():
        counts, d = {}, 0
        while value:
            if value & mask:
                counts[d] = value & mask
            value >>= field
            d += 1
        polys[rows[::-1]] = TPoly._of(counts)
    return polys


@guarded
def betti_vector(m: HessenbergFunction, lam: Partition) -> TPoly:
    """sum_d beta_{2d} t^d: admissible tableaux of shape lam counted by
    unified dimension d, one reading-order position at a time, along the
    one path of lam's row lengths through the walk of ``betti_vectors``."""
    if lam.n != m.n:
        raise ValueError(f"{lam} is not a partition of {m.n}")
    return _walk(m, lam.parts[::-1])[lam.parts]


@guarded
def betti_vectors(m: HessenbergFunction) -> dict:
    """lambda -> ``betti_vector(m, lambda)`` for every partition lambda of
    n, in reverse lexicographic order, from one walk over the trie of row
    lengths that shares each open row among every length that closes it."""
    vectors = _walk(m)
    return {lam: vectors[lam.parts] for lam in partitions(m.n)}


@guarded
def betti_vector_bruteforce(m: HessenbergFunction, lam: Partition) -> TPoly:
    """Oracle for ``betti_vector``: filter all n! fillings, then count the
    admissible ones by Tymoczko's two-case ``cell_dimension``."""
    return TPoly((cell_dimension(t, m), 1) for t in admissible_tableaux(m, lam, force=True))


@guarded
def check_palindromic(m: HessenbergFunction, lam: Partition) -> bool:
    """Palindromicity of sum_d beta_{2d} t^d about the middle degree:
    p(t) = t^|m| p(1/t)."""
    p = betti_vector(m, lam, force=True)
    return p == p.reciprocal().shifted(weight(m))
