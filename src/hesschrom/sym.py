"""The partition-space layer: symmetric functions of degree n as vectors
over the partitions of n, and the exact integer matrices that expand the
e, h, p, s and forgotten f bases in the m basis.

A change of basis goes through one matrix per (n, basis),
``_transition_matrix``, built on partitions alone and cached as tuples:
Kostka numbers by adding horizontal strips (Pieri), h and e as sums of
products of two Kostka columns, p by a memoised count of the merges of
one partition's parts into another's, f as S C S^-1 from the s matrix S
and the conjugation of partitions C.  ``_solve_in_basis`` solves against
it, for ``expand_in_basis`` and for the character readouts, which pass
scalar m-coefficients; ``contract_to_m`` multiplies by it, and so does
``qsym.omega`` on the m basis by the f matrix, as omega m_lambda =
f_lambda (f is not a basis of ``QSymElement``).  The two products, and
``character.frobenius_image``, read the matrix's nonzero entries column
by column from ``_columns``, built once per (n, basis).

The M-basis route, ``generator`` built from ``quasi_shuffle`` and
``kostka_bruteforce``, is kept here as the oracle for every column; the
matrices themselves never take it.

Only an expansion into e, h, p or s, a character, or omega on the m
basis imports this module, so an ``xi`` request or an M- or m-basis
``xg`` request does not compile it.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from .base import (
    Composition,
    DegreeMismatchError,
    Partition,
    compositions,
    partitions,
    rearrangements,
)
from .qsym import SYM_BASES, QSymElement, _add_scaled, _freeze, quasi_shuffle


def m_partition_to_qsym(lam: Partition) -> QSymElement:
    """The monomial symmetric function m_lambda as a sum of M_alpha."""
    return QSymElement(lam.n, "M", dict.fromkeys(rearrangements(lam), 1))


@lru_cache(maxsize=None)
def kostka_bruteforce(lam: Partition, mu: Partition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu,
    by filling the cells one at a time; the oracle for ``kostka``."""
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
    of ``_transition_matrix``.

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


def _add_strip(shape: tuple, r: int):
    """Shapes made by adding r cells to shape, at most one per column: row
    i may grow up to the old length of row i - 1."""
    rows = shape + (0,)

    def rec(i, left, grown):
        if i == len(rows):
            if not left:
                yield grown[:-1] if grown[-1] == 0 else grown
            return
        room = rows[i - 1] - rows[i] if i else left
        for a in range(min(room, left), -1, -1):
            yield from rec(i + 1, left - a, grown + (rows[i] + a,))

    return rec(0, r, ())


@lru_cache(maxsize=None)
def _kostka_column(content: tuple) -> Mapping:
    """shape -> K_{shape, content}, the Schur expansion of h_content, one
    horizontal strip per part (Pieri); content prefixes share the cache."""
    if not content:
        return MappingProxyType({(): 1})
    out = {}
    for shape, k in _kostka_column(content[:-1]).items():
        for grown in _add_strip(shape, content[-1]):
            out[grown] = out.get(grown, 0) + k
    return MappingProxyType(out)


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu."""
    if lam.n != mu.n:
        raise DegreeMismatchError("shape and content must have the same size")
    return _kostka_column(mu.parts).get(lam.parts, 0)


@lru_cache(maxsize=None)
def _merges(parts: tuple, slots: tuple) -> int:
    """Maps sending each of the parts to one of the slots so that every
    slot receives exactly its size: [m_slots] p_parts. Slots are kept in
    descending order, as the count does not depend on their order."""
    if not parts:
        return 1
    first, rest = parts[0], parts[1:]
    total = 0
    for size in set(slots):
        if size >= first:
            left = list(slots)
            left.remove(size)
            if size > first:
                left.append(size - first)
            total += slots.count(size) * _merges(rest, tuple(sorted(left, reverse=True)))
    return total


def _conjugate(parts: tuple) -> tuple:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0))


@lru_cache(maxsize=None)
def _transition_matrix(n: int, target: str):
    """(partitions of n in reverse lexicographic order, matrix), with
    matrix[i][j] = [m_{lam_i}] target_{lam_j}, all as tuples.

    s is the Kostka matrix; h_mu = sum_lam K_{lam,mu} s_lam and
    e_mu = sum_lam K_{lam',mu} s_lam multiply two of its columns; p counts
    the merges of lam_j's parts into lam_i's.

    f: omega s_lam = s_{lam'} and omega m_lam = f_lam, so the f matrix is
    S C S^-1 in ints, with S the s matrix (lower unitriangular in this
    order), C the conjugation of partitions and S^-1 by forward
    substitution.  It squares to the identity; the M-basis ``omega`` of
    ``m_partition_to_qsym(lam_j)`` is the oracle for its column j.
    """
    if target not in ("e", "f", "h", "p", "s"):
        raise ValueError(f"no transition matrix to the {target!r} basis")
    parts = tuple(partitions(n))
    keys = [lam.parts for lam in parts]
    if target == "p":
        return parts, tuple(tuple(_merges(lam, mu) for lam in keys) for mu in keys)
    if target == "f":
        s = _transition_matrix(n, "s")[1]
        k = len(keys)
        inv = [[0] * k for _ in range(k)]
        for j in range(k):
            inv[j][j] = 1
            for i in range(j + 1, k):
                row = s[i]
                inv[i][j] = -sum(row[l] * inv[l][j] for l in range(j, i))
        index = {lam: i for i, lam in enumerate(keys)}
        # row i of C S^-1 is the row of S^-1 at the conjugate of lam_i
        flipped = [inv[index[_conjugate(lam)]] for lam in keys]
        columns = tuple(zip(*flipped))
        return parts, tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in s)
    col = {mu: _kostka_column(mu) for mu in keys}
    if target == "s":
        return parts, tuple(tuple(col[mu].get(lam, 0) for lam in keys) for mu in keys)
    flip = {nu: _conjugate(nu) if target == "e" else nu for nu in keys}
    return parts, tuple(
        tuple(sum(k * col[lam].get(flip[nu], 0) for nu, k in col[mu].items()) for lam in keys)
        for mu in keys
    )


def _solve_exact(matrix, rhs):
    """Gaussian elimination with Fraction pivots. The rhs entries are
    scalars (ints or Fractions) or TPolys; the solution holds Fractions
    for scalars and TPolys for TPolys."""
    from fractions import Fraction  # only here, so m- and M-basis requests skip it

    k = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(k)] for i in range(k)]
    b = list(rhs)
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = b[col] * inv
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                b[r] = b[r] - b[col] * f
    return b


def _solve_in_basis(n: int, basis: str, rhs: list) -> list:
    """The coefficients, in ``partitions(n)`` order, in the e, h, p or s
    basis of the degree-n symmetric function whose m-coefficients rhs
    lists in the same order: ``_solve_exact`` against
    ``_transition_matrix(n, basis)``."""
    return _solve_exact(_transition_matrix(n, basis)[1], rhs)


def expand_in_basis(x: QSymElement, target: str) -> QSymElement:
    """Rewrite an m-basis element exactly in the e, h, p or s basis."""
    if target not in SYM_BASES:
        raise ValueError(f"expand_in_basis: unknown target basis {target!r}")
    if x.basis != "m":
        raise ValueError(f"expand_in_basis expects an m-basis input, not {x.basis!r}")
    if target == "m":
        return x
    parts = tuple(partitions(x.n))
    sol = _solve_in_basis(x.n, target, [x.coeff(lam) for lam in parts])
    return QSymElement(x.n, target, dict(zip(parts, sol)))


@lru_cache(maxsize=None)
def _columns(n: int, basis: str) -> Mapping:
    """lam_j -> the pairs (lam_i, entry) of the nonzero entries of column
    j of ``_transition_matrix(n, basis)``."""
    parts, rows = _transition_matrix(n, basis)
    return MappingProxyType({
        lam: tuple((mu, row[j]) for mu, row in zip(parts, rows) if row[j])
        for j, lam in enumerate(parts)
    })


def _apply(x: QSymElement, matrix: str, basis: str) -> QSymElement:
    """sum_j x[lam_j] * (column j of ``_transition_matrix(n, matrix)``),
    in ``basis``: one pass over the nonzero entries ``_columns`` holds."""
    columns = _columns(x.n, matrix)
    acc = {}
    for lam, c in x.terms.items():
        for mu, v in columns[lam]:
            _add_scaled(acc, mu, c, v)
    return _freeze(x.n, basis, acc)


def contract_to_m(x: QSymElement) -> QSymElement:
    """Inverse of expand_in_basis: rewrite any symmetric basis back into m,
    one pass over the cached columns of the transition matrix."""
    if x.basis not in SYM_BASES:
        raise ValueError(f"contract_to_m expects a symmetric basis, not {x.basis!r}")
    if x.basis == "m":
        return x
    return _apply(x, x.basis, "m")
