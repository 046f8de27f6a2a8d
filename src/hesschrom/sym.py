"""The partition-space layer: symmetric functions of degree n as vectors
over the partitions of n, and the exact integer matrices that change
between the m basis and the e, h, p, s and forgotten f bases.

Every change of basis goes through one matrix per (n, basis), built on
partitions alone and cached as tuples of ints.  ``_transition_matrix``
expands a basis in m: Kostka numbers by adding horizontal strips (Pieri),
h and e as sums of products of two Kostka columns, p by a memoised count
of the merges of one partition's parts into another's, f as S C S^-1
from the s matrix S and the conjugation of partitions C.
``_inverse_matrix`` goes back, by Hall duality and in ints: S^-1 by the
one forward substitution, S^-T S^-1 for h, S^-T C S^-1 for e, and for p
the matrix [h_mu] p_lambda, which is z_lambda times [p_lambda] m_mu.

``contract_to_m``, ``expand_in_basis`` and ``qsym.omega`` on the m basis
(omega m_lambda = f_lambda, and f is not a basis of ``QSymElement``)
multiply by these matrices in one pass over the nonzero entries that
``_columns`` holds column by column, as ``character.frobenius_image``
does.  A p expansion divides by z_lambda only at the output, and
imports ``fractions`` only when a coefficient leaves a remainder; an e,
h or s expansion holds ints and never imports it.  ``_solve_in_basis``
solves against ``_transition_matrix`` with Fractions for the two
character readouts, and its ``_solve_exact`` is the oracle for the
inverses.

The M-basis route to the columns, ``oracles.generator``, is their other
oracle; the matrices never take it.  Only an expansion into e, h, p or
s, a character, or omega on the m basis imports this module, so an
``xi`` request or an M- or m-basis ``xg`` request does not compile it.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from .base import DegreeMismatchError, Partition, partitions, z_of
from .qsym import SYM_BASES, QSymElement, _add_scaled, _freeze


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


def _conjugated(keys: list, rows) -> list:
    """C rows, with C the conjugation of the partitions keys: row i is the
    row of rows at the conjugate of keys[i]."""
    index = {lam: i for i, lam in enumerate(keys)}
    return [rows[index[_conjugate(lam)]] for lam in keys]


def _product(a, b) -> tuple:
    """The product of two int matrices given by rows, as tuples."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


@lru_cache(maxsize=None)
def _transition_matrix(n: int, target: str):
    """(partitions of n in reverse lexicographic order, matrix), with
    matrix[i][j] = [m_{lam_i}] target_{lam_j}, all as tuples.

    s is the Kostka matrix; h_mu = sum_lam K_{lam,mu} s_lam and
    e_mu = sum_lam K_{lam',mu} s_lam multiply two of its columns; p counts
    the merges of lam_j's parts into lam_i's.

    f: omega s_lam = s_{lam'} and omega m_lam = f_lam, so the f matrix is
    S C S^-1 in ints, with S the s matrix, C the conjugation of partitions
    and S^-1 from ``_inverse_matrix``.  It squares to the identity; the
    M-basis ``omega`` of ``oracles.m_partition_to_qsym(lam_j)`` is the
    oracle for its column j.
    """
    if target not in ("e", "f", "h", "p", "s"):
        raise ValueError(f"no transition matrix to the {target!r} basis")
    parts = tuple(partitions(n))
    keys = [lam.parts for lam in parts]
    if target == "p":
        return parts, tuple(tuple(_merges(lam, mu) for lam in keys) for mu in keys)
    if target == "f":
        s = _transition_matrix(n, "s")[1]
        return parts, _product(s, _conjugated(keys, _inverse_matrix(n, "s")[1]))
    col = {mu: _kostka_column(mu) for mu in keys}
    if target == "s":
        return parts, tuple(tuple(col[mu].get(lam, 0) for lam in keys) for mu in keys)
    flip = {nu: _conjugate(nu) if target == "e" else nu for nu in keys}
    return parts, tuple(
        tuple(sum(k * col[lam].get(flip[nu], 0) for nu, k in col[mu].items()) for lam in keys)
        for mu in keys
    )


@lru_cache(maxsize=None)
def _inverse_matrix(n: int, target: str):
    """(partitions of n in reverse lexicographic order, matrix), with
    matrix[i][j] = [target_{lam_i}] m_{lam_j}, times z_{lam_i} for p: the
    inverse of ``_transition_matrix(n, target)``, in ints, as tuples.

    s: S^-1 by forward substitution, S being lower unitriangular in this
    order.  Under the Hall inner product <h_lam, m_mu> = delta, so the m
    basis has Gram matrix H^-1; H = S S^T and E = S C S^T give
    H^-1 = S^-T S^-1 and E^-1 = S^-T C S^-1.  p: <p_lam, p_mu> = z_lam
    delta, so z_lam [p_lam] m_mu = <p_lam, m_mu> = [h_mu] p_lam, the matrix
    P^T H^-1 for the p matrix P, whose entries are ints (Newton's
    identities).
    """
    if target not in ("e", "h", "p", "s"):
        raise ValueError(f"no inverse matrix to the {target!r} basis")
    parts = tuple(partitions(n))
    if target == "p":
        p = _transition_matrix(n, "p")[1]
        return parts, _product(zip(*p), _inverse_matrix(n, "h")[1])
    if target != "s":
        inv = _inverse_matrix(n, "s")[1]
        right = _conjugated([lam.parts for lam in parts], inv) if target == "e" else inv
        return parts, _product(zip(*inv), right)
    s = _transition_matrix(n, "s")[1]
    k = len(parts)
    inv = [[0] * k for _ in range(k)]
    for j in range(k):
        inv[j][j] = 1
        for i in range(j + 1, k):
            row = s[i]
            inv[i][j] = -sum(row[l] * inv[l][j] for l in range(j, i))
    return parts, tuple(map(tuple, inv))


def _solve_exact(matrix, rhs):
    """Gaussian elimination with Fraction pivots. The rhs entries are
    scalars (ints or Fractions) or TPolys; the solution holds Fractions
    for scalars and TPolys for TPolys.  The oracle for ``_inverse_matrix``."""
    from fractions import Fraction  # only here, so no expansion request loads it

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


def _quotient(total, d: int):
    """total / d exactly: an int when d divides it, else a Fraction, so
    only a remainder imports ``fractions``."""
    q, r = divmod(total, d)
    if not r:
        return q
    from fractions import Fraction  # only a remainder gets here

    return Fraction(total, d)


@lru_cache(maxsize=None)
def _columns(n: int, basis: str, inverse: bool) -> Mapping:
    """lam_j -> the pairs (lam_i, entry) of the nonzero entries of column
    j of ``_transition_matrix(n, basis)``, or of ``_inverse_matrix(n,
    basis)`` if inverse.  Every caller passes all three arguments, so
    each matrix has one cache key."""
    parts, rows = (_inverse_matrix if inverse else _transition_matrix)(n, basis)
    return MappingProxyType({
        lam: tuple((mu, row[j]) for mu, row in zip(parts, rows) if row[j])
        for j, lam in enumerate(parts)
    })


def _apply(x: QSymElement, matrix: str, basis: str, inverse: bool = False) -> QSymElement:
    """sum_j x[lam_j] * (column j of the matrix ``_columns`` names), in
    ``basis``: one pass over its nonzero entries.  The p inverse holds
    z_mu [p_mu] m_lam, so its sums are divided by z_mu here, once."""
    columns = _columns(x.n, matrix, inverse)
    acc = {}
    for lam, c in x.terms.items():
        for mu, v in columns[lam]:
            _add_scaled(acc, mu, c, v)
    if inverse and matrix == "p":
        for mu, slot in acc.items():
            z = z_of(mu)
            for e, total in slot.items():
                slot[e] = _quotient(total, z)
    return _freeze(x.n, basis, acc)


def expand_in_basis(x: QSymElement, target: str) -> QSymElement:
    """Rewrite an m-basis element exactly in the e, h, p or s basis, by
    the cached ``_inverse_matrix``: an int input gives int coefficients in
    e, h and s."""
    if target not in SYM_BASES:
        raise ValueError(f"expand_in_basis: unknown target basis {target!r}")
    if x.basis != "m":
        raise ValueError(f"expand_in_basis expects an m-basis input, not {x.basis!r}")
    if target == "m":
        return x
    return _apply(x, target, target, inverse=True)


def contract_to_m(x: QSymElement) -> QSymElement:
    """Inverse of expand_in_basis: rewrite any symmetric basis back into m,
    one pass over the cached columns of the transition matrix."""
    if x.basis not in SYM_BASES:
        raise ValueError(f"contract_to_m expects a symmetric basis, not {x.basis!r}")
    if x.basis == "m":
        return x
    return _apply(x, x.basis, "m")
