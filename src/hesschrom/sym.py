"""The partition-space layer: symmetric functions of degree n as vectors
over the partitions of n, and the exact integer matrices that change
between the m basis and the e, h, p, s and forgotten f bases.

``_matrix(n, name)`` builds each matrix once per (n, name), cached as
tuples of ints.  Three are built on partitions: S, the s basis in m,
from Kostka numbers by adding horizontal strips (Pieri); P, the p basis
in m, by a memoised count of the merges of one partition's parts into
another's; and S^-1 by one forward substitution.  Every other name is
one product of these and the conjugation of partitions C, by Hall
duality.

``contract_to_m``, ``expand_in_basis`` and ``qsym.omega`` on the m basis
(omega m_lambda = f_lambda, and f is not a basis of ``QSymElement``)
multiply by these matrices in one pass over the nonzero entries that
``_columns`` holds column by column, as ``character.frobenius_image``
does.  A p expansion divides by z_lambda only at the output, and
imports ``fractions`` only when a coefficient leaves a remainder; an e,
h or s expansion holds ints and never imports it.  The two character
readouts solve against the p and s matrices with ``_solve_exact``, the
Fraction elimination that is also the oracle for the inverses.

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
def _matrix(n: int, name: str) -> tuple:
    """The rows, as tuples of ints, of the matrix name over the partitions
    of n in reverse lexicographic order.  For a basis b of e, f, h, p and
    s, row i column j holds [m_{lam_i}] b_{lam_j}; for b^-1, with b of e,
    h, p and s, it holds the inverse [b_{lam_i}] m_{lam_j}, times z_{lam_i}
    for p.

    S, P and S^-1 are built on partitions (S is lower unitriangular in
    this order).  The rest is Hall duality (Macdonald I §§4, 6), with C the
    conjugation of partitions: h_mu = sum_lam K_{lam,mu} s_lam and e_mu =
    sum_lam K_{lam',mu} s_lam give H = S S^T and E = S C S^T; omega s_lam =
    s_lam' and omega m_lam = f_lam give f = S C S^-1, an involution.  As
    <h_lam, m_mu> = delta, the m basis has Gram matrix H^-1 = S^-T S^-1,
    and E^-1 = S^-T C S^-1.  As <p_lam, p_mu> = z_lam delta, z_lam [p_lam]
    m_mu = <p_lam, m_mu> = [h_mu] p_lam, the matrix P^T H^-1, whose entries
    are ints (Newton's identities).
    """
    keys = [lam.parts for lam in partitions(n)]
    if name == "s":
        return tuple(tuple(col.get(lam, 0) for lam in keys) for col in map(_kostka_column, keys))
    if name == "p":
        return tuple(tuple(_merges(lam, mu) for lam in keys) for mu in keys)
    if name == "p^-1":
        return _product(zip(*_matrix(n, "p")), _matrix(n, "h^-1"))
    s = _matrix(n, "s")
    if name == "h":
        return _product(s, zip(*s))
    if name == "e":
        return _product(s, _conjugated(keys, tuple(zip(*s))))
    if name == "s^-1":
        k = len(keys)
        inv = [[0] * k for _ in range(k)]
        for j in range(k):
            inv[j][j] = 1
            for i in range(j + 1, k):
                row = s[i]
                inv[i][j] = -sum(row[l] * inv[l][j] for l in range(j, i))
        return tuple(map(tuple, inv))
    inv = _matrix(n, "s^-1")
    if name == "f":
        return _product(s, _conjugated(keys, inv))
    if name == "h^-1":
        return _product(zip(*inv), inv)
    if name == "e^-1":
        return _product(zip(*inv), _conjugated(keys, inv))
    raise ValueError(f"no matrix named {name!r}")


def _solve_exact(matrix, rhs):
    """Gaussian elimination with Fraction pivots. The rhs entries are
    scalars (ints or Fractions) or TPolys; the solution holds Fractions
    for scalars and TPolys for TPolys.  The two character readouts solve
    with it, and it is the oracle for the inverses."""
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


def _quotient(total, d: int):
    """total / d exactly: an int when d divides it, else a Fraction, so
    only a remainder imports ``fractions``."""
    q, r = divmod(total, d)
    if not r:
        return q
    from fractions import Fraction  # only a remainder gets here

    return Fraction(total, d)


@lru_cache(maxsize=None)
def _columns(n: int, name: str) -> Mapping:
    """lam_j -> the pairs (lam_i, entry) of the nonzero entries of column
    j of ``_matrix(n, name)``."""
    parts = tuple(partitions(n))
    rows = _matrix(n, name)
    return MappingProxyType({
        lam: tuple((mu, row[j]) for mu, row in zip(parts, rows) if row[j])
        for j, lam in enumerate(parts)
    })


def _apply(x: QSymElement, name: str, basis: str) -> QSymElement:
    """sum_j x[lam_j] * (column j of ``_matrix(x.n, name)``), in basis: one
    pass over its nonzero entries.  The p inverse holds z_mu [p_mu] m_lam,
    so its sums are divided by z_mu here, once."""
    columns = _columns(x.n, name)
    acc = {}
    for lam, c in x.terms.items():
        for mu, v in columns[lam]:
            _add_scaled(acc, mu, c, v)
    if name == "p^-1":
        for mu, slot in acc.items():
            z = z_of(mu)
            for e, total in slot.items():
                slot[e] = _quotient(total, z)
    return _freeze(x.n, basis, acc)


def expand_in_basis(x: QSymElement, target: str) -> QSymElement:
    """Rewrite an m-basis element exactly in the e, h, p or s basis, by
    the cached inverse matrix: an int input gives int coefficients in e,
    h and s."""
    if target not in SYM_BASES:
        raise ValueError(f"expand_in_basis: unknown target basis {target!r}")
    if x.basis != "m":
        raise ValueError(f"expand_in_basis expects an m-basis input, not {x.basis!r}")
    if target == "m":
        return x
    return _apply(x, target + "^-1", target)


def contract_to_m(x: QSymElement) -> QSymElement:
    """Inverse of expand_in_basis: rewrite any symmetric basis back into m,
    one pass over the cached columns of its matrix."""
    if x.basis not in SYM_BASES:
        raise ValueError(f"contract_to_m expects a symmetric basis, not {x.basis!r}")
    if x.basis == "m":
        return x
    return _apply(x, x.basis, "m")
