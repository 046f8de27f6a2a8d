"""Homogeneous quasisymmetric functions of one degree with Laurent
polynomial coefficients: M and F bases, the quasi-shuffle product, the
omega involution, symmetry detection, and conversions to the classical
symmetric bases m, e, h, p, s.

The omega involution on the M basis is implemented with the sign
(-1)^(n - length(beta)), which is the one forced by omega F_alpha =
F_{complement(alpha)} together with omega e = h; see the calibration
suite.

The change of basis between m and e, h, p or s goes through one matrix
per (n, basis), ``_transition_matrix``, built on partitions alone and
cached as tuples: Kostka numbers by adding horizontal strips (Pieri),
h and e as sums of products of two Kostka columns, p by a memoised count
of the merges of one partition's parts into another's.
``expand_in_basis`` solves against it and ``contract_to_m`` multiplies
by it. The M-basis route, ``generator`` built from ``quasi_shuffle``
and ``kostka_bruteforce``, is kept as the oracle for every column.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .base import (
    Composition,
    DegreeMismatchError,
    Partition,
    TPoly,
    _Frozen,
    compositions,
    partitions,
    rearrangements,
)


class NotSymmetricError(ValueError):
    """Input is quasisymmetric but not symmetric; carries a witness pair."""

    def __init__(self, alpha: Composition, sorted_alpha: Composition):
        self.witness = (alpha, sorted_alpha)
        super().__init__(
            f"not symmetric: coefficient of M_{alpha} differs from M_{sorted_alpha}"
        )


def _coerce_poly(c) -> TPoly:
    return c if isinstance(c, TPoly) else TPoly.const(c)


# Producers sum many terms into one element. They accumulate plain
# key -> {exponent: coefficient} dicts and build the element once at the
# end: `out += ...` in a loop copies the whole term map on every step.


def _add_scaled(acc: dict, key, poly: TPoly, scale=1) -> None:
    """acc[key] += scale * poly, on the accumulator's exponent dicts."""
    slot = acc.setdefault(key, {})
    for e, c in poly.terms.items():
        slot[e] = slot.get(e, 0) + scale * c


def _freeze(n: int, basis: str, acc: dict):
    """The element holding an accumulator; cancelled coefficients drop out."""
    return QSymElement(n, basis, {key: TPoly(slot) for key, slot in acc.items()})


def _unpack(n: int, value: dict):
    """The M-basis element held by the final value of the subset DPs in
    ``chromatic`` and ``pathqsym``: each key packs a t-exponent above bit
    n and, below it, the positions at which blocks or paths start."""
    acc = {}
    for key, count in value.items():
        acc.setdefault(key & ((1 << n) - 1), {})[key >> n] = count
    out = {}
    for starts, exps in acc.items():
        bars = [p for p in range(1, n) if starts >> p & 1]
        out[Composition.from_bars(n, bars)] = exps
    return _freeze(n, "M", out)


QSYM_BASES = ("M", "F")
SYM_BASES = ("m", "e", "h", "p", "s")


class QSymElement(_Frozen):
    """Immutable finite map from keys of degree n to TPoly, tagged with a
    basis: compositions for the quasisymmetric bases M and F, partitions
    for the symmetric bases m, e, h, p and s (a symmetric function is a
    quasisymmetric one read in another basis).

    Elements are shared through lru caches, so ``terms`` is a read-only
    mapping and, as for every ``_Frozen`` value, no field can be assigned
    or deleted after construction.  A read-only mapping can be neither
    hashed nor pickled, so ``__hash__`` and ``__reduce__`` read it as a
    frozenset and a dict.
    """

    __slots__ = _fields = ("n", "basis", "terms")

    def __init__(self, n: int, basis: str, terms=None):
        if basis not in QSYM_BASES + SYM_BASES:
            raise ValueError(f"unknown basis: {basis!r}")
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, c in items:
                if key.n != n:
                    kind = "composition" if basis in QSYM_BASES else "partition"
                    raise DegreeMismatchError(f"{key} is not a {kind} of {n}")
                c = _coerce_poly(c)
                s = clean.get(key, TPoly()) + c
                if s:
                    clean[key] = s
                else:
                    clean.pop(key, None)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def monomial(cls, key, basis: str = "M", coeff=1):
        return cls(key.n, basis, {key: _coerce_poly(coeff)})

    def coeff(self, key) -> TPoly:
        return self.terms.get(key, TPoly())

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, self.basis, frozenset(self.terms.items())))

    def __reduce__(self):
        return QSymElement, (self.n, self.basis, dict(self.terms))

    def __add__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        if self.n != other.n or self.basis != other.basis:
            raise DegreeMismatchError("can only add equal degree and basis")
        return QSymElement(
            self.n, self.basis, itertools.chain(self.terms.items(), other.terms.items())
        )

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "QSymElement":
        c = _coerce_poly(c)
        return QSymElement(self.n, self.basis, {k: v * c for k, v in self.terms.items()})

    def t_slice(self, d: int) -> "QSymElement":
        """Constant-coefficient element holding the t^d coefficients."""
        return QSymElement(
            self.n,
            self.basis,
            {k: TPoly.const(c.coeff(d)) for k, c in self.terms.items()},
        )

    def sorted_terms(self):
        """(key, coefficient) pairs, partitions in descending order and
        compositions in ascending order."""
        return sorted(
            self.terms.items(),
            key=lambda kv: kv[0].parts,
            reverse=self.basis in SYM_BASES,
        )

    def __repr__(self):
        body = " + ".join(f"({c}) {self.basis}{k}" for k, c in self.sorted_terms())
        return body or "0"


def _supersets_of(alpha: Composition):
    """All compositions beta with bars(beta) >= bars(alpha)."""
    base = alpha.bars()
    free = [b for b in range(1, alpha.n) if b not in base]
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            yield Composition.from_bars(alpha.n, base | set(extra))


def f_to_m(x: QSymElement) -> QSymElement:
    if x.basis != "F":
        raise ValueError("f_to_m expects the F basis")
    acc = {}
    for alpha, c in x.terms.items():
        for beta in _supersets_of(alpha):
            _add_scaled(acc, beta, c)
    return _freeze(x.n, "M", acc)


def m_to_f(x: QSymElement) -> QSymElement:
    if x.basis != "M":
        raise ValueError("m_to_f expects the M basis")
    acc = {}
    for alpha, c in x.terms.items():
        for beta in _supersets_of(alpha):
            _add_scaled(acc, beta, c, (-1) ** (beta.num_bars - alpha.num_bars))
    return _freeze(x.n, "F", acc)


def _subsets_of(beta: Composition):
    """All compositions alpha with bars(alpha) <= bars(beta)."""
    bars = sorted(beta.bars())
    for r in range(len(bars) + 1):
        for sub in itertools.combinations(bars, r):
            yield Composition.from_bars(beta.n, sub)


def omega(x: QSymElement) -> QSymElement:
    """The omega involution, on the M basis (F inputs are converted); an
    m-basis input stays in the m basis, through ``_omega_matrix``."""
    if x.basis == "m":
        return _apply(x, *_omega_matrix(x.n), "m")
    if x.basis == "F":
        x = f_to_m(x)
    elif x.basis != "M":
        raise ValueError(f"omega expects the M, F or m basis, not {x.basis!r}")
    acc = {}
    for beta, c in x.terms.items():
        sign = (-1) ** (x.n - beta.length)
        for alpha in _subsets_of(beta):
            _add_scaled(acc, alpha, c, sign)
    return _freeze(x.n, "M", acc)


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
    return QSymElement(
        x.n + y.n,
        "M",
        {Composition(parts): TPoly(slot) for parts, slot in acc.items()},
    )


def is_symmetric(x: QSymElement) -> bool:
    if x.basis != "M":
        raise ValueError("is_symmetric expects the M basis")
    return _symmetry_witness(x) is None


def _symmetry_witness(x: QSymElement):
    lams = {alpha.sorted_partition() for alpha in x.terms}
    for lam in lams:
        ref = x.coeff(lam.as_composition())
        for alpha in rearrangements(lam):
            if x.coeff(alpha) != ref:
                return (alpha, lam.as_composition())
    return None


def to_m_basis(x: QSymElement) -> QSymElement:
    """Read a symmetric QSymElement off in the monomial basis m."""
    if x.basis != "M":
        raise ValueError("to_m_basis expects the M basis")
    witness = _symmetry_witness(x)
    if witness is not None:
        raise NotSymmetricError(*witness)
    terms = {}
    for alpha, c in x.terms.items():
        lam = alpha.sorted_partition()
        if alpha.parts == lam.parts:
            terms[lam] = c
    return QSymElement(x.n, "m", terms)


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
    if k == 0:
        return QSymElement(0, "M", {Composition(()): TPoly.const(1)})
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
    out = QSymElement(0, "M", {Composition(()): TPoly.const(1)})
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
    """
    if target not in ("e", "h", "p", "s"):
        raise ValueError(f"no transition matrix to the {target!r} basis")
    parts = tuple(partitions(n))
    keys = [lam.parts for lam in parts]
    if target == "p":
        return parts, tuple(tuple(_merges(lam, mu) for lam in keys) for mu in keys)
    col = {mu: _kostka_column(mu) for mu in keys}
    if target == "s":
        return parts, tuple(tuple(col[mu].get(lam, 0) for lam in keys) for mu in keys)
    flip = {nu: _conjugate(nu) if target == "e" else nu for nu in keys}
    return parts, tuple(
        tuple(sum(k * col[lam].get(flip[nu], 0) for nu, k in col[mu].items()) for lam in keys)
        for mu in keys
    )


def _solve_exact(matrix, rhs):
    """Gaussian elimination with Fraction pivots; rhs entries are TPoly."""
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


def expand_in_basis(x: QSymElement, target: str) -> QSymElement:
    """Rewrite an m-basis element exactly in the e, h, p or s basis."""
    if target not in SYM_BASES:
        raise ValueError(f"expand_in_basis: unknown target basis {target!r}")
    if x.basis != "m":
        raise ValueError(f"expand_in_basis expects an m-basis input, not {x.basis!r}")
    if target == "m":
        return x
    parts, matrix = _transition_matrix(x.n, target)
    rhs = [x.coeff(lam) for lam in parts]
    sol = _solve_exact(matrix, rhs)
    return QSymElement(x.n, target, dict(zip(parts, sol)))


def _apply(x: QSymElement, parts: tuple, matrix: tuple, basis: str) -> QSymElement:
    """sum_j x[parts[j]] * (column j of matrix), in ``basis``: one pass
    over the columns of a cached partition-space matrix."""
    acc = {}
    for lam, c in x.terms.items():
        j = parts.index(lam)
        for mu, row in zip(parts, matrix):
            if row[j]:
                _add_scaled(acc, mu, c, row[j])
    return _freeze(x.n, basis, acc)


def contract_to_m(x: QSymElement) -> QSymElement:
    """Inverse of expand_in_basis: rewrite any symmetric basis back into m,
    one pass over the cached columns of the transition matrix."""
    if x.basis not in SYM_BASES:
        raise ValueError(f"contract_to_m expects a symmetric basis, not {x.basis!r}")
    if x.basis == "m":
        return x
    return _apply(x, *_transition_matrix(x.n, x.basis), "m")


@lru_cache(maxsize=None)
def _omega_matrix(n: int):
    """(partitions of n in reverse lexicographic order, matrix), with
    matrix[i][j] = [m_{lam_i}] omega(m_{lam_j}), all as tuples: column j
    is the forgotten symmetric function f_{lam_j} = omega(m_{lam_j}), the
    M-basis ``omega`` of ``m_partition_to_qsym(lam_j)`` read off by
    ``to_m_basis``. omega is an involution, so the matrix squares to the
    identity."""
    parts = tuple(partitions(n))
    cols = [to_m_basis(omega(m_partition_to_qsym(lam))) for lam in parts]
    return parts, tuple(tuple(col.coeff(mu).coeff(0) for col in cols) for mu in parts)
