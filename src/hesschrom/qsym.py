"""Homogeneous quasisymmetric functions of one degree with Laurent
polynomial coefficients: M and F bases, the quasi-shuffle product, the
omega involution, symmetry detection, and conversions to the classical
symmetric bases m, e, h, p, s.

The omega involution on the M basis is implemented with the sign
(-1)^(n - length(beta)), which is the one forced by omega F_alpha =
F_{complement(alpha)} together with omega e = h; see the calibration
suite.
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


QSYM_BASES = ("M", "F")
SYM_BASES = ("m", "e", "h", "p", "s")


class QSymElement:
    """Immutable finite map from keys of degree n to TPoly, tagged with a
    basis: compositions for the quasisymmetric bases M and F, partitions
    for the symmetric bases m, e, h, p and s (a symmetric function is a
    quasisymmetric one read in another basis).

    Elements are shared through lru caches, so ``terms`` is a read-only
    mapping and no attribute can be assigned after construction.
    """

    __slots__ = ("n", "basis", "terms")

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

    def __setattr__(self, name, value):
        raise AttributeError(f"QSymElement is immutable; cannot set {name!r}")

    @classmethod
    def monomial(cls, key, basis: str = "M", coeff=1):
        return cls(key.n, basis, {key: _coerce_poly(coeff)})

    def coeff(self, key) -> TPoly:
        return self.terms.get(key, TPoly())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.basis, frozenset(self.terms.items())))

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


SymElement = QSymElement


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
    """The omega involution, on the M basis (F inputs are converted)."""
    if x.basis == "F":
        x = f_to_m(x)
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
    """Read a symmetric QSymElement off as a monomial-basis SymElement."""
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
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu."""
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
    """e/h/p/s_lambda expanded in the M basis.

    e, h, p are quasi-shuffle products of their one-row pieces; s_lambda
    is the Kostka expansion over semistandard tableaux.
    """
    if kind == "s":
        terms = {}
        for mu in partitions(lam.n):
            k = kostka(lam, mu)
            if k:
                terms.update(dict.fromkeys(m_partition_to_qsym(mu).terms, k))
        return QSymElement(lam.n, "M", terms)
    if kind not in ("e", "h", "p"):
        raise ValueError(f"unknown generator kind: {kind!r}")
    out = QSymElement(0, "M", {Composition(()): TPoly.const(1)})
    for part in lam.parts:
        out = quasi_shuffle(out, _one_part_generator(kind, part))
    return out


@lru_cache(maxsize=None)
def _transition_matrix(n: int, target: str):
    """Columns: generator(target, lam) in the m basis; rows and columns
    are indexed by partitions of n in reverse lexicographic order."""
    parts = list(partitions(n))
    index = {lam: i for i, lam in enumerate(parts)}
    cols = []
    for lam in parts:
        g = to_m_basis(generator(target, lam))
        col = [0] * len(parts)
        for mu, c in g.terms.items():
            col[index[mu]] = c.coeff(0)
        cols.append(col)
    matrix = [[cols[j][i] for j in range(len(parts))] for i in range(len(parts))]
    return parts, matrix


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
    if x.basis != "m":
        raise ValueError("expand_in_basis expects an m-basis input")
    if target == "m":
        return x
    parts, matrix = _transition_matrix(x.n, target)
    rhs = [x.coeff(lam) for lam in parts]
    sol = _solve_exact(matrix, rhs)
    return QSymElement(x.n, target, dict(zip(parts, sol)))


def contract_to_m(x: QSymElement) -> QSymElement:
    """Inverse of expand_in_basis: rewrite any basis back into m."""
    if x.basis == "m":
        return x
    acc = {}
    for lam, c in x.terms.items():
        for mu, v in to_m_basis(generator(x.basis, lam)).terms.items():
            _add_scaled(acc, mu, v * c)
    return _freeze(x.n, "m", acc)
