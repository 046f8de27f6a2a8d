"""Homogeneous quasisymmetric functions of one degree with Laurent
polynomial coefficients: ``QSymElement``, the M and F bases, the
quasi-shuffle product, the omega involution, symmetry detection and the
reading of a symmetric element in the monomial basis m
(``to_m_basis``); ``_unpack``, the decoder of the packed keys of the
subset DPs in ``chromatic`` and ``pathqsym``; and ``_check_stat``, the
check of their asc/des statistic argument.

The omega involution on the M basis is implemented with the sign
(-1)^(n - length(beta)), which is the one forced by omega F_alpha =
F_{complement(alpha)} together with omega e = h; see the calibration
suite. On the m basis omega m_lambda is the forgotten symmetric function
f_lambda, so ``omega`` applies the matrix ``sym._transition_matrix(n, "f")``.

The partition-space layer (the e, h, p and s bases, Kostka numbers and
the M-basis generators that are their oracle) lives in ``sym``, which
imports this module; this module imports ``sym`` only inside ``omega``'s
m-basis branch, so an ``xi`` request or an M- or m-basis ``xg`` request
compiles none of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from numbers import Rational
from types import MappingProxyType

from .base import Composition, DegreeMismatchError, Partition, TPoly, _Frozen, _is_number
from .base import _merge, rearrangements


class NotSymmetricError(ValueError):
    """Input is quasisymmetric but not symmetric; carries a witness pair."""

    def __init__(self, alpha: Composition, sorted_alpha: Composition):
        self.witness = (alpha, sorted_alpha)
        super().__init__(
            f"not symmetric: coefficient of M_{alpha} differs from M_{sorted_alpha}"
        )


# every missing coefficient reads as this one TPoly, which is immutable
_ZERO = TPoly()


def _coerce_poly(c) -> TPoly:
    if isinstance(c, TPoly) or _is_number(c, (int, Rational)):
        return TPoly._coerced(c)
    raise TypeError(f"coefficient {c!r} is not a TPoly, an int or a Rational")


# Producers sum many terms into one element. They accumulate plain
# key -> {exponent: coefficient} dicts and build the element once at the
# end: `out += ...` in a loop copies the whole term map on every step.


def _add_scaled(acc: dict, key, poly: TPoly, scale=1) -> None:
    """acc[key] += scale * poly, on the accumulator's exponent dicts."""
    _merge(acc.setdefault(key, {}), poly.terms.items(), scale)


def _freeze(n: int, basis: str, acc: dict):
    """The element holding an accumulator of exponent dicts with no zero
    coefficient, as ``_add_scaled`` leaves them; each dict becomes its
    TPoly's terms, and an empty one drops out."""
    return QSymElement(n, basis, {key: TPoly._of(slot) for key, slot in acc.items()})


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


def _check_stat(stat: str) -> None:
    """The one check of the statistic argument of X_G, Xi_D and their oracles."""
    if stat not in ("asc", "des"):
        raise ValueError(f"stat must be 'asc' or 'des': {stat!r}")


QSYM_BASES = ("M", "F")
SYM_BASES = ("m", "e", "h", "p", "s")


def _check_key(key, basis: str, n: int) -> None:
    """The key rule that ``QSymElement``'s docstring states, shared by its
    constructor and ``coeff``."""
    kind = Composition if basis in QSYM_BASES else Partition
    if not isinstance(key, kind):
        raise TypeError(f"basis {basis} takes {kind.__name__} keys, not {key!r}")
    if key.n != n:
        raise DegreeMismatchError(f"{key} is not a {kind.__name__.lower()} of {n}")


class QSymElement(_Frozen):
    """Immutable finite map from keys of degree n to TPoly, tagged with a
    basis: compositions for the quasisymmetric bases M and F, partitions
    for the symmetric bases m, e, h, p and s (a symmetric function is a
    quasisymmetric one read in another basis).  A key of the other kind, a
    degree n that is not an int or a coefficient that is not a TPoly, an int
    or a Rational (a bool is neither) raises ``TypeError``, and a key of
    another degree ``DegreeMismatchError``.

    Elements are shared through lru caches, so ``terms`` is a read-only
    mapping, as is each coefficient's, and, as for every ``_Frozen``
    value, no field can be assigned or deleted after construction.

    Construction takes one pass: each coefficient is made a TPoly once,
    zeros are dropped, and coefficients are added only where an iterable of
    pairs repeats a key.  A TPoly coefficient that is not added to is kept
    as it is, not copied.
    """

    __slots__ = _fields = ("n", "basis", "terms")

    def __init__(self, n: int, basis: str, terms=None):
        if not _is_number(n):
            raise TypeError(f"degree {n!r} is not an int")
        if basis not in QSYM_BASES + SYM_BASES:
            raise ValueError(f"unknown basis: {basis!r}")
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, c in items:
                _check_key(key, basis, n)
                c = _coerce_poly(c)
                if key in clean:
                    c = clean[key] + c
                if c:
                    clean[key] = c
                else:
                    clean.pop(key, None)
        super().__init__(n, basis, MappingProxyType(clean))

    @classmethod
    def monomial(cls, key, basis: str = "M", coeff=1):
        return cls(key.n, basis, {key: _coerce_poly(coeff)})

    def coeff(self, key) -> TPoly:
        """The coefficient of key, zero if absent; raises on a key the constructor refuses."""
        _check_key(key, self.basis, self.n)
        return self.terms.get(key, _ZERO)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        if self.n != other.n or self.basis != other.basis:
            raise DegreeMismatchError("can only add equal degree and basis")
        return QSymElement(
            self.n, self.basis, itertools.chain(self.terms.items(), other.terms.items())
        )

    def __sub__(self, other):
        if not isinstance(other, QSymElement):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, c) -> "QSymElement":
        c = _coerce_poly(c)
        return QSymElement(self.n, self.basis, {k: v * c for k, v in self.terms.items()})

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
    """The omega involution, on the M basis; an m-basis input stays in the
    m basis, through the forgotten basis f."""
    if x.basis == "m":
        from .sym import _apply  # only the m basis needs sym
        return _apply(x, "f", "m")
    if x.basis != "M":
        raise ValueError(f"omega expects the M or m basis, not {x.basis!r}")
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
    return _freeze(x.n + y.n, "M", {Composition(p): slot for p, slot in acc.items()})


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
