"""Exact primitives: Laurent polynomials in t, compositions with their bar
calculus, integer partitions, and permutations with cycle types; the
Report that every check returns; and the size guard that every
exponential entry point declares with ``@guarded``.

All values but Reports are immutable after construction and all
arithmetic is exact: arbitrary-precision integers, and Fractions inside
the character readouts' solve and in the results that keep them for
good, such as a p-basis expansion.  Results that are integers by theorem
hold ints: e, h and s expansions, which multiply by integer inverse
matrices, the character readouts, and ``frobenius_image``, which sums in
ints and divides by n! once.

Value types, here and in the other modules, are hand-written slotted
classes on the private ``_Frozen`` base below, ``TPoly`` among them,
which gives every one of them its construction, equality, hashing,
``repr`` and copying from its ``_fields``.  Only ``Composition`` and
``Partition``, through their shared base ``_Parts``, write their own
``__eq__`` and ``__hash__`` (they are the hot dict and lru keys), and
``TPoly`` its own (it equals the scalar it is constant at).  No module of
the package imports ``dataclasses``, and this one does not import
``fractions``: every CLI request is a fresh process that imports this
module, and with cached bytecode ``dataclasses`` (through the ``inspect``
it loads) cost each cold request about 8 ms, ``fractions`` (through
``decimal``) about 3 ms, and the dataclass decorators on eleven classes a
few ms more, although ``betti`` and ``enumerate`` requests never make a
Fraction.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import WRAPPER_ASSIGNMENTS, lru_cache, wraps
from math import factorial
from numbers import Rational
from types import MappingProxyType


class DegreeMismatchError(ValueError):
    """Two objects of different degree n were combined."""


class BoundExceededError(ValueError):
    """An enumeration exceeded the configured size guard."""


DEFAULT_MAX_N = 8


def _is_number(x, kind=int) -> bool:
    """isinstance(x, kind) for anything but a bool: a bool is an int to
    Python, but not a size, a part, a degree, an exponent or a coefficient."""
    return isinstance(x, kind) and x.__class__ is not bool


# help() shows the signature of the guarded function, so the guard's
# keywords are named in the docstring instead
_GUARD_DOC = """

    Size guard: raises ``BoundExceededError`` if n exceeds the keyword
    ``max_n`` (default ``DEFAULT_MAX_N``), unless ``force=True``."""


def guarded(fn):
    """Give fn the size guard.  The wrapper takes fn's arguments plus the
    keywords ``max_n`` (default ``DEFAULT_MAX_N``) and ``force`` (default
    False), raises ``TypeError`` if the first argument is neither an int
    nor has an int ``n`` (a bool is neither), ``BoundExceededError`` if
    that size n exceeds ``max_n`` and force is off, and then calls fn with
    its own arguments only: an ``lru_cache`` under the guard is keyed on
    them alone, and the wrapper forwards its ``cache_info`` and
    ``cache_clear``.  Callers inside the package pass ``force=True`` once
    their own entry point has checked."""

    @wraps(fn, assigned=WRAPPER_ASSIGNMENTS + ("cache_info", "cache_clear"))
    def run(arg, /, *args, max_n: int = DEFAULT_MAX_N, force: bool = False, **kwargs):
        n = arg if _is_number(arg) else getattr(arg, "n", None)
        if not _is_number(n):
            raise TypeError(f"{fn.__name__}: {arg!r} is neither an int nor has an int n")
        if not force and n > max_n:
            raise BoundExceededError(
                f"size {n} exceeds the enumeration guard ({max_n}); "
                f"pass force=True (or --force) to override"
            )
        return fn(arg, *args, **kwargs)

    run.__doc__ = (fn.__doc__ or "") + _GUARD_DOC
    return run


class FrozenInstanceError(AttributeError):
    """An attribute of an immutable value was assigned or deleted."""


class _Frozen:
    """Base of the immutable value types: slotted, with fields set once by
    ``_Frozen.__init__`` and never again.  ``_fields`` names the
    constructor's arguments, in order, and drives the rest: equality (same
    class, equal fields), the hash of the tuple of fields, a
    dataclass-style ``repr``, and a ``__reduce__`` that rebuilds through
    the constructor, so ``pickle`` and ``copy`` work although
    ``__setattr__`` refuses.  A field that holds a read-only mapping
    (``TPoly.terms``, ``QSymElement.terms``) can be neither hashed nor
    pickled, so the hash reads it as a frozenset of its items and
    ``__reduce__`` as a dict.  A validating constructor calls
    ``_Frozen.__init__`` once with every field; ``_of`` builds an instance
    of values already known to be valid, without the class's checks."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *values):
        """An instance holding values, with none of the class's checks."""
        self = object.__new__(cls)
        _Frozen.__init__(self, *values)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self, mapping):
        """The fields in order, a read-only mapping as mapping(its items)."""
        return tuple(
            mapping(v.items()) if type(v) is MappingProxyType else v
            for v in (getattr(self, f) for f in self._fields)
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(getattr(self, f) == getattr(other, f) for f in self._fields)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(frozenset))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values(dict)


class Report:
    """The result of a check: how many comparisons it made and a record of
    each one that failed.  Per-input checks and whole suites share it and
    make each comparison through ``check``.  Mutable and unhashable, with
    ``_Frozen``'s field-driven ``repr`` and equality."""

    __slots__ = _fields = ("suite", "checked", "failures", "elapsed_ms")
    __hash__ = None
    __repr__ = _Frozen.__repr__
    __eq__ = _Frozen.__eq__

    def __init__(self, suite: str, checked: int = 0, failures: list = None,
                 elapsed_ms: int = 0):
        self.suite = suite
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self) -> bool:
        """A check passes only if it checked something and nothing failed."""
        return self.checked > 0 and not self.failures

    def check(self, passed: bool, failure) -> bool:
        """Count one comparison and return passed.  Only a failure calls
        failure() for its record (input, expected, actual): a pass formats
        nothing."""
        self.checked += 1
        if not passed:
            self.record(*failure())
        return passed

    def record(self, input_desc: str, expected, actual):
        self.failures.append(
            {"input": input_desc, "expected": str(expected), "actual": str(actual)}
        )

    def extend(self, other: "Report", context: str = None):
        """Add other's checks, and a copy of each of its failures, to ours.
        A context names the input other ran on and prefixes each input."""
        self.checked += other.checked
        for f in other.failures:
            f = dict(f)  # our records are our own
            if context is not None:
                f["input"] = f"{context}: {f['input']}"
            self.failures.append(f)

    def to_json(self):
        return {f: getattr(self, f) for f in self._fields}


def _merge(out: dict, items, scale=1) -> dict:
    """Add scale * c to out[e] for each pair (e, c) of items, dropping every
    exponent whose coefficient sums to zero; returns out."""
    for e, c in items:
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


class TPoly(_Frozen):
    """Laurent polynomial in one variable t with exact coefficients.

    ``terms`` is a read-only mapping of integer exponents (possibly
    negative) to nonzero coefficients: TPolys are the coefficients of the
    expansions that lru caches share.  Coefficients are ints, or
    Fractions: inside the character readouts' linear solve, and for good
    in the results that keep them, such as a p-basis expansion, which
    divides by z_lambda (``xg --m 2,3 --basis p`` prints 1/3, -1/2 and
    1/6), or ``frobenius_image`` of a class function that is not a
    character.  An e, h or s expansion of ints holds ints.
    ``TPoly(terms)``, ``const`` and ``t`` raise ``TypeError`` on any other
    coefficient (the scalar rule of the arithmetic), on an exponent that
    is not an int, and on a bool (``_is_number``); ``_of`` trusts its
    caller.  Zero coefficients are
    never stored, so equality is term-map equality, and a TPoly equals a
    scalar, and hashes like it, exactly when it is constant at it (the
    empty TPoly at 0).
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms=None):
        if isinstance(terms, Mapping):
            terms = terms.items()
        terms = [] if terms is None else list(terms)
        for e, c in terms:
            if not _is_number(e):
                raise TypeError(f"exponent {e!r} is not an int")
            if not _is_number(c, (int, Rational)):
                raise TypeError(f"coefficient {c!r} is not an int or a Rational")
        super().__init__(MappingProxyType(_merge({}, terms)))

    @classmethod
    def _of(cls, terms: dict) -> "TPoly":
        """Wrap terms without the normalising pass of ``__init__``.
        Precondition: no coefficient in terms is zero, and no one else
        holds the dict terms."""
        return super()._of(MappingProxyType(terms))

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def t(cls, exp=1, coeff=1):
        return cls({exp: coeff})

    def coeff(self, exp):
        return self.terms.get(exp, 0)

    def exponents(self):
        return sorted(self.terms)

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def _coerced(other):
        """other as a TPoly: itself, or a scalar (the one rule: an int or a
        Rational) as a constant; None for anything else."""
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, Rational)):
            return TPoly._of({0: other} if other else {})
        return None

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a TPoly equals the scalar it is constant at, so it hashes as one
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash(frozenset(terms.items()))

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return TPoly._of(_merge(self.terms.copy(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return TPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return TPoly._of(_merge(self.terms.copy(), other.terms.items(), -1))

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, TPoly):
            products = (
                (e1 + e2, c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            )
            return TPoly._of(_merge({}, products))
        if isinstance(other, (int, Rational)):
            if not other:
                return TPoly._of({})
            return TPoly._of({e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shifted(self, k: int) -> "TPoly":
        return TPoly._of({e + k: c for e, c in self.terms.items()})

    def reciprocal(self) -> "TPoly":
        """The substitution t -> 1/t."""
        return TPoly._of({-e: c for e, c in self.terms.items()})

    def evaluate(self, x):
        return sum(c * x**e for e, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in self.exponents():
            c = self.terms[e]
            if e == 0:
                pieces.append(str(c))
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    pieces.append(tpow)
                elif c == -1:
                    pieces.append(f"-{tpow}")
                else:
                    pieces.append(f"{c}*{tpow}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"TPoly({dict(self.terms)!r})"


class _Parts(_Frozen):
    """A tuple of positive integer parts: the common base of ``Composition``
    and ``Partition``.  It keeps its own ``__eq__`` and ``__hash__``: both
    classes are dict and lru keys on hot paths, where the loop over
    ``_fields`` is six times slower."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple(parts)
        if any(not _is_number(p) or p < 1 for p in parts):
            kind = type(self).__name__.lower()
            raise ValueError(f"{kind} parts must be positive integers: {parts}")
        super().__init__(parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)


class Composition(_Parts):
    """A sequence of positive parts; the empty composition has degree 0.

    The bar-set view puts vertical bars in a subset of the n-1 gaps of a
    row of n objects; parts are the gap widths.  ``num_bars`` is the
    paper-style size statistic (number of bars, i.e. length - 1).
    """

    __slots__ = ()

    @property
    def num_bars(self) -> int:
        return max(len(self.parts) - 1, 0)

    def bars(self) -> frozenset:
        acc, out = 0, []
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return frozenset(out)

    @staticmethod
    def from_bars(n: int, bars) -> "Composition":
        if n == 0:
            return Composition(())
        cuts = sorted(bars)
        if any(b < 1 or b > n - 1 for b in cuts):
            raise ValueError(f"bars must lie in 1..{n - 1}: {cuts}")
        prev, parts = 0, []
        for b in cuts + [n]:
            parts.append(b - prev)
            prev = b
        return Composition(tuple(parts))

    def complement(self) -> "Composition":
        all_bars = set(range(1, self.n))
        return Composition.from_bars(self.n, all_bars - self.bars())

    def sorted_partition(self) -> "Partition":
        return Partition(tuple(sorted(self.parts, reverse=True)))

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


class Partition(_Parts):
    """Weakly decreasing sequence of positive parts."""

    __slots__ = ()

    def __init__(self, parts: tuple):
        super().__init__(parts)
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {self.parts}")

    def as_composition(self) -> Composition:
        return Composition(self.parts)

    def reversed_composition(self) -> Composition:
        return Composition(self.parts[::-1])

    def __str__(self):
        return "[" + ",".join(map(str, self.parts)) + "]"


def compositions(n: int):
    """All compositions of n in lexicographic order of part sequences; a
    bool or a non-int n raises ``TypeError`` at the call."""
    if not _is_number(n):
        raise TypeError(f"n={n!r} is not an int")

    def rec(k):
        if k == 0:
            yield ()
            return
        for first in range(1, k + 1):
            for rest in rec(k - first):
                yield (first,) + rest

    return (Composition(parts) for parts in rec(n))


def partitions(n: int):
    """All partitions of n in reverse lexicographic (descending) order: a
    fresh iterator over one tuple of Partitions built once per n.  A bool
    or a non-int n raises ``TypeError``."""
    if not _is_number(n):
        raise TypeError(f"n={n!r} is not an int")
    return iter(_partitions(n, n))


# The partitions of n with parts at most max_part, the recursion's key.
# One entry for every key (n, max_part) with max_part <= n <= DEFAULT_MAX_N.
# A forced larger n evicts entries and rebuilds them: at n = 14 the whole
# build takes about 1.5 ms with this bound and 1.4 ms with none.
@lru_cache(maxsize=(DEFAULT_MAX_N + 1) * (DEFAULT_MAX_N + 2) // 2)
def _partitions(n: int, max_part: int) -> tuple:
    if n == 0:
        return (Partition(()),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in _partitions(n - first, min(first, n - first)):
            out.append(Partition((first,) + rest.parts))
    return tuple(out)


def rearrangements(lam: Partition):
    """Distinct compositions whose parts are a permutation of lam's parts,
    in lexicographic order. Each is made once: the next part runs over the
    distinct values left, not over every one of the ell(lam)! orders."""

    def rec(left: tuple):
        if not left:
            yield ()
        for i, v in enumerate(left):
            if i == 0 or v != left[i - 1]:
                for rest in rec(left[:i] + left[i + 1 :]):
                    yield (v,) + rest

    return [Composition(p) for p in rec(tuple(sorted(lam.parts)))]


class Permutation(_Frozen):
    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple):
        images = tuple(images)
        n = len(images)
        if not all(map(_is_number, images)) or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        super().__init__(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def cycle_type(self) -> Partition:
        seen = set()
        sizes = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            size, cur = 0, start
            while cur not in seen:
                seen.add(cur)
                cur = self.images[cur - 1]
                size += 1
            sizes.append(size)
        return Partition(tuple(sorted(sizes, reverse=True)))


def z_of(lam: Partition) -> int:
    """Centralizer order: product over part sizes k of k^c_k * c_k!."""
    out = 1
    for k in set(lam.parts):
        c = lam.parts.count(k)
        out *= k**c * factorial(c)
    return out
