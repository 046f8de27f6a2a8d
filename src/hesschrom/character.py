"""The character side of the main identity: class-function values of the
dot action, fixed-space dimensions under Young subgroups, irreducible
multiplicities, and the e-positivity / Schur-positivity reports.

The character is computed from the proven identity (the t^d slice of
omega X_{G(m)}(t) is the Frobenius image), not from a geometric model;
its consistency is pinned by the two independent combinatorial routes
(qsym pipeline vs tableau pipeline) that the verifiers compare.

The readouts at degree d work on one vector, c_{d,lambda}: the t^d
coefficients of ``omega_x_of(m)`` in ``partitions(n)`` order, which
``fixed_space_dims`` alone reads.  ``dot_character`` and
``irreducible_multiplicities`` solve its values against the p and s
matrices, one solve each, with no element built in between.
``frobenius_image`` goes back through the p matrix in ints and divides
by n! once at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .base import (
    DegreeMismatchError,
    Partition,
    Permutation,
    Report,
    _Frozen,
    _is_number,
    guarded,
    partitions,
    z_of,
)
from .chromatic import chromatic_qsym
from .hessenberg import HessenbergFunction, incomparability_graph, weight
from .qsym import QSymElement, omega, to_m_basis
from .sym import _columns, _solve_in_basis, expand_in_basis


class IntegralityError(ArithmeticError):
    """A value that is an integer by theorem came out non-integral."""


def _as_int(value, label: str, *args) -> int:
    """value, an int or a Fraction, as an int; only an error formats the label."""
    if value.denominator != 1:
        raise IntegralityError(f"{label.format(*args)}: non-integral value {value}")
    return int(value)


class ClassFunction(_Frozen):
    __slots__ = _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        # values: pairs (Partition cycle type, integer), reverse-lex order
        super().__init__(n, values)

    def __call__(self, arg) -> int:
        if arg.n != self.n:
            raise DegreeMismatchError(
                f"a class function of S_{self.n} read at {arg}, of size {arg.n}"
            )
        if isinstance(arg, Permutation):
            arg = arg.cycle_type()
        return dict(self.values)[arg]

    def dimension(self) -> int:
        return self(Partition((1,) * self.n))


@guarded
@lru_cache(maxsize=None)
def x_of(m: HessenbergFunction) -> QSymElement:
    """X_{G(m)}(t) in the monomial symmetric basis."""
    return to_m_basis(chromatic_qsym(incomparability_graph(m), "asc", force=True))


@guarded
@lru_cache(maxsize=None)
def omega_x_of(m: HessenbergFunction) -> QSymElement:
    """omega X_{G(m)}(t) in the monomial symmetric basis: the cached
    integer matrix of omega on the m basis of degree n (``omega`` on an
    m-basis input) times ``x_of(m)``, with no second ``chromatic_qsym``
    and no M-basis omega over the 3^(n-1) terms of its expansion.
    ``to_m_basis(omega(chromatic_qsym(...)))`` is the oracle."""
    return omega(x_of(m, force=True))


@guarded
def fixed_space_dims(m: HessenbergFunction, d: int) -> dict:
    """lambda -> c_{d,lambda}(m), the S_lambda-fixed subspace dimensions:
    the t^d coefficients of omega X_{G(m)}(t) on the m basis, in
    ``partitions(m.n)`` order, zeros included.  The one reader of the t^d
    slice; it raises ``TypeError`` unless d is an int (a bool is not) and
    ``ValueError`` unless d is a degree 0..weight(m) of H^*(Hess(m))."""
    if not _is_number(d):
        raise TypeError(f"d={d!r} is not an int")
    if not 0 <= d <= weight(m):
        raise ValueError(f"d={d} outside 0..{weight(m)}")
    wx = omega_x_of(m, force=True)
    return {lam: wx.coeff(lam).coeff(d) for lam in partitions(m.n)}


@guarded
def dot_character(m: HessenbergFunction, d: int) -> ClassFunction:
    """Character values on cycle types: chi(mu) = z_mu * [p_mu] f, where
    f is the t^d slice of omega X_{G(m)}(t)."""
    dims = fixed_space_dims(m, d, force=True)
    in_p = _solve_in_basis(m.n, "p", list(dims.values()))
    values = tuple(
        (mu, _as_int(z_of(mu) * c, "chi({})", mu)) for mu, c in zip(dims, in_p)
    )
    return ClassFunction(m.n, values)


def frobenius_image(chi: ClassFunction) -> QSymElement:
    """ch(chi) = sum_mu chi(mu)/z_mu p_mu, returned in the m basis.

    Summed in ints over the cached columns of the p matrix: N_lambda =
    sum_mu chi(mu) (n!/z_mu) [m_lambda] p_mu, where n!/z_mu is the size of
    the class mu, and then [m_lambda] ch(chi) = N_lambda / n!, an int when
    chi is a character. A class function that is not one may leave a
    remainder, and that coefficient is the exact Fraction."""
    order = factorial(chi.n)
    columns = _columns(chi.n, "p")
    acc = {}
    for mu, v in chi.values:
        scale = v * (order // z_of(mu))
        for lam, c in columns[mu]:
            acc[lam] = acc.get(lam, 0) + scale * c
    out = {}
    for lam, total in acc.items():
        q, r = divmod(total, order)
        if r:
            from fractions import Fraction  # only a non-character gets here

            q = Fraction(total, order)
        out[lam] = q
    return QSymElement(chi.n, "m", out)


@guarded
def irreducible_multiplicities(m: HessenbergFunction, d: int):
    """lambda -> coefficient of s_lambda in the t^d slice of omega X."""
    dims = fixed_space_dims(m, d, force=True)
    in_s = _solve_in_basis(m.n, "s", list(dims.values()))
    return {lam: _as_int(c, "mult({})", lam) for lam, c in zip(dims, in_s)}


def _negativity_report(suite: str, m: HessenbergFunction, triples) -> Report:
    """Count each (lambda, d, c) triple; record each c < 0."""
    report = Report(suite)
    for lam, d, c in triples:
        report.check(c >= 0, lambda: (f"m={m}, lambda={lam}, t^{d}", ">= 0", c))
    return report


@guarded
def e_positivity_report(m: HessenbergFunction) -> Report:
    """Expand X_{G(m)}(t) in the e basis per t-degree; record negatives."""
    in_e = expand_in_basis(x_of(m, force=True), "e")
    triples = (
        (lam, d, _as_int(poly.coeff(d), "e-coefficient at {}, t^{}", lam, d))
        for lam, poly in in_e.sorted_terms()
        for d in poly.exponents()
    )
    return _negativity_report("epos", m, triples)


@guarded
def schur_positivity_report(m: HessenbergFunction) -> Report:
    """Schur multiplicities of omega X_{G(m)}(t), all t-degrees; record
    negatives."""
    triples = (
        (lam, d, mult)
        for d in range(weight(m) + 1)
        for lam, mult in irreducible_multiplicities(m, d, force=True).items()
    )
    return _negativity_report("schur", m, triples)
