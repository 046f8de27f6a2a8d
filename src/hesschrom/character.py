"""The character side of the main identity: class-function values of the
dot action, fixed-space dimensions under Young subgroups, irreducible
multiplicities, and the e-positivity / Schur-positivity reports.

The character is computed from the proven identity (the t^d slice of
omega X_{G(m)}(t) is the Frobenius image), not from a geometric model;
its consistency is pinned by the two independent combinatorial routes
(qsym pipeline vs tableau pipeline) that the verifiers compare.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .base import Partition, Permutation, Report, _Frozen, guarded, partitions, z_of
from .chromatic import chromatic_qsym
from .hessenberg import HessenbergFunction, incomparability_graph, weight
from .qsym import QSymElement, omega, to_m_basis
from .sym import contract_to_m, expand_in_basis


class IntegralityError(ArithmeticError):
    """A value that is an integer by theorem came out non-integral."""


def _as_int(value, context: str) -> int:
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise IntegralityError(f"{context}: non-integral value {value}")
        return int(value)
    return value


class ClassFunction(_Frozen):
    __slots__ = _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        # values: pairs (Partition cycle type, integer), reverse-lex order
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def as_dict(self):
        return dict(self.values)

    def __call__(self, arg) -> int:
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
def c_coeffs(m: HessenbergFunction):
    """(d, lambda) -> coefficient of t^d m_lambda in omega X_{G(m)}(t)."""
    wx = omega_x_of(m, force=True)
    out = {}
    for lam, poly in wx.terms.items():
        for d, c in poly.terms.items():
            out[(d, lam)] = c
    return out


def _degree_slice(m: HessenbergFunction, d: int) -> QSymElement:
    """The t^d slice of omega X_{G(m)}(t), after a check that d is a degree
    of H^*(Hess(m))."""
    if not 0 <= d <= weight(m):
        raise ValueError(f"d={d} outside 0..{weight(m)}")
    return omega_x_of(m, force=True).t_slice(d)


@guarded
def dot_character(m: HessenbergFunction, d: int) -> ClassFunction:
    """Character values on cycle types: chi(mu) = z_mu * [p_mu] f, where
    f is the t^d slice of omega X_{G(m)}(t)."""
    in_p = expand_in_basis(_degree_slice(m, d), "p")
    values = []
    for mu in partitions(m.n):
        coeff = in_p.coeff(mu).coeff(0)
        values.append((mu, _as_int(z_of(mu) * coeff, f"chi({mu})")))
    return ClassFunction(m.n, tuple(values))


def frobenius_image(chi: ClassFunction) -> QSymElement:
    """ch(chi) = sum_mu chi(mu)/z_mu p_mu, returned in the m basis."""
    return contract_to_m(
        QSymElement(chi.n, "p", {mu: Fraction(v, z_of(mu)) for mu, v in chi.values})
    )


@guarded
def fixed_space_dims(m: HessenbergFunction, d: int):
    """lambda -> c_{d,lambda}(m), the S_lambda-fixed subspace dimensions."""
    f = _degree_slice(m, d)
    return {lam: f.coeff(lam).coeff(0) for lam in partitions(m.n)}


@guarded
def irreducible_multiplicities(m: HessenbergFunction, d: int):
    """lambda -> coefficient of s_lambda in the t^d slice of omega X."""
    in_s = expand_in_basis(_degree_slice(m, d), "s")
    return {
        lam: _as_int(in_s.coeff(lam).coeff(0), f"mult({lam})")
        for lam in partitions(m.n)
    }


@lru_cache(maxsize=None)
def count_standard_tableaux(lam: Partition) -> int:
    """Standard Young tableaux of shape lam, by direct enumeration (kept
    free of the hook length formula so it can serve as an oracle)."""

    def rec(filled_rows):
        total_filled = sum(filled_rows)
        if total_filled == lam.n:
            return 1
        total = 0
        for r, width in enumerate(lam.parts):
            if filled_rows[r] < width and (r == 0 or filled_rows[r] < filled_rows[r - 1]):
                filled_rows[r] += 1
                total += rec(filled_rows)
                filled_rows[r] -= 1
        return total

    return rec([0] * lam.length)


def _negativity_report(suite: str, m: HessenbergFunction, triples) -> Report:
    """Count each (lambda, d, c) triple; record each c < 0."""
    report = Report(suite)
    for lam, d, c in triples:
        report.checked += 1
        if c < 0:
            report.record(f"m={m}, lambda={lam}, t^{d}", ">= 0", c)
    return report


@guarded
def e_positivity_report(m: HessenbergFunction) -> Report:
    """Expand X_{G(m)}(t) in the e basis per t-degree; record negatives."""
    in_e = expand_in_basis(x_of(m, force=True), "e")
    triples = (
        (lam, d, _as_int(poly.coeff(d), f"e-coefficient at {lam}, t^{d}"))
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
