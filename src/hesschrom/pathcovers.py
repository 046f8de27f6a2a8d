"""Ordered path covers of a digraph, enumerated explicitly, and what is
built on them: ``path_qsym_bruteforce``, the oracle of the subset DP
``pathqsym.path_qsym``; the reciprocity identity omega Xi_D =
Xi_{D-complement} as an executable check; and the coefficients
c_{d,lambda} counted on path covers: the TPoly [M_alpha] Xi of the
complement of D(m), which ``_complement_of`` builds once per m.

``path_qsym_bruteforce`` sums the statistic over ``ordered_path_covers``
and builds its compositions without ``qsym._unpack``, so the differential
tests against the DP also check the decoder.

This module does not import ``chromatic``, nor ``chromatic`` this one:
Xi_{D(m)} = X_{G(m)} compares two independent computations. Nor does it
import ``betti``: the SW-to-T inversion bijection on path covers applies
the tableau pipeline's inversion rules, so it lives with the suites in
``verify``."""

from __future__ import annotations

from functools import lru_cache

from .base import Composition, Report, _Frozen, guarded
from .hessenberg import Digraph, HessenbergFunction, complement, digraph
from .pathqsym import path_qsym
from .qsym import QSymElement, _check_stat, _freeze, omega


class OrderedPathCover(_Frozen):
    """A sequencing q of V(D) cut by a composition beta into consecutive
    directed paths of D."""

    __slots__ = _fields = ("q", "beta")

    def __init__(self, q: tuple, beta: Composition):
        super().__init__(q, beta)


def _paths_from(v, remaining, d: Digraph):
    """Directed paths in d starting at v using only ``remaining`` vertices."""
    yield (v,)
    rest = remaining - {v}
    for w in sorted(rest):
        if d.has_edge(v, w):
            for tail in _paths_from(w, rest, d):
                yield (v,) + tail


def _covers(remaining, d: Digraph):
    """Sequences of vertex-disjoint directed paths covering ``remaining``."""
    if not remaining:
        yield ()
        return
    for start in sorted(remaining):
        for path in _paths_from(start, remaining, d):
            for tail in _covers(remaining - set(path), d):
                yield (path,) + tail


@guarded
def ordered_path_covers(d: Digraph):
    """All ordered path covers of d, deterministic order."""
    out = []
    for paths in _covers(frozenset(d.vertices), d):
        q = tuple(v for path in paths for v in path)
        beta = Composition(tuple(len(p) for p in paths))
        out.append(OrderedPathCover(q, beta))
    return out


def cover_paths(cover: OrderedPathCover):
    """The cover's paths, recovered from the sequencing and composition."""
    out, pos = [], 0
    for part in cover.beta.parts:
        out.append(cover.q[pos : pos + part])
        pos += part
    return out


def _neutral_pairs(d: Digraph):
    """Pairs {u,v}, u<v, with both directed edges present or neither."""
    vs = sorted(d.vertices)
    return [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if d.has_edge(u, v) == d.has_edge(v, u)
    ]


def sequencing_stat(q: tuple, d: Digraph, stat: str = "asc") -> int:
    """asc q: neutral pairs u<v with v later in q; des q swaps u and v."""
    _check_stat(stat)
    position = {v: i for i, v in enumerate(q)}
    count = 0
    for u, v in _neutral_pairs(d):
        if stat == "asc":
            count += position[v] > position[u]
        else:
            count += position[u] > position[v]
    return count


@guarded
def path_qsym_bruteforce(d: Digraph, stat: str = "asc") -> QSymElement:
    """Oracle for ``path_qsym``: sum the statistic over every ordered
    path cover."""
    _check_stat(stat)
    acc = {}
    for cover in ordered_path_covers(d, force=True):
        slot = acc.setdefault(cover.beta, {})
        e = sequencing_stat(cover.q, d, stat)
        slot[e] = slot.get(e, 0) + 1
    return _freeze(len(d.vertices), "M", acc)


@guarded
def verify_reciprocity(d: Digraph) -> Report:
    """Compare omega(Xi_D) with Xi of the complement digraph as one check.
    A failure names the first composition where they differ and the lowest
    t-exponent of the difference."""
    lhs = omega(path_qsym(d, "asc", force=True))
    rhs = path_qsym(complement(d), "asc", force=True)

    def differs():
        keys = lhs.terms.keys() | rhs.terms.keys()
        alpha = min(
            (a for a in keys if lhs.coeff(a) != rhs.coeff(a)), key=lambda a: a.parts
        )
        diff = lhs.coeff(alpha) - rhs.coeff(alpha)
        return (
            f"vertices {sorted(d.vertices)}, edges {sorted(d.edges)}",
            "equal",
            f"differs at M_{alpha}, t^{min(diff.exponents())}",
        )

    report = Report("reciprocity")
    report.check(lhs == rhs, differs)
    return report


@guarded
def c_via_path_covers(m: HessenbergFunction, alpha: Composition, stat: str = "asc"):
    """The TPoly [M_alpha] ``path_qsym`` of the complement of D(m), whose t^d
    counts its ordered path covers (q, alpha) with statistic d.  For alpha a
    rearrangement of lambda it is c_{d,lambda}, the same TPoly as
    ``omega_x_of(m).coeff(lambda)`` and ``betti_vector(m, lambda)``."""
    if alpha.n != m.n:
        raise ValueError(f"{alpha} is not a composition of {m.n}")
    return path_qsym(_complement_of(m), stat, force=True).coeff(alpha)


@lru_cache(maxsize=8)
def _complement_of(m: HessenbergFunction) -> Digraph:
    """The complement of D(m), built once for all the covers of one m."""
    return complement(digraph(m))
