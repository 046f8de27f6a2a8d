"""Tymoczko's tableau model for Betti numbers of regular Hessenberg
varieties, the c_{d,lambda}(m) coefficients of omega X_{G(m)}(t), the
explicit SW-to-T inversion bijection, and the equality / palindromicity
verifiers.

Row convention: Tableau rows are stored top-down (usual Young diagram
order); "lower row" means visually lower, i.e. larger top-down index.
Path covers fill rows from the bottom (path i goes in the i-th row from
the bottom), and the unified statistic reads the filling bottom row
first, each row left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .base import (
    DEFAULT_MAX_N,
    Partition,
    TPoly,
    check_bound,
    is_palindromic,
    partitions,
)
from .chromatic import chromatic_qsym
from .hessenberg import (
    Digraph,
    HessenbergFunction,
    complement,
    digraph,
    incomparability_graph,
    weight,
)
from .pathqsym import OrderedPathCover, cover_paths
from .qsym import SymElement, omega, to_m_basis


@dataclass(frozen=True)
class Tableau:
    """A bijective filling of the Young diagram of ``shape`` with 1..n."""

    shape: Partition
    rows: tuple  # tuple of tuples, top row first

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            raise ValueError("rows do not match the shape")
        entries = sorted(v for r in self.rows for v in r)
        if entries != list(range(1, self.shape.n + 1)):
            raise ValueError("entries must be a permutation of 1..n")


@dataclass(frozen=True)
class BettiVector:
    values: tuple  # pairs (2d, count), increasing degree
    weight: int

    def as_dict(self):
        return dict(self.values)

    def total(self) -> int:
        return sum(c for _, c in self.values)

    def poincare(self) -> TPoly:
        return TPoly({deg: c for deg, c in self.values})


def admissible_tableaux(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
):
    """All fillings with k immediately left of j only if k <= m_j."""
    if lam.n != m.n:
        raise ValueError(f"{lam} is not a partition of {m.n}")
    check_bound(m.n, max_n, force)
    shape = lam.parts
    out = []
    for perm in itertools.permutations(range(1, m.n + 1)):
        rows, pos = [], 0
        for width in shape:
            rows.append(perm[pos : pos + width])
            pos += width
        if all(
            row[c] <= m.m_at(row[c + 1])
            for row in rows
            for c in range(len(row) - 1)
        ):
            out.append(Tableau(lam, tuple(rows)))
    return out


def cell_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Tymoczko's two-case count of inverted pairs in the filling."""
    count = 0
    for row in t.rows:
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                i, k = row[a], row[b]
                if k < i and (b + 1 == len(row) or i <= m.m_at(row[b + 1])):
                    count += 1
    for upper in range(len(t.rows)):
        for lower in range(upper + 1, len(t.rows)):
            for k in t.rows[upper]:
                for i in t.rows[lower]:
                    if k < i <= m.m_at(k):
                        count += 1
    return count


def unified_dimension(t: Tableau, m: HessenbergFunction) -> int:
    """Single-statistic form: pairs (i, k) with i before k in the
    bottom-to-top, left-to-right reading order and k < i <= m_k."""
    reading = [v for row in reversed(t.rows) for v in row]
    count = 0
    for a in range(len(reading)):
        for b in range(a + 1, len(reading)):
            i, k = reading[a], reading[b]
            if k < i <= m.m_at(k):
                count += 1
    return count


def betti_vector(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
) -> BettiVector:
    counts = {}
    for t in admissible_tableaux(m, lam, max_n, force):
        d = cell_dimension(t, m)
        counts[2 * d] = counts.get(2 * d, 0) + 1
    return BettiVector(tuple(sorted(counts.items())), weight(m))


@lru_cache(maxsize=None)
def x_of(m: HessenbergFunction) -> SymElement:
    """X_{G(m)}(t) in the monomial symmetric basis."""
    return to_m_basis(chromatic_qsym(incomparability_graph(m), "asc", force=True))


@lru_cache(maxsize=None)
def omega_x_of(m: HessenbergFunction) -> SymElement:
    """omega X_{G(m)}(t) in the monomial symmetric basis."""
    x = chromatic_qsym(incomparability_graph(m), "asc", force=True)
    return to_m_basis(omega(x))


def c_coeffs(m: HessenbergFunction):
    """(d, lambda) -> coefficient of t^d m_lambda in omega X_{G(m)}(t)."""
    wx = omega_x_of(m)
    out = {}
    for lam, poly in wx.terms.items():
        for d, c in poly.terms.items():
            out[(d, lam)] = c
    return out


# --- the SW-inversion / T-inversion bijection on path covers ------------

class InvalidCoverError(ValueError):
    pass


def _checked_paths(cover: OrderedPathCover, dbar: Digraph):
    paths = cover_paths(cover)
    for path in paths:
        for u, v in zip(path, path[1:]):
            if not dbar.has_edge(u, v):
                raise InvalidCoverError(
                    f"{u}->{v} is not an edge of the complement digraph"
                )
    return paths


def t_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """T-inversions of the filling whose i-th row from the bottom is the
    i-th path of the cover."""
    paths = _checked_paths(cover, complement(digraph(m)))
    out = set()
    for row in paths:
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                i, k = row[a], row[b]
                if k < i and (b + 1 == len(row) or i <= m.m_at(row[b + 1])):
                    out.add((i, k))
    for lo in range(len(paths)):
        for hi in range(lo + 1, len(paths)):
            for i in paths[lo]:
                for k in paths[hi]:
                    if k < i <= m.m_at(k):
                        out.add((i, k))
    return out


def sw_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """Pairs (i, k) with i earlier in the sequencing and k < i <= m_k
    (the reduced form of the des-statistic pairs on the complement)."""
    q = cover.q
    out = set()
    for a in range(len(q)):
        for b in range(a + 1, len(q)):
            i, k = q[a], q[b]
            if k < i <= m.m_at(k):
                out.add((i, k))
    return out


def sw_to_t_bijection(cover: OrderedPathCover, m: HessenbergFunction):
    """Map each SW-inversion (i, k) to a T-inversion.

    Cross-path pairs map to themselves.  Within a path, scan right from k
    through its successors k_1, ..., k_r (sentinel m of infinity past the
    end) and stop at the smallest j with i <= m_{k_{j+1}}; the image is
    (i, k_j).
    """
    paths = _checked_paths(cover, complement(digraph(m)))
    path_of, pos_in = {}, {}
    for pi, path in enumerate(paths):
        for idx, v in enumerate(path):
            path_of[v] = pi
            pos_in[v] = idx
    mapping = {}
    for i, k in sorted(sw_inversions_of_cover(cover, m)):
        if path_of[i] != path_of[k]:
            mapping[(i, k)] = (i, k)
            continue
        path = paths[path_of[k]]
        succ = path[pos_in[k] + 1 :]
        j = 0
        chain = (k,) + succ
        while j < len(succ) and i > m.m_at(succ[j]):
            j += 1
        mapping[(i, k)] = (i, chain[j])
    return mapping


# --- identity and palindromicity verifiers ------------------------------

@dataclass(frozen=True)
class EqualityReport:
    ok: bool
    checked: int
    first_discrepancy: tuple  # (lambda, d, betti_count, c_count) or None


def verify_sw_betti(
    m: HessenbergFunction, max_n: int = DEFAULT_MAX_N, force: bool = False
) -> EqualityReport:
    """Check betti_vector(m, lam)(2d) == c_{d, lam}(m) for every lam, d."""
    cc = c_coeffs(m)
    checked = 0
    for lam in partitions(m.n):
        bv = betti_vector(m, lam, max_n, force).as_dict()
        degrees = set(d for (d, lm) in cc if lm == lam) | {
            deg // 2 for deg in bv
        }
        for d in sorted(degrees):
            checked += 1
            lhs = bv.get(2 * d, 0)
            rhs = cc.get((d, lam), 0)
            if lhs != rhs:
                return EqualityReport(False, checked, (lam, d, lhs, rhs))
    return EqualityReport(True, checked, None)


def check_palindromic(
    m: HessenbergFunction,
    lam: Partition,
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
) -> bool:
    """Palindromicity of q(t) = sum_i beta_i t^(i - |m|) about 0."""
    bv = betti_vector(m, lam, max_n, force)
    q = bv.poincare().shifted(-bv.weight)
    return is_palindromic(q, 0)
