"""Brute-force verification suites for the library's identities.

Every check returns a ``Report`` (defined in ``base``) and makes each
comparison through ``Report.check``, which counts it and builds its record
only if it failed.  The per-input checks (``verify_sw_betti`` here,
``verify_reciprocity`` in ``pathcovers``, the positivity reports in
``character``) fill in their own reports, and the suites built on them
merge those with ``Report.extend``.  A report passes iff it checked
something and recorded no failure.

Each suite is a ``suite_<name>`` function declared with ``@_suite``, which
registers it in ``SUITES`` under ``<name>``, hands it a fresh ``Report``
of that name to fill in and times it.  ``SUITES`` gives the choices of
the CLI's ``verify --suite``; the acceptance tests call the same functions.

The bridge between the pipelines, the SW-to-T bijection on path covers,
lives here too, as only this module imports both: it applies betti's
inversion rules to a cover and defines none of its own.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time

from .base import Partition, Report, compositions, guarded, partitions
from .betti import (
    admissible_tableaux,
    betti_vector,
    betti_vectors,
    cell_dimension,
    reading_inversions,
    t_inversions,
    unified_dimension,
)
from .character import (
    dot_character,
    e_positivity_report,
    fixed_space_dims,
    frobenius_image,
    omega_x_of,
    schur_positivity_report,
    x_of,
)
from .chromatic import chromatic_qsym
from .hessenberg import (
    Digraph,
    HessenbergFunction,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
    weight,
)
from .pathcovers import OrderedPathCover, _complement_of, cover_paths, ordered_path_covers
from .pathcovers import verify_reciprocity
from .qsym import QSymElement, f_to_m, is_symmetric, omega
from .sym import generator


@guarded
def verify_sw_betti(m: HessenbergFunction) -> Report:
    """Check [t^d] betti_vector(m, lam) == c_{d, lam}(m) for every lam, d:
    the tableau pipeline against the qsym pipeline."""
    wx = omega_x_of(m, force=True)
    report = Report("sw")
    for lam, poly in betti_vectors(m, force=True).items():
        c = wx.coeff(lam)
        for d in sorted(c.terms.keys() | poly.terms.keys()):
            lhs, rhs = poly.coeff(d), c.coeff(d)
            report.check(
                lhs == rhs,
                lambda: (f"m={m}, lambda={lam}, d={d}", f"c={rhs}", f"beta_2d={lhs}"),
            )
    return report


class InvalidCoverError(ValueError):
    """Not an ordered path cover of the complement of D(m)."""


def _checked_paths(cover: OrderedPathCover, m: HessenbergFunction):
    """The paths of a checked cover: q is a permutation of 1..n, beta a
    composition of n, and every step an edge of the complement of D(m)."""
    if sorted(cover.q) != list(range(1, m.n + 1)):
        raise InvalidCoverError(f"q={cover.q} is not a permutation of 1..{m.n}")
    if cover.beta.n != m.n:
        raise InvalidCoverError(f"beta={cover.beta} is not a composition of {m.n}")
    paths = cover_paths(cover)
    dbar = _complement_of(m)
    for path in paths:
        for u, v in zip(path, path[1:]):
            if not dbar.has_edge(u, v):
                raise InvalidCoverError(f"{u}->{v} is not an edge of the complement digraph")
    return paths


def t_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """T-inversions of the filling whose i-th row from the bottom is the
    i-th path of the cover."""
    return t_inversions(_checked_paths(cover, m), m)


def sw_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """Pairs (i, k) with i earlier in the sequencing and k < i <= m_k
    (the reduced form of the des-statistic pairs on the complement)."""
    _checked_paths(cover, m)
    return reading_inversions(cover.q, m)


def sw_to_t_bijection(cover: OrderedPathCover, m: HessenbergFunction):
    """Map each SW-inversion (i, k) to a T-inversion.

    Cross-path pairs map to themselves.  Within a path, scan right from k
    through its successors k_1, ..., k_r (sentinel m of infinity past the
    end) and stop at the smallest j with i <= m_{k_{j+1}}; the image is
    (i, k_j).
    """
    paths = _checked_paths(cover, m)
    where = {v: (path, idx) for path in paths for idx, v in enumerate(path)}
    mapping = {}
    for i, k in sorted(reading_inversions(cover.q, m)):
        path, j = where[k]
        if i in path:
            while j + 1 < len(path) and i > m.m_at(path[j + 1]):
                j += 1
        mapping[(i, k)] = (i, path[j])
    return mapping


SUITES = {}


def _suite(fn):
    """Register a suite in SUITES under its name minus ``suite_``.

    The body fills in the fresh Report of that name it gets as its first
    argument; callers pass only the other parameters and get the report
    back with ``elapsed_ms`` set."""
    name = fn.__name__.removeprefix("suite_")

    @functools.wraps(fn)
    def run(*args, **kwargs):
        report = Report(name)
        start = time.monotonic()
        fn(report, *args, **kwargs)
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return report

    sig = inspect.signature(fn)
    run.__signature__ = sig.replace(
        parameters=list(sig.parameters.values())[1:], return_annotation="Report"
    )
    SUITES[name] = run
    return run


def _all_hessenberg(max_n: int):
    for n in range(1, max_n + 1):
        yield from enumerate_hessenberg(n, force=True)


def random_digraph(rng: random.Random, max_vertices: int = 5) -> Digraph:
    nv = rng.randint(1, max_vertices)
    vs = frozenset(range(1, nv + 1))
    edges = frozenset(
        (u, v)
        for u, v in itertools.permutations(sorted(vs), 2)
        if rng.random() < 0.5
    )
    return Digraph(vs, edges)


@_suite
def suite_reciprocity(
    report: Report, max_n: int = 5, seed: int = 0, random_count: int = 200
):
    """omega Xi_D = Xi of the complement, on D(m) and random digraphs."""
    for m in _all_hessenberg(max_n):
        report.extend(verify_reciprocity(digraph(m), force=True), f"D(m) for m={m}")
    rng = random.Random(seed)
    # a random digraph has 1..max_n vertices, so none is drawn below n = 1
    for i in range(random_count if max_n >= 1 else 0):
        d = random_digraph(rng, max_n)
        report.extend(
            verify_reciprocity(d, force=True), f"random digraph #{i} (seed {seed})"
        )


@_suite
def suite_symmetry(report: Report, max_n: int = 6):
    """X_{G(m)}(t) is a symmetric function for every Hessenberg m."""
    for m in _all_hessenberg(max_n):
        x = chromatic_qsym(incomparability_graph(m), "asc", force=True)
        report.check(is_symmetric(x), lambda: (f"m={m}", "symmetric", "not symmetric"))


@_suite
def suite_sw(report: Report, max_n: int = 6):
    """Tableau Betti numbers equal the omega-qsym coefficients c_{d,lambda}."""
    for m in _all_hessenberg(max_n):
        report.extend(verify_sw_betti(m, force=True))


@_suite
def suite_unified(report: Report, max_n: int = 6):
    """Tymoczko's two-case dimension equals the unified reading-order count."""
    for m in _all_hessenberg(max_n):
        for lam in partitions(m.n):
            for t in admissible_tableaux(m, lam, force=True):
                a, b = cell_dimension(t, m), unified_dimension(t, m)
                report.check(a == b, lambda: (f"m={m}, T={t.rows}", a, b))


@_suite
def suite_bijection(report: Report, max_n: int = 5):
    """The SW-to-T scan is a bijection for every ordered path cover: the
    public readers map its SW-inversions one to one onto its T-inversions."""
    for m in _all_hessenberg(max_n):
        for cover in ordered_path_covers(_complement_of(m), force=True):
            tv = t_inversions_of_cover(cover, m)
            mapping = sw_to_t_bijection(cover, m)
            image = set(mapping.values())
            report.check(
                len(image) == len(mapping) and image == tv,
                lambda: (
                    f"m={m}, cover q={cover.q}, beta={cover.beta}",
                    f"bijection onto {sorted(tv)}",
                    f"map {mapping}",
                ),
            )


@_suite
def suite_palindromic(report: Report, max_n: int = 6):
    """One rule, p(t) = t^{|m|} p(1/t), on both sides: each Betti vector
    sum_d beta_{2d} t^d, and each coefficient of X_{G(m)}(t)."""
    for m in _all_hessenberg(max_n):
        # an odd |m| puts the centre of each p at a half-integer
        w = weight(m)
        for lam, bv in betti_vectors(m, force=True).items():
            report.check(
                bv == bv.reciprocal().shifted(w),
                lambda: (f"m={m}, lambda={lam}", "palindromic", bv),
            )
        for lam, poly in x_of(m, force=True).terms.items():
            report.check(
                poly == poly.reciprocal().shifted(w),
                lambda: (f"m={m}, coefficient of m_{lam}", "t^|m|-palindromic", poly),
            )


@_suite
def suite_epos(report: Report, max_n: int = 6):
    """e-positivity scan of X_{G(m)}(t) (conjecture-scale evidence only)."""
    for m in _all_hessenberg(max_n):
        report.extend(e_positivity_report(m, force=True))


@_suite
def suite_schur(report: Report, max_n: int = 6):
    """Nonnegativity of Schur multiplicities of omega X_{G(m)}(t)."""
    for m in _all_hessenberg(max_n):
        report.extend(schur_positivity_report(m, force=True))


@_suite
def suite_omega(report: Report, max_n: int = 8):
    """Calibration of the involution: omega^2 = id, omega F_a = F_{a-bar},
    omega e = h, omega p_k = (-1)^(k-1) p_k."""
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            m_alpha = QSymElement.monomial(alpha, "M")
            twice = omega(omega(m_alpha))
            report.check(twice == m_alpha, lambda: (f"omega^2 on M_{alpha}", m_alpha, twice))
            f_alpha = f_to_m(QSymElement.monomial(alpha, "F"))
            comp = alpha.complement()
            report.check(
                omega(f_alpha) == f_to_m(QSymElement.monomial(comp, "F")),
                lambda: (f"omega on F_{alpha}", f"F_{comp}", "differs"),
            )
        for lam in partitions(n):
            report.check(
                omega(generator("e", lam)) == generator("h", lam),
                lambda: (f"omega e_{lam}", f"h_{lam}", "differs"),
            )
        pk = generator("p", Partition((n,)))
        report.check(
            omega(pk) == pk.scaled((-1) ** (n - 1)),
            lambda: (f"omega p_{n}", f"(-1)^{n - 1} p_{n}", "differs"),
        )


@_suite
def suite_character(report: Report, max_n: int = 6):
    """Integrality, Frobenius reconstruction, and the dimension identity
    chi(1^n) = beta_{2d}(m, (1^n))."""
    for m in _all_hessenberg(max_n):
        column = Partition((1,) * m.n)
        bv = betti_vector(m, column, force=True)
        for d in range(weight(m) + 1):
            chi = dot_character(m, d, force=True)  # raises IntegralityError on failure
            t_slice = QSymElement(m.n, "m", fixed_space_dims(m, d, force=True))
            report.check(
                frobenius_image(chi) == t_slice,
                lambda: (f"m={m}, d={d}", "ch(chi) = slice of omega X", "differs"),
            )
            dim, beta = chi.dimension(), bv.coeff(d)
            report.check(dim == beta, lambda: (f"m={m}, d={d}", f"chi(1^n) = {beta}", dim))


@_suite
def suite_points(report: Report, max_n: int = 6):
    """The staircase m gives n! points; column shapes always total n!."""
    for m in _all_hessenberg(max_n):
        points = math.factorial(m.n)
        bv = betti_vector(m, Partition((1,) * m.n), force=True)
        total = bv.evaluate(1)
        report.check(total == points, lambda: (f"m={m}", points, total))
        if weight(m) == 0:
            report.check(bv == points, lambda: (f"staircase m={m}", points, bv))
