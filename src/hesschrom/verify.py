"""Brute-force verification suites for the library's identities.

Every check returns a ``Report`` (defined in ``base``): the per-input
checks (``verify_sw_betti`` here, ``verify_reciprocity`` in ``pathcovers``,
the positivity reports in ``character``) record their own failures, and
the suites built on them merge their reports with ``Report.extend``.  A report passes iff
it checked something and recorded no failure.

Each suite is a ``suite_<name>`` function declared with ``@_suite``, which
registers it in ``SUITES`` under ``<name>``, hands it a fresh ``Report``
of that name to fill in and times it.  ``SUITES`` gives the choices of
the CLI's ``verify --suite``; the acceptance tests call the same functions.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time

from .base import DEFAULT_MAX_N, Partition, Report, check_bound, compositions, partitions
from .betti import (
    admissible_tableaux,
    betti_vector,
    betti_vectors,
    cell_dimension,
    unified_dimension,
)
from .character import (
    dot_character,
    e_positivity_report,
    frobenius_image,
    omega_x_of,
    schur_positivity_report,
    x_of,
)
from .chromatic import chromatic_qsym
from .hessenberg import (
    Digraph,
    HessenbergFunction,
    complement,
    digraph,
    enumerate_hessenberg,
    incomparability_graph,
    weight,
)
from .pathcovers import (
    ordered_path_covers,
    sw_inversions_of_cover,
    sw_to_t_bijection,
    t_inversions_of_cover,
    verify_reciprocity,
)
from .qsym import QSymElement, f_to_m, is_symmetric, omega
from .sym import generator


def verify_sw_betti(
    m: HessenbergFunction, max_n: int = DEFAULT_MAX_N, force: bool = False
) -> Report:
    """Check betti_vector(m, lam)(2d) == c_{d, lam}(m) for every lam, d:
    the tableau pipeline against the qsym pipeline."""
    check_bound(m.n, max_n, force)
    wx = omega_x_of(m, force=True)
    report = Report("sw")
    for lam, bv in betti_vectors(m, max_n, force).items():
        bv = bv.as_dict()
        c = wx.coeff(lam)
        for d in sorted(c.terms.keys() | {deg // 2 for deg in bv}):
            report.checked += 1
            lhs = bv.get(2 * d, 0)
            rhs = c.coeff(d)
            if lhs != rhs:
                report.record(
                    f"m={m}, lambda={lam}, d={d}", f"c={rhs}", f"beta_2d={lhs}"
                )
    return report


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
        yield from enumerate_hessenberg(n, max_n=max_n, force=True)


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
        report.checked += 1
        if not is_symmetric(x):
            report.record(f"m={m}", "symmetric", "not symmetric")


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
                report.checked += 1
                a, b = cell_dimension(t, m), unified_dimension(t, m)
                if a != b:
                    report.record(f"m={m}, T={t.rows}", a, b)


@_suite
def suite_bijection(report: Report, max_n: int = 5):
    """The SW-to-T scan is a bijection for every ordered path cover."""
    for m in _all_hessenberg(max_n):
        dbar = complement(digraph(m))
        for cover in ordered_path_covers(dbar, force=True):
            report.checked += 1
            sw = sw_inversions_of_cover(cover, m)
            tv = t_inversions_of_cover(cover, m)
            mapping = sw_to_t_bijection(cover, m)
            image = set(mapping.values())
            if (
                set(mapping) != sw
                or len(image) != len(mapping)
                or image != tv
            ):
                report.record(
                    f"m={m}, cover q={cover.q}, beta={cover.beta}",
                    f"bijection onto {sorted(tv)}",
                    f"map {mapping}",
                )


@_suite
def suite_palindromic(report: Report, max_n: int = 6):
    """Laurent palindromicity of the Betti generating function, and the
    coefficient identity X(t) = t^{|m|} X(1/t)."""
    for m in _all_hessenberg(max_n):
        w = weight(m)
        for lam, bv in betti_vectors(m, force=True).items():
            q = bv.poincare().shifted(-w)
            report.checked += 1
            if q != q.reciprocal():
                report.record(f"m={m}, lambda={lam}", "palindromic", str(q))
        x = x_of(m, force=True)
        for lam, poly in x.terms.items():
            report.checked += 1
            if poly != poly.reciprocal().shifted(w):
                report.record(
                    f"m={m}, coefficient of m_{lam}",
                    "t^|m|-palindromic",
                    str(poly),
                )


@_suite
def suite_epos(report: Report, max_n: int = 6):
    """e-positivity scan of X_{G(m)}(t) (conjecture-scale evidence only)."""
    for m in _all_hessenberg(max_n):
        report.extend(e_positivity_report(m))


@_suite
def suite_schur(report: Report, max_n: int = 6):
    """Nonnegativity of Schur multiplicities of omega X_{G(m)}(t)."""
    for m in _all_hessenberg(max_n):
        report.extend(schur_positivity_report(m))


@_suite
def suite_omega(report: Report, max_n: int = 8):
    """Calibration of the involution: omega^2 = id, omega F_a = F_{a-bar},
    omega e = h, omega p_k = (-1)^(k-1) p_k."""
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            m_alpha = QSymElement.monomial(alpha, "M")
            report.checked += 1
            if omega(omega(m_alpha)) != m_alpha:
                report.record(f"omega^2 on M_{alpha}", m_alpha, omega(omega(m_alpha)))
            f_alpha = f_to_m(QSymElement.monomial(alpha, "F"))
            f_comp = f_to_m(QSymElement.monomial(alpha.complement(), "F"))
            report.checked += 1
            if omega(f_alpha) != f_comp:
                report.record(f"omega on F_{alpha}", f"F_{alpha.complement()}", "differs")
        for lam in partitions(n):
            report.checked += 1
            if omega(generator("e", lam)) != generator("h", lam):
                report.record(f"omega e_{lam}", f"h_{lam}", "differs")
        pk = generator("p", Partition((n,)))
        report.checked += 1
        if omega(pk) != pk.scaled((-1) ** (n - 1)):
            report.record(f"omega p_{n}", f"(-1)^{n - 1} p_{n}", "differs")


@_suite
def suite_character(report: Report, max_n: int = 6):
    """Integrality, Frobenius reconstruction, and the dimension identity
    chi(1^n) = beta_{2d}(m, (1^n))."""
    for m in _all_hessenberg(max_n):
        wx = omega_x_of(m, force=True)
        column = Partition((1,) * m.n)
        bv = betti_vector(m, column, force=True).as_dict()
        for d in range(weight(m) + 1):
            chi = dot_character(m, d)  # raises IntegralityError on failure
            report.checked += 1
            if frobenius_image(chi) != wx.t_slice(d):
                report.record(f"m={m}, d={d}", "ch(chi) = slice of omega X", "differs")
            report.checked += 1
            if chi.dimension() != bv.get(2 * d, 0):
                report.record(
                    f"m={m}, d={d}",
                    f"chi(1^n) = {bv.get(2 * d, 0)}",
                    chi.dimension(),
                )


@_suite
def suite_points(report: Report, max_n: int = 6):
    """The staircase m gives n! points; column shapes always total n!."""
    for m in _all_hessenberg(max_n):
        points = math.factorial(m.n)
        bv = betti_vector(m, Partition((1,) * m.n), force=True)
        report.checked += 1
        if bv.total() != points:
            report.record(f"m={m}", points, bv.total())
        if weight(m) == 0:
            report.checked += 1
            if bv.as_dict() != {0: points}:
                report.record(f"staircase m={m}", {0: points}, bv.as_dict())
