"""Failure paths of every suite.

Each test corrupts one dependency for exactly one input and checks that
the suite fails, that it checked as much as on the clean run, and that
the failure record names the input: the Hessenberg function m, or the
draw number and seed of a random digraph.  The suites that make their own
comparisons have their whole records pinned, input, expected and actual.
Also: the suite registry, the size guard of ``verify_sw_betti``, and the
per-m suites past that guard.
"""

import inspect

import pytest

from hesschrom import character, pathcovers, verify
from hesschrom.base import BoundExceededError, Composition, Partition, TPoly
from hesschrom.character import ClassFunction
from hesschrom.hessenberg import HessenbergFunction, incomparability_graph, staircase
from hesschrom.qsym import QSymElement, f_to_m

TARGET = HessenbergFunction(3, (2, 3))


def _assert_one_input_fails(clean, report, prefix):
    assert clean.ok
    assert not report.ok
    assert report.checked == clean.checked
    assert report.failures
    assert all(f["input"].startswith(prefix) for f in report.failures)


def _assert_fails_with(suite, monkeypatch, name, corrupted, max_n, expected):
    """Run suite clean, then with verify.<name> replaced by corrupted(real),
    and check that the corrupted run checks as much and records exactly
    the failure (input, expected, actual)."""
    clean = suite(max_n=max_n)
    monkeypatch.setattr(verify, name, corrupted(getattr(verify, name)))
    report = suite(max_n=max_n)
    assert clean.ok and not report.ok
    assert report.checked == clean.checked
    keys = ("input", "expected", "actual")
    assert report.failures == [dict(zip(keys, expected))]


def test_sw_names_m_lambda_and_d(monkeypatch):
    clean = verify.suite_sw(max_n=3)
    real = verify.omega_x_of
    lam, poly = next(iter(real(TARGET).terms.items()))
    d = next(iter(poly.terms))
    bump = QSymElement(TARGET.n, "m", {lam: TPoly({d: 1})})

    def corrupted(m, **kwargs):
        wx = real(m, **kwargs)
        return wx + bump if m == TARGET else wx

    monkeypatch.setattr(verify, "omega_x_of", corrupted)
    report = verify.suite_sw(max_n=3)
    _assert_one_input_fails(clean, report, f"m={TARGET}, ")
    (failure,) = report.failures
    assert failure["input"] == f"m={TARGET}, lambda={lam}, d={d}"


def test_epos_names_m_lambda_and_degree(monkeypatch):
    clean = verify.suite_epos(max_n=3)
    real = character.x_of

    def corrupted(m, **kwargs):
        x = real(m, **kwargs)
        return x.scaled(-1) if m == TARGET else x

    monkeypatch.setattr(character, "x_of", corrupted)
    report = verify.suite_epos(max_n=3)
    _assert_one_input_fails(clean, report, f"m={TARGET}, lambda=")
    assert all(", t^" in f["input"] for f in report.failures)


def test_schur_names_m_lambda_and_degree(monkeypatch):
    clean = verify.suite_schur(max_n=3)
    real = character.irreducible_multiplicities

    def corrupted(m, d, *args, **kwargs):
        mult = real(m, d, *args, **kwargs)
        return {lam: -c for lam, c in mult.items()} if m == TARGET else mult

    monkeypatch.setattr(character, "irreducible_multiplicities", corrupted)
    report = verify.suite_schur(max_n=3)
    _assert_one_input_fails(clean, report, f"m={TARGET}, lambda=")
    assert all(", t^" in f["input"] for f in report.failures)


@pytest.mark.parametrize("bad_call", [2, 8 + 4])
def test_reciprocity_names_m_or_draw_and_seed(monkeypatch, bad_call):
    clean = verify.suite_reciprocity(max_n=3, seed=5, random_count=10)
    real = pathcovers.omega
    calls = []

    def corrupted(x):
        calls.append(x)
        wx = real(x)
        return wx.scaled(2) if len(calls) == bad_call + 1 else wx

    monkeypatch.setattr(pathcovers, "omega", corrupted)
    report = verify.suite_reciprocity(max_n=3, seed=5, random_count=10)
    # the suite runs the 1 + 2 + 5 digraphs D(m) with n <= 3 first
    if bad_call < 8:
        m = list(verify._all_hessenberg(3))[bad_call]
        prefix = f"D(m) for m={m}: "
    else:
        prefix = f"random digraph #{bad_call - 8} (seed 5): "
    _assert_one_input_fails(clean, report, prefix)
    assert len(report.failures) == 1


def _for(target, change):
    """A corrupter: the real function's result, changed where the first
    argument is target."""

    def corrupted(real):
        def call(arg, *args, **kwargs):
            out = real(arg, *args, **kwargs)
            return change(out, *args) if arg == target else out

        return call

    return corrupted


def test_symmetry_record(monkeypatch):
    skew = QSymElement.monomial(Composition((1, 2)))
    _assert_fails_with(
        verify.suite_symmetry, monkeypatch, "chromatic_qsym",
        _for(incomparability_graph(TARGET), lambda x, *_: x + skew), 3,
        ("m=(2,3)", "symmetric", "not symmetric"),
    )


def test_unified_record(monkeypatch):
    rows = ((2, 1), (3,))
    _assert_fails_with(
        verify.suite_unified, monkeypatch, "unified_dimension",
        lambda real: lambda t, m: real(t, m) + (m == TARGET and t.rows == rows),
        3, ("m=(2,3), T=((2, 1), (3,))", "2", "3"),
    )


def test_bijection_record(monkeypatch):
    def corrupted(real):
        def call(paths, sw, m):
            mapping = real(paths, sw, m)
            if m == TARGET and list(paths) == [(3, 2, 1)]:
                return dict.fromkeys(mapping, (2, 1))
            return mapping

        return call

    _assert_fails_with(
        verify.suite_bijection, monkeypatch, "_sw_to_t", corrupted, 3,
        (
            "m=(2,3), cover q=(3, 2, 1), beta=(3)",
            "bijection onto [(2, 1), (3, 1)]",
            "map {(2, 1): (2, 1), (3, 2): (2, 1)}",
        ),
    )


def _with_vector(vectors, lam, terms):
    return {**vectors, lam: TPoly(terms)}


@pytest.mark.parametrize(
    "name, change, expected",
    [
        (
            "betti_vectors",
            lambda bvs: _with_vector(bvs, Partition((2, 1)), {0: 1, 1: 3}),
            ("m=(2,3), lambda=[2,1]", "palindromic", "1 + 3*t"),
        ),
        (
            "x_of",
            lambda x: x + QSymElement.monomial(Partition((2, 1)), "m"),
            ("m=(2,3), coefficient of m_[2,1]", "t^|m|-palindromic", "1 + t"),
        ),
    ],
    ids=["betti", "x"],
)
def test_palindromic_records(monkeypatch, name, change, expected):
    _assert_fails_with(
        verify.suite_palindromic, monkeypatch, name,
        _for(TARGET, lambda out, *_: change(out)), 3, expected,
    )


def _generator_with(kind, lam, change):
    def corrupted(real):
        def call(k, mu):
            out = real(k, mu)
            return change(out) if (k, mu) == (kind, lam) else out

        return call

    return corrupted


@pytest.mark.parametrize(
    "name, corrupted, expected",
    [
        (
            "omega",
            _for(QSymElement.monomial(Composition((1, 2))), lambda x: x.scaled(2)),
            ("omega^2 on M_(1,2)", "(1) M(1,2)", "(2) M(1,2)"),
        ),
        (
            "omega",
            _for(f_to_m(QSymElement.monomial(Composition((1, 2)), "F")), lambda x: x.scaled(2)),
            ("omega on F_(1,2)", "F_(2,1)", "differs"),
        ),
        (
            "generator",
            _generator_with("h", Partition((2, 1)), lambda x: x.scaled(2)),
            ("omega e_[2,1]", "h_[2,1]", "differs"),
        ),
        (
            "generator",
            _generator_with(
                "p", Partition((3,)), lambda x: x + QSymElement.monomial(Composition((1, 2)))
            ),
            ("omega p_3", "(-1)^2 p_3", "differs"),
        ),
    ],
    ids=["omega2", "F", "e", "p"],
)
def test_omega_records(monkeypatch, name, corrupted, expected):
    _assert_fails_with(verify.suite_omega, monkeypatch, name, corrupted, 3, expected)


def _bumped_at_3(chi, d):
    """chi with its value at the 3-cycles raised by 3 in degree 1: the
    dimension chi(1^3) is unchanged, the Frobenius image is not."""
    if d != 1:
        return chi
    three = Partition((3,))
    return ClassFunction(chi.n, tuple((mu, v + 3 * (mu == three)) for mu, v in chi.values))


def _column_betti(bv, lam):
    """The (1^n) Betti vector of TARGET with beta_2 raised from 4 to 5."""
    if lam != Partition((1, 1, 1)):
        return bv
    return TPoly({0: 1, 1: 5, 2: 1})


@pytest.mark.parametrize(
    "name, change, expected",
    [
        (
            "dot_character",
            _bumped_at_3,
            ("m=(2,3), d=1", "ch(chi) = slice of omega X", "differs"),
        ),
        ("betti_vector", _column_betti, ("m=(2,3), d=1", "chi(1^n) = 5", "4")),
    ],
    ids=["frobenius", "dimension"],
)
def test_character_records(monkeypatch, name, change, expected):
    _assert_fails_with(
        verify.suite_character, monkeypatch, name, _for(TARGET, change), 3, expected
    )


@pytest.mark.parametrize(
    "target, change, expected",
    [
        (TARGET, _column_betti, ("m=(2,3)", "6", "7")),
        (
            staircase(3),
            lambda bv, lam: TPoly.t(1, 6),
            ("staircase m=(1,2)", "6", "6*t"),
        ),
    ],
    ids=["total", "staircase"],
)
def test_points_records(monkeypatch, target, change, expected):
    _assert_fails_with(
        verify.suite_points, monkeypatch, "betti_vector", _for(target, change), 3, expected
    )


def test_every_suite_is_registered_under_its_name():
    names = {n.removeprefix("suite_") for n in dir(verify) if n.startswith("suite_")}
    assert names == set(verify.SUITES)
    for k, fn in verify.SUITES.items():
        assert fn is getattr(verify, f"suite_{k}")


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_registered_suite_fills_a_timed_report_of_its_name(name):
    fn = verify.SUITES[name]
    assert list(inspect.signature(fn).parameters)[0] == "max_n"
    report = fn(max_n=1)
    assert report.suite == name
    assert type(report.elapsed_ms) is int and report.elapsed_ms >= 0


@pytest.mark.parametrize("name", ["sw", "palindromic", "epos", "schur", "character"])
def test_per_m_suites_run_past_the_default_guard(monkeypatch, name):
    """A suite's max_n is its size, so a suite over an m with n = 9 must not
    trip the default guard of the per-m calls it makes."""
    m = HessenbergFunction(9, tuple(range(2, 10)))
    monkeypatch.setattr(verify, "_all_hessenberg", lambda max_n: iter([m]))
    report = verify.SUITES[name](max_n=9)
    assert report.ok


def test_sw_betti_guards_size_before_computing(monkeypatch):
    def unreachable(m):
        raise AssertionError("omega_x_of ran before the size guard")

    monkeypatch.setattr(verify, "omega_x_of", unreachable)
    with pytest.raises(BoundExceededError):
        verify.verify_sw_betti(staircase(9))
