"""Failure paths of the suites that merge per-input reports.

Each test corrupts one dependency for exactly one input and checks that
the suite fails, that it checked as much as on the clean run, and that
the failure record names the input: the Hessenberg function m, or the
draw number and seed of a random digraph.  Also: the suite registry and
the size guard of ``verify_sw_betti``.
"""

import inspect

import pytest

from hesschrom import character, pathcovers, verify
from hesschrom.base import BoundExceededError, TPoly
from hesschrom.hessenberg import new_hessenberg, staircase
from hesschrom.qsym import QSymElement

TARGET = new_hessenberg(3, (2, 3))


def _assert_one_input_fails(clean, report, prefix):
    assert clean.ok
    assert not report.ok
    assert report.checked == clean.checked
    assert report.failures
    assert all(f["input"].startswith(prefix) for f in report.failures)


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


def test_sw_betti_guards_size_before_computing(monkeypatch):
    def unreachable(m):
        raise AssertionError("omega_x_of ran before the size guard")

    monkeypatch.setattr(verify, "omega_x_of", unreachable)
    with pytest.raises(BoundExceededError):
        verify.verify_sw_betti(staircase(9))
