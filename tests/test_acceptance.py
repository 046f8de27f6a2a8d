"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import pytest

from hesschrom.verify import (
    suite_bijection,
    suite_character,
    suite_epos,
    suite_omega,
    suite_palindromic,
    suite_points,
    suite_reciprocity,
    suite_schur,
    suite_sw,
    suite_symmetry,
    suite_unified,
)


def _gate(num, label, report, budget_ms=None):
    status = "PASS" if report.ok else "FAIL"
    print(
        f"{status} criterion {num} ({label}): checked={report.checked} "
        f"failures={len(report.failures)} elapsed_ms={report.elapsed_ms}"
    )
    assert report.ok, report.failures[:3]
    if budget_ms is not None:
        assert report.elapsed_ms < budget_ms, f"over budget: {report.elapsed_ms}ms"


def test_criterion_1_reciprocity():
    report = suite_reciprocity(max_n=5, seed=0, random_count=200)
    # 64 Hessenberg digraphs (n <= 5) plus 200 random ones
    assert report.checked == 64 + 200
    _gate(1, "reciprocity omega Xi_D = Xi_Dbar", report, budget_ms=30_000)


def test_criterion_2_symmetry():
    report = suite_symmetry(max_n=7)
    # Catalan numbers C_1 + ... + C_7
    assert report.checked == 625
    _gate(2, "X_G(m)(t) symmetric, 625 functions", report, budget_ms=60_000)


def test_criterion_3_betti_equals_c():
    report = suite_sw(max_n=8)
    # every (lambda, d) with a nonzero side, over the 2,055 functions with n <= 8
    assert report.checked == 429_646
    label = "betti_vector = omega_x_of(m).coeff(lambda), disjoint pipelines"
    _gate(3, label, report, budget_ms=300_000)


def test_criterion_4_bijection():
    report = suite_bijection(max_n=5)
    _gate(4, "SW-to-T inversion bijection on every cover", report, budget_ms=120_000)


def test_criterion_5_unified_statistic():
    report = suite_unified(max_n=6)
    _gate(5, "cell_dimension = unified_dimension", report)


def test_criterion_6_palindromicity():
    report = suite_palindromic(max_n=6)
    _gate(6, "q(t) = q(1/t) and X = t^|m| X(1/t)", report)


def test_criterion_7_omega_calibration():
    report = suite_omega(max_n=8)
    _gate(7, "omega^2 = id, omega F/e/p calibration", report)


def test_criterion_8_point_count():
    report = suite_points(max_n=7)
    _gate(8, "staircase gives n! points; column total n!", report)


def test_criterion_9_character_consistency():
    report = suite_character(max_n=6)
    _gate(9, "character integrality + Frobenius + dimension", report)


def test_criterion_10_positivity_scans():
    schur = suite_schur(max_n=6)
    _gate(10, "Schur positivity scan (conjecture-scale evidence)", schur, budget_ms=300_000)
    epos = suite_epos(max_n=6)
    _gate(10, "e-positivity scan (conjecture-scale evidence)", epos, budget_ms=300_000)
