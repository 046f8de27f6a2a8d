"""Differential tests for the reading-order DP behind ``betti_vector``
and ``betti_vectors``.

The oracle is ``betti_vector_bruteforce``: filter all n! fillings for
admissibility and sum Tymoczko's two-case ``cell_dimension``. The DP must
agree with it exactly, and with two closed forms. The walk over every
shape at once (``betti_vectors``) must agree with the oracle and with the
one-shape walk (``betti_vector``).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hesschrom.base import BoundExceededError, Partition, TPoly, partitions
from hesschrom.betti import betti_vector, betti_vector_bruteforce, betti_vectors
from hesschrom.hessenberg import HessenbergFunction, enumerate_hessenberg, staircase


def band(n):
    return HessenbergFunction(n, tuple(min(i + 2, n) for i in range(1, n)))


def complete(n):
    return HessenbergFunction(n, (n,) * (n - 1))


@st.composite
def hessenberg_functions(draw, max_n=6, min_n=1):
    n = draw(st.integers(min_n, max_n))
    m, lo = [], 1
    for i in range(1, n):
        lo = draw(st.integers(max(i, lo), n))
        m.append(lo)
    return HessenbergFunction(n, m)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_function_and_shape(n):
    for m in enumerate_hessenberg(n):
        for lam in partitions(n):
            assert betti_vector(m, lam) == betti_vector_bruteforce(m, lam), (m, lam)


@settings(max_examples=60, deadline=None)
@given(hessenberg_functions())
def test_random_functions_every_shape(m):
    for lam in partitions(m.n):
        assert betti_vector(m, lam) == betti_vector_bruteforce(m, lam), lam


@pytest.mark.parametrize(
    "m, parts",
    [
        (band(8), (2,) + (1,) * 6),
        (complete(8), (8,)),
        (complete(8), (2, 2, 2, 2)),
        (HessenbergFunction(8, (3, 4, 6, 6, 7, 8, 8)), (1,) * 8),
    ],
    ids=["band-2-1^6", "complete-8", "complete-2^4", "fixed-1^8"],
)
def test_large_shapes(m, parts):
    lam = Partition(parts)
    assert betti_vector(m, lam) == betti_vector_bruteforce(m, lam)


def q_integer(k):
    return TPoly({e: 1 for e in range(k)})


@pytest.mark.parametrize("n", range(1, 8))
def test_one_row_is_anderson_tymoczko_product(n):
    """lambda = (n): sum_d beta_2d t^d = prod_j [m_j - j + 1]_t."""
    for m in enumerate_hessenberg(n):
        product = TPoly.const(1)
        for j in range(1, n + 1):
            product = product * q_integer(m.m_at(j) - j + 1)
        assert betti_vector(m, Partition((n,))) == product, m


@pytest.mark.parametrize("n", range(1, 8))
def test_one_column_totals_factorial(n):
    for m in enumerate_hessenberg(n):
        assert betti_vector(m, Partition((1,) * n)).evaluate(1) == math.factorial(n), m


def test_shape_mismatch():
    with pytest.raises(ValueError):
        betti_vector(HessenbergFunction(3, (2, 3)), Partition((2,)))


def test_size_guard():
    m = staircase(9)
    lam = Partition((9,))
    with pytest.raises(BoundExceededError):
        betti_vector(m, lam)
    assert betti_vector(m, lam, force=True).evaluate(1) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_all_shapes_match_bruteforce(n):
    for m in enumerate_hessenberg(n):
        vectors = betti_vectors(m)
        assert list(vectors) == list(partitions(n))
        for lam, bv in vectors.items():
            assert bv == betti_vector_bruteforce(m, lam), (m, lam)


def test_all_shapes_match_one_shape_walks_n7():
    for m in enumerate_hessenberg(7):
        vectors = betti_vectors(m)
        assert list(vectors) == list(partitions(7))
        for lam, bv in vectors.items():
            assert bv == betti_vector(m, lam), (m, lam)


@settings(max_examples=10, deadline=None)
@given(hessenberg_functions(max_n=8, min_n=8))
def test_all_shapes_match_one_shape_walks_n8(m):
    for lam, bv in betti_vectors(m).items():
        assert bv == betti_vector(m, lam), lam


def test_all_shapes_size_guard():
    m = staircase(9)
    with pytest.raises(BoundExceededError):
        betti_vectors(m)
    with pytest.raises(BoundExceededError):
        betti_vectors(HessenbergFunction(4, (2, 3, 4)), max_n=3)
    column = betti_vectors(complete(9), force=True)[Partition((1,) * 9)]
    assert column.evaluate(1) == math.factorial(9)
