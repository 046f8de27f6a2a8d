import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hesschrom import character, sym
from hesschrom.base import (
    BoundExceededError,
    DegreeMismatchError,
    Partition,
    Permutation,
    partitions,
    z_of,
)
from hesschrom.betti import betti_vector
from hesschrom.character import (
    ClassFunction,
    IntegralityError,
    dot_character,
    e_positivity_report,
    fixed_space_dims,
    frobenius_image,
    irreducible_multiplicities,
    omega_x_of,
    schur_positivity_report,
    x_of,
)
from hesschrom.chromatic import chromatic_qsym
from hesschrom.hessenberg import (
    HessenbergFunction,
    enumerate_hessenberg,
    incomparability_graph,
    staircase,
    weight,
)
from hesschrom.qsym import QSymElement, omega, to_m_basis
from hesschrom.sym import contract_to_m, expand_in_basis


class TestDotCharacter:
    @pytest.mark.parametrize("d", [0, 1])
    def test_n2_trivial_representation(self, d):
        chi = dot_character(HessenbergFunction(2, (2,)), d)
        assert chi(Partition((1, 1))) == 1
        assert chi(Partition((2,))) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_staircase_regular_representation(self, n):
        chi = dot_character(staircase(n), 0)
        assert chi(Partition((1,) * n)) == math.factorial(n)
        for mu in partitions(n):
            if mu.parts != (1,) * n:
                assert chi(mu) == 0

    def test_d_out_of_range(self):
        m = HessenbergFunction(2, (2,))
        for fn in (dot_character, fixed_space_dims, irreducible_multiplicities):
            for d in (-1, 2):
                with pytest.raises(ValueError):
                    fn(m, d)

    @pytest.mark.parametrize(
        "d", [0.5, 1.5, Fraction(1), True, False], ids=["0.5", "1.5", "fraction", "True", "False"]
    )
    def test_d_that_is_not_an_int_is_a_type_error(self, d):
        """A degree that is not an int, a bool included, is refused: it would
        read zeros, or the slice at the int the bool stands for."""
        m = HessenbergFunction(3, (2, 3))
        for fn in (dot_character, fixed_space_dims, irreducible_multiplicities):
            with pytest.raises(TypeError, match="not an int"):
                fn(m, d)

    def test_size_guard(self):
        m = HessenbergFunction(4, (2, 3, 4))
        with pytest.raises(BoundExceededError):
            dot_character(m, 0, max_n=3)
        assert dot_character(m, 0, max_n=3, force=True).n == 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_integrality_and_frobenius(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                chi = dot_character(m, d)  # integrality enforced internally
                assert frobenius_image(chi) == QSymElement(n, "m", fixed_space_dims(m, d))

    @pytest.mark.parametrize(
        "arg",
        [Partition((2, 2)), Partition((1, 1)), Permutation((2, 1, 4, 3)), Permutation((1,))],
    )
    def test_read_at_another_size(self, arg):
        chi = dot_character(HessenbergFunction(3, (2, 3)), 1)
        with pytest.raises(DegreeMismatchError, match=rf"S_3 .*, of size {arg.n}$"):
            chi(arg)

    @pytest.mark.parametrize(
        "readout, label",
        [(dot_character, "chi([3])"), (irreducible_multiplicities, "mult([3])")],
    )
    def test_a_non_integral_solve_names_the_partition(self, monkeypatch, readout, label):
        monkeypatch.setattr(
            character, "_solve_in_basis", lambda n, basis, rhs: [Fraction(1, 7)] * len(rhs)
        )
        with pytest.raises(IntegralityError) as info:
            readout(HessenbergFunction(3, (2, 3)), 1)
        assert str(info.value).startswith(f"{label}: non-integral value ")


def frobenius_image_oracle(chi):
    """ch(chi) as a p-basis element of Fractions chi(mu)/z_mu contracted
    to the m basis, the route ``frobenius_image`` replaced."""
    return contract_to_m(
        QSymElement(chi.n, "p", {mu: Fraction(v, z_of(mu)) for mu, v in chi.values})
    )


@lru_cache(maxsize=None)
def young_subgroup_cycle_types(lam):
    """Cycle type -> how many elements of the Young subgroup S_lambda of
    S_n have it, by listing every element as a permutation of 1..n."""
    blocks, start = [], 1
    for part in lam.parts:
        blocks.append(range(start, start + part))
        start += part
    counts = Counter()
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        counts[Permutation(sum(images, ())).cycle_type()] += 1
    return counts


def young_subgroup_average(chi, lam):
    """(1/|S_lambda|) sum over w in S_lambda of chi(w): the dimension of
    the S_lambda-fixed space, which is [m_lambda] ch(chi)."""
    counts = young_subgroup_cycle_types(lam)
    return Fraction(sum(k * chi(mu) for mu, k in counts.items()), sum(counts.values()))


class TestVectorReadouts:
    """The readouts solve the t^d coefficient vector of ``omega_x_of(m)``
    and ``frobenius_image`` sums in ints; the t^d slice element expanded by
    ``expand_in_basis`` and the Fraction p-basis contraction are their
    oracles."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_readouts_match_the_slice_expansions(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                f = QSymElement(n, "m", fixed_space_dims(m, d))
                in_p, in_s = expand_in_basis(f, "p"), expand_in_basis(f, "s")
                chi = dot_character(m, d)
                assert dict(chi.values) == {
                    mu: z_of(mu) * in_p.coeff(mu).coeff(0) for mu in partitions(n)
                }
                assert irreducible_multiplicities(m, d) == {
                    lam: in_s.coeff(lam).coeff(0) for lam in partitions(n)
                }
                assert fixed_space_dims(m, d) == {
                    lam: f.coeff(lam).coeff(0) for lam in partitions(n)
                }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_frobenius_image_is_the_oracle_in_ints(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                chi = dot_character(m, d)
                image = frobenius_image(chi)
                assert image == frobenius_image_oracle(chi)
                values = [c for poly in image.terms.values() for c in poly.terms.values()]
                values += [v for _, v in chi.values]
                values += irreducible_multiplicities(m, d).values()
                values += fixed_space_dims(m, d).values()
                assert all(type(v) is int for v in values), (m, d)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frobenius_image_is_the_young_subgroup_average(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                chi = dot_character(m, d)
                image = frobenius_image(chi)
                for lam in partitions(n):
                    assert image.coeff(lam).coeff(0) == young_subgroup_average(chi, lam)

    def test_a_class_function_that_is_not_a_character(self):
        """chi = 1 on the 3-cycles and 0 elsewhere: ch(chi) = p_3/3 = m_3/3."""
        chi = ClassFunction(
            3, ((Partition((3,)), 1), (Partition((2, 1)), 0), (Partition((1, 1, 1)), 0))
        )
        image = frobenius_image(chi)
        assert image == QSymElement(3, "m", {Partition((3,)): Fraction(1, 3)})
        assert image == frobenius_image_oracle(chi)
        assert young_subgroup_average(chi, Partition((3,))) == Fraction(1, 3)


class TestFixedSpaceDims:
    def test_n2(self):
        dims = fixed_space_dims(HessenbergFunction(2, (2,)), 0)
        assert dims[Partition((2,))] == 1
        assert dims[Partition((1, 1))] == 1

    def test_size_guard(self):
        m = HessenbergFunction(4, (2, 3, 4))
        with pytest.raises(BoundExceededError):
            fixed_space_dims(m, 0, max_n=3)
        assert sum(fixed_space_dims(m, 0, max_n=3, force=True).values()) > 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_column_entry_is_dimension(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                dims = fixed_space_dims(m, d)
                chi = dot_character(m, d)
                assert dims[Partition((1,) * n)] == chi.dimension()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_betti_numbers(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                dims = fixed_space_dims(m, d)
                for lam in partitions(n):
                    assert dims[lam] == betti_vector(m, lam).coeff(d)


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


class TestIrreducibleMultiplicities:
    def test_n2_trivial(self):
        mult = irreducible_multiplicities(HessenbergFunction(2, (2,)), 0)
        assert mult[Partition((2,))] == 1
        assert mult[Partition((1, 1))] == 0

    def test_size_guard(self):
        m = HessenbergFunction(4, (2, 3, 4))
        with pytest.raises(BoundExceededError):
            irreducible_multiplicities(m, 0, max_n=3)
        assert irreducible_multiplicities(m, 0, max_n=3, force=True)[Partition((4,))] == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dimension_via_standard_tableaux(self, n):
        for m in enumerate_hessenberg(n):
            for d in range(weight(m) + 1):
                mult = irreducible_multiplicities(m, d)
                total = sum(
                    mult[lam] * count_standard_tableaux(lam) for lam in partitions(n)
                )
                assert total == fixed_space_dims(m, d)[Partition((1,) * n)]


class TestStandardTableauCounts:
    def test_known_values(self):
        assert count_standard_tableaux(Partition((1,))) == 1
        assert count_standard_tableaux(Partition((2, 1))) == 2
        assert count_standard_tableaux(Partition((2, 2))) == 2
        assert count_standard_tableaux(Partition((3, 2))) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_squares_sum_to_factorial(self, n):
        assert sum(
            count_standard_tableaux(lam) ** 2 for lam in partitions(n)
        ) == math.factorial(n)


class TestPositivityReports:
    def test_k2_e_positive(self):
        report = e_positivity_report(HessenbergFunction(2, (2,)))
        assert report.ok

    def test_e_size_guard(self):
        m = HessenbergFunction(4, (2, 3, 4))
        with pytest.raises(BoundExceededError):
            e_positivity_report(m, max_n=3)
        assert e_positivity_report(m, max_n=3, force=True).ok

    def test_schur_size_guard(self):
        m = HessenbergFunction(4, (2, 3, 4))
        with pytest.raises(BoundExceededError):
            schur_positivity_report(m, max_n=3)
        assert schur_positivity_report(m, max_n=3, force=True).ok

    @pytest.mark.parametrize("cached", [x_of, omega_x_of])
    def test_x_of_size_guard(self, cached):
        m = HessenbergFunction(9, tuple(range(2, 10)))
        with pytest.raises(BoundExceededError):
            cached(m)
        with pytest.raises(BoundExceededError):
            cached(HessenbergFunction(4, (2, 3, 4)), max_n=3)
        x = cached(m, force=True)
        assert x.n == 9 and x.basis == "m" and x
        assert cached(m, max_n=9) == x

    @pytest.mark.parametrize("cached", [x_of, omega_x_of])
    def test_one_cache_entry_per_m(self, cached):
        """The guard's keywords are not part of the lru key."""
        m = HessenbergFunction(4, (2, 3, 4))
        cached.cache_clear()
        cached(m)
        cached(m, force=True)
        cached(m, max_n=5)
        assert cached.cache_info().currsize == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_staircase_e_positive(self, n):
        assert e_positivity_report(staircase(n)).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scans_clean(self, n):
        for m in enumerate_hessenberg(n):
            assert e_positivity_report(m).ok
            assert schur_positivity_report(m).ok


def omega_x_oracle(m):
    """omega X_{G(m)} by the M-basis omega over the whole quasisymmetric
    expansion, the route ``omega_x_of`` replaced."""
    return to_m_basis(omega(chromatic_qsym(incomparability_graph(m), force=True)))


class TestOmegaMatrix:
    """``omega_x_of`` multiplies ``x_of`` by the cached matrix of omega on
    the m basis; the M-basis omega stays its oracle."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_omega_x_of_matches_m_basis_omega(self, n):
        for m in enumerate_hessenberg(n):
            assert omega_x_of(m) == omega_x_oracle(m), m

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(list(enumerate_hessenberg(8))))
    def test_omega_x_of_matches_m_basis_omega_n8(self, m):
        assert omega_x_of(m) == omega_x_oracle(m)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matrix_is_an_involution(self, n):
        parts, matrix = sym._transition_matrix(n, "f")
        assert parts == tuple(partitions(n))
        k = len(parts)
        square = [
            [sum(matrix[i][j] * matrix[j][l] for j in range(k)) for l in range(k)]
            for i in range(k)
        ]
        assert square == [[int(i == l) for l in range(k)] for i in range(k)]

    def test_cached_value_is_immutable(self):
        parts, matrix = sym._transition_matrix(5, "f")
        assert type(parts) is tuple and type(matrix) is tuple
        assert all(type(row) is tuple for row in matrix)
        assert all(type(v) is int for row in matrix for v in row)
