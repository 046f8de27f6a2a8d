import math

import pytest

from hesschrom.base import Composition, Partition, TPoly, partitions
from hesschrom.betti import (
    Tableau,
    admissible_tableaux,
    betti_vector,
    betti_vectors,
    cell_dimension,
    check_palindromic,
    reading_inversions,
    t_inversions,
    unified_dimension,
)
from hesschrom.character import omega_x_of
from hesschrom.hessenberg import (
    HessenbergFunction,
    complement,
    digraph,
    enumerate_hessenberg,
    staircase,
)
from hesschrom.pathcovers import (
    OrderedPathCover,
    c_via_path_covers,
    cover_paths,
    ordered_path_covers,
)
from hesschrom.verify import (
    InvalidCoverError,
    sw_inversions_of_cover,
    sw_to_t_bijection,
    t_inversions_of_cover,
    verify_sw_betti,
)


def tab(shape, *rows):
    return Tableau(Partition(shape), tuple(tuple(r) for r in rows))


class TestAdmissibleTableaux:
    def test_row_shape_n2(self):
        m = HessenbergFunction(2, (2,))
        ts = admissible_tableaux(m, Partition((2,)))
        assert {t.rows for t in ts} == {((1, 2),), ((2, 1),)}

    def test_column_shape_n2(self):
        m = HessenbergFunction(2, (2,))
        ts = admissible_tableaux(m, Partition((1, 1)))
        assert len(ts) == 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_staircase_column_all_admissible(self, n):
        ts = admissible_tableaux(staircase(n), Partition((1,) * n))
        assert len(ts) == math.factorial(n)

    def test_condition_filters(self):
        # staircase n=2: m_1 = 1, so 2 cannot sit immediately left of 1
        ts = admissible_tableaux(staircase(2), Partition((2,)))
        assert {t.rows for t in ts} == {((1, 2),)}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            admissible_tableaux(HessenbergFunction(2, (2,)), Partition((3,)))


class TestCellDimension:
    def test_examples(self):
        m = HessenbergFunction(2, (2,))
        assert cell_dimension(tab((2,), (2, 1)), m) == 1
        assert cell_dimension(tab((2,), (1, 2)), m) == 0
        assert cell_dimension(tab((1, 1), (1,), (2,)), m) == 1

    def test_right_neighbor_blocks_pair(self):
        # m=(2,3,4), row [3,2,1,4]: pair (3,2) is blocked because the box
        # right of 2 holds 1 and 3 > m_1 = 2; pairs (3,1) and (2,1) count
        m = HessenbergFunction(4, (2, 3, 4))
        t = tab((4,), (3, 2, 1, 4))
        assert t in admissible_tableaux(m, Partition((4,)))
        assert cell_dimension(t, m) == 2
        assert unified_dimension(t, m) == 2
        assert t_inversions(t.rows, m) == {(3, 1), (2, 1)}
        assert reading_inversions((3, 2, 1, 4), m) == {(3, 2), (2, 1)}

    def test_rows_of_any_lengths_bottom_first(self):
        # m=(3,3): the bottom row (1,3) is longer than the row (2,) above it
        m = HessenbergFunction(3, (3, 3))
        assert t_inversions(((1, 3), (2,)), m) == {(3, 2)}
        assert t_inversions(((2,), (1, 3)), m) == {(2, 1)}


class TestUnifiedDimension:
    def test_matches_cell_dimension_examples(self):
        m = HessenbergFunction(2, (2,))
        for t in (tab((2,), (2, 1)), tab((2,), (1, 2)), tab((1, 1), (1,), (2,))):
            assert unified_dimension(t, m) == cell_dimension(t, m)

    def test_column_staircase_zero(self):
        for n in range(1, 6):
            m = staircase(n)
            for t in admissible_tableaux(m, Partition((1,) * n)):
                assert unified_dimension(t, m) == 0

    def test_reversed_row_maximal(self):
        for n in range(2, 6):
            m = HessenbergFunction(n, (n,) * (n - 1))
            t = tab((n,), tuple(range(n, 0, -1)))
            assert unified_dimension(t, m) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_cell_dimension_everywhere(self, n):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                for t in admissible_tableaux(m, lam):
                    assert cell_dimension(t, m) == unified_dimension(t, m)


class TestBettiVector:
    def test_examples(self):
        m = HessenbergFunction(2, (2,))
        assert betti_vector(m, Partition((2,))) == TPoly({0: 1, 1: 1})
        assert betti_vector(m, Partition((1, 1))) == TPoly({0: 1, 1: 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_staircase_points(self, n):
        bv = betti_vector(staircase(n), Partition((1,) * n))
        assert bv == TPoly({0: math.factorial(n)})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_column_total_is_factorial(self, n):
        for m in enumerate_hessenberg(n):
            assert betti_vector(m, Partition((1,) * n)).evaluate(1) == math.factorial(n)


class TestCCoeffs:
    """c_{d,lambda}, the t^d coefficient of [m_lambda] omega X_{G(m)}(t)."""

    def test_n2(self):
        wx = omega_x_of(HessenbergFunction(2, (2,)))
        two, pair = Partition((2,)), Partition((1, 1))
        assert wx.terms == {two: TPoly({0: 1, 1: 1}), pair: TPoly({0: 1, 1: 1})}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_staircase_concentrated_at_zero(self, n):
        wx = omega_x_of(staircase(n))
        assert all(poly.exponents() == [0] for poly in wx.terms.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_path_cover_counts(self, n):
        """The three routes to c_{d,lambda} return one TPoly: path covers of
        the complement of D(m), omega X_{G(m)} and the tableau Betti numbers."""
        for m in enumerate_hessenberg(n):
            wx = omega_x_of(m)
            for lam in partitions(n):
                via_covers = c_via_path_covers(m, lam.reversed_composition())
                assert via_covers == wx.coeff(lam) == betti_vector(m, lam), (m, lam)


class TestSwBijection:
    def test_n2_example(self):
        m = HessenbergFunction(2, (2,))
        cover = OrderedPathCover((2, 1), Composition((2,)))
        mapping = sw_to_t_bijection(cover, m)
        assert mapping == {(2, 1): (2, 1)}

    def test_no_inversions_maps_empty(self):
        m = HessenbergFunction(2, (2,))
        cover = OrderedPathCover((1, 2), Composition((2,)))
        assert sw_to_t_bijection(cover, m) == {}
        assert t_inversions_of_cover(cover, m) == set()

    def test_invalid_cover(self):
        # staircase n=3: complement digraph has no edge 3 -> 1
        with pytest.raises(InvalidCoverError):
            sw_to_t_bijection(
                OrderedPathCover((3, 1, 2), Composition((2, 1))), staircase(3)
            )

    @pytest.mark.parametrize(
        "read", [t_inversions_of_cover, sw_inversions_of_cover, sw_to_t_bijection]
    )
    @pytest.mark.parametrize(
        "q, beta",
        [
            ((3, 1, 2), (3,)),  # 3 -> 1 is not an edge of the complement
            ((1, 2), (3,)),  # q misses 3
            ((1, 1, 2), (1, 2)),  # q repeats 1
            ((1, 2, 3), (2, 2)),  # beta is a composition of 4
        ],
    )
    def test_every_reader_rejects_a_non_cover(self, read, q, beta):
        """The three public readers check each cover the same way: q is a
        permutation of 1..n, beta a composition of n, each step an edge."""
        with pytest.raises(InvalidCoverError):
            read(OrderedPathCover(q, Composition(beta)), HessenbergFunction(3, (2, 3)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection_everywhere(self, n):
        for m in enumerate_hessenberg(n):
            dbar = complement(digraph(m))
            for cover in ordered_path_covers(dbar):
                sw = sw_inversions_of_cover(cover, m)
                tv = t_inversions_of_cover(cover, m)
                mapping = sw_to_t_bijection(cover, m)
                assert set(mapping) == sw
                assert len(set(mapping.values())) == len(mapping)
                assert set(mapping.values()) == tv

    @pytest.mark.parametrize("n", range(1, 6))
    def test_t_side_is_the_cell_dimension_rule(self, n):
        """A cover whose path lengths weakly increase, bottom first, is a
        filling of a partition shape: its T-inversions are counted by the
        same rule as the Betti oracle's ``cell_dimension``."""
        seen = 0
        for m in enumerate_hessenberg(n):
            for cover in ordered_path_covers(complement(digraph(m))):
                parts = cover.beta.parts
                if list(parts) != sorted(parts):
                    continue
                seen += 1
                rows = tuple(cover_paths(cover))[::-1]  # top-down
                t = Tableau(Partition(parts[::-1]), rows)
                assert len(t_inversions_of_cover(cover, m)) == cell_dimension(t, m)
        assert seen


class TestVerifySwBetti:
    def test_n2(self):
        assert verify_sw_betti(HessenbergFunction(2, (2,))).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_small(self, n):
        for m in enumerate_hessenberg(n):
            assert verify_sw_betti(m).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_staircase_mass_at_zero(self, n):
        m = staircase(n)
        report = verify_sw_betti(m)
        assert report.ok
        for lam in partitions(n):
            assert set(betti_vector(m, lam).terms) <= {0}


@pytest.mark.parametrize("n", range(1, 7))
def test_betti_vectors_are_the_coefficients_of_omega_x(n):
    """The main identity as one equality: for every lambda, the Betti vector
    sum_d beta_{2d} t^d is the TPoly [m_lambda] omega X_{G(m)}(t)."""
    for m in enumerate_hessenberg(n):
        wx = omega_x_of(m)
        assert betti_vectors(m) == {lam: wx.coeff(lam) for lam in partitions(n)}, m


class TestPalindromic:
    def test_examples(self):
        m = HessenbergFunction(2, (2,))
        assert check_palindromic(m, Partition((2,)))
        for n in range(1, 6):
            assert check_palindromic(staircase(n), Partition((1,) * n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_small(self, n):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                assert check_palindromic(m, lam)
