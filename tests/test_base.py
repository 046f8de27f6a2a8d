import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hesschrom.base import (
    Composition,
    Partition,
    Permutation,
    Report,
    TPoly,
    _partitions,
    compositions,
    partitions,
    rearrangements,
    z_of,
)

polys = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9), max_size=5
).map(TPoly)

scalars = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=2)
# ints, Fractions and TPolys, drawn small so that equal pairs are common
scalars_and_polys = st.one_of(
    scalars,
    scalars.map(TPoly.const),
    st.dictionaries(st.integers(-1, 1), scalars, max_size=2).map(TPoly),
)


class TestTPoly:
    def test_canonical_form_drops_zeros(self):
        assert TPoly({0: 1, 2: 0}).terms == {0: 1}
        assert TPoly({1: 2}) - TPoly({1: 2}) == TPoly()
        assert not TPoly()
        assert TPoly.const(0).terms == {} and TPoly.t(1, Fraction(0)).terms == {}
        assert TPoly.t().terms == {1: 1} and TPoly.t(3, -2).terms == {3: -2}

    def test_built_from_a_read_only_mapping_or_pairs(self):
        p = TPoly({-1: 3, 0: 1})
        q = TPoly(p.terms)
        assert q == p and q.terms is not p.terms
        assert TPoly([(1, 2), (1, -2), (0, 5)]) == TPoly.const(5)

    def test_arithmetic(self):
        p = TPoly({-1: 3, 0: 1})
        q = TPoly({1: 2})
        assert p + q == TPoly({-1: 3, 0: 1, 1: 2})
        assert p * q == TPoly({0: 6, 1: 2})
        assert (-p) + p == TPoly()

    def test_reciprocal_and_shift(self):
        p = TPoly({-1: 3, 2: 5})
        assert p.reciprocal() == TPoly({1: 3, -2: 5})
        assert p.shifted(2) == TPoly({1: 3, 4: 5})

    def test_str(self):
        assert str(TPoly({-1: 3, 0: 1, 2: 2})) == "3*t^-1 + 1 + 2*t^2"
        assert str(TPoly()) == "0"

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(
        st.dictionaries(
            st.integers(-4, 4),
            st.fractions(max_denominator=6).filter(bool),
            max_size=5,
        ).map(TPoly),
        polys,
    )
    def test_subtraction_is_adding_the_negative(self, a, b):
        """One-pass subtraction, with Fraction coefficients and negative
        exponents, against the negate-then-add route it replaced."""
        for x, y in ((a, b), (b, a), (a, a)):
            assert x - y == x + (-y)
            assert (x - y).terms == (x + (-y)).terms
            assert all(c for c in (x - y).terms.values())
        assert not (a - a) and (a - a).terms == {}
        assert 2 - a == TPoly.const(2) + (-a)
        assert Fraction(1, 3) - a == -(a - Fraction(1, 3))

    def test_subtraction_leaves_operands_alone(self):
        p, q = TPoly({-1: Fraction(1, 2), 0: 3}), TPoly({-1: Fraction(1, 2), 2: -1})
        assert p - q == TPoly({0: 3, 2: 1})
        assert p.terms == {-1: Fraction(1, 2), 0: 3} and q.terms == {-1: Fraction(1, 2), 2: -1}
        assert TPoly.__sub__(p, "x") is NotImplemented
        assert TPoly.__rsub__(p, "x") is NotImplemented

    @given(scalars_and_polys, scalars_and_polys)
    def test_equal_values_hash_equal(self, a, b):
        """The hash contract across TPoly, int and Fraction: a constant
        TPoly equals its constant, and the empty TPoly equals 0."""
        if a == b:
            assert hash(a) == hash(b)
        for x in (a, b):
            if not isinstance(x, TPoly):
                assert TPoly.const(x) == x and hash(TPoly.const(x)) == hash(x)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TPoly({0: 1.5}),
            lambda: TPoly([(1, 2), (0, 1.5)]),
            lambda: TPoly.const(1.5),
            lambda: TPoly.const(None),
            lambda: TPoly.t(1, "x"),
            lambda: TPoly.t(2, 0.5),
        ],
        ids=["dict", "pairs", "const", "const-none", "t-str", "t-float"],
    )
    def test_every_constructor_takes_only_exact_coefficients(self, build):
        """The scalar rule of TPoly's arithmetic, an int or a Rational, holds
        in each public constructor too."""
        with pytest.raises(TypeError, match="coefficient"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TPoly({1.5: 1}),
            lambda: TPoly([(1, 2), ("a", 1)]),
            lambda: TPoly.t("a"),
            lambda: TPoly.t(0.5),
            lambda: TPoly.t(Fraction(1, 2)),
        ],
        ids=["dict", "pairs", "t-str", "t-float", "t-fraction"],
    )
    def test_every_constructor_takes_only_int_exponents(self, build):
        """A TPoly is a Laurent polynomial: t^0.5 cannot be built."""
        with pytest.raises(TypeError, match="exponent"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TPoly({True: 1}),
            lambda: TPoly([(0, 1), (1, True)]),
            lambda: TPoly.const(False),
            lambda: TPoly.t(True),
            lambda: TPoly.t(2, True),
        ],
        ids=["exponent", "coefficient", "const", "t-exponent", "t-coefficient"],
    )
    def test_no_constructor_takes_a_bool(self, build):
        """A bool is an int to Python, but neither an exponent nor a
        coefficient: t^True and False*t cannot be built."""
        with pytest.raises(TypeError, match="not an int"):
            build()

    def test_arithmetic_with_a_bool_is_the_arithmetic_with_its_int(self):
        x = TPoly.t()
        assert x + True == x + 1 and x * True == x and x * False == 0
        assert TPoly.const(1) == True  # noqa: E712

    def test_a_constant_and_its_scalar_are_one_set_member(self):
        assert len({TPoly.const(2), 2}) == 1
        assert len({TPoly(), 0, Fraction(0)}) == 1
        assert len({TPoly.const(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({TPoly({1: 2}), TPoly({0: 2}), 2}) == 2


compositions_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
    lambda parts: Composition(tuple(parts))
)


class TestComposition:
    def test_bars_view(self):
        assert sorted(Composition((2, 1)).bars()) == [2]
        assert Composition.from_bars(3, {2}).parts == (2, 1)

    def test_complement_examples(self):
        assert Composition((2,)).complement().parts == (1, 1)
        assert Composition((1, 1, 1, 1)).complement().parts == (4,)
        assert Composition((2, 1)).complement().parts == (1, 2)

    @given(compositions_strategy)
    def test_complement_involution(self, alpha):
        assert alpha.complement().complement() == alpha

    @given(compositions_strategy)
    def test_bars_round_trip(self, alpha):
        assert Composition.from_bars(alpha.n, alpha.bars()) == alpha

    @pytest.mark.parametrize("cls", [Composition, Partition])
    def test_a_bool_is_not_a_part(self, cls):
        with pytest.raises(ValueError, match="positive integers"):
            cls((True, 1))

    def test_num_bars(self):
        assert Composition((1, 2, 1)).num_bars == 2
        assert Composition(()).num_bars == 0


class TestEnumeration:
    def test_compositions_lex_order(self):
        got = [c.parts for c in compositions(3)]
        assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_composition_count(self):
        for n in range(1, 9):
            assert len(list(compositions(n))) == 2 ** (n - 1)

    def test_partitions_reverse_lex(self):
        got = [p.parts for p in partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_partition_counts(self):
        # p(n) for n = 0..8
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for n, e in enumerate(expected):
            assert len(list(partitions(n))) == e

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_a_size_is_an_int(self, n):
        """Refused at the call: compositions does not wait for a next()."""
        for enumerate_ in (partitions, compositions):
            with pytest.raises(TypeError, match=f"^n={re.escape(repr(n))} is not an int$"):
                enumerate_(n)

    def test_partitions_gives_a_fresh_iterator_per_call(self):
        first = partitions(5)
        assert next(first).parts == (5,)
        list(first)
        assert next(first, None) is None
        again = partitions(5)
        assert again is not first
        assert [p.parts for p in again] == [p.parts for p in partitions(5)]
        assert len(list(partitions(5))) == 7

    @pytest.mark.parametrize("n", range(9))
    def test_partitions_with_max_part(self, n):
        """The cached recursion ``_partitions(n, k)`` is partitions(n) cut
        to parts at most k."""
        whole = list(partitions(n))
        for k in range(n + 1):
            assert list(_partitions(n, k)) == [lam for lam in whole if lam.n == 0 or lam.parts[0] <= k]
        assert list(_partitions(n, n)) == whole

    def test_partitions_are_valid_partitions(self):
        for n in range(9):
            for lam in partitions(n):
                assert type(lam) is Partition and Partition(lam.parts) == lam
        assert list(partitions(-1)) == []

    @pytest.mark.parametrize("n", range(10))
    def test_rearrangements_are_the_distinct_permutations(self, n):
        """Oracle: every ell(lam)! permutation, deduplicated and sorted."""
        for lam in partitions(n):
            expected = sorted(set(itertools.permutations(lam.parts)))
            assert [c.parts for c in rearrangements(lam)] == expected


class TestPermutation:
    def test_cycle_type_examples(self):
        assert Permutation((1, 2, 3, 4)).cycle_type().parts == (1, 1, 1, 1)
        assert Permutation((2, 3, 1, 4)).cycle_type().parts == (3, 1)
        assert Permutation((2, 1)).cycle_type().parts == (2,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))

    @pytest.mark.parametrize("images", [(True,), (2, True), (1.0, 2)])
    def test_images_are_ints_not_bools(self, images):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)


class TestZOf:
    def test_examples(self):
        assert z_of(Partition((1, 1))) == 2
        assert z_of(Partition((2,))) == 2
        assert z_of(Partition((3, 1))) == 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_sizes_partition_group(self, n):
        total = sum(
            math.factorial(n) // z_of(lam) for lam in partitions(n)
        )
        assert total == math.factorial(n)


class TestReport:
    def test_checking_nothing_is_not_ok(self):
        assert not Report("empty").ok
        assert Report("one", checked=1).ok

    def test_check_counts_every_comparison_and_records_only_failures(self):
        def unreachable():
            raise AssertionError("a passing comparison built its record")

        report = Report("one")
        assert report.check(True, unreachable) is True
        assert report.check(False, lambda: ("x=1", 2, 3)) is False
        assert report.check(True, unreachable) is True
        assert report.checked == 3
        assert report.failures == [{"input": "x=1", "expected": "2", "actual": "3"}]
        assert not report.ok

    def test_a_failure_is_not_ok(self):
        report = Report("one", checked=1)
        report.record("x=1", 2, 3)
        assert not report.ok
        assert report.failures == [{"input": "x=1", "expected": "2", "actual": "3"}]

    def test_extend_sums_checks_and_failures(self):
        total = Report("suite", checked=2)
        total.record("a", 0, 1)
        part = Report("part", checked=3)
        part.record("b", 0, 2)
        part.record("c", 0, 3)
        total.extend(part)
        total.extend(Report("clean", checked=4), "unused")
        assert total.checked == 9
        assert [f["input"] for f in total.failures] == ["a", "b", "c"]

    @pytest.mark.parametrize("context", [None, "draw #4"])
    def test_extend_copies_each_record(self, context):
        """The merged report owns its records: editing one leaves the
        report it came from as it was."""
        part = Report("part", checked=1)
        part.record("edges []", "equal", "differs")
        total = Report("suite")
        total.extend(part, context)
        total.failures[0]["input"] = "edited"
        total.failures[0]["note"] = "added"
        assert part.failures == [{"input": "edges []", "expected": "equal", "actual": "differs"}]

    def test_extend_with_context_prefixes_inputs(self):
        part = Report("part", checked=1)
        part.record("edges []", "equal", "differs")
        total = Report("suite")
        total.extend(part, "draw #4")
        assert total.failures[0]["input"] == "draw #4: edges []"
        assert part.failures[0]["input"] == "edges []"
        assert total.to_json() == {
            "suite": "suite",
            "checked": 1,
            "failures": total.failures,
            "elapsed_ms": 0,
        }
