import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hesschrom import qsym, sym
from hesschrom.base import (
    Composition,
    DegreeMismatchError,
    Partition,
    TPoly,
    compositions,
    partitions,
    rearrangements,
)
from hesschrom.cli import run
from hesschrom.qsym import (
    NotSymmetricError,
    QSymElement,
    f_to_m,
    is_symmetric,
    m_to_f,
    omega,
    quasi_shuffle,
    to_m_basis,
)
from hesschrom.sym import (
    contract_to_m,
    expand_in_basis,
    generator,
    kostka,
    kostka_bruteforce,
    m_partition_to_qsym,
)


def M(*parts):
    return QSymElement.monomial(Composition(parts), "M")


def F(*parts):
    return QSymElement.monomial(Composition(parts), "F")


def expand_series(x: QSymElement, nvars: int):
    """Independent oracle: expand an M-basis element as a power series in
    nvars variables; returns exponent-tuple -> TPoly."""
    out = {}
    for alpha, c in x.terms.items():
        for idxs in itertools.combinations(range(nvars), alpha.length):
            expo = [0] * nvars
            for i, p in zip(idxs, alpha.parts):
                expo[i] = p
            key = tuple(expo)
            out[key] = out.get(key, TPoly()) + c
    return {k: v for k, v in out.items() if v}


def series_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, TPoly()) + c1 * c2
    return {k: v for k, v in out.items() if v}


class TestBasisChange:
    def test_f_to_m_examples(self):
        assert f_to_m(F(2)) == M(2) + M(1, 1)
        assert f_to_m(F(1, 1)) == M(1, 1)
        assert f_to_m(F(3)) == M(3) + M(1, 2) + M(2, 1) + M(1, 1, 1)

    def test_m_to_f_examples(self):
        assert m_to_f(M(1, 1)) == F(1, 1)
        assert m_to_f(M(2)) == F(2) - F(1, 1)
        assert m_to_f(f_to_m(F(2, 1))) == F(2, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mutually_inverse(self, n):
        for alpha in compositions(n):
            fa = QSymElement.monomial(alpha, "F")
            assert m_to_f(f_to_m(fa)) == fa
            ma = QSymElement.monomial(alpha, "M")
            assert f_to_m(m_to_f(ma)) == ma


class TestOmega:
    def test_omega_f_example(self):
        assert omega(f_to_m(F(2))) == f_to_m(F(1, 1))

    def test_rejects_the_f_basis(self):
        """An F-basis input is read through ``f_to_m`` first; omega has no
        second route into the M basis."""
        with pytest.raises(ValueError, match="omega expects the M or m basis, not 'F'"):
            omega(F(2))

    def test_omega_m11_via_e2_h2(self):
        # oracle: omega e_2 = h_2 with e_2 = M_(1,1), h_2 = M_(2) + M_(1,1)
        assert omega(M(1, 1)) == M(2) + M(1, 1)

    def test_degree_one_fixed_point(self):
        assert omega(M(1)) == M(1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        for alpha in compositions(n):
            x = QSymElement.monomial(alpha, "M")
            assert omega(omega(x)) == x

    @pytest.mark.parametrize("n", range(1, 9))
    def test_omega_f_is_complement(self, n):
        for alpha in compositions(n):
            lhs = omega(f_to_m(QSymElement.monomial(alpha, "F")))
            rhs = f_to_m(QSymElement.monomial(alpha.complement(), "F"))
            assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_omega_e_is_h(self, n):
        for lam in partitions(n):
            assert omega(generator("e", lam)) == generator("h", lam)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_omega_p_sign(self, k):
        pk = generator("p", Partition((k,)))
        assert omega(pk) == pk.scaled((-1) ** (k - 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_m_basis_matches_m_basis_route(self, n):
        """On the m basis omega is a cached matrix; it agrees with the
        M-basis omega of the same symmetric function."""
        coeffs = {
            lam: TPoly({0: i + 1, 1: Fraction(-1, 3)})
            for i, lam in enumerate(partitions(n))
        }
        x = QSymElement(n, "m", coeffs)
        as_m = QSymElement(
            n,
            "M",
            {alpha: c for lam, c in coeffs.items() for alpha in rearrangements(lam)},
        )
        assert omega(x) == to_m_basis(omega(as_m))
        assert omega(omega(x)) == x

    @pytest.mark.parametrize("basis", ["e", "h", "p", "s"])
    def test_rejects_other_symmetric_bases(self, basis):
        x = QSymElement(2, basis, {Partition((2,)): 1})
        with pytest.raises(ValueError, match=f"omega .*'{basis}'"):
            omega(x)


small_compositions = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(
    lambda parts: Composition(tuple(parts))
)


class TestQuasiShuffle:
    def test_examples(self):
        assert quasi_shuffle(M(1), M(1)) == M(1, 1).scaled(2) + M(2)
        assert quasi_shuffle(M(1), M(2)) == M(1, 2) + M(2, 1) + M(3)

    def test_empty_is_identity(self):
        one = QSymElement.monomial(Composition(()), "M")
        x = M(2, 1) + M(1, 1, 1).scaled(TPoly.t(1))
        assert quasi_shuffle(x, one) == x
        assert quasi_shuffle(one, x) == x

    @settings(max_examples=40, deadline=None)
    @given(small_compositions, small_compositions)
    def test_agrees_with_series_product(self, a, b):
        x = QSymElement.monomial(a, "M")
        y = QSymElement.monomial(b, "M")
        nvars = a.length + b.length + 1
        lhs = expand_series(quasi_shuffle(x, y), nvars)
        rhs = series_product(expand_series(x, nvars), expand_series(y, nvars))
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(small_compositions, small_compositions, small_compositions)
    def test_associative_commutative(self, a, b, c):
        x, y, z = (QSymElement.monomial(v, "M") for v in (a, b, c))
        assert quasi_shuffle(x, y) == quasi_shuffle(y, x)
        assert quasi_shuffle(quasi_shuffle(x, y), z) == quasi_shuffle(
            x, quasi_shuffle(y, z)
        )


class TestSymmetry:
    def test_symmetric_example(self):
        x = M(2, 1) + M(1, 2) + M(1, 1, 1)
        assert is_symmetric(x)
        sym = to_m_basis(x)
        assert sym.coeff(Partition((2, 1))) == TPoly.const(1)
        assert sym.coeff(Partition((1, 1, 1))) == TPoly.const(1)

    def test_not_symmetric(self):
        assert not is_symmetric(M(1, 2))
        with pytest.raises(NotSymmetricError) as err:
            to_m_basis(M(1, 2))
        alpha, sorted_alpha = err.value.witness
        assert sorted_alpha == Composition((2, 1))

    def test_to_m_basis_example(self):
        x = M(2) + M(1, 1).scaled(2)
        sym = to_m_basis(x)
        assert sym.coeff(Partition((2,))) == TPoly.const(1)
        assert sym.coeff(Partition((1, 1))) == TPoly.const(2)


class TestGenerators:
    def test_one_part(self):
        assert generator("p", Partition((2,))) == M(2)
        assert generator("e", Partition((2,))) == M(1, 1)
        assert generator("h", Partition((2,))) == M(2) + M(1, 1)

    def test_schur_21(self):
        # SSYT counts: shape (2,1) has K=1 at content (2,1), K=2 at (1,1,1)
        s = to_m_basis(generator("s", Partition((2, 1))))
        assert s.coeff(Partition((2, 1))) == TPoly.const(1)
        assert s.coeff(Partition((1, 1, 1))) == TPoly.const(2)
        assert s.coeff(Partition((3,))) == TPoly()

    def test_kostka(self):
        assert kostka(Partition((2, 1)), Partition((2, 1))) == 1
        assert kostka(Partition((2, 1)), Partition((1, 1, 1))) == 2
        assert kostka(Partition((3,)), Partition((1, 1, 1))) == 1
        assert kostka(Partition((1, 1, 1)), Partition((2, 1))) == 0


class TestExpandInBasis:
    def test_h2_in_e_basis(self):
        x = QSymElement(2, "m", {Partition((2,)): TPoly.const(1), Partition((1, 1)): TPoly.const(1)})
        in_e = expand_in_basis(x, "e")
        assert in_e.coeff(Partition((1, 1))) == TPoly.const(1)
        assert in_e.coeff(Partition((2,))) == TPoly.const(-1)

    def test_m11_in_p_basis(self):
        x = QSymElement(2, "m", {Partition((1, 1)): TPoly.const(1)})
        in_p = expand_in_basis(x, "p")
        assert in_p.coeff(Partition((1, 1))) == TPoly.const(Fraction(1, 2))
        assert in_p.coeff(Partition((2,))) == TPoly.const(Fraction(-1, 2))

    def test_identity_on_m(self):
        x = QSymElement(3, "m", {Partition((2, 1)): TPoly.t(1)})
        assert expand_in_basis(x, "m") is x

    @pytest.mark.parametrize("target", ["e", "h", "p", "s"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip(self, target, n):
        for lam in partitions(n):
            x = to_m_basis(generator("h", lam))
            expanded = expand_in_basis(x, target)
            assert contract_to_m(expanded) == x


class TestTransitionMatrix:
    """The partition-space matrices against the M-basis route they
    replaced, which stays as the oracle."""

    @pytest.mark.parametrize("target", ["e", "h", "p", "s"])
    @pytest.mark.parametrize("n", range(0, 8))
    def test_columns_match_generators(self, target, n):
        parts, matrix = sym._transition_matrix(n, target)
        assert parts == tuple(partitions(n))
        for j, lam in enumerate(parts):
            column = to_m_basis(generator(target, lam))
            assert [row[j] for row in matrix] == [column.coeff(mu).coeff(0) for mu in parts]

    @pytest.mark.parametrize("matrix", ["e", "f", "h", "p", "s"])
    @pytest.mark.parametrize("n", range(0, 8))
    def test_column_map_holds_the_nonzero_columns(self, matrix, n):
        """``_apply`` reads ``_columns``: each partition's column of the
        cached matrix, zeros left out, rows in the matrix's order."""
        parts, rows = sym._transition_matrix(n, matrix)
        columns = sym._columns(n, matrix)
        assert list(columns) == list(parts)
        for j, lam in enumerate(parts):
            assert columns[lam] == tuple((mu, row[j]) for mu, row in zip(parts, rows) if row[j])
            assert all(v for _, v in columns[lam])
        assert sym._columns(n, matrix) is columns
        with pytest.raises(TypeError):
            columns[parts[0]] = ()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kostka_matches_bruteforce(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                assert kostka(lam, mu) == kostka_bruteforce(lam, mu)

    @pytest.mark.parametrize("target", ["e", "h", "p", "s"])
    def test_cached_value_is_immutable(self, target):
        parts, matrix = sym._transition_matrix(4, target)
        assert type(parts) is tuple and type(matrix) is tuple
        assert all(type(row) is tuple for row in matrix)
        assert all(type(v) is int for row in matrix for v in row)

    def test_frontier_n10(self):
        # p(10) = 42 partitions; each matrix is built cold here
        for target in ("e", "h", "p", "s"):
            parts, matrix = sym._transition_matrix(10, target)
            assert len(parts) == len(matrix) == 42
        assert sym._transition_matrix(10, "s")[1][41][0] == 1  # K_{(10), 1^10}
        assert sym._transition_matrix(10, "h")[1][41][41] == 3628800  # 10!


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_n5.json").read_text())


class TestNoMBasisRoute:
    """Expansions and contractions build their matrices in partition
    space: they still work with the M-basis generators disabled."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the M-basis route was called")

    def refuse_in_qsym_and_sym(self, monkeypatch, names):
        for name in names:
            for module in (qsym, sym):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self.refuse)

    @pytest.fixture
    def m_route_off(self, monkeypatch):
        self.refuse_in_qsym_and_sym(monkeypatch, ("generator", "quasi_shuffle", "kostka_bruteforce"))
        sym._transition_matrix.cache_clear()

    @pytest.fixture
    def omega_route_off(self, m_route_off, monkeypatch):
        """Also refuse ``to_m_basis``, ``m_partition_to_qsym`` and ``omega``
        on anything but the m basis, and rebuild the matrices."""
        real_omega = qsym.omega

        def m_basis_omega_only(x):
            if x.basis != "m":
                self.refuse()
            return real_omega(x)

        self.refuse_in_qsym_and_sym(monkeypatch, ("to_m_basis", "m_partition_to_qsym"))
        monkeypatch.setattr(qsym, "omega", m_basis_omega_only)
        sym._transition_matrix.cache_clear()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip(self, m_route_off, n):
        for target in ("e", "h", "p", "s"):
            for lam in partitions(n):
                x = QSymElement(n, target, {lam: TPoly({0: 2, 1: Fraction(-1, 3)})})
                assert expand_in_basis(contract_to_m(x), target) == x

    @pytest.mark.parametrize("n", range(0, 8))
    def test_omega_matrix(self, omega_route_off, n):
        """Built from Kostka integers with the M-basis route refused, each
        column still equals the M-basis omega of m_lambda (this module's
        own bindings of the refused functions are the real ones)."""
        parts, matrix = sym._transition_matrix(n, "f")
        assert parts == tuple(partitions(n))
        for j, lam in enumerate(parts):
            column = to_m_basis(omega(m_partition_to_qsym(lam)))
            assert [row[j] for row in matrix] == [column.coeff(mu).coeff(0) for mu in parts]
            x = QSymElement(n, "m", {lam: TPoly({0: 3, 2: -1})})
            assert qsym.omega(qsym.omega(x)) == x

    @pytest.mark.parametrize("m", ["1,2,3,4", "3,4,5,5", "5,5,5,5"])
    def test_cli_golden(self, m_route_off, capsys, m):
        for basis in ("e", "h", "p", "s"):
            argv = ["xg", "--m", m, "--basis", basis, "--json"]
            assert run(argv) == 0
            assert capsys.readouterr().out == GOLDEN[" ".join(argv)]


class TestConstruction:
    """``QSymElement`` coerces each coefficient once, adds only where a key
    repeats, and drops zeros."""

    def test_repeated_key_merges(self):
        lam = Partition((2, 1))
        x = QSymElement(3, "m", [(lam, 1), (Partition((3,)), TPoly({1: 2})), (lam, TPoly({1: 4}))])
        assert dict(x.terms) == {lam: TPoly({0: 1, 1: 4}), Partition((3,)): TPoly({1: 2})}

    def test_repeat_that_cancels_drops_the_key(self):
        alpha = Composition((1, 2))
        x = QSymElement(3, "M", [(alpha, TPoly({-1: Fraction(1, 2)})), (alpha, TPoly({-1: Fraction(-1, 2)}))])
        assert dict(x.terms) == {} and not x
        y = QSymElement(3, "M", [(alpha, 2), (alpha, -2), (alpha, 5)])
        assert dict(y.terms) == {alpha: TPoly.const(5)}

    def test_zero_in_a_dict_is_dropped(self):
        x = QSymElement(2, "m", {Partition((2,)): 0, Partition((1, 1)): TPoly(), })
        assert dict(x.terms) == {}
        y = QSymElement(2, "m", {Partition((2,)): Fraction(0), Partition((1, 1)): Fraction(1, 3)})
        assert dict(y.terms) == {Partition((1, 1)): TPoly.const(Fraction(1, 3))}

    def test_coefficients_are_made_tpolys(self):
        x = QSymElement(2, "m", {Partition((2,)): 3, Partition((1, 1)): Fraction(1, 2)})
        assert all(type(c) is TPoly for c in x.terms.values())
        assert x.coeff(Partition((2,))).terms == {0: 3}

    def test_a_single_tpoly_is_shared_and_a_sum_is_new(self):
        lam, mu = Partition((2, 1)), Partition((3,))
        p, q = TPoly({1: 2}), TPoly({0: 1})
        x = QSymElement(3, "m", [(lam, p), (mu, q), (mu, q)])
        assert x.terms[lam] is p
        assert x.terms[mu] == TPoly({0: 2}) and x.terms[mu] is not q
        assert q.terms == {0: 1}

    @pytest.mark.parametrize(
        "basis, key",
        [
            ("m", Composition((1,))),
            ("s", Composition((1, 1))),
            ("M", Partition((2, 1))),
            ("F", Partition((1,))),
        ],
        ids=["m", "s", "M", "F"],
    )
    def test_a_key_of_the_other_kind_is_a_type_error(self, basis, key):
        """Partitions key m, e, h, p and s; compositions key M and F.  A
        key of the other kind would be misread later: ``expand_in_basis``
        would drop it, and ``to_m_basis`` would fail on it."""
        with pytest.raises(TypeError, match="keys"):
            QSymElement(key.n, basis, {key: 1})

    @pytest.mark.parametrize(
        "basis, key",
        [
            ("m", Composition((2, 1))),
            ("s", Composition((3,))),
            ("M", Partition((2, 1))),
            ("F", Partition((3,))),
        ],
        ids=["m", "s", "M", "F"],
    )
    def test_coeff_refuses_a_key_of_the_other_kind(self, basis, key):
        """``coeff`` applies the constructor's key rule: a key the element
        could never hold is an error, not a zero coefficient."""
        own = (Composition if basis in "MF" else Partition)(key.parts)
        x = QSymElement(3, basis, {own: TPoly({1: 1})})
        assert x.coeff(own) == TPoly({1: 1})
        with pytest.raises(TypeError, match="keys"):
            x.coeff(key)

    @pytest.mark.parametrize("basis, key", [("m", Partition((2,))), ("M", Composition((1, 3)))])
    def test_coeff_refuses_a_key_of_another_degree(self, basis, key):
        x = QSymElement(3, basis)
        with pytest.raises(DegreeMismatchError, match=re.escape(f"{key} is not a")):
            x.coeff(key)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QSymElement(True, "M", {Composition((1,)): 1}),
            lambda: QSymElement(1.0, "m"),
            lambda: QSymElement(1, "M", {Composition((1,)): True}),
            lambda: QSymElement.monomial(Partition((1,)), "m", coeff=False),
        ],
        ids=["bool-degree", "float-degree", "bool-coefficient", "monomial"],
    )
    def test_a_degree_or_a_coefficient_that_is_a_bool_is_a_type_error(self, build):
        """The degree is an int and each coefficient a TPoly, an int or a
        Rational; a bool is an int to Python, but neither of these."""
        with pytest.raises(TypeError, match="degree|coefficient"):
            build()

    @pytest.mark.parametrize(
        "other", [1, Fraction(1, 2), TPoly.const(1), "x"], ids=["int", "fraction", "tpoly", "str"]
    )
    def test_adding_or_subtracting_a_non_element_is_a_type_error(self, other):
        x = QSymElement(1, "m", {Partition((1,)): 1})
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x - other
        assert QSymElement.__sub__(x, other) is NotImplemented

    @pytest.mark.parametrize("coeff", ["x", None, 1.5, [1]])
    def test_non_numeric_coefficient_is_a_type_error(self, coeff):
        """A coefficient is a TPoly, an int or a Rational: the scalar rule
        of TPoly's own arithmetic, which already refuses TPoly({0: "x"})."""
        with pytest.raises(TypeError, match="coefficient"):
            QSymElement(1, "m", {Partition((1,)): coeff})
        with pytest.raises(TypeError, match="coefficient"):
            QSymElement.monomial(Composition((1,)), "M", coeff)
        with pytest.raises(TypeError):
            TPoly({0: "x"})

    @pytest.mark.parametrize("terms", [
        {Partition((1, 1)): 1},
        [(Partition((2, 1)), 1), (Partition((2,)), 1)],
    ])
    def test_wrong_degree_raises(self, terms):
        with pytest.raises(DegreeMismatchError, match="partition"):
            QSymElement(3, "m", terms)
        with pytest.raises(DegreeMismatchError, match="composition"):
            QSymElement(3, "M", [(Composition(lam.parts), c) for lam, c in dict(terms).items()])


class TestBasisValidation:
    """The basis is checked before any term is read."""

    class Unread:
        def __init__(self, basis):
            self.n, self.basis = 3, basis

        @property
        def terms(self):
            raise AssertionError("terms read before the basis was checked")

    @pytest.mark.parametrize("basis", ["M", "F"])
    @pytest.mark.parametrize("empty", [True, False])
    def test_contract_to_m_rejects_quasisymmetric(self, basis, empty):
        x = QSymElement(3, basis) if empty else QSymElement.monomial(Composition((1, 2)), basis)
        with pytest.raises(ValueError, match=f"contract_to_m .*'{basis}'"):
            contract_to_m(x)

    @pytest.mark.parametrize("basis", ["M", "F", "f", "q"])
    def test_contract_to_m_checks_first(self, basis):
        with pytest.raises(ValueError, match=f"contract_to_m .*'{basis}'"):
            contract_to_m(self.Unread(basis))

    @pytest.mark.parametrize("target", ["M", "F", "f", "q"])
    @pytest.mark.parametrize("empty", [True, False])
    def test_expand_in_basis_rejects_target(self, target, empty):
        x = QSymElement(3, "m", None if empty else {Partition((2, 1)): 1})
        with pytest.raises(ValueError, match=f"expand_in_basis: .*'{target}'"):
            expand_in_basis(x, target)
        with pytest.raises(ValueError, match=f"expand_in_basis: .*'{target}'"):
            expand_in_basis(self.Unread("m"), target)

    @pytest.mark.parametrize("basis", ["M", "F"])
    def test_expand_in_basis_rejects_input_basis(self, basis):
        with pytest.raises(ValueError, match=f"expand_in_basis .*'{basis}'"):
            expand_in_basis(self.Unread(basis), "e")

    @pytest.mark.parametrize("target", ["M", "F", "m", "q"])
    def test_no_transition_matrix(self, target):
        with pytest.raises(ValueError, match=f"'{target}'"):
            sym._transition_matrix(3, target)
