"""The one expansion type: every basis, immutable, safe to share through
the lru caches that hand the same element to every caller."""

import copy
import pickle

import pytest

from hesschrom.base import Composition, DegreeMismatchError, FrozenInstanceError, Partition, TPoly
from hesschrom.character import omega_x_of, x_of
from hesschrom.hessenberg import HessenbergFunction
from hesschrom.oracles import generator
from hesschrom.qsym import QSymElement


@pytest.mark.parametrize("basis", ["M", "F", "m", "e", "h", "p", "s"])
def test_every_basis_is_accepted(basis):
    key = Composition((1, 2)) if basis in "MF" else Partition((2, 1))
    x = QSymElement.monomial(key, basis, 3)
    assert x.basis == basis and x.coeff(key) == TPoly.const(3)


def test_unknown_basis_and_wrong_degree_raise():
    with pytest.raises(ValueError):
        QSymElement(2, "q")
    with pytest.raises(DegreeMismatchError, match="composition"):
        QSymElement(3, "M", {Composition((1, 1)): 1})
    with pytest.raises(DegreeMismatchError, match="partition"):
        QSymElement(3, "m", {Partition((1, 1)): 1})


@pytest.mark.parametrize("cached", [x_of, omega_x_of])
def test_cached_elements_cannot_be_mutated(cached):
    m = HessenbergFunction(3, (2, 3))
    x = cached(m)
    before = dict(x.terms)
    with pytest.raises(TypeError):
        x.terms[Partition((3,))] = TPoly.const(1)
    with pytest.raises(TypeError):
        del x.terms[Partition((1, 1, 1))]
    for name, value in [("n", 4), ("basis", "e"), ("terms", {}), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    for name in QSymElement._fields:
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert cached(m) is x and dict(x.terms) == before and x.n == 3 and x.basis == "m"


@pytest.mark.parametrize("cached, arg", [
    (x_of, HessenbergFunction(3, (2, 3))),
    (omega_x_of, HessenbergFunction(3, (2, 3))),
    (lambda lam: generator("e", lam), Partition((2, 1))),
])
def test_cached_coefficients_cannot_be_mutated(cached, arg):
    x = cached(arg)
    before = {key: dict(c.terms) for key, c in x.terms.items()}
    for c in x.terms.values():
        with pytest.raises(TypeError):
            c.terms[0] = 12345
        with pytest.raises(TypeError):
            del c.terms[min(c.terms)]
        with pytest.raises(FrozenInstanceError):
            c.terms = {}
        with pytest.raises(FrozenInstanceError):
            del c.terms
    again = cached(arg)
    assert again is x
    assert {key: dict(c.terms) for key, c in again.terms.items()} == before


@pytest.mark.parametrize("cached", [x_of, omega_x_of])
def test_cached_elements_copy_and_pickle(cached):
    x = cached(HessenbergFunction(4, (2, 4, 4)))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is QSymElement
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        with pytest.raises(TypeError):
            y.terms[Partition((4,))] = TPoly.const(1)


def test_arithmetic_leaves_operands_alone():
    g = generator("e", Partition((2, 1)))
    before = dict(g.terms)
    total = g + g.scaled(TPoly.t())
    assert dict(g.terms) == before
    assert total.coeff(Composition((1, 1, 1))) == g.coeff(Composition((1, 1, 1))) * (1 + TPoly.t())
    assert not (g - g) and (g - g).basis == "M"
    assert not g.scaled(0)


def test_repr_orders_partitions_down_and_compositions_up():
    lams = {Partition((1, 1)): 1, Partition((2,)): 2}
    alphas = {Composition((2,)): 1, Composition((1, 1)): 2}
    assert repr(QSymElement(2, "m", lams)) == "(2) m[2] + (1) m[1,1]"
    assert repr(QSymElement(2, "M", alphas)) == "(2) M(1,1) + (1) M(2)"
    assert repr(QSymElement(2, "M")) == "0"
