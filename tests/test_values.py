"""The hand-written value types: construction, immutability, equality and
hashing per class, the pinned dataclass-style ``repr``, and round trips
through ``pickle`` and ``copy``, for every subclass of ``_Frozen``.

Each frozen class rebuilds itself through its constructor on unpickling
(``_Frozen.__reduce__``), because its ``__setattr__`` refuses every
assignment; the mutable, slotted ``Report`` round-trips by its slots.
"""

import copy
import importlib
import pickle
import pkgutil
from functools import lru_cache

import pytest

import hesschrom
from hesschrom.base import Composition, Partition, Permutation, Report, TPoly, _Frozen
from hesschrom.betti import Tableau
from hesschrom.character import ClassFunction
from hesschrom.hessenberg import Digraph, Graph, HessenbergFunction
from hesschrom.pathcovers import OrderedPathCover
from hesschrom.qsym import QSymElement

V = frozenset({1, 2})

# name -> (make an instance, make an unequal one of the same class, repr)
FROZEN = {
    "Composition": (
        lambda: Composition((2, 1)),
        lambda: Composition((1, 2)),
        "Composition(parts=(2, 1))",
    ),
    "Partition": (
        lambda: Partition((2, 1)),
        lambda: Partition((3,)),
        "Partition(parts=(2, 1))",
    ),
    "Permutation": (
        lambda: Permutation((2, 1, 3)),
        lambda: Permutation((1, 2, 3)),
        "Permutation(images=(2, 1, 3))",
    ),
    "Graph": (
        lambda: Graph(V, frozenset({frozenset({1, 2})})),
        lambda: Graph(V, frozenset()),
        "Graph(vertices=frozenset({1, 2}), edges=frozenset({frozenset({1, 2})}))",
    ),
    "Digraph": (
        lambda: Digraph(V, frozenset({(2, 1)})),
        lambda: Digraph(V, frozenset({(1, 2)})),
        "Digraph(vertices=frozenset({1, 2}), edges=frozenset({(2, 1)}))",
    ),
    "HessenbergFunction": (
        lambda: HessenbergFunction(3, (2, 3)),
        lambda: HessenbergFunction(3, (3, 3)),
        "HessenbergFunction(n=3, m=(2, 3))",
    ),
    "Tableau": (
        lambda: Tableau(Partition((2, 1)), ((1, 2), (3,))),
        lambda: Tableau(Partition((2, 1)), ((2, 1), (3,))),
        "Tableau(shape=Partition(parts=(2, 1)), rows=((1, 2), (3,)))",
    ),
    "ClassFunction": (
        lambda: ClassFunction(2, ((Partition((2,)), 0), (Partition((1, 1)), 2))),
        lambda: ClassFunction(2, ((Partition((2,)), 2), (Partition((1, 1)), 2))),
        "ClassFunction(n=2, values=((Partition(parts=(2,)), 0), (Partition(parts=(1, 1)), 2)))",
    ),
    "OrderedPathCover": (
        lambda: OrderedPathCover((2, 1, 3), Composition((2, 1))),
        lambda: OrderedPathCover((2, 1, 3), Composition((1, 2))),
        "OrderedPathCover(q=(2, 1, 3), beta=Composition(parts=(2, 1)))",
    ),
    "QSymElement": (
        lambda: QSymElement(3, "m", {Partition((2, 1)): TPoly({0: 1, 1: 2})}),
        lambda: QSymElement(3, "m", {Partition((2, 1)): TPoly({0: 1})}),
        "(1 + 2*t) m[2,1]",
    ),
    "TPoly": (
        lambda: TPoly({0: 1, 1: 2}),
        lambda: TPoly({0: 1}),
        "TPoly({0: 1, 1: 2})",
    ),
}

# The hot dict and lru keys keep their own equality and hashing, through
# their private base; a TPoly equals and hashes like the scalar it is
# constant at.
OWN_EQ_AND_HASH = {"_Parts": {"__eq__", "__hash__"},
                   "TPoly": {"__eq__", "__hash__"}}

# Instances of different classes whose fields hold equal values.
SAME_FIELDS = [
    (Composition((2, 1)), Partition((2, 1))),
    (Graph(V, frozenset()), Digraph(V, frozenset())),
    (HessenbergFunction(2, (2,)), ClassFunction(2, (2,))),
]


def _report():
    r = Report("x", checked=2, elapsed_ms=5)
    r.record("m=(2,3)", 1, 2)
    return r


@pytest.fixture(params=sorted(FROZEN))
def frozen(request):
    return request.param, *FROZEN[request.param]


def _descendants_of_frozen():
    """Every class below ``_Frozen``, through private bases such as ``_Parts``."""
    for info in pkgutil.iter_modules(hesschrom.__path__):
        importlib.import_module(f"hesschrom.{info.name}")
    out, todo = [], [_Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            out.append(cls)
            todo.append(cls)
    return out


def test_every_value_class_is_covered():
    classes = [c for c in _descendants_of_frozen() if not c.__name__.startswith("_")]
    assert {cls.__name__ for cls in classes} == set(FROZEN)
    assert {type(make()) for make, _, _ in FROZEN.values()} == set(classes)


def test_equality_and_hashing_come_from_frozen():
    classes = _descendants_of_frozen()
    assert set(OWN_EQ_AND_HASH) <= {cls.__name__ for cls in classes}
    for cls in classes:
        own = {"__eq__", "__hash__"} & set(vars(cls))
        assert own == OWN_EQ_AND_HASH.get(cls.__name__, set()), cls
    assert Report.__eq__ is _Frozen.__eq__ and Report.__repr__ is _Frozen.__repr__


def test_frozen_repr_is_the_dataclass_form(frozen):
    _, make, _, text = frozen
    assert repr(make()) == text


def test_frozen_pickle_and_copy_round_trip(frozen):
    _, make, _, _ = frozen
    x = make()
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_frozen_refuses_assignment_and_deletion(frozen):
    _, make, _, _ = frozen
    x = make()
    before = repr(x)
    for field in type(x)._fields + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert repr(x) == before


def test_frozen_has_no_instance_dict(frozen):
    _, make, _, _ = frozen
    assert not hasattr(make(), "__dict__")


def test_frozen_equality_and_hash(frozen):
    _, make, other, _ = frozen
    a, b, c = make(), make(), other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert a != object() and a != repr(a)


def test_frozen_instances_are_dict_and_lru_keys(frozen):
    _, make, other, _ = frozen
    table = {make(): "a", other(): "c"}
    assert table[make()] == "a" and table[other()] == "c"
    assert len({make(), make(), other()}) == 2

    calls = []

    @lru_cache(maxsize=None)
    def f(x):
        calls.append(x)
        return len(calls)

    assert f(make()) == f(make()) == 1
    assert f(other()) == 2
    assert f.cache_info().hits == 1


def test_classes_never_compare_equal_across():
    for x, y in SAME_FIELDS:
        assert x != y and y != x
        assert not x == y
    instances = [make() for make, _, _ in FROZEN.values()] + [Report("x")]
    for i, x in enumerate(instances):
        for y in instances[i + 1:]:
            assert x != y and y != x


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="composition parts must be positive integers: \\(2, 0\\)"):
        Composition([2, 0])
    with pytest.raises(ValueError, match="weakly decreasing: \\(1, 2\\)"):
        Partition([1, 2])
    with pytest.raises(ValueError, match="not a permutation of 1..2: \\(1, 1\\)"):
        Permutation([1, 1])
    with pytest.raises(ValueError, match="bad edge"):
        Graph(V, frozenset({frozenset({1, 3})}))
    with pytest.raises(ValueError, match="bad directed edge \\(1, 1\\)"):
        Digraph(V, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="rows do not match the shape"):
        Tableau(Partition((2, 1)), ((1,), (2, 3)))
    assert Composition([2, 1]).parts == (2, 1)
    assert Tableau(Partition((1,)), [[1]]).rows == ((1,),)


class TestReport:
    def test_repr_and_defaults(self):
        assert repr(Report("x")) == "Report(suite='x', checked=0, failures=[], elapsed_ms=0)"
        assert repr(_report()) == (
            "Report(suite='x', checked=2, failures=[{'input': 'm=(2,3)', "
            "'expected': '1', 'actual': '2'}], elapsed_ms=5)"
        )

    def test_each_report_has_its_own_failures(self):
        a, b = Report("x"), Report("x")
        assert a.failures is not b.failures
        a.record("i", 1, 2)
        assert b.failures == [] and Report("x").failures == []

    def test_is_mutable_but_slotted_and_unhashable(self):
        r = Report("x")
        r.checked += 3
        r.elapsed_ms = 7
        assert (r.checked, r.elapsed_ms) == (3, 7)
        with pytest.raises(AttributeError):
            r.stats = {}
        with pytest.raises(TypeError):
            hash(Report("x"))

    def test_equality_is_by_field(self):
        assert _report() == _report()
        assert Report("x") == Report("x", 0, [], 0)
        assert Report("x") != Report("y")
        assert Report("x") != Report("x", checked=1)
        assert Report("x") != Report("x", elapsed_ms=1)
        assert _report() != Report("x", checked=2, elapsed_ms=5)

    def test_pickle_and_copy_round_trip(self):
        r = _report()
        for s in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert type(s) is Report and s == r
            assert s.failures is not r.failures
            s.record("j", 0, 1)
            assert len(r.failures) == 1
        assert copy.copy(r) == r
