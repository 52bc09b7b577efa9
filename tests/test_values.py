"""Value classes: ``ontoshacl.values`` against the stdlib ``dataclasses``.

Every class of the package built by ``value`` is checked against a twin
made by ``dataclasses.make_dataclass`` with the same fields, defaults,
``frozen`` and ``order``: construction, equality, hashing, ``repr``,
ordering, immutability and ``replace`` must match. Methods are shared by
every class with the same field list, so classes that share one must
still never compare equal.
"""
from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import ontoshacl
from ontoshacl import values
from ontoshacl.core import Interpretation, Role
from ontoshacl.shapes import And, ConceptRef, Or


def _value_classes():
    found = {}
    for info in pkgutil.iter_modules(ontoshacl.__path__):
        mod = importlib.import_module(f"ontoshacl.{info.name}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__value_fields__" in vars(obj):
                found[obj] = None  # ABox is another name of Interpretation
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


CLASSES = _value_classes()
MUTABLE = {"PreparedKB", "SelftestReport"}
ORDERED = {"Role"}


def _defaults(cls):
    return {f: vars(cls)[f] for f in cls.__value_fields__ if f in vars(cls)}


def _twin(cls):
    defaults = _defaults(cls)
    spec = [(f, object, defaults[f]) if f in defaults else (f, object) for f in cls.__value_fields__]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=cls.__name__ not in MUTABLE, order=cls.__name__ in ORDERED
    )


def _samples(cls):
    """Field tuples that differ in their first and in their last field."""
    fields = cls.__value_fields__
    base = tuple(f"{f}-0" for f in fields)
    return [base, (f"{fields[0]}-1",) + base[1:], base[:-1] + (f"{fields[-1]}-1",)]


def test_every_value_class_is_found():
    assert len(CLASSES) == 44
    assert {c.__name__ for c in CLASSES if c.__hash__ is None} == MUTABLE
    assert {c.__name__ for c in CLASSES if "__lt__" in vars(c)} == ORDERED


def test_methods_are_generated_once_per_field_list():
    lists = {(c.__value_fields__, c.__hash__ is not None, "__lt__" in vars(c)) for c in CLASSES}
    assert len(lists) == len(values._METHODS) == 30
    assert And.__eq__ is Or.__eq__ and And.__hash__ is Or.__hash__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_the_stdlib(cls):
    twin = _twin(cls)
    samples = _samples(cls)
    for a in samples:
        ours, theirs = cls(*a), twin(*a)
        assert repr(ours) == repr(theirs)
        assert cls(**dict(zip(cls.__value_fields__, a))) == ours
        if twin.__hash__ is None:
            assert cls.__hash__ is None
        else:
            assert hash(ours) == hash(theirs)
        for b in samples:
            assert (ours == cls(*b)) == (theirs == twin(*b))
            assert (ours != cls(*b)) == (theirs != twin(*b))
            if cls.__name__ in ORDERED:
                for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                    assert getattr(ours, op)(cls(*b)) == getattr(theirs, op)(twin(*b))
    defaults = _defaults(cls)
    required = [f"{f}-0" for f in cls.__value_fields__ if f not in defaults]
    assert repr(cls(*required)) == repr(twin(*required))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_and_extra_arguments_raise_type_error(cls):
    fields = cls.__value_fields__
    if len(_defaults(cls)) < len(fields):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*_samples(cls)[0], "extra")
    with pytest.raises(TypeError):
        cls(**{f: 0 for f in fields}, no_such_field=0)


@pytest.mark.parametrize("cls", [c for c in CLASSES if c.__name__ not in MUTABLE], ids=lambda c: c.__name__)
def test_frozen_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*_samples(cls)[0])
    for f in cls.__value_fields__:
        with pytest.raises(AttributeError):
            setattr(obj, f, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert obj == cls(*_samples(cls)[0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace_changes_only_the_named_fields(cls):
    twin = _twin(cls)
    a = _samples(cls)[0]
    obj = cls(*a)
    assert values.replace(obj) == obj and values.replace(obj) is not obj
    f = cls.__value_fields__[-1]
    changed = values.replace(obj, **{f: "new"})
    assert repr(changed) == repr(dataclasses.replace(twin(*a), **{f: "new"}))
    assert obj == cls(*a)
    with pytest.raises(TypeError):
        values.replace(obj, no_such_field=0)


@pytest.mark.parametrize(
    "pairs",
    [
        ("And", "Or"),
        ("ShapeRef", "NegShapeRef", "ConceptRef", "IndividualRef"),
        ("AtMostOne", "ValueRestriction", "ExistsInclusion"),
        ("ExistsPath", "ExistsVia"),
        ("Constraint", "BinConstraint"),
    ],
)
def test_classes_sharing_a_field_list_never_compare_equal(pairs):
    by_name = {c.__name__: c for c in CLASSES}
    group = [by_name[n] for n in pairs]
    assert len({c.__value_fields__ for c in group}) == 1
    a = _samples(group[0])[0]
    objs = [c(*a) for c in group]
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            assert (x == y) == (i == j)
            assert (x != y) == (i != j)
    assert len(dict.fromkeys(objs)) == len(objs)


def test_ordering_is_the_order_of_field_tuples():
    roles = [Role(n, inv) for n in ("s", "r", "q") for inv in (True, False)]
    assert sorted(roles) == sorted(roles, key=lambda r: (r.name, r.inverted))

    @values.value(frozen=True, order=True)
    class Twin:  # Role's field list, so Role's order methods
        name: str
        inverted: bool = False

    assert Twin.__lt__ is Role.__lt__
    with pytest.raises(TypeError):
        Role("r") < Twin("r")


def test_cached_property_still_caches_on_a_frozen_class():
    atoms = ([("A", "a")], [(Role("r"), "a", "b")])
    interp = Interpretation.of(*atoms)
    assert interp.individuals() == ("a", "b")
    assert "_individuals" in vars(interp)
    assert interp._individuals is interp._individuals
    assert interp == Interpretation.of(*atoms)


def test_keyword_construction_and_defaults():
    assert Role(name="r") == Role("r", False)
    assert And(right=ConceptRef("B"), left=ConceptRef("A")) == And(ConceptRef("A"), ConceptRef("B"))
