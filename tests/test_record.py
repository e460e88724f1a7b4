"""The record contract: every morera dataclass takes its methods from one shared base.

Each record is checked against a twin that ``dataclasses.make_dataclass``
generates with ``frozen=True``: the shared methods must give the ``repr``
text, equality, hash and frozen errors that generated ones give.
"""

import dataclasses
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import morera.cli  # noqa: F401  (loads every morera module)
from morera import analysis, exprparser, extension, fiber, funczoo, geometry, semiquadric
from morera._record import Record

MODULES = ("geometry", "extension", "analysis", "semiquadric", "fiber", "funczoo", "exprparser")
METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def _records() -> list:
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "morera" or name.startswith("morera."):
            found += [
                value
                for value in vars(module).values()
                if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == name
            ]
    return found


RECORDS = _records()


def _samples() -> dict:
    """One instance of every record, built the way the program builds it."""
    poly3 = funczoo.builtin("poly3")
    circle = geometry.Circle(0.1 + 0.2j, 0.5)
    config = analysis.PipelineConfig(circles_per_family=4)
    result = analysis.verdict(poly3.oracle, config)
    report = result.families[0]
    curve = fiber.fiber_curve(0.5j)
    data = extension.analyze_circle(poly3.oracle, circle)
    tokens = exprparser._tokenize("2 - z")
    tree = exprparser.parse("-sin(z)^2")
    samples = [
        circle,
        geometry.arc_lambda(0.5j),
        geometry.PencilConfig(-1.0, 0.25),
        extension.sample_circle(poly3.oracle, circle, 16),
        data,
        extension.extension_test(data),
        extension.analyze_batch(poly3.oracle, np.array([0.0, 0.1]), np.array([0.5, 0.4])),
        report.config,
        report.circles[0],
        report,
        analysis.DbarGrid(),
        config,
        result,
        semiquadric.Semiquadric.centered(0.5),
        semiquadric.family_intersection_point(0.5, -0.2),
        curve,
        fiber.RegionD(curve),
        fiber._FiberField(poly3.oracle, curve, 1e-8).pieces[0],
        poly3.extension_for(circle),
        poly3,
        tokens[0],
        tree,
        tree.operand,
        tree.operand.left,
        tree.operand.left.arg,
        tree.operand.right,
    ]
    return {type(sample): sample for sample in samples}


SAMPLES = _samples()


def _values(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _twin(cls):
    """``cls``'s fields in a dataclass generated with ``frozen=True``."""
    return dataclasses.make_dataclass(cls.__qualname__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def test_every_module_declares_records_and_every_record_has_a_sample():
    assert sorted({cls.__module__.rpartition(".")[2] for cls in RECORDS}) == sorted(MODULES)
    assert set(SAMPLES) == set(RECORDS)


def test_records_of_two_classes_with_equal_fields_differ():
    circle, quadric = geometry.Circle(0.5, 0.25), semiquadric.Semiquadric(0.5, 0.25)
    assert dataclasses.astuple(circle) == dataclasses.astuple(quadric)
    assert circle.__eq__(quadric) is NotImplemented and circle != quadric


def test_record_rejects_what_its_methods_cannot_serve():
    # Subclassing Record declares the record, so a field its methods cannot
    # serve raises when the class is defined, not at its first instance.
    with pytest.raises(TypeError, match="plain default at most"):

        class Listed(Record):
            x: list = dataclasses.field(default_factory=list)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestRecordContract:
    def test_methods_are_the_shared_bases(self, cls):
        # No per-class code: a record's methods are Record's own functions.
        assert issubclass(cls, Record)
        for name in METHODS:
            assert getattr(cls, name) is getattr(Record, name), name
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")

    def test_repr_eq_and_hash_match_a_generated_frozen_dataclass(self, cls):
        values = _values(SAMPLES[cls])
        a, b = cls(*values), cls(*values)
        twin = _twin(cls)
        ta, tb = twin(*values), twin(*values)
        assert repr(a) == repr(ta)
        assert repr(a).startswith(cls.__qualname__ + "(" + dataclasses.fields(cls)[0].name + "=")
        assert _outcome(lambda: a == b) == _outcome(lambda: ta == tb) == ("ok", True)
        assert _outcome(lambda: a != b) == _outcome(lambda: ta != tb) == ("ok", False)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
        if _outcome(lambda: hash(a))[0] == "ok":
            assert hash(a) == hash(b)
        assert a.__eq__(ta) is NotImplemented and a != ta and a != object()

    def test_keywords_defaults_replace_fields_and_asdict(self, cls):
        sample = SAMPLES[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        values = _values(sample)
        built = cls(*values)
        assert cls(**dict(zip(names, values))) == built
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == built
        required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
        assert cls(*values[: len(required)]) == cls(
            *values[: len(required)], *[f.default for f in dataclasses.fields(cls)[len(required) :]]
        )
        assert dataclasses.replace(built) == built
        assert dataclasses.replace(built, **{names[-1]: values[-1]}) == built
        assert list(dataclasses.asdict(built)) == names

    def test_assignment_and_deletion_raise_frozen_errors(self, cls):
        record, twin = SAMPLES[cls], _twin(cls)(*_values(SAMPLES[cls]))
        for name in (dataclasses.fields(cls)[0].name, "not_a_field"):
            for obj in (record, twin):
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                    setattr(obj, name, None)
                with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                    delattr(obj, name)

    def test_bad_arguments_raise_type_error(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        values = _values(SAMPLES[cls])
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        if dataclasses.fields(cls)[-1].default is dataclasses.MISSING:
            with pytest.raises(TypeError, match=f"missing required argument '{names[-1]}'"):
                cls(*values[:-1])
