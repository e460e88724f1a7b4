"""One method set for morera's frozen records.

``@dataclass(frozen=True)`` compiles six methods from source text for every
class it decorates, which made up about a third of morera's own import time.
A record is instead declared by subclassing :class:`Record`

    class Circle(Record):
        center: complex
        radius: float

which makes the class ``@dataclass(init=False, repr=False, eq=False)`` and
caches its field names and defaults when it is defined; :class:`Record`
supplies the methods once, with the semantics of the generated ones:

- ``__init__`` takes the fields positionally or by keyword, with their
  defaults, and calls ``__post_init__`` (if the class has one) after
  assigning them;
- ``__repr__`` gives the dataclass text, ``Circle(center=0j, radius=0.5)``;
- ``__eq__`` and ``__hash__`` compare and hash the tuple of field values,
  and ``__eq__`` holds only between instances of the same class;
- assigning or deleting any attribute raises
  :class:`dataclasses.FrozenInstanceError`.

Each record stays a dataclass, so ``dataclasses.fields``, ``replace`` and
``asdict`` work on it.  Its ``__dataclass_params__.frozen`` reads False,
since this base, not the dataclass machinery, keeps it frozen.  Record
fields take a plain default at most: a ``field(default_factory=...)``,
``init=False`` or ``kw_only`` field raises :class:`TypeError` when the class
is defined.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

# Per record class: field names, the defaults of the defaulted trailing
# fields, a getter of the tuple of field values, and whether the class defines
# __post_init__.
_SPECS: dict = {}
# Fields are set as a generated frozen __init__ sets them, so an instance
# keeps its attributes inline and allocates no __dict__ of its own.
_setattr = object.__setattr__


class Record:
    """Base of a frozen record: subclassing it declares one; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        # The field spec is cached when the class is defined: worked out on
        # first use instead, it cost each short-lived process its own first
        # instance of every record class.
        super().__init_subclass__(**kwargs)
        dataclass(init=False, repr=False, eq=False)(cls)
        specs = fields(cls)
        if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in specs):
            raise TypeError(f"{cls.__qualname__}: a record field takes a plain default at most")
        names = tuple(f.name for f in specs)
        # A dataclass field without a default never follows one with a default.
        defaults = tuple(f.default for f in specs if f.default is not MISSING)
        get = attrgetter(*names)
        values = get if len(names) > 1 else (lambda obj: (get(obj),))
        _SPECS[cls] = (names, defaults, values, hasattr(cls, "__post_init__"))

    def __init__(self, *args, **kwargs):
        names, defaults, _, post_init = _SPECS[self.__class__]
        if kwargs or len(args) != len(names):
            args = _bind(self.__class__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self) -> str:
        names, _, values, _ = _SPECS[self.__class__]
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = _SPECS[self.__class__][2]
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_SPECS[self.__class__][2](self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls: type, names: tuple, defaults: tuple, args: tuple, kwargs: dict):
    """Field values from a call's arguments, with the errors a generated ``__init__`` raises."""
    required = len(names) - len(defaults)
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
    values = list(args)
    for i in range(len(args), len(names)):
        value = kwargs.pop(names[i], MISSING)
        if value is MISSING:
            if i < required:
                raise TypeError(f"{where} missing required argument {names[i]!r}")
            value = defaults[i - required]
        values.append(value)
    if kwargs:
        name = next(iter(kwargs))
        problem = "got multiple values for argument" if name in names else "got an unexpected keyword argument"
        raise TypeError(f"{where} {problem} {name!r}")
    return values
