"""Value classes: ``__init__``, equality, hashing and ``repr`` from the
field annotations, without ``dataclasses``.

Why not the stdlib: every CLI process imports the package afresh, and
``@dataclass`` generated and ``exec``'d about six functions for each of
the package's classes (about 29-41 ms of a 0.15 s start on Python
3.11.7), while importing ``dataclasses`` itself pulled in ``inspect``,
``ast``, ``dis`` and ``tokenize`` (about 7-10 ms more). ``value``
generates ``__init__``, ``__eq__``, ``__hash__`` and the order methods
once per distinct field list and shares them between every class with
that list: ``And``, ``Or`` and the binary path nodes all use one
``(left, right)`` set. Their bodies keep the shape of the dataclass ones
(``object.__setattr__`` per field, field tuples compared and hashed), so
the hot classes are no slower to build, compare or hash. ``__repr__``,
which only error messages read, is one function for every class.

Invariant: because a method serves several classes, ``__eq__`` and the
order methods compare field tuples only when ``other.__class__ is
self.__class__``, and return ``NotImplemented`` otherwise; ``And(a, b)``
is never equal to ``Or(a, b)``.

Only what the package uses is supported: fields are the keys of the
class's own ``__annotations__`` (no inheritance of fields), a class-level
value is the field's default, and defaults must come last.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

_Fields = Tuple[str, ...]
# (fields, frozen, order) -> {method name: function}
_METHODS: Dict[Tuple[_Fields, bool, bool], Dict[str, Callable]] = {}

_ORDER = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def _compare(name: str, op: str, mine: str, theirs: str) -> List[str]:
    return [
        f"def {name}(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} {op} {theirs}",
        "    return NotImplemented",
    ]


def _methods(fields: _Fields, frozen: bool, order: bool) -> Dict[str, Callable]:
    """The shared methods of one field list, generated on its first use."""
    key = (fields, frozen, order)
    made = _METHODS.get(key)
    if made is not None:
        return made
    mine = "(" + "".join(f"self.{f}," for f in fields) + ")"
    theirs = "(" + "".join(f"other.{f}," for f in fields) + ")"
    if frozen:
        sets = [f"    _setattr(self, {f!r}, {f})" for f in fields]
    else:
        sets = [f"    self.{f} = {f}" for f in fields]
    lines = [f"def __init__(self, {''.join(f + ', ' for f in fields)}):", *(sets or ["    pass"])]
    lines += _compare("__eq__", "==", mine, theirs)
    if frozen:
        lines += ["def __hash__(self):", f"    return hash({mine})"]
    for name, op in _ORDER if order else ():
        lines += _compare(name, op, mine, theirs)
    body = "".join(f"  {line}\n" for line in lines)
    scope: Dict[str, Any] = {}
    exec(f"def _make(_setattr):\n{body}  return locals()\n", scope)
    made = _METHODS[key] = scope["_make"](object.__setattr__)
    del made["_setattr"]
    return made


def _repr(self) -> str:
    shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__value_fields__)
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _build(cls: type, frozen: bool, order: bool) -> type:
    fields = tuple(cls.__annotations__)
    defaults = []
    for f in fields:
        if f in cls.__dict__:
            defaults.append(cls.__dict__[f])
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {f!r} without a default follows one with a default")
    methods = dict(_methods(fields, frozen, order))
    # a copy of the shared __init__ carries this class's defaults and name
    init = methods["__init__"]
    methods["__init__"] = type(init)(
        init.__code__, init.__globals__, "__init__", tuple(defaults) or None, init.__closure__
    )
    methods["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    for name, method in methods.items():
        setattr(cls, name, method)
    cls.__repr__ = _repr
    if not frozen:
        cls.__hash__ = None
    else:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    cls.__value_fields__ = fields
    return cls


def value(cls: Optional[type] = None, *, frozen: bool = False, order: bool = False):
    """Class decorator: ``@value`` or ``@value(frozen=True, order=True)``."""
    if cls is None:
        return lambda c: _build(c, frozen, order)
    return _build(cls, frozen, order)


def replace(obj: Any, **changes: Any) -> Any:
    """A new instance of ``obj``'s class with the named fields changed."""
    fields = obj.__value_fields__
    unknown = changes.keys() - set(fields)
    if unknown:
        raise TypeError(f"{obj.__class__.__name__} has no field {sorted(unknown)[0]!r}")
    return obj.__class__(**{f: changes[f] if f in changes else getattr(obj, f) for f in fields})
