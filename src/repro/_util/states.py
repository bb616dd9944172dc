"""Slotted copy-on-write machine states.

The fixed-schedule machines — Section 3's edge packing and the
Section 4 fractional packing that Section 5 simulates — give every node
a fresh state in every round.  Their state classes are
``@dataclass(slots=True)`` classes, and :func:`copy_on_write` decides,
in one place, how such a state is copied, built and pickled.  From the
class's field list it generates, once:

* ``evolve(idx)`` — a shallow successor: every slot copied, ``idx``
  replaced.  Containers are shared with the predecessor, so a caller
  must *assign* fresh containers for whatever it changes, never mutate
  shared ones;
* ``build(...)`` — a constructor taking every field in field order,
  with no defaults: a missing field is a ``TypeError``.  Hot paths call
  it positionally, because matching two dozen keyword arguments costs
  more than filling the slots;
* ``__reduce__`` — pickles the field values in field order, behind one
  module-level rebuild function, so a pickle holds no attribute names.
  Equal states still pickle to equal bytes.

All three are straight-line code over the slots.  A slotted state has
no ``__dict__`` to copy, and the generic ways to copy or fill one —
``copy.copy``, a ``setattr`` loop — pay a reduce protocol per state or
a call per field, on a path that runs once per node per round.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Type, TypeVar

__all__ = ["copy_on_write"]

T = TypeVar("T")


def _rebuild(cls: Type[T], *values: Any) -> T:
    """Unpickle a :func:`copy_on_write` state from its field values."""
    return cls.build(*values)


def copy_on_write(cls: Type[T]) -> Type[T]:
    """Give a slotted dataclass state ``evolve``, ``build`` and pickling.

    Apply above ``@dataclass(slots=True)``.  The class must have an
    ``idx`` field (its position in the global schedule).
    """
    if "__dict__" in dir(cls) or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} must be a slotted dataclass")
    names = [f.name for f in fields(cls)]
    if "idx" not in names:
        raise TypeError(f"{cls.__name__} has no idx field")
    args = ", ".join(names)
    src = (
        f"def build({args}):\n"
        "    new = _new(_cls)\n"
        + "".join(f"    new.{n} = {n}\n" for n in names)
        + "    return new\n"
        "def evolve(self, idx):\n"
        "    new = _new(_cls)\n"
        + "".join(
            f"    new.{n} = {'idx' if n == 'idx' else 'self.' + n}\n"
            for n in names
        )
        + "    return new\n"
        "def __reduce__(self):\n"
        f"    return _rebuild, (_cls, {', '.join('self.' + n for n in names)})\n"
    )
    namespace = {"_new": object.__new__, "_cls": cls, "_rebuild": _rebuild}
    exec(src, namespace)
    for name in ("build", "evolve", "__reduce__"):
        fn = namespace[name]
        fn.__module__ = cls.__module__
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, staticmethod(fn) if name == "build" else fn)
    return cls
