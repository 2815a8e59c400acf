"""The one base of the package's immutable value types.

A value type lists its fields once, in constructor order, in ``_fields``;
its own ``__init__`` checks its arguments and writes them straight into
``self.__dict__``.  The base gives every value type the same behaviour:

- setting or deleting an attribute raises :class:`FrozenValueError`;
- two values are equal when they are of the same class and their fields
  are equal, so an ``IntMatrix`` never equals a ``LinkingMatrix``;
- a value hashes as the tuple of its fields, so one that holds a dict
  (a ``Cycle``) cannot be hashed;
- ``repr`` reads ``Name(field=value, ...)``.

Fields live in ``__dict__``, so ``functools.cached_property``, ``copy``
and ``pickle`` work on values.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import FrozenValueError


class Value:
    """Base of the immutable value types; see the module docstring."""

    __slots__ = ()

    # the constructor's fields in order, which repr shows and equality and
    # the hash read
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields
        # the tuple of the fields, read off ``__dict__``
        cls._key = staticmethod(itemgetter(*names) if len(names) > 1
                                else lambda held, name=names[0]: (held[name],))

    def __setattr__(self, name, value):
        raise FrozenValueError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenValueError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # ``is`` gives what comparing the field tuples would: a tuple takes
        # each item as equal to itself without calling its __eq__
        return other is self or self._key(self.__dict__) == other._key(other.__dict__)

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
