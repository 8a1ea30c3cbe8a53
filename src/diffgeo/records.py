"""Result and spec types as plain classes, which cost nothing to create at
import.

``Record`` gives a class with ``__slots__`` equality, repr and pickling by
the fields that its ``_fields`` names, in the order its ``__init__`` takes
them; ``Frozen`` also refuses assignment and hashes by value.  ``Row`` is
a tuple whose items are also named by its subclass's ``_fields``.  Each
class writes its own ``__init__`` (or ``__new__``), so nothing is
generated.
"""

from operator import itemgetter

try:                       # CPython's item descriptor, as namedtuple's
    from _collections import _tuplegetter
except ImportError:        # pragma: no cover - other interpreters
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

_set = object.__setattr__
_new_row = tuple.__new__


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, k) for k in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """A Record whose fields are set once, in ``__init__`` (through
    ``_set``)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class Row(tuple):
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__name__}({args})"

    def __getnewargs__(self):
        return tuple(self)
