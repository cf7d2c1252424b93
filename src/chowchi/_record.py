"""Immutable value records whose fields are their ``__slots__``.

Every record of the package is one, ``verify``'s report included.  A subclass
lists its fields in ``__slots__`` and writes an ``__init__`` that validates
its arguments and stores each field through the setters that
``field_setters`` returns.
Equality (only with the same type), hashing, the ``Name(field=value, ...)``
repr and pickling follow from the field values, so a record hashes when its
fields do (a report's failure entries are dicts); assigning or deleting a
field raises ``AttributeError``.  The repr shows each int in full through
``_decimal``, the one int-to-text path, which ``verify``, the CLI and every
other module's error messages share; ``_nonnegative`` is the one int-in
rule, so a float argument is a ``TypeError`` whatever its sign.
"""

from operator import index

__all__ = ["Record", "field_setters"]

# An int renders _CHUNK digits at a time: 600 is below 640, the least
# nonzero int-to-str limit (CVE-2020-10735) an interpreter accepts, so no
# str() call here meets a limit the caller set, and none is changed
_CHUNK = 600
_CHUNK_BASE = 10**_CHUNK


def _int_text(value) -> str:
    """``repr(value)``, in full for an int of any size."""
    if not isinstance(value, int) or -_CHUNK_BASE < value < _CHUNK_BASE:
        return repr(value)
    rest, chunks = abs(value), []
    while rest >= _CHUNK_BASE:
        rest, low = divmod(rest, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    chunks.append(str(rest))
    return ("-" if value < 0 else "") + "".join(reversed(chunks))


def _decimal(value) -> str:
    """``repr(value)``, with every int, alone or in a tuple, in full at any size."""
    if not isinstance(value, tuple):
        return _int_text(value)
    items = [_int_text(v) for v in value]
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _nonnegative(value, what: str, name: str = "") -> int:
    """``operator.index(value)``, refused in ``what``'s words if it is negative."""
    value = index(value)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {name}{_decimal(value)}")
    return value


def field_setters(cls) -> tuple:
    """The ``__set__`` of each slot of ``cls``, in ``__slots__`` order.

    Each stores its field past the record's assignment guard.  Calling a slot
    descriptor directly skips the attribute lookup of a generic assignment,
    and verify builds records by the hundred thousand.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Record:
    """Base of the package's value types; see the module docstring."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_decimal(getattr(self, name))}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
