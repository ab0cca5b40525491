"""Immutable value classes without the `dataclasses` machinery.

Every CLI call is a fresh process, so import time counts: a frozen
dataclass costs its module an import of `dataclasses` (which loads
`inspect`, `ast` and `dis`) and an `exec` of generated methods per class.
A `Record` subclass instead lists its fields as `__slots__` and inherits
plain methods that read them.
"""

_set = object.__setattr__


class Record:
    """Base of the package's value classes.

    The fields are the subclass's `__slots__`, in order.  Construction
    takes them positionally or by keyword; equality and hashing use all
    of them, between instances of the same class only; assignment and
    deletion raise AttributeError.  Copies and pickles rebuild the
    object through its constructor, so they never assign to a field.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected or repeated argument {name!r}"
                )
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() missing arguments: {', '.join(missing)}")
        for name in names:
            _set(self, name, values[name])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
