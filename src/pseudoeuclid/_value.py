"""The base of the package's immutable records.

Each record class lists its fields in ``_fields``, keeps them in
``__slots__``, and its module unpacks ``_setters(cls)`` into one bound slot
setter per slot.  ``__init__`` writes each field through its setter, about
half the cost of the generic object setter, then calls ``__post_init__``
where it has one; write-backs and caches use the same setters.  The base
compares, hashes, prints and pickles an instance by its field tuple (a
copy's other slots start at ``None``) and refuses every ``obj.name = value``.

Values are validated once, where they enter: every public constructor and
function runs the checks.  Two hot records also have a trusted constructor,
``angle._make_angle`` and ``hypnum._make_number``: ``object.__new__`` plus
the setters, with no ``__init__`` frame and no ``__post_init__``.  They run
only at sites whose values are finite floats (and a ``KleinIndex``) by
construction or by a test the site has just made: the forward path, the
solvers' placement of the two new vertices and the circumscribed center;
``tests/test_api.py`` lists those sites.
"""


class _Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # restored field by field, without __init__: a second normalization of
        # a PELine direction can move its last bit, and the copy must be equal
        return _rebuild, (self.__class__, self._values())


def _setters(cls: type) -> tuple:
    """The bound ``__set__`` of each slot ``cls`` declares, in ``__slots__`` order."""
    return tuple([cls.__dict__[name].__set__ for name in cls.__slots__])


def _rebuild(cls: type, values: tuple) -> _Value:
    obj = object.__new__(cls)
    fields = dict(zip(cls._fields, values))
    # every slot of the class and its bases: a field gets its value, and a slot
    # beyond the fields, a cache, starts empty (None) as __init__ leaves it
    for base in cls.__mro__:
        for name in base.__dict__.get("__slots__", ()):
            object.__setattr__(obj, name, fields.get(name))
    return obj
