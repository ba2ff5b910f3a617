"""Frozen value classes that check their fields when built.

``StemConfig``, ``AffixRule``, ``RuleSet`` and, through one base that
checks each lemma, ``ParadigmEntry``, ``VerbRoot`` and ``Adjective``
subclass :class:`Record`.  Each is a ``__slots__`` class: its
``__init__`` validates and then stores every slot once, through
:meth:`Record._set`, and no slot is assigned again.  The constructor is
the only way to build one: ``copy`` and ``pickle`` rebuild through it
(``__reduce__``), so no path skips the checks.  Two records are equal,
and hash alike, when they are of the same class and their ``_fields``
are equal; the other slots hold values derived from the fields (such as
``AffixRule.pattern_length``) and stay out of equality, hashing and
``repr``.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the constructor's parameters, in order

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
