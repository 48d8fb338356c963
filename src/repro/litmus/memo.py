"""One lock-free memo for values derived from immutable objects.

``functools.cached_property`` takes a lock on every first access on
Python 3.11; the litmus tests, executions and relation views of the
synthesis inner loop are built by the hundred thousand, so they share
this lock-free descriptor instead.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["derived"]


class derived:
    """A value computed at most once per object, stored in its ``__dict__``.

    As a class attribute it is a lock-free cached property: the first
    access stores the value under the attribute's own name, which then
    shadows the descriptor.  As a module-level decorator of a function of
    a :class:`~repro.semantics.relations.RelationView` (a model's derived
    relation), calling it stores the value under the function's
    qualified name, so each view, and so each execution, computes it
    once however many axioms ask.
    Each view has its own memo; a view subclass that redefines a base
    relation (a mutant's empty ``fr``) never sees another view's values.
    """

    def __init__(self, fn: Callable):
        self.fn = fn
        self.key = f"{fn.__module__}.{fn.__qualname__}"
        self.__doc__ = fn.__doc__
        self.__name__ = fn.__name__

    def __set_name__(self, owner: type, name: str) -> None:
        self.key = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.key] = self.fn(obj)
        return value

    def __call__(self, obj):
        memo = obj.__dict__
        value = memo.get(self.key)
        if value is None:
            value = memo[self.key] = self.fn(obj)
        return value
