"""Label values used as carriers of ordered structures.

A label is an int, a str, or a (nested) tuple of labels.  Two sentinel
values are added: ``BOTTOM``, the adjoined least element produced when an
order is closed off below, and ``BASE``, the basepoint of pointed sets.
Sentinels are singletons and compare below every ordinary label.

``trusted`` is the one bypass of the validating constructors of the
ordered and finite-set structures built on labels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class _Sentinel:
    tag: str

    def __repr__(self):
        return self.tag


BOTTOM = _Sentinel("BOTTOM")
BASE = _Sentinel("BASE")


def label_key(x):
    """Total-order sort key for labels of mixed type.

    Sentinels first, then ints, then strs, then tuples componentwise.
    bool is rejected: it hashes and compares like 0/1 and would silently
    collide with int labels.
    """
    if isinstance(x, _Sentinel):
        return (-1, 0, x.tag)
    if isinstance(x, bool):
        raise TypeError("bool labels are not supported")
    if isinstance(x, int):
        return (0, x, "")
    if isinstance(x, str):
        return (1, 0, x)
    if isinstance(x, tuple):
        return (2, tuple(label_key(y) for y in x), "")
    raise TypeError(f"unsupported label type: {type(x).__name__}")


def check_label(x):
    """Validate a label, returning it unchanged."""
    label_key(x)
    return x


def trusted(cls, **fields):
    """An instance of the frozen dataclass cls built without validation.

    The one bypass of the validating constructors.  The caller promises
    that ``fields`` equal what ``cls(...)`` would store: for a FinSet,
    checked labels already in canonical order; for a composite, the
    fields of parts that were validated themselves.  Equality and hashing
    then agree with validated instances.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
