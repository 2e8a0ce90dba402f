"""One reader for every JSON document: CLI configs, strategy files, forest files.

A schema maps each key of a JSON object to ``(kind, default)``, where
``kind`` is ``int``, ``float``, ``str``, ``list`` or ``dict``.  A float
field takes finite numbers only.  An integer field may add bounds,
``(int, default, lo)`` or ``(int, default, lo, hi)``, and then must lie
in ``[lo, hi)``; ``hi`` is a power of two and defaults to ``2**63``, so
such an integer fits in int64.  A string field may add the tuple of names
it allows, ``(str, default, names)``.  The default is ``REQUIRED`` for a
key that must be present, ``REQUIRED_OR_NULL`` for one that must be
present but may be null, and otherwise the value a missing key takes.
"""

from __future__ import annotations

import math
from numbers import Integral

REQUIRED = object()
REQUIRED_OR_NULL = object()

_ACCEPTED = {int: Integral, float: (Integral, float)}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def brief(value) -> str:
    """``repr(value)``, cut to at most 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def finite(number) -> bool:
    """Whether ``number`` is finite; an integer beyond the float range is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _is_a(kind, value) -> bool:
    """Whether ``value`` is of ``kind`` as a field reads it: never a boolean."""
    return not isinstance(value, bool) and isinstance(value, _ACCEPTED.get(kind, kind))


def check_integers(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is not an integer.

    An integer is what an ``int`` field takes: any integer type, numpy's
    included, but no boolean.  The message is
    ``<name> must be an integer, got <value>``.
    """
    for name, value in values.items():
        if not _is_a(int, value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def read_fields(doc, schema: dict, what: str, label: str) -> dict:
    """``doc`` checked against ``schema``, defaults filled in; ``ValueError`` naming the key.

    An ``int`` field accepts any integer type, numpy's included, and comes
    back as a plain ``int``; a ``float`` field accepts integers too, but no
    non-finite number; no field accepts a boolean, and only a field whose
    default is ``None`` or ``REQUIRED_OR_NULL`` accepts null.  ``what``
    names the document and ``label`` the object in it.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: {label} must be an object, got {brief(doc)}")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValueError(f"{what}: {label} has unknown keys {sorted(unknown)}")
    fields = {}
    for key, (kind, default, *bounds) in schema.items():
        if key not in doc:
            if default is REQUIRED or default is REQUIRED_OR_NULL:
                raise ValueError(f"{what}: missing required field {key!r}")
            fields[key] = default
            continue
        value = fields[key] = doc[key]
        if value is None and (default is None or default is REQUIRED_OR_NULL):
            continue
        if not _is_a(kind, value):
            raise ValueError(f"{what}: field {key!r} must be {_KIND_NAMES[kind]}, "
                             f"got {brief(value)}")
        if kind is float and not finite(value):
            raise ValueError(f"{what}: field {key!r} must be a finite number, "
                             f"got {brief(value)}")
        if kind is str and bounds and value not in bounds[0]:
            raise ValueError(f"{what}: field {key!r} must be one of {bounds[0]}, "
                             f"got {brief(value)}")
        if kind is int:
            # a plain int: numpy's fixed widths would wrap in later arithmetic
            value = fields[key] = int(value)
            if bounds:
                lo, hi = bounds if len(bounds) == 2 else (bounds[0], 2 ** 63)
                if not lo <= value < hi:
                    raise ValueError(f"{what}: field {key!r} must be an integer in "
                                     f"[{lo}, 2**{hi.bit_length() - 1}), got {brief(value)}")
    return fields
