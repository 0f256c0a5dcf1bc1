"""Typed reading of JSON objects into dataclasses.

Every value is checked against its field's annotation instead of being
coerced: a ``bool`` is not a number, a float is not an integer, a JSON
list becomes a tuple, and a nested dataclass is read the same way. Every
refusal is a ``ConfigurationError`` that names the value's path, for
example ``dataset.spec.normal_components[0].count``. Value checks live in
each dataclass's ``__post_init__``, whose messages start with a field name.
"""

from __future__ import annotations

import dataclasses
import sys
import types
import typing

from .errors import ConfigurationError


def typed(path: str, value, hint):
    """``value`` checked against the annotation ``hint``; a wrong type raises
    a ConfigurationError naming ``path``."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    elif typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path}: must be a list, got {value!r}")
        return tuple(typed(f"{path}[{i}]", v, args[0]) for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return build(path, hint, value)
    if hint is float:  # an int beyond the float range is refused with inf and NaN
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        name = "a finite number"
    else:  # bool is an int subclass: only an exact type match passes
        ok = type(value) is hint
        name = {int: "an integer", str: "a string", bool: "true or false"}[hint]
    if not ok:
        raise ConfigurationError(f"{path}: must be {name}, got {value!r}")
    return value


def build(path: str, cls, raw):
    """An instance of the dataclass ``cls`` from the JSON object ``raw`` at
    ``path`` ("" at the top level): unknown and missing fields are refused,
    every field is ``typed``, and a ConfigurationError from the constructor,
    which starts with a field name, gets ``path`` and a ``.`` in front."""
    prefix = f"{path}." if path else ""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path or 'config'}: must be a JSON object")
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigurationError(f"{prefix}{sorted(unknown)[0]}: unknown field")
    for name, f in known.items():
        if name not in raw and f.default is dataclasses.MISSING:
            raise ConfigurationError(f"{prefix}{name}: required field")
    values = {k: typed(f"{prefix}{k}", v, hints[k]) for k, v in raw.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from None
