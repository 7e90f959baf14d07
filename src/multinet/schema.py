"""One type-and-bound table for every config, spec and header field.

A dataclass field's annotation, `int`, `float`, `bool` or `str`, is its
type; its metadata may bound it with `least`, `most` or `choices`.
"""

import dataclasses
import math


class ConfigError(ValueError):
    """Malformed config, spec or header value; the message names its key or field."""


def bounded(default, **bounds):
    """A dataclass field with `default` and the bounds `least`, `most` or `choices`."""
    return dataclasses.field(default=default, metadata=bounds)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# Annotation (a string: the package defers annotations) -> (the Python types
# a value may have, its `key = value` parser).
_TYPES = {"int": (int, int), "float": ((int, float), float), "bool": (bool, _parse_bool),
          "str": (str, str)}


def parsers(cls) -> dict:
    """The `key = value` parser of each field of dataclass `cls`, by name."""
    return {f.name: _TYPES[f.type][1] for f in dataclasses.fields(cls)}


def check(obj) -> None:
    """`check_value` of each field of dataclass `obj`, in field order."""
    for f in dataclasses.fields(obj):
        check_value(f.name, f.type, getattr(obj, f.name), f.metadata)


def check_value(name: str, kind: str, value, bounds) -> None:
    """Raise ConfigError naming `name` unless `value` is of table type `kind`
    within `bounds`. A bool is not an int, an int is a float, and a float is finite and >= 0."""
    if not isinstance(value, _TYPES[kind][0]) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
    if kind == "float" and not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and non-negative, got {value}")
    if value not in bounds.get("choices", (value,)):
        raise ConfigError(f"{name} must be one of "
                          f"{', '.join(map(str, bounds['choices']))}, got {value!r}")
    if value < bounds.get("least", value):
        raise ConfigError(f"{name} must be at least {bounds['least']}, got {value}")
    if value > bounds.get("most", value):
        raise ConfigError(f"{name} must be at most {bounds['most']}, got {value}")
