"""Exception types shared across the package, and the config field check they share."""

import dataclasses
import math

import numpy as np


class SchemaError(ValueError):
    """A tabular input is missing, duplicating, or misnaming a required column."""


class OrderingError(ValueError):
    """Date indices are not strictly increasing with unit spacing."""


class DomainError(ValueError):
    """A numeric input violates a physical or structural precondition."""


class ConfigError(ValueError):
    """A run configuration is malformed, inconsistent, or has unknown fields."""


class TrainingDiverged(RuntimeError):
    """A training loss or parameter became non-finite."""


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_int64(value) -> bool:
    """A Python or numpy integer (not a bool) in the int64 range."""
    # Integers end up as numpy sizes, seeds, counts and dates.
    return _is_integer(value) and _INT64_MIN <= int(value) <= _INT64_MAX


def is_finite_number(value) -> bool:
    """A finite Python or numpy number (not a bool) that a float can hold."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    # An int beyond the float range would reach numpy as an object array.
    return _is_integer(value) and abs(int(value)) <= _FLOAT_MAX


def bounded(default, *, ge=None, gt=None, le=None, lt=None):
    """A config field with a default and the bounds check_config_fields holds it to."""
    return dataclasses.field(default=default,
                             metadata={"bounds": {"ge": ge, "gt": gt, "le": le, "lt": lt}})


def _within(value, ge, gt, le, lt) -> bool:
    return ((ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le) and (lt is None or value < lt))


def _bound_rule(ge, gt, le, lt) -> str:
    """'be >= 1', 'be > 0', 'lie in [0.001, 0.05]', 'lie in (0, 1]', ..."""
    if le is None and lt is None:
        return f"be >= {ge}" if gt is None else f"be > {gt}"
    if ge is None and gt is None:
        return f"be <= {le}" if lt is None else f"be < {lt}"
    low = f"[{ge}" if gt is None else f"({gt}"
    high = f"{le}]" if lt is None else f"{lt})"
    return f"lie in {low}, {high}"


def _checked(name: str, kind: str, value):
    """value held to its annotated kind and converted to that kind's Python type."""
    if kind == "int":
        if not is_int64(value):
            raise ConfigError(f"{name} must be an integer in the int64 range, got {value!r}")
        return int(value)
    if kind == "float":
        if not is_finite_number(value):
            number = _is_integer(value) or isinstance(value, (float, np.floating))
            raise ConfigError(f"{name} must be {'finite' if number else 'a finite number'}, "
                              f"got {value!r}")
        return float(value)
    if not (isinstance(value, (list, tuple)) and all(map(is_int64, value))):
        raise ConfigError(f"{name} must be a list of integers in the int64 range, got {value!r}")
    return tuple(map(int, value))


def check_config_fields(config) -> None:
    """Hold each field of a config dataclass to its annotation and declared bounds.

    Fields are checked in order, so the first failing field is the one named.
    An int field takes a Python or numpy integer (not a bool) in the int64
    range, a float field any finite number, and a tuple[int, ...] field a
    list or tuple of such integers; each value is stored back as an int, a
    float or a tuple. Then the bounds declared with bounded() apply, to
    every entry of a tuple field.
    """
    for field in dataclasses.fields(config):
        value = _checked(field.name, field.type, getattr(config, field.name))
        object.__setattr__(config, field.name, value)
        bounds = field.metadata.get("bounds")
        entries = isinstance(value, tuple)
        if bounds and not all(_within(v, **bounds) for v in (value if entries else (value,))):
            raise ConfigError(f"{field.name}{' entries' if entries else ''} "
                              f"must {_bound_rule(**bounds)}")
