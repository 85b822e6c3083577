"""Exception types shared across the package, and the config check they share."""

import dataclasses
import math


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


def require_finite_floats(config) -> None:
    """Raise ConfigError naming the first float field of a config dataclass that is not finite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.type in ("float", float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value!r}")
