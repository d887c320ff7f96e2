"""Exception types shared across the package, and the one rule by which
every config dataclass reads and writes its JSON dict."""

from __future__ import annotations

import dataclasses
import typing


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """A numeric argument lies outside the operation's domain."""


class ConfigError(ValueError):
    """An adapter, model, or experiment configuration is invalid."""


class DictConfig:
    """Mixin of the config dataclasses: `to_dict` is `dataclasses.asdict`,
    and `from_dict` is its inverse over a parsed JSON object.

    `from_dict` rejects a non-object, unknown keys and missing required keys
    with ConfigError, and builds a field typed as a config (or as a list of
    configs) from its nested object; the constructor's own checks do the
    rest, and a TypeError they raise on a wrongly typed value is a
    ConfigError too.
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(d) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {name} keys {sorted(unknown)}")
        missing = [key for key, f in fields.items() if key not in d
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"missing {name} keys {missing}")
        hints = typing.get_type_hints(cls)
        kwargs = {key: _nested(hints[key], value) for key, value in d.items()}
        try:
            return cls(**kwargs)
        except TypeError as exc:  # a value of the wrong type met a check
            raise ConfigError(f"bad {name} value: {exc}") from exc


def _nested(hint, value):
    """`value` built as the config type `hint` names, or as a list of it."""
    if isinstance(hint, type) and issubclass(hint, DictConfig):
        return hint.from_dict(value)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        if isinstance(item, type) and issubclass(item, DictConfig):
            if not isinstance(value, list):
                raise ConfigError(f"expected a list of {item.__name__} objects, "
                                  f"got {type(value).__name__}")
            return [item.from_dict(v) for v in value]
    return value


class NotMergeableError(RuntimeError):
    """The adapter's update cannot be folded into the frozen weights."""


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class NumericsError(RuntimeError):
    """Non-finite values appeared during computation."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""
