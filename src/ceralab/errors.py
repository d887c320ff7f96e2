"""Exception types shared across the package, the one rule by which every
config dataclass reads and writes its JSON dict, and the one way an input
JSON file is read."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """A numeric argument lies outside the operation's domain."""


class ConfigError(ValueError):
    """An adapter, model, or experiment configuration is invalid."""


def read_json(path):
    """The parsed JSON document at `path`. A file that cannot be opened,
    read, decoded as UTF-8 or parsed is a ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ConfigError(f"cannot read {path}: {exc}") from exc


class DictConfig:
    """Mixin of the config dataclasses: `to_dict` is `dataclasses.asdict`,
    and `from_dict` is its inverse over a parsed JSON object.

    `from_dict` rejects a non-object, unknown keys, missing required keys
    and a value of the wrong type for its field's hint with ConfigError,
    and builds a field typed as a config (or as a list of configs) from its
    nested object; the constructor's own checks do the rest.
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
        return cls(**{key: _typed(hints[key], value, f"{name}.{key}")
                      for key, value in d.items()})


def _typed(hint, value, where: str):
    """`value` checked against the type `hint`, with a config type built
    from its object. An int is a valid float, a bool is never a number, a
    float must be finite (JSON's NaN and Infinity are not; null switches
    an optional value off), None fits only an optional hint, and a list or
    tuple hint takes a list or a tuple whose items are checked in turn."""
    if isinstance(hint, types.UnionType):  # `X | None`, the only union used
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if isinstance(hint, type) and issubclass(hint, DictConfig):
        return hint.from_dict(value)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]  # list[X] or tuple[X, ...]
        return origin(_typed(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    # compared, not converted, so an int too large for a float is caught too
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


class NotMergeableError(RuntimeError):
    """The adapter's update cannot be folded into the frozen weights."""


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class NumericsError(RuntimeError):
    """Non-finite values appeared during computation."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss, gradient norm or test metric."""
