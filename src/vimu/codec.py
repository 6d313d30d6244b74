"""Dict codecs: config dataclasses to and from JSON, and checked JSON sidecars.

A config dataclass that inherits :class:`DictCodec` gets ``to_dict`` (tuples
become lists, nested configs become dicts) and ``from_dict``, which checks
every value against the field's annotation before building the instance:
a non-object, an unknown key, a missing required key, or a value of the
wrong kind raises :class:`ConfigError`. ``None`` passes only where the
annotation allows it; lists come back as tuples.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import typing
from contextlib import contextmanager
from types import UnionType

from .errors import ConfigError, FormatError

_KINDS = {int: numbers.Integral, float: numbers.Real}


def _decode(kind, value, where: str):
    args = typing.get_args(kind)
    if isinstance(kind, UnionType):
        if value is None and type(None) in args:
            return None
        (kind,) = (a for a in args if a is not type(None))
        args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, where) for v in value)
    if isinstance(kind, type) and issubclass(kind, DictCodec):
        return kind.from_dict(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KINDS.get(kind, kind)):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    return value


class DictCodec:
    """``to_dict``/``from_dict`` for a dataclass of plain, tuple or nested fields."""

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, DictCodec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ConfigError(f"unknown {name} keys: {unknown}")
        hints = typing.get_type_hints(cls)
        for f in fields.values():
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if required and f.name not in d:
                raise ConfigError(f"{name} needs {f.name!r}")
        return cls(**{k: _decode(hints[k], v, f"{name}.{k}") for k, v in d.items()})


@contextmanager
def sidecar(path):
    """Read a JSON sidecar; a malformed one, or a missing key inside the block, is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise FormatError(f"{path} does not hold a JSON object")
        yield meta
    except KeyError as exc:
        raise FormatError(f"{path} lacks key {exc}") from None
    except (ConfigError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None
