"""Dict codecs: dataclasses to and from vimu's one on-disk JSON form.

A dataclass that inherits :class:`DictCodec` gets ``to_dict`` and
``from_dict``. ``to_dict`` turns nested codecs into dicts, tuples and lists
into lists, float arrays into lists of floats (``tolist()``), and recurses
into dict values. ``from_dict`` checks every value against the field's
annotation before building the instance: a non-object, an unknown key, a
missing required key, or a value of the wrong kind raises
:class:`ConfigError`. ``None`` passes only where the annotation allows it;
lists come back as tuples. Two container kinds decode element by element:
an ``np.ndarray`` field is a 1-D list of real numbers in JSON and a float64
array in memory, and a ``dict[str, X]`` field is a JSON object whose every
value decodes as ``X``. A bare ``dict`` field holds any JSON object.

Every JSON file vimu writes (manifests, synthetic-set configs, bundle
sidecars, generator histories, reports) goes through :func:`write_json`:
indent 2, sorted keys, a trailing newline, UTF-8. :func:`read_json` reads
one back through a codec class, so every file is type-checked on load.
:func:`write_json` and the checkpoint writer write through
:func:`replacing`, so a file at its final name is never half-written.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import numbers
import os
import typing
from pathlib import Path
from types import UnionType

import numpy as np

from .errors import ConfigError, DataError, FormatError

_KINDS = {int: numbers.Integral, float: numbers.Real}


def _decode(kind, value, where: str):
    args = typing.get_args(kind)
    if isinstance(kind, UnionType):
        if value is None and type(None) in args:
            return None
        (kind,) = (a for a in args if a is not type(None))
        args = typing.get_args(kind)
    origin = typing.get_origin(kind)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, where) for v in value)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
        return {k: _decode(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if kind is np.ndarray:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
        return np.asarray([_decode(float, v, where) for v in value], dtype=np.float64)
    if isinstance(kind, type) and issubclass(kind, DictCodec):
        return kind.from_dict(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KINDS.get(kind, kind)):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    return value


def _encode(value):
    if isinstance(value, DictCodec):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


class DictCodec:
    """``to_dict``/``from_dict`` for a dataclass of plain, container or nested fields."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
        hints, required = _schema(cls)
        unknown = sorted(set(d) - set(hints))
        if unknown:
            raise ConfigError(f"unknown {name} keys: {unknown}")
        for key in required:
            if key not in d:
                raise ConfigError(f"{name} needs {key!r}")
        return cls(**{k: _decode(hints[k], v, f"{name}.{k}") for k, v in d.items()})


@functools.cache
def _schema(cls):
    """Field annotations and required field names of a codec class, resolved once per class."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = tuple(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


@contextlib.contextmanager
def replacing(path, mode: str, **kwargs):
    """Open a temporary file beside ``path`` that replaces ``path`` when the block ends cleanly.

    If the block raises, the temporary file is removed and ``path`` keeps
    what it held. A process killed mid-write may leave the temporary file
    (a hidden name ending in ``.tmp``), never a half-written ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc):
    """Write ``doc`` in the one on-disk form: indent 2, sorted keys, trailing newline, UTF-8."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path, cls):
    """Decode the JSON file at ``path`` as ``cls``.

    Malformed JSON, a value the codec rejects, or a document that fails
    ``cls``'s own checks is a :class:`FormatError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
    except (ConfigError, DataError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None
