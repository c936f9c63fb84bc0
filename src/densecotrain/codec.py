"""One dict codec for the package's dataclasses.

Run configs, detector and ensemble params, skills and round records are
written with ``dataclasses.asdict`` and read back with ``from_dict``, both
driven by ``dataclasses.fields``, so a field added to a dataclass is
written and read back with no further code.
"""

from __future__ import annotations

import typing
from dataclasses import fields, is_dataclass, replace


class ConfigError(ValueError):
    """Invalid configuration or saved-state content."""


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def from_dict(cls, doc, base=None, where: str | None = None):
    """The ``cls`` that ``doc`` describes.  Keys ``doc`` lacks keep their
    value in ``base`` (the class defaults when ``base`` is None), nested
    sections merge into ``base``'s nested value the same way, lists become
    tuples, and every ``__post_init__`` check still runs."""
    where = where or cls.__name__
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    types = typing.get_type_hints(cls)
    values = {
        name: from_dict(types[name], value, getattr(base, name, None),
                        f"{where}.{name}")
        if is_dataclass(types[name]) else _tuples(value)
        for name, value in doc.items()
    }
    try:
        return cls(**values) if base is None else replace(base, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
