"""One dict codec for the package's dataclasses.

Run configs, detector and ensemble params, skills and round records are
written with ``dataclasses.asdict`` and read back with ``from_dict``, both
driven by ``dataclasses.fields``, so a field added to a dataclass is
written and read back with no further code.

``from_dict`` checks each value against its field's annotation: an
``int`` field takes only a JSON integer, a ``float`` field any finite JSON
number but a bool (not the ``NaN`` and ``Infinity`` that Python's ``json``
reads), and a ``str`` field a string; ``X | None`` also takes null,
and tuple entries are checked one by one.  Every other check is the
class's own ``__post_init__``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields, is_dataclass, replace


class ConfigError(ValueError):
    """Invalid configuration or saved-state content."""


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _fits(tp, value) -> bool:
    """Whether the JSON ``value`` may fill a field annotated ``tp``."""
    args, none = typing.get_args(tp), type(None)
    if none in args:  # X | None
        return value is None or any(_fits(a, value) for a in args if a is not none)
    if typing.get_origin(tp) is tuple:
        return not isinstance(value, list) or all(map(_fits, args, value))
    if tp is float:  # bool is no JSON number, nor are NaN and Infinity
        return type(value) is int or type(value) is float and math.isfinite(value)
    if tp in (int, str):
        return type(value) is tp
    return True


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
    for name, value in doc.items():
        if not _fits(tp := types[name], value):
            tp = tp.__name__ if isinstance(tp, type) else tp
            raise ConfigError(f"{where}.{name} must be {tp}, got {value!r}")
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
