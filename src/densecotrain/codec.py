"""One dict codec for every document the package reads back.

Run configs, detector and ensemble params, skills, round records, the
hyper-vector file (``cli.load_vector``) and the checkpoint
(``cotrain.Checkpoint``) are written with ``dataclasses.asdict`` and read
back with ``from_dict``, both driven by ``dataclasses.fields``, so a field
added to a dataclass is written and read back with no further code.

``from_dict`` checks each value against its field's annotation, and each
error names the path to the failing value (``config.dataset.row_range[1]``):

* an ``int`` field takes only a JSON integer, a ``float`` field any finite
  JSON number but a bool (not the ``NaN`` and ``Infinity`` that Python's
  ``json`` reads, nor an integer beyond float range), and a ``str`` field
  a string;
* ``X | None`` takes null or an ``X``, and a dataclass field an object;
* a fixed ``tuple[A, B]`` takes a list of exactly that many entries, each
  read as its own type, and a variadic ``tuple[X, ...]`` a list of any
  length, every entry read as an ``X``; both become tuples.

Every other check is the class's own ``__post_init__``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields, is_dataclass, replace


class ConfigError(ValueError):
    """Invalid configuration or saved-state content."""


def _decode(tp, value, base, where: str, shown=None):
    """The JSON ``value`` read as a ``tp`` (a dataclass merges into
    ``base``), or a ConfigError naming ``where`` and ``shown`` (``tp``
    when None) if it does not fit."""
    shown, args = shown or tp, typing.get_args(tp)
    if type(None) in args:  # X | None
        (tp,) = set(args) - {type(None)}
        return None if value is None else _decode(tp, value, base, where, shown)
    if is_dataclass(tp):
        return from_dict(tp, value, base, where)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis and isinstance(value, list):
            args = args[:1] * len(value)
        if isinstance(value, list) and len(value) == len(args):
            return tuple(
                _decode(a, v, None, f"{where}[{i}]")
                for i, (a, v) in enumerate(zip(args, value))
            )
    elif tp is float:  # bool is no JSON number, nor are NaN and Infinity
        try:  # math.isfinite raises OverflowError on an int beyond float range
            if type(value) in (int, float) and math.isfinite(value):
                return value
        except OverflowError:
            pass
    elif type(value) is tp:  # an int or str field takes only its own type
        return value
    shown = shown.__name__ if isinstance(shown, type) else shown
    raise ConfigError(f"{where} must be {shown}, got {value!r}")


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
        raise ConfigError(f"unknown keys: {', '.join(f'{where}.{k}' for k in unknown)}")
    types = typing.get_type_hints(cls)
    values = {
        name: _decode(types[name], value, getattr(base, name, None), f"{where}.{name}")
        for name, value in doc.items()
    }
    try:
        return cls(**values) if base is None else replace(base, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
