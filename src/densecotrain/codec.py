"""One dict codec for every document the package reads back, and the one
file layer for every whole file it writes.

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

Every other check is the class's own ``__post_init__``; ``finite`` and
``require_finite`` are the number checks those share.

``read_json`` reads a document and names the file when its text is not
UTF-8 JSON.  ``write_text`` replaces a file atomically (a ``.tmp`` sibling,
then ``os.replace``), so a write cut short leaves the previous file in
place, never a truncated one; ``write_json`` writes a document through it,
indented.  Every JSON and text artifact goes through these two; only the
streaming CSV writers open their files themselves.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration or saved-state content."""


def read_json(path: str | Path):
    """The JSON document in the file ``path``, or a ConfigError naming the
    file when its text is not UTF-8 JSON (an integer beyond the digit
    limit included); an OSError passes through."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and the digit limit too
        raise ConfigError(f"{path}: not JSON ({exc})") from exc


def write_text(path: str | Path, text: str) -> None:
    """Replace the file ``path`` with ``text`` in UTF-8: write a ``.tmp``
    sibling, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2) + "\n")


def finite(value) -> bool:
    """Whether ``value`` is a finite number.  An int beyond float range is
    not (``math.isfinite`` raises OverflowError on it), and it is the only
    int that is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_finite(obj, *names: str) -> None:
    """Refuse, with a ValueError naming the field, each field of ``obj`` in
    ``names`` that is not a finite number."""
    for name in names:
        value = getattr(obj, name)
        if not finite(value):
            got = "an int beyond float range" if isinstance(value, int) else repr(value)
            raise ValueError(f"{name} must be finite, got {got}")


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
        if type(value) in (int, float) and finite(value):
            return value
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
