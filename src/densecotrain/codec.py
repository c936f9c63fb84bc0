"""One dict codec for every document the package reads back, and the one
file layer for every whole file it writes.

Run configs, detector and ensemble params, skills, round records, the
hyper-vector file (``cli.load_vector``) and the checkpoint
(``cotrain.Checkpoint``) are written with ``dataclasses.asdict`` and read
back with ``from_dict``, both driven by ``dataclasses.fields``, so a field
added to a dataclass is written and read back with no further code.

``from_dict`` checks each value against its field's annotation, and each
error names the path to the failing value (``config.dataset.row_range[1]``):

* an ``int``, ``float`` or ``str`` field takes what ``fits`` its type;
* ``X | None`` takes null or an ``X``, and a dataclass field an object;
* a fixed ``tuple[A, B]`` takes a list of exactly that many entries, each
  read as its own type, and a variadic ``tuple[X, ...]`` a list of any
  length, every entry read as an ``X``; both become tuples.

A parameter or config class subclasses ``Checked`` and declares each
field's rule once, with ``rule``: a menu, or bounds open or closed.  On
construction ``check_fields`` refuses, with a ``FieldError``
``<field> must be <rule>, got <value>``, each ``int``, ``float`` or ``str``
field whose value ``fits`` refuses for its annotated type (an ``int``
takes any integral, a ``float`` any finite real, neither a bool) or that
breaks its rule; ``from_dict`` names the path to it.  Only checks across
fields or on arrays are written out, in a class's own ``__post_init__``.

A function argument is checked in one line by ``check``, with the same
message; one that a class field also holds takes the field's rule through
``rule_of``, so the two refuse the same values.  Every message shows the
failing value through ``echo``, cut to ``ECHO_CHARS``, so a value nested
hundreds of levels deep or megabytes long cannot flood a message.

``read_text`` reads a file's UTF-8 text, drops one leading byte order
mark and names the file and line of a byte that is not UTF-8;
``read_json`` reads a document through it and names the file when its
text is not JSON.  ``write_text`` replaces a file atomically (a ``.tmp`` sibling,
then ``os.replace``), so a write cut short leaves the previous file in
place, never a truncated one; ``write_json`` writes a document through it,
indented.  Every file the package reads or writes whole goes through these.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import reprlib
import typing
from dataclasses import MISSING, field, fields, is_dataclass, replace
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration or saved-state content."""


class FieldError(ValueError):
    """A field that breaks its declared rule; the message starts with the
    field's name."""


def read_json(path: str | Path):
    """The JSON document in the file ``path``, read by ``read_text``, or a
    ConfigError naming the file when its text is not JSON (an integer
    beyond the digit limit or nesting beyond the recursion limit
    included); an OSError passes through."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not JSON ({exc})") from exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file ``path`` without one leading byte order
    mark, or a ConfigError naming the file and the 1-based line of the
    first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from None


def write_text(path: str | Path, text: str) -> None:
    """Replace the file ``path`` with ``text`` in UTF-8: write a ``.tmp``
    sibling, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2) + "\n")


# the most characters of a value an error message shows
ECHO_CHARS = 80
_ECHO = reprlib.Repr()  # its depth and per-container limits; scalars up to the cut
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = ECHO_CHARS


def echo(value) -> str:
    """The repr of ``value`` for an error message: at most ``ECHO_CHARS``
    characters, ending in ``...`` where it is cut, and at most
    ``reprlib``'s few levels deep."""
    text = _ECHO.repr(value)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS - 3] + "..."


def finite(value) -> bool:
    try:  # math.isfinite raises OverflowError on an int beyond float range
        return math.isfinite(value)
    except OverflowError:
        return False


def fits(tp, value) -> bool:
    """Whether ``value`` is a ``tp``: an int any integral, a float any finite real."""
    if tp is int or tp is float:
        real = isinstance(value, numbers.Integral if tp is int else numbers.Real)
        return real and not isinstance(value, bool) and (tp is int or finite(value))
    return isinstance(value, tp)


# what a value of the type must be, and each bound's bracket, sign and test
_TYPE_RULES = {int: "an integer", float: "finite", str: "a string"}
_BOUNDS = {"gt": ("(", ">", operator.gt), "ge": ("[", ">=", operator.ge),
           "lt": (")", "<", operator.lt), "le": ("]", "<=", operator.le)}


def rule(default=MISSING, **spec):
    """A dataclass field whose value must be one of ``menu``, or meet the
    bounds ``gt``, ``ge``, ``lt`` and ``le`` given, the lower one first;
    any other key is metadata for the field's class to read."""
    return field(default=default, metadata=spec)


def rule_of(cls, name: str) -> dict:
    """The rule of the field ``name`` of ``cls``, for a field that shares it."""
    return next(spec for field_name, *_, spec in _rules(cls) if field_name == name)


class Checked:
    """Base of a dataclass whose fields ``check_fields`` checks when made."""

    def __post_init__(self) -> None:
        check_fields(self)


@functools.cache
def _rules(cls) -> tuple:
    """(name, type, None-able, rule) of each ``int``, ``float`` or ``str``
    field; the rule is the metadata's ``menu`` and bound keys alone."""
    hints, out = typing.get_type_hints(cls), []
    for f in fields(cls):
        spec = {k: v for k, v in f.metadata.items() if k == "menu" or k in _BOUNDS}
        for tp in _TYPE_RULES:
            if hints[f.name] in (tp, tp | None):
                out.append((f.name, tp, hints[f.name] is not tp, spec))
    return tuple(out)


def _fault(tp, spec, value) -> str | None:
    """What ``value`` must be and is not, or None."""
    if not fits(tp, value):
        return _TYPE_RULES[tp]
    if "menu" in spec:
        return None if value in spec["menu"] else f"one of {spec['menu']}"
    if all(_BOUNDS[k][2](value, bound) for k, bound in spec.items()):
        return None
    (k, lo), *upper = spec.items()
    if not upper:
        return f"{_BOUNDS[k][1]} {lo}"
    ((k_hi, hi),) = upper
    return f"in {_BOUNDS[k][0]}{lo}, {hi}{_BOUNDS[k_hi][0]}"


def check(name: str, value, tp, **spec) -> None:
    """Refuse, with a FieldError ``<name> must be <rule>, got <value>``, a
    ``value`` that ``fits`` no ``tp`` or breaks the ``rule`` ``spec``."""
    want = _fault(tp, spec, value)
    if want:
        too_big = isinstance(value, int) and not finite(value)
        got = "an int beyond float range" if too_big else echo(value)
        raise FieldError(f"{name} must be {want}, got {got}")


def check_fields(obj) -> None:
    """Refuse, with a FieldError naming it, the first scalar field of the
    dataclass ``obj`` that breaks its type or rule."""
    for name, tp, nullable, spec in _rules(type(obj)):
        value = getattr(obj, name)
        # only a failing value pays for check's keyword call: a SceneSpec is built per scene
        if (value is not None or not nullable) and _fault(tp, spec, value):
            check(name, value, tp, **spec)


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
    elif fits(tp, value):  # bool is no JSON number, nor are NaN and Infinity
        return value
    shown = shown.__name__ if isinstance(shown, type) else shown
    raise ConfigError(f"{where} must be {shown}, got {echo(value)}")


def from_dict(cls, doc, base=None, where: str | None = None):
    """The ``cls`` that ``doc`` describes.  Keys ``doc`` lacks keep their
    value in ``base`` (the class defaults when ``base`` is None), nested
    sections merge into ``base``'s nested value the same way, lists become
    tuples, and every ``__post_init__`` check still runs."""
    where = where or cls.__name__
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {echo(doc)}")
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
    except FieldError as exc:
        raise ConfigError(f"{where}.{exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
