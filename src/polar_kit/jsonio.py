"""The one JSON reader: every file polar-kit reads goes through ``load`` and ``typed``.

Each file (config, scene, candidate, selection, metrics, head weights) is
described by an example value, and ``typed`` checks a parsed value against
it.  An int example takes only a JSON integer; a float example any finite
number, stored as a float; a bool or str example only that JSON type, so
true/false are never numbers.  A tuple example takes a list of exactly that
length and a one-element list ``[x]`` a list of any length, each element
checked.  A dict example is a record: exactly those keys, each checked; the
empty dict takes any object.  ``NUMBER_OR_NULL`` takes null or a finite
number, and ``ANY_NUMBER`` any number, NaN and infinities included.

A mismatch raises ``error(message)`` with the full key path in the message
(``candidates[3].valid[0] must be an integer, got 0.9``); ``error`` is the
caller's exception: ``ConfigError`` for config, a ParseError carrying the
path for data files.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import ParseError

NUMBER_OR_NULL = None
ANY_NUMBER = math.nan

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def load(path, error) -> dict:
    """The JSON object in the file at ``path``; ParseError (exit 3) if it cannot be read.

    Text that is not JSON, or not a JSON object, raises ``error(message)``.
    """
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path))
    try:
        blob = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"invalid JSON: {exc}")
    if type(blob) is not dict:
        raise error("top level must be a JSON object")
    return blob


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def typed(key: str, value, like, error):
    """``value`` checked against the example ``like`` (rules above); key "" is the top level."""
    if like is NUMBER_OR_NULL:
        return None if value is None else typed(key, value, 0.0, error)
    kind = type(like)
    if kind is dict:
        if type(value) is not dict:
            raise error(f"{key or 'top level'} must be an object, got {_show(value)}")
        if not like:
            return value
        for problem, names in (("missing", like.keys() - value.keys()),
                               ("unknown", value.keys() - like.keys())):
            if names:
                raise error(f"{key or 'top level'} has {problem} field(s) {sorted(names)}")
        return {k: typed(f"{key}.{k}" if key else k, value[k], v, error) for k, v in like.items()}
    if kind is list:
        if type(value) is list:
            return [typed(f"{key}[{i}]", v, like[0], error) for i, v in enumerate(value)]
        raise error(f"{key} must be a list, got {_show(value)}")
    if kind is tuple:
        if type(value) is list and len(value) == len(like):
            return tuple(typed(f"{key}[{i}]", v, like[i], error) for i, v in enumerate(value))
        raise error(f"{key} must be a list of {len(like)} values, got {_show(value)}")
    if kind is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # false for NaN, inf and ints past float range
            return float(value)
        if like is ANY_NUMBER and type(value) is float:
            return value
    elif type(value) is kind:
        return value
    wanted = "a number" if like is ANY_NUMBER else _KINDS[kind]
    raise error(f"{key} must be {wanted}, got {_show(value)}")
