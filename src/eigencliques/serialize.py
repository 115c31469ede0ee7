"""Deterministic JSON writer: floats carry 17 significant digits so identical
inputs produce byte-identical reports."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isfinite

import numpy as np


def _format_float(x: float) -> str:
    if isfinite(x):
        return format(x, ".17g")
    return '"nan"' if x != x else '"inf"' if x > 0 else '"-inf"'


# JSON escapes: quote, backslash, \n and \t by name, other controls as \u00XX
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\t"): "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


# An identifier holds no character that JSON escapes, and isidentifier() costs
# a fraction of translate(), so report keys and verdict words skip the table.
def _quote(s: str) -> str:
    return '"' + (s if s.isidentifier() else _escape(s)) + '"'


def _join(items: list[str], brackets: str, indent: int, level: int) -> str:
    """The items' texts as one JSON array or object at this nesting level; brackets is "[]" or "{}"."""
    if not items:
        return brackets
    if not indent:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "\n" + " " * (indent * (level + 1))
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * (indent * level) + brackets[1]


def _items(obj, indent: int, level: int) -> list[str]:
    """The texts of a list's or tuple's items: all ints, or all finite floats, in one map."""
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(isfinite, obj)):
        return list(map(format, obj, repeat(".17g")))
    if kinds == {int}:
        return list(map(str, obj))
    return [dumps(x, indent, level + 1) for x in obj]


def _members(obj: dict, indent: int, level: int) -> list[str]:
    return [_quote(k if type(k) is str else str(k)) + ": " + dumps(v, indent, level + 1) for k, v in obj.items()]


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize to JSON; dict insertion order is preserved.

    Each call returns the text of one value. The exact types that reports are
    built from are dispatched first; every other value (None, bool, numpy
    scalars and arrays, Fraction, subclasses, objects with to_json_dict) takes
    the isinstance chain after them.
    """
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _quote(obj)
    if kind is dict:
        return _join(_members(obj, indent, _level), "{}", indent, _level)
    if kind is list or kind is tuple:
        return _join(_items(obj, indent, _level), "[]", indent, _level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        return _format_float(float(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent, _level)
    if isinstance(obj, (list, tuple)):
        return _join(_items(obj, indent, _level), "[]", indent, _level)
    if isinstance(obj, dict):
        return _join(_members(obj, indent, _level), "{}", indent, _level)
    if hasattr(obj, "to_json_dict"):
        return dumps(obj.to_json_dict(), indent, _level)
    raise TypeError(f"cannot serialise {type(obj)!r}")
