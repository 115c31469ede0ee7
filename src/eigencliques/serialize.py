"""Deterministic JSON writer: floats carry 17 significant digits so identical
inputs produce byte-identical reports."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


# JSON escapes: quote, backslash, \n and \t by name, other controls as \u00XX
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\t"): "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def dumps(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize to JSON; dict insertion order is preserved."""
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
        return '"' + _escape(obj) + '"'
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent, _level)
    if isinstance(obj, (list, tuple)):
        inner = [dumps(x, indent, _level + 1) for x in obj]
        if indent:
            pad = " " * indent * (_level + 1)
            close = " " * indent * _level
            return "[\n" + ",\n".join(pad + s for s in inner) + "\n" + close + "]" if inner else "[]"
        return "[" + ", ".join(inner) + "]"
    if isinstance(obj, dict):
        items = ['"' + _escape(str(k)) + '": ' + dumps(v, indent, _level + 1) for k, v in obj.items()]
        if indent:
            pad = " " * indent * (_level + 1)
            close = " " * indent * _level
            return "{\n" + ",\n".join(pad + s for s in items) + "\n" + close + "}" if items else "{}"
        return "{" + ", ".join(items) + "}"
    if hasattr(obj, "to_json_dict"):
        return dumps(obj.to_json_dict(), indent, _level)
    raise TypeError(f"cannot serialise {type(obj)!r}")
