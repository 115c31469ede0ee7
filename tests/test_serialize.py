import json
import math
from fractions import Fraction

import numpy as np
import pytest

from eigencliques.serialize import _escape, dumps
from oracles import loop_escape


def test_float_seventeen_digit_roundtrip():
    values = [0.1, 1 / 3, math.pi, 1e-300, 1e16, -2.5, 123456789.123456789]
    for x in values:
        assert json.loads(dumps(x)) == x  # 17 significant digits round-trip exactly


def test_integers_stay_integers():
    assert dumps(5) == "5"
    assert dumps(np.int64(7)) == "7"
    assert dumps(True) == "true"
    assert dumps(None) == "null"


def test_fraction_serialises_as_float():
    assert json.loads(dumps(Fraction(3, 2))) == 1.5


def test_nested_structures_and_numpy():
    doc = {"a": [1, 2.5, "x"], "b": {"c": np.arange(3), "d": ()}}
    parsed = json.loads(dumps(doc))
    assert parsed == {"a": [1, 2.5, "x"], "b": {"c": [0, 1, 2], "d": []}}


def test_nonfinite_become_strings():
    assert dumps(float("inf")) == '"inf"'
    assert dumps(float("nan")) == '"nan"'


def test_string_escaping():
    assert json.loads(dumps('he said "hi"\n')) == 'he said "hi"\n'


def test_escape_table_matches_character_loop():
    # every code point below U+3000 (controls, quote, backslash, surrogates, CJK), alone and in one string
    chars = [chr(c) for c in range(0x3000)]
    assert [_escape(ch) for ch in chars] == [loop_escape(ch) for ch in chars]
    text = "".join(chars)
    assert _escape(text) == loop_escape(text)


def test_indented_output_parses():
    doc = {"records": [{"T": 1.0, "lhs": 2.0}], "verdict": "holds"}
    text = dumps(doc, indent=2)
    assert json.loads(text) == json.loads(dumps(doc))
    assert "\n" in text


def test_dict_order_preserved():
    assert dumps({"z": 1, "a": 2}).index('"z"') < dumps({"z": 1, "a": 2}).index('"a"')


def test_unserialisable_raises():
    with pytest.raises(TypeError):
        dumps(object())
