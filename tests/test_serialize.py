import enum
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eigencliques.serialize import _escape, dumps
from oracles import loop_escape, recursive_dumps


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


@pytest.mark.parametrize("golden", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.name)
def test_dumps_rewrites_every_golden(golden):
    # a golden parses back to the values it was written from, floats included (17 digits)
    text = golden.read_text()
    doc = json.loads(text)
    assert dumps(doc, indent=2) + "\n" == text
    for indent in (0, 2):
        assert dumps(doc, indent) == recursive_dumps(doc, indent)


class _Payload:
    def __init__(self, value):
        self.value = value

    def to_json_dict(self):
        return {"payload": self.value}


class _Verdict(str, enum.Enum):
    HOLDS = "holds"


class _Count(enum.IntEnum):
    ONE = 1


KEYS = ["T", "lhs", "trace_W_A", "", "two words", 'quo"te', "back\\slash", "new\nline", "tab\tkey", "\x00\x1f\x7f",
        "caf\u00e9", "\u65e5\u672c", "\u2028", "\U0001f600", "1st", 7, -1, _Verdict.HOLDS]


def _scalar(rng: random.Random):
    return rng.choice([
        lambda: None, lambda: True, lambda: False,
        lambda: rng.randint(-(10**20), 10**20), lambda: rng.uniform(-1e6, 1e6),
        lambda: float("nan"), lambda: float("inf"), lambda: float("-inf"), lambda: -0.0, lambda: 5e-324,
        lambda: np.float32(rng.random()), lambda: np.float64(rng.random()), lambda: np.int8(rng.randint(-128, 127)),
        lambda: np.uint64(2**64 - 1 - rng.randrange(9)), lambda: np.bool_(rng.random() < 0.5),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)), lambda: rng.choice(KEYS[:15]),
        lambda: _Verdict.HOLDS, lambda: _Count.ONE, lambda: np.array(rng.random()),
    ])()


def _value(rng: random.Random, depth: int):
    if depth == 0:
        return _scalar(rng)
    k = rng.randrange(6)
    kind = rng.randrange(10)
    if kind == 0:  # all ints, with a bool now and then
        return [rng.randint(-999, 999) if rng.random() < 0.9 else True for _ in range(k)]
    if kind == 1:  # all floats, with a non-finite one now and then
        return [rng.uniform(-9, 9) if rng.random() < 0.9 else rng.choice([math.nan, math.inf, -0.0]) for _ in range(k)]
    if kind == 2:  # ints and floats mixed
        return [rng.choice([rng.randint(-9, 9), rng.random()]) for _ in range(k)]
    if kind == 3:
        return tuple(_value(rng, depth - 1) for _ in range(k))
    if kind == 4:
        arrays = [np.arange(k * 2, dtype=np.int16).reshape(k, 2), np.full((k, 3), rng.random()), np.zeros((0, 2))]
        return rng.choice(arrays)
    if kind == 5:
        return _Payload(_value(rng, depth - 1))
    if kind in (6, 7):
        return {rng.choice(KEYS): _value(rng, depth - 1) for _ in range(k)}
    return [_value(rng, depth - 1) for _ in range(k)]


def test_dumps_matches_recursive_reference_on_nested_values():
    rng = random.Random(2029)
    values = [_value(rng, rng.randrange(5)) for _ in range(400)] + [[], (), {}, [[]], {"": {}}]
    for value in values:
        for indent in (0, 2):
            assert dumps(value, indent) == recursive_dumps(value, indent), (value, indent)
