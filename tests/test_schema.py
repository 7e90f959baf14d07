from __future__ import annotations

import re
from dataclasses import dataclass

import pytest

from multinet import schema
from multinet.schema import ConfigError, bounded


@dataclass
class Toy:
    count: int = bounded(2, least=1, most=4)
    rate: float = 0.5
    flag: bool = False
    name: str = bounded("a", choices=("a", "b"))

    def __post_init__(self):
        schema.check(self)


@pytest.mark.parametrize("fields, message", [
    ({"count": True}, "count must be of type int, got True"),
    ({"count": 2.0}, "count must be of type int, got 2.0"),
    ({"rate": "0.5"}, "rate must be of type float, got '0.5'"),
    ({"rate": False}, "rate must be of type float, got False"),
    ({"flag": 1}, "flag must be of type bool, got 1"),
    ({"name": None}, "name must be of type str, got None"),
    ({"rate": float("nan")}, "rate must be finite and non-negative, got nan"),
    ({"rate": -1}, "rate must be finite and non-negative, got -1"),
    ({"name": "c"}, "name must be one of a, b, got 'c'"),
    ({"count": 0}, "count must be at least 1, got 0"),
    ({"count": 5}, "count must be at most 4, got 5"),
], ids=["bool-int", "float-int", "str-float", "bool-float", "int-bool", "none-str", "nan",
        "negative", "choice", "least", "most"])
def test_check_names_the_field(fields, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Toy(**fields)


def test_bounds_are_inclusive_and_an_int_is_a_float():
    assert Toy(count=1, rate=0).rate == 0
    assert Toy(count=4, name="b", flag=True).count == 4


def test_parsers_follow_the_annotations():
    parsers = schema.parsers(Toy)
    assert parsers["count"]("3") == 3 and parsers["rate"]("inf") == float("inf")
    assert parsers["name"]("c") == "c"
    assert [parsers["flag"](raw) for raw in ("Yes", "0", "true")] == [True, False, True]
    with pytest.raises(ValueError, match="expected a boolean, got 'maybe'"):
        parsers["flag"]("maybe")
