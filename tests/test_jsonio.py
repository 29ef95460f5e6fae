import ast
import math
from pathlib import Path

import pytest

import polar_kit
from polar_kit import ConfigError, ParseError
from polar_kit.jsonio import ANY_NUMBER, NUMBER_OR_NULL, load, typed

SRC = Path(polar_kit.__file__).parent


def check(value, like):
    return typed("k", value, like, ConfigError)


class TestTyped:
    @pytest.mark.parametrize("value, like, expected", [
        (3, 0, 3),
        (3, 0.0, 3.0),
        (2.5, 0.0, 2.5),
        (True, False, True),
        ("x", "", "x"),
        ([1, 2.5], (0.0, 0.0), (1.0, 2.5)),
        ([], [0], []),
        ([1, 2, 3], [0], [1, 2, 3]),
        ({"a": 1}, {"a": 0.0}, {"a": 1.0}),
        ({"any": [1, "x"]}, {}, {"any": [1, "x"]}),
        (None, NUMBER_OR_NULL, None),
        (0.5, NUMBER_OR_NULL, 0.5),
        (7, ANY_NUMBER, 7.0),
        (math.inf, ANY_NUMBER, math.inf),
    ])
    def test_accepts(self, value, like, expected):
        out = check(value, like)
        assert out == expected and type(out) is type(expected)

    def test_any_number_takes_nan(self):
        assert math.isnan(check(math.nan, ANY_NUMBER))

    @pytest.mark.parametrize("value, like, message", [
        (4.0, 0, "k must be an integer, got 4.0"),
        (True, 0, "k must be an integer, got true"),
        ("40", 0.0, 'k must be a finite number, got "40"'),
        (False, 0.0, "k must be a finite number, got false"),
        (math.nan, 0.0, "k must be a finite number, got NaN"),
        (-math.inf, 0.0, "k must be a finite number, got -Infinity"),
        (10**400, 0.0, "k must be a finite number"),
        (1, False, "k must be true or false, got 1"),
        (5, "", "k must be a string, got 5"),
        ([1.0], (0.0, 0.0), "k must be a list of 2 values, got [1.0]"),
        ([1.0, "x"], (0.0, 0.0), 'k[1] must be a finite number, got "x"'),
        (5, [0], "k must be a list, got 5"),
        ([0, 0.5], [0], "k[1] must be an integer, got 0.5"),
        ([], {"a": 0}, "k must be an object, got []"),
        ([], {}, "k must be an object, got []"),
        ({}, {"a": 0}, "k has missing field(s) ['a']"),
        ({"a": 0, "b": 0}, {"a": 0}, "k has unknown field(s) ['b']"),
        ({"a": [{"b": "x"}]}, {"a": [{"b": 0}]}, 'k.a[0].b must be an integer, got "x"'),
        (True, NUMBER_OR_NULL, "k must be a finite number, got true"),
        (math.nan, NUMBER_OR_NULL, "k must be a finite number, got NaN"),
        ("x", ANY_NUMBER, 'k must be a number, got "x"'),
        (None, ANY_NUMBER, "k must be a number, got null"),
    ])
    def test_rejects_naming_the_key(self, value, like, message):
        with pytest.raises(ConfigError) as exc:
            check(value, like)
        assert str(exc.value).startswith(message)

    def test_top_level_record_and_caller_error_type(self):
        with pytest.raises(ParseError, match=r"top level has unknown field\(s\) \['x'\]"):
            typed("", {"a": 0, "x": 1}, {"a": 0}, ParseError)
        with pytest.raises(ParseError, match=r"^a\.b must be"):
            typed("", {"a": {"b": "1"}}, {"a": {"b": 0}}, ParseError)

    def test_long_values_are_shortened(self):
        with pytest.raises(ConfigError) as exc:
            check(list(range(1000)), 0)
        assert len(str(exc.value)) < 100 and str(exc.value).endswith("...")


class TestLoad:
    def test_object(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": [1, NaN]}')
        blob = load(path, ConfigError)
        assert blob["a"][0] == 1 and math.isnan(blob["a"][1])

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "top level must be a JSON object"),
        (b"\xff\xfe\xfa", "invalid JSON"),
    ])
    def test_bad_content_uses_caller_error(self, tmp_path, text, message):
        path = tmp_path / "f.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ConfigError, match=message):
            load(path, ConfigError)

    def test_unreadable_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read file"):
            load(tmp_path / "missing.json", ConfigError)


def test_only_jsonio_parses_json():
    """No module but ``jsonio`` calls json.load/json.loads, so every reader goes through it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            direct = (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                      and isinstance(node.value, ast.Name) and node.value.id == "json")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "json"
                        and any(a.name in ("load", "loads") for a in node.names))
            if direct or imported:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
