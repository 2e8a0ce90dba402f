"""The one module that opens files: the CSV cell rule, the readers' errors, and
guards that no other module opens a file or decodes JSON itself, and that the
CLI rejects input one way."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lalearn.atomic import read_csv, read_json, write_csv, write_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lalearn"

FILE_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


def test_write_csv_renders_each_cell_by_its_type(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [("name", 3, np.int64(-7), 0.1 + 0.2),
               ("x", np.float64(-0.0), 2.0, np.float32(0.5)),
               ("y", 1e16, float("nan"), 5e-324)])
    assert path.read_bytes() == (b"a,b,c,d\n"
                                 b"name,3,-7,0.30000000000000004\n"
                                 b"x,-0.0,2.0,0.5\n"
                                 b"y,1e+16,nan,5e-324\n")


def test_write_json_writes_what_json_dump_writes(tmp_path):
    doc = {"z": [0.1 + 0.2, -0.0, 5e-324, 1e16, 2 ** 64], "a": {"é": None, "b": [True, "\n"]},
           "m": [[1.5, 2], []]}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_write_json_that_cannot_encode_leaves_the_target(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old")
    with pytest.raises(TypeError):
        write_json(path, {"x": object()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
    assert path.read_text() == "old"


def test_write_json_writes_numpy_integers_as_integers_and_nothing_else(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"n": np.int64(-3), "u": [np.uint8(7)]})
    assert path.read_bytes() == b'{"n": -3, "u": [7]}'
    for value in (np.float32(0.5), np.bool_(True), object()):
        with pytest.raises(TypeError):
            write_json(path, {"x": value})


def test_read_csv_skips_blank_lines_and_numbers_the_rest(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\n1,2\n\n  \n3,4\n")
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert list(rows) == [(2, ["1", "2"]), (5, ["3", "4"])]


def test_read_csv_checks_the_cell_count_only_when_the_rows_are_read(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("a,b\n1,2\n3\n")
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert next(rows) == (2, ["1", "2"])
    with pytest.raises(ValueError) as err:
        next(rows)
    assert str(err.value) == f"{path} line 3: expected 2 cells, got 1"


@pytest.mark.parametrize("text", ["", "\n", " \n1,2\n"])
def test_read_csv_needs_a_header(tmp_path, text):
    path = tmp_path / "headless.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing header row$"):
        read_csv(path)


@pytest.mark.parametrize("text, problem", [
    ("{oops", "not valid JSON: Expecting property name"),
    ("[" * 200_000 + "]" * 200_000, "not valid JSON: maximum recursion depth"),
], ids=["malformed", "deeply_nested"])
def test_read_json_names_the_file_it_cannot_decode(tmp_path, text, problem):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}"):
        read_json(path)


def _file_calls(tree: ast.AST):
    """Line numbers of the calls in ``tree`` that open, read or write a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno
        elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS | {"open"}:
            yield node.lineno


def test_only_the_atomic_module_opens_files():
    found = {f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "atomic.py"
             for line in _file_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert not found, f"file I/O outside lalearn/atomic.py: {sorted(found)}"
    atomic = ast.parse((PACKAGE / "atomic.py").read_text(encoding="utf-8"))
    assert list(_file_calls(atomic)), "the guard no longer sees atomic.py's own opens"


def _json_decodes(tree: ast.AST):
    """Line numbers of the ``json.load`` and ``json.loads`` calls in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and {alias.name for alias in node.names} & {"load", "loads"}):
            yield node.lineno


def test_only_the_atomic_module_decodes_json():
    found = {f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "atomic.py"
             for line in _json_decodes(ast.parse(path.read_text(encoding="utf-8")))}
    assert not found, f"JSON decoding outside lalearn/atomic.py: {sorted(found)}"
    atomic = ast.parse((PACKAGE / "atomic.py").read_text(encoding="utf-8"))
    assert list(_json_decodes(atomic)), "the guard no longer sees atomic.py's own decode"


def _config_errors(tree: ast.AST) -> list:
    """Line numbers of the ``ConfigError(...)`` calls in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "ConfigError")


def test_the_cli_constructs_config_errors_only_in_reading():
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    reading = next(node for node in cli.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_reading")
    assert _config_errors(reading), "the guard no longer sees _reading's own ConfigError"
    assert _config_errors(cli) == _config_errors(reading), "ConfigError outside _reading"
