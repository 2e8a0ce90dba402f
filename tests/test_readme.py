"""The README quick start imports exactly what the package root exports, and
its command-line config examples are valid."""

import ast
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import lalearn
from lalearn.cli import main
from lalearn.forest import regressor_config, train_forest
from lalearn.strategies import LalStrategy, save_strategy

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_import() -> ast.ImportFrom:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.parse(code).body
               if isinstance(node, ast.ImportFrom) and node.module == "lalearn"]
    assert len(imports) == 1, "the quick start needs one `from lalearn import` statement"
    return imports[0]


def test_quick_start_names_exactly_the_package_root_exports():
    statement = _quick_start_import()
    documented = {alias.name for alias in statement.names}
    exported = {name for name, value in vars(lalearn).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert documented == exported

    namespace: dict = {}
    exec(ast.unparse(statement), namespace)
    assert documented <= set(namespace)


class _Validated(BaseException):
    """Raised in place of the work: the config passed every check before it."""


def _readme_config(name: str) -> dict:
    section = README.read_text(encoding="utf-8").split(f"`{name}`:", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_command_line_examples_pass_validation(tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise _Validated

    monkeypatch.setattr("lalearn.cli.build_lal", stop)
    monkeypatch.setattr("lalearn.cli.run_repeated", stop)
    monkeypatch.chdir(tmp_path)
    for name in ("build.json", "run.json"):
        Path(name).write_text(json.dumps(_readme_config(name)))
    with pytest.raises(_Validated):
        main(["build-strategy", "build.json"])

    states = np.random.default_rng(0).random((30, 7))
    regressor = train_forest(states, states[:, 6],
                             regressor_config(n_trees=2, min_leaf_size=1), seed=1)
    save_strategy(LalStrategy(regressor, provenance="iterative"), "strategy.json")
    with pytest.raises(_Validated):
        main(["run", "run.json"])
