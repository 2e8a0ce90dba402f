"""The README quick start imports exactly what the package root exports."""

import ast
import re
import types
from pathlib import Path

import lalearn

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
