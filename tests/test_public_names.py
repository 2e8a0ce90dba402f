"""Every public name in ``src/lalearn`` has a caller outside the tests.

A public module-level function or class, or a public method, must be
referenced by name somewhere in ``src/lalearn``, ``perfbench/`` or
``demos/`` other than inside its own definition: as a name, an attribute,
an imported name, or a string that is not a docstring (perfbench wraps
methods it names in strings).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lalearn"

# test-facing entry points that exist as references or oracles
EXEMPT = {
    "forest.best_split": "one node through the trainer's scan, checked against "
                         "exhaustive enumeration by criterion 6",
    "data.PoolState.check_partition": "an invariant check of the pool's index sets",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced in ``tree``, docstrings aside."""
    skip = _docstrings(tree)
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            names[node.value] += 1
    return names


def _public_definitions():
    """``(qualified name, definition node)`` of every public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               *(ROOT / "demos").glob("*.py")]
    total = Counter()
    for path in sources:
        if not path.name.startswith("test_"):
            total += _references(ast.parse(path.read_text(encoding="utf-8")))
    definitions = list(_public_definitions())
    assert set(EXEMPT) <= {name for name, _ in definitions}, "an exemption names nothing"
    uncalled = [name for name, node in definitions
                if name not in EXEMPT
                and total[node.name] - _references(node)[node.name] <= 0]
    assert not uncalled, f"public names without a caller outside the tests: {uncalled}"


def test_the_benchmark_tracer_finds_every_function_it_wraps(monkeypatch):
    # perfbench/layers.py wraps lalearn functions it names; one deleted or
    # renamed here would silently zero its layer's metrics.  The three
    # single-row prediction methods are gone already and stay listed there
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        missing = set(tracer.missing)
    finally:
        tracer.uninstall()
    assert missing <= {"ForestModel.tree_predictions", "ForestModel.predict_proba",
                       "ForestModel.predict_regression"}
