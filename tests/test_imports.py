"""No package module imports a name it does not use.

No linter ships with the project, so this test is the unused-import check.
``__init__.py`` is left out: its imports are the public re-exports.  The only
exemptions are the ``(module, name)`` pairs the benchmark's tracer patches
(``bench/spans.py``'s ``PATCHES``): a module may import a name only so that
the tracer can wrap it there.
"""

import ast
from pathlib import Path

from test_bench_spans import _load_spans

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mateq"


def _unused_imports(path):
    """Names that ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_no_module_imports_an_unused_name(monkeypatch):
    traced = {(owner.__name__, attribute)
              for owner, attribute, _, _ in _load_spans(monkeypatch).PATCHES}
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name, line in _unused_imports(path).items()
        if (f"mateq.{path.stem}", name) not in traced
    ]
    assert unused == []
