"""No package module imports a name it does not use, defines a private name nobody reads,
or defines an error class it never raises.

No linter ships with the project, so this file is the unused-import check.
``__init__.py`` is left out: its imports are the public re-exports.  The one
exemption is ``restarted``'s import of ``solve_lyapunov_ldlt``, which the
benchmark's tracer (``bench/spans.py``'s ``PATCHES``) wraps there although
nothing calls it.  Every other traced name a module imports must be read in
that module, so a refactor cannot silently empty a traced layer.
"""

import ast
from pathlib import Path

from test_bench_spans import _load_spans

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mateq"


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


# the one (module, name) imported only so that the tracer can wrap it there
TRACED_ONLY = ("mateq.restarted", "solve_lyapunov_ldlt")


def test_no_module_imports_an_unused_name(monkeypatch):
    traced = {(owner.__name__, attribute)
              for owner, attribute, _, _ in _load_spans(monkeypatch).PATCHES}
    assert TRACED_ONLY in traced  # an exemption the tracer no longer needs goes too
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name, line in _unused_imports(path).items()
        if (f"mateq.{path.stem}", name) != TRACED_ONLY
    ]
    assert unused == []


def _module_private_names(tree):
    """Private names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(tree):
    """Names a file reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_module_name_is_read():
    """A private helper that no code in src, tests or bench reads is dead weight."""
    sources = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "bench")
               for path in folder.glob("*.py")]
    read = set().union(*(_read_names(ast.parse(p.read_text(), filename=str(p))) for p in sources))
    defined = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _module_private_names(ast.parse(path.read_text(), filename=str(path)))
    }
    assert len(defined) > 40  # the walk found the package's helpers
    assert sorted(d for d in defined if d.split(":")[1] not in read) == []


def _raised_names(tree):
    """Names of the exceptions a file raises, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    """An exception class that no package module raises is a contract nobody keeps."""
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(ast.parse(p.read_text(), filename=str(p)))
                           for p in PACKAGE.glob("*.py")))
    assert len(classes) >= 5  # the walk found the error classes
    assert sorted(classes - raised) == []
