"""The benchmark's traced layers still name objects that exist in the package.

``bench/spans.py`` patches solver layers by ``(owner, attribute)``; a
refactor that renames or drops one of those names would otherwise only
surface when the benchmark's own tests run.  The file is loaded read-only:
no bytecode is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.PATCHES
    missing = []
    for owner, attribute, name, _ in spans.PATCHES:
        try:
            target = spans.current(owner, attribute)
        except (AttributeError, KeyError):
            missing.append(f"{owner.__name__}.{attribute} ({name})")
            continue
        assert callable(target), f"{owner.__name__}.{attribute} is not callable"
    assert missing == []
