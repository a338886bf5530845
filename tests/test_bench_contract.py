"""The names the benchmark in ``perfbench/`` reaches inside caveprobe.

A traced benchmark run wraps every attribute in ``spans.SPANNED``, and the
benchmark scripts import names from the package.  Deleting one of them
breaks the benchmark without failing any other test, so this file pins
them.  It only reads ``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _caveprobe_imports() -> list[tuple[str, str, str]]:
    """(script, module, name) for every ``from caveprobe... import name``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.split(".")[0] == "caveprobe":
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_every_spanned_attribute_exists():
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANNED
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in spans.SPANNED
        if attr not in vars(owner)
    ]
    assert missing == []


def test_benchmark_imports_resolve():
    imports = _caveprobe_imports()
    assert {script for script, _, _ in imports} >= {"bench.py", "workloads.py"}
    unresolved = [
        f"{script}: {module}.{name}"
        for script, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unresolved == []
