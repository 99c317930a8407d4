"""Whole-source guards: checks that survive `python -O`, exports that match,
and a tracer that installs."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinfock"


def test_no_assert_in_package():
    # `python -O` strips assert statements; invariants must raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert PACKAGE.is_dir()
    assert not found


def test_all_lists_exactly_the_imported_names():
    # __all__ and the imports of __init__ are kept by hand; they must not drift
    import spinfock
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(spinfock.__all__) == len(set(spinfock.__all__))
    assert set(spinfock.__all__) == set(imported) | {"__version__"}


def test_perfbench_tracer_installs():
    # the tracer looks up the methods it wraps by name in each class __dict__
    code = ("import sys; sys.path[:0]=['src','perfbench']; "
            "import spinfock.cli, tracer; tracer.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
