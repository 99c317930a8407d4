"""Whole-source guards: checks that survive `python -O`, exports that match,
a tracer that installs, and a README whose map and examples hold."""

from __future__ import annotations

import ast
import functools
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

from spinfock import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinfock"


def test_no_assert_in_package():
    # `python -O` compiles code differently in two ways only: it strips
    # assert statements and reads `__debug__` as False.  With neither in the
    # package, -O compiles it to the bytecode a plain run compiles, so no
    # -O run needs comparing with a plain one; invariants raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{k}: __debug__" for k, line
                  in enumerate(text.splitlines(), 1) if "__debug__" in line]
    assert PACKAGE.is_dir()
    assert not found


def test_all_lists_exactly_the_imported_names():
    # __all__ is derived from the imports of __init__; it must list exactly them
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


def test_cli_import_loads_no_unused_stdlib_module():
    # every command pays for what `import spinfock.cli` loads: record types
    # are named tuples, and a module one path needs is imported in that
    # function.  A banned list, since what `site` preloads varies by version
    banned = {"dataclasses", "inspect", "fractions", "decimal", "csv"}
    code = ("import sys; sys.path[:0] = ['src']; before = set(sys.modules); "
            "import spinfock.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "spinfock.cli" in added
    assert not banned & added


def exception_classes():
    """Every exception class defined at the top level of a package module,
    found by its source."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"spinfock.{path.stem}")
        found += [obj for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.ClassDef)
                  for obj in [getattr(module, node.name)]
                  if issubclass(obj, BaseException)]
    return found


def test_every_exception_is_usage_or_internal():
    # the CLI maps a ValueError to exit 2 and the two internal families to
    # exit 3, so a class outside all three would escape as a traceback
    from spinfock.partitions import InvariantError
    classes = exception_classes()
    assert {cls.__name__ for cls in classes} >= {
        "InvariantError", "CanonicalBasisError", "UncoveredDisorderError",
        "CoefficientBoundError", "ExactDivisionError", "MixedWeightError"}
    assert [cls for cls in classes if not issubclass(
        cls, (ValueError, InvariantError, ArithmeticError))] == []


def test_cli_imports_only_partitions_at_module_level():
    # each command imports the engine module it runs, and the internal
    # errors are caught by family, so cli.py names no engine error class
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            imported += ([dots + node.module] if node.module else
                         [dots + alias.name for alias in node.names])
    assert {name for name in imported
            if name.startswith((".", "spinfock"))} == {".partitions"}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert not named & {cls.__name__ for cls in exception_classes()
                        if cls.__name__ != "InvariantError"}


def test_cli_writes_stdout_in_one_place():
    # every stdout byte goes through cli._write; print is for stderr only
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    writer = next(node for node in tree.body
                  if getattr(node, "name", None) == "_write")
    writes = [node for node in ast.walk(tree)
              if ast.unparse(node) == "sys.stdout.write"]
    assert len(writes) == 1
    assert writes[0] in list(ast.walk(writer))
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "print"]
    assert prints
    assert all(any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                   for k in node.keywords) for node in prints)


def test_one_cell_accumulator():
    # packed cells [e0, x, n] are summed in one place, laurent._add_cell:
    # no other function writes into a cell (cell[...] = or +=) or into a
    # dict of cells (cells[...] =), so no copy of its body creeps in
    cell = re.compile(r"cells?(\[.*\])?")
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AugAssign)
                           else [])
                writers.update(
                    f"{path.stem}.{func.name}" for target in targets
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Subscript)
                    and cell.fullmatch(ast.unparse(sub.value)))
    assert writers == {"laurent._add_cell"}


def _readme_section(heading):
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## " + heading + "\n")
    end = text.find("\n## ", start + 1)
    return text[start + 1:end if end >= 0 else None]


def _code_block(section, lang):
    return re.search(f"```{lang}\n(.*?)```", section, re.S).group(1)


def _resolve(dotted):
    """The object a dotted name spinfock.<module>.<attr>... names."""
    parts = dotted.split(".")
    module = importlib.import_module(".".join(parts[:2]))
    return functools.reduce(getattr, parts[2:], module)


def _test_defined(test_id):
    """Whether path::[Class::]test names a test function, read from the AST."""
    path, *names = test_id.split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name),
                    None)
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef) and node.name.startswith("test")


def test_design_map_names_real_functions_and_tests():
    section = _readme_section("Design: from the paper to the code")
    assert len(section.splitlines()) <= 60
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| ")][2:]
    assert len(rows) == 9
    for obj, defined, pinned in rows:
        (name,), (test_id,) = (re.findall("`([^`]+)`", cell)
                               for cell in (defined, pinned))
        assert callable(_resolve(name)), (obj, name)
        assert _test_defined(test_id), (obj, test_id)


def test_readme_examples_run(capsys):
    example = _code_block(_readme_section("Library quick start"), "python")
    ns = {}
    exec(example, ns)
    assert f"# {ns['v']!r}\n" in example
    assert f"# {ns['M'].entry((4, 3, 2, 1), (3, 3, 3, 1))}\n" in example
    commands = [shlex.split(line, comments=True) for line in
                _code_block(_readme_section("Command line"), "sh").splitlines()]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "spinfock"
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
