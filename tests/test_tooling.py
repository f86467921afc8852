"""The runtime stays stdlib-only (pyproject.toml: dependencies = [])."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "argshift"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_and_argshift():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    foreign = [
        f"{path.name}:{line} imports {name}"
        for path in files
        for line, name in _absolute_imports(path)
        if name.split(".")[0] != "argshift" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
