"""The runtime stays stdlib-only (pyproject.toml: dependencies = []) and has
no hidden knobs: nothing in it reads the environment."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "argshift"
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _absolute_imports(path: Path):
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def _environment_reads(path: Path):
    """os.environ / os.getenv as attributes, or imported by name from os."""
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield node.lineno, alias.name


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


def test_src_reads_no_environment():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    reads = [
        f"{path.name}:{line} reads os.{name}"
        for path in files
        for line, name in _environment_reads(path)
    ]
    assert reads == []
