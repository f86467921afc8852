"""The runtime stays stdlib-only (pyproject.toml: dependencies = []) and has
no hidden knobs: nothing in it reads the environment, and every random draw
comes from a generator built from a seed.  Rationals become text only through
reports.fractions_json.  The algebra layers below the
Groebner engine do not import it.  The README shows only commands that the
command line accepts, and the benchmark's workloads find every library name
they call."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from argshift import cli
from argshift.centralizer_lab import nilpotent_from_partition

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "argshift"
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}
# the modules that the Groebner engine's callers build on; none of them imports it
BELOW_GROEBNER = ["linalg", "liealg", "invariants", "poisson", "shift"]


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _absolute_imports(path: Path):
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def _argshift_imports(path: Path):
    """The argshift modules a file imports, relatively or absolutely, at any depth."""
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["argshift" if node.level else "", node.module]))
            names = [package] + [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "argshift" and len(parts) > 1:
                yield node.lineno, parts[1]


def _environment_reads(path: Path):
    """os.environ / os.getenv as attributes, or imported by name from os."""
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield node.lineno, alias.name


def _unseeded_randomness(path: Path):
    """Any random.<name> other than Random, any other name imported from
    random, and any Random() built without a seed."""
    nodes = list(_nodes(path))
    aliases = {alias.asname or alias.name for node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "random"}
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            if node.attr != "Random":
                yield node.lineno, f"random.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    yield node.lineno, f"from random import {alias.name}"
        if (isinstance(node, ast.Call) and not node.args and not node.keywords
                and (isinstance(node.func, ast.Attribute) and node.func.attr == "Random"
                     or isinstance(node.func, ast.Name) and node.func.id == "Random")):
            yield node.lineno, "Random() without a seed"


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


def test_src_draws_randomness_only_from_seeded_generators():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    draws = [
        f"{path.name}:{line} uses {what}"
        for path in files
        for line, what in _unseeded_randomness(path)
    ]
    assert draws == []


def _rational_text(path: Path):
    """str(Fraction(...)) calls, and f-strings that format a .numerator or a
    .denominator."""
    for node in _nodes(path):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "str" and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "Fraction"):
            yield node.lineno, "str(Fraction(...))"
        elif isinstance(node, ast.JoinedStr):
            for part in node.values:
                if (isinstance(part, ast.FormattedValue) and isinstance(part.value, ast.Attribute)
                        and part.value.attr in ("numerator", "denominator")):
                    yield node.lineno, f"an f-string of .{part.value.attr}"


def test_src_formats_rationals_only_through_fractions_json():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "reports.py"]
    assert len(files) > 5
    texts = [
        f"{path.name}:{line} formats {what}"
        for path in files
        for line, what in _rational_text(path)
    ]
    assert texts == []
    # the scan finds the one helper's own f-string
    assert [what for _, what in _rational_text(SRC / "reports.py")] == [
        "an f-string of .numerator", "an f-string of .denominator"]


def test_algebra_layers_do_not_import_groebner():
    imports = [
        f"{name}.py:{line} imports groebner"
        for name in BELOW_GROEBNER
        for line, module in _argshift_imports(SRC / f"{name}.py")
        if module == "groebner"
    ]
    assert imports == []


def test_readme_command_lines_parse(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("argshift ")]
    assert len(lines) > 5
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(line.split()[1:])
        except SystemExit:
            pytest.fail(f"the parser rejects a README command: {line}\n{capsys.readouterr().err}")


def test_bench_workloads_call_the_library(algebras, monkeypatch):
    # set-up of bench/workloads.py's bicone-slice workload, its gl_3 conjecture
    # rows and the shift family its check rebuilds (without the sympy check)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    rows = [v for v in workloads.setup_bicone(1) if v.name.startswith("gl3 conjecture")]
    assert len(rows) == 3
    L = algebras[("gl", 3)]
    for verdict in rows:
        row, _ = verdict.run()
        e = nilpotent_from_partition(L, row.partition)
        dim_c, polys = workloads.conjecture_family(L, e, row.xi)
        assert dim_c == row.star.centralizer_dim
        assert len(polys) == row.report.generator_count
