"""The runtime stays stdlib-only (pyproject.toml: dependencies = []) and has
no hidden knobs: nothing in it reads the environment, and every random draw
comes from a generator built from a seed.  Rationals become text only through
reports.fractions_json.  The algebra layers below the Groebner engine do not
import it, and no module but groebner calls it; only the bicone's full
dimension check builds the 2n-variable bicone ideal, and only
shift.bigraded_components substitutes into a polynomial (the slice pipeline
reads its restrictions from the chart's matrix).  Only poisson reads or
writes an algebra's "central" memo of Casimirs.  The README shows only
commands that the command line accepts and a library quick start that runs,
and the benchmark's workloads find every library name they call.  A failing
Hypothesis test fails only itself under the repository's pytest settings."""

import argparse
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from argshift import cli
from argshift.centralizer_lab import _slice_pipeline, nilpotent_from_partition
from argshift.liealg import build_classical
from argshift.shift import mf_generators

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


def test_only_groebner_calls_its_engine():
    # every other module reaches the engine through regular_sequence_verdict
    calls = [
        f"{path.name}:{node.lineno} calls {name}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "groebner"
        for node in _nodes(path) if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if name in {"buchberger", "ideal_dimension"}
    ]
    assert calls == []


def _owners(path: Path, matches) -> list:
    """The innermost def around each node of path that matches (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def _callers(path: Path, name: str) -> list:
    """The innermost def around each call to name in path."""
    return _owners(path, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == name)


def _memo_users(path: Path, key: str) -> list:
    """The innermost def around each use of the memo _caches[key] in path: a
    subscript, or a method call such as _caches.get(key) or .setdefault(key, ...)."""
    def is_caches(node):
        return isinstance(node, ast.Attribute) and node.attr == "_caches"

    def is_key(node):
        return isinstance(node, ast.Constant) and node.value == key

    def matches(node):
        if isinstance(node, ast.Subscript):
            return is_caches(node.value) and is_key(node.slice)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and is_caches(node.func.value) and any(map(is_key, node.args)))

    return _owners(path, matches)


def test_only_the_dimension_check_builds_the_bicone_ideal():
    # membership, the pencil and the smoothness cross-check read a pair on its
    # line; the 2n-variable ideal serves the full dimension check alone
    calls = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _callers(path, "bicone_generators")]
    assert calls == [("bicone", "bicone_dimension_check")]


def test_only_bigraded_components_substitutes():
    # the slice pipeline restricts by power traces of the chart's matrix, and
    # its chart's coordinates are already g^e's dual ones
    calls = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _callers(path, "substitute")]
    assert calls == [("shift", "bigraded_components")]


def test_only_the_subalgebra_reader_constructs_algebras():
    # classical algebras and centralizers are read as spans inside an ambient
    # algebra by one reader of structure constants; gl_n's rule builder makes
    # the ambient of the classical ones
    calls = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _callers(path, "LieAlgebraData")]
    assert calls == [("liealg", "_gl_ambient"), ("liealg", "_subalgebra")]


def test_only_poisson_reads_or_writes_the_central_memo():
    # a snapshot enters the memo only after its Hamiltonian field was computed
    # on that algebra and found zero; any other writer could certify a
    # polynomial that was never checked
    users = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _memo_users(path, "central")]
    assert users == [("poisson", "_gradient_and_field")] * 2


def _readme_command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("argshift ")]


def test_readme_command_lines_parse(capsys):
    lines = _readme_command_lines()
    assert len(lines) > 5
    parser = cli.build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the parser rejects a README command: {' '.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def test_every_option_is_read(capsys, monkeypatch):
    """Each subcommand reads every option its parser defines, on the README's
    command lines and a single conjecture row."""
    reads, defined = [], []

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.append(name)
            return super().__getattribute__(name)

    real = cli.build_parser

    def recording_parser():
        parser = real()
        parse = parser.parse_args

        def parse_args(argv=None):
            args = parse(argv, namespace=Recording())
            defined.append(set(vars(args)) - {"command"})
            reads.clear()  # argparse's own reads do not count
            return args

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    unread = {}
    for argv in [*_readme_command_lines(), "conjecture --type gl --size 2 --partition 2".split()]:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
        unread.setdefault(argv[0], defined[-1]).intersection_update(defined[-1] - set(reads))
    assert set(unread) == set(cli.COMMANDS)
    assert {command: names for command, names in unread.items() if names} == {}


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert "assert " in block  # the block checks its own results
    exec(compile(block, "README.md quick start", "exec"), {})


def test_bench_workloads_call_the_library(algebras, monkeypatch):
    # set-up of bench/workloads.py's bicone-slice workload, each of its seven
    # conjecture rows (gl_4 (2,1,1) takes the char-coefficients family), the
    # shift family its check rebuilds (without the sympy check) against the
    # one the slice pipeline keeps, and its sl_3 smoothness verdict under the
    # benchmark's own check
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    verdicts = workloads.setup_bicone(1)
    [smooth] = [v for v in verdicts if v.name == "sl3 smoothness"]
    rep, _ = smooth.run()
    assert smooth.check(rep) == []
    rows = [v for v in verdicts if " conjecture " in v.name]
    assert sorted(v.name for v in rows) == sorted(f"gl{n} conjecture {part}"
                                                  for n, part in workloads.CONJECTURE_ROWS)
    gl4 = build_classical("gl", 4)
    for verdict in rows:
        row, _ = verdict.run()
        L = algebras[("gl", 3)] if verdict.name.startswith("gl3") else gl4
        e = nilpotent_from_partition(L, row.partition)
        dim_c, polys = workloads.conjecture_family(L, e, row.xi)
        assert dim_c == row.star.centralizer_dim
        assert len(polys) == row.report.generator_count
        char = verdict.name == "gl4 conjecture (2, 1, 1)"
        assert row.star.generator_family == ("char-coefficients" if char else "power-traces")
        pipe = _slice_pipeline(L, e)
        assert polys == mf_generators(pipe.centralizer, pipe.family, row.xi).polynomials()


FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    # Hypothesis's report of a failing example imports modules that warn on
    # import; under filterwarnings = ["error"] that must not stop the session
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
