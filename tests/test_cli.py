import json
import os
import time
from pathlib import Path

from argshift import cli, liealg, reports
from argshift.cli import main
from argshift.reports import canonical_json, strip_volatile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_regseq_sl2_at_e(capsys):
    code, payload = run_cli(capsys, "regseq", "--type", "sl", "--size", "2", "--xi", "e")
    assert code == 0
    assert payload["report"]["ideal_dimension"] == 1
    assert payload["report"]["verdict"] is True
    assert payload["xi"] == ["0/1", "0/1", "1/1"]


def test_regseq_zero_xi_is_degenerate(capsys):
    code, payload = run_cli(capsys, "regseq", "--type", "sl", "--size", "3", "--xi", "zero")
    assert code == 1
    assert payload["report"]["status"] == "degenerate"
    assert payload["report"]["verdict"] is False
    assert payload["report"]["zero_generators"]


def test_bicone_sl2(capsys):
    code, payload = run_cli(capsys, "bicone", "--type", "sl", "--size", "2")
    assert code == 0
    assert payload["report"]["ideal_dimension"] == 3


def test_bicone_gl3_is_decided(capsys):
    # inconclusive at 60 s while the basis was not ordered by principal weight
    code, payload = run_cli(capsys, "bicone", "--type", "gl", "--size", "3", "--timeout-secs", "10")
    assert code == 0
    assert payload["report"]["ideal_dimension"] == payload["report"]["expected_dimension"] == 9
    assert payload["report"]["stats"]["certificate"] == {"kind": "exact"}


def test_bicone_fiber(capsys):
    code, payload = run_cli(capsys, "bicone", "--type", "sl", "--size", "3", "--fiber")
    assert code == 0
    assert payload["report"]["ideal_dimension"] == 3
    assert payload["report"]["matches_shift_family"] is True


def test_bicone_timeout_is_inconclusive(capsys):
    code, payload = run_cli(
        capsys, "bicone", "--type", "sp", "--size", "4", "--timeout-secs", "0.01"
    )
    assert code == 2
    assert payload["report"]["status"] == "inconclusive"


def test_commute(capsys):
    code, payload = run_cli(
        capsys, "commute", "--type", "gl", "--size", "3", "--xi", "ef", "--seed", "7"
    )
    assert code == 0
    assert payload["report"]["failure_count"] == 0
    assert payload["report"]["pair_count"] == 15


def test_mf_shortcuts(capsys):
    for xi in ("e", "ef", "h", "zero", "random-regular"):
        code, payload = run_cli(capsys, "mf", "--type", "sl", "--size", "2", "--xi", xi)
        assert code == 0
        assert len(payload["family"]["entries"]) == 2


def test_explicit_xi_vector(capsys):
    code, payload = run_cli(
        capsys, "regseq", "--type", "sl", "--size", "2", "--xi", "1/2,0,-3"
    )
    assert code == 0
    assert payload["xi_spec"]["kind"] == "explicit"


def test_algebra_report(capsys):
    code, payload = run_cli(capsys, "algebra", "--type", "sp", "--size", "4")
    assert code == 0
    assert payload["index"] == 2
    assert payload["b"] == 6
    assert payload["algebra"]["dim"] == 10


def test_invariants_report(capsys):
    code, payload = run_cli(capsys, "invariants", "--type", "sl", "--size", "3")
    assert code == 0
    assert payload["degree_sum"] == 5 == payload["b"]


def test_star_and_conjecture(capsys):
    code, payload = run_cli(capsys, "star", "--type", "gl", "--size", "3", "--partition", "2,1")
    assert code == 0
    assert payload["report"]["verdict"] is True
    code, payload = run_cli(
        capsys, "conjecture", "--type", "gl", "--size", "3", "--partition", "3", "--seed", "42"
    )
    assert code == 0
    assert payload["rows"][0]["report"]["verdict"] is True


def test_conjecture_all_partitions(capsys):
    code, payload = run_cli(
        capsys,
        "conjecture", "--type", "gl", "--size", "3", "--all-partitions", "--seed", "42",
    )
    assert code == 0
    assert [row["partition"] for row in payload["rows"]] == [[3], [2, 1], [1, 1, 1]]
    assert all(row["report"]["verdict"] for row in payload["rows"])


def test_usage_errors(capsys):
    assert main(["regseq", "--type", "xx", "--size", "2"]) == 3
    capsys.readouterr()
    assert main(["conjecture", "--type", "gl", "--size", "3"]) == 3
    capsys.readouterr()
    assert main(["star", "--type", "gl", "--size", "3", "--partition", "5"]) == 3
    capsys.readouterr()
    assert main(["regseq", "--type", "sl", "--size", "2", "--xi", "1,2"]) == 3
    capsys.readouterr()
    # Fraction("1/0") raises ZeroDivisionError, not ValueError
    assert main(["regseq", "--type", "sl", "--size", "2", "--xi", "1/0,1,1"]) == 3
    capsys.readouterr()
    assert main(["star", "--type", "gl", "--size", "3"]) == 3
    capsys.readouterr()
    assert main(["nonsense"]) == 3
    capsys.readouterr()
    # one monomial order and one conjecture loop: neither option exists
    for sub in ("regseq", "bicone", "conjecture"):
        assert main([sub, "--type", "gl", "--size", "2", "--order", "degrevlex"]) == 3
        capsys.readouterr()
    conjecture = ["conjecture", "--type", "gl", "--size", "2", "--all-partitions"]
    assert main([*conjecture, "--jobs", "2"]) == 3
    capsys.readouterr()
    # each subcommand accepts only the options it reads
    for argv in (["algebra", "--type", "sl", "--size", "2", "--seed", "1"],
                 ["invariants", "--type", "sl", "--size", "2", "--seed", "1"],
                 ["bicone", "--type", "sl", "--size", "2", "--seed", "1"],
                 ["star", "--type", "gl", "--size", "3", "--partition", "2,1", "--seed", "1"],
                 ["conjecture", "--type", "gl", "--size", "3", "--partition", "2,1",
                  "--all-partitions"],
                 ["conjecture", "--type", "gl", "--size", "3", "--partition", "banana",
                  "--all-partitions"],
                 ["star", "--type", "gl", "--size", "3", "--partition", "2,x"],
                 ["algebra", "--type", "sl", "--size", "2",
                  "--output", "/nonexistent-argshift-dir/x.json"]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().out == ""


def test_slice_commands_reject_other_types_before_building(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(liealg, "build_classical", lambda *spec: built.append(spec))
    assert main(["star", "--type", "so", "--size", "9", "--partition", "9"]) == 3
    assert main(["conjecture", "--type", "so", "--size", "9", "--partition", "9"]) == 3
    assert capsys.readouterr().out == ""
    assert built == []


def test_partition_sum_is_checked_before_building(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(liealg, "build_classical", lambda *spec: built.append(spec))
    assert main(["star", "--type", "gl", "--size", "9", "--partition", "5"]) == 3
    assert main(["conjecture", "--type", "gl", "--size", "9", "--partition", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: partition (5,) does not sum to 9" in captured.err
    assert built == []


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a failed run leaves no report file behind
    argv = ["regseq", "--type", "sl", "--size", "2", "--xi", "1,2"]
    assert main([*argv, "--output", str(tmp_path / "report.json")]) == 3
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []
    # a write that fails after parsing (permissions changed, disk full) is
    # exit 3 with one error line, and leaves no report file
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(reports, "open", refuse, raising=False)
    assert main(["algebra", "--type", "sl", "--size", "2", "--output", str(tmp_path / "report.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"error: [Errno 13] Permission denied: '{tmp_path / 'report.json'}'"]
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    # the parser finds a missing directory, a directory as the path and a
    # read-only directory before any algebra is built
    read_only = tmp_path / "read-only"
    read_only.mkdir(mode=0o555)
    access = os.access  # root may write anywhere: report the mode bits as a user would see them
    monkeypatch.setattr(cli.os, "access", lambda path, mode: access(path, mode) and not (
        Path(path) == read_only and mode & os.W_OK))
    built = []
    monkeypatch.setattr(liealg, "build_classical", lambda *args: built.append(args))
    for path in (tmp_path / "missing" / "report.json", tmp_path, read_only / "report.json"):
        assert main(["bicone", "--type", "gl", "--size", "3", "--output", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert built == []
    assert list(read_only.iterdir()) == []


def test_timeout_must_be_non_negative(capsys):
    # nan and negative budgets are usage errors, not inconclusive runs
    for argv in (["regseq", "--type", "sl", "--size", "3", "--xi", "e", "--timeout-secs", "nan"],
                 ["bicone", "--type", "sl", "--size", "2", "--timeout-secs", "-5"]):
        assert main(argv) == 3
        assert capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "regseq", "--type", "sl", "--size", "2", "--xi", "e", "--output", str(out)
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["verdict"] is True


def test_seeded_runs_have_identical_digests(capsys):
    args = ["regseq", "--type", "sl", "--size", "3", "--xi", "random-regular", "--seed", "42"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert canonical_json(first) == canonical_json(second)
    # the volatile timing field differs between runs but never enters digests
    assert "gb_seconds" in first
    assert "gb_seconds" not in strip_volatile(first)


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("computed dimension below the Krull bound: engine bug")

    monkeypatch.setattr(cli, "regular_sequence_verdict", broken)
    code = main(["regseq", "--type", "sl", "--size", "2", "--xi", "e"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert "internal error: AssertionError" in captured.err


def test_broken_internal_invariant_exits_4(capsys, monkeypatch):
    # principal_sl2 checks that its e is regular; a failure there is a bug in
    # the triple, not a bad input, so it must not exit 3 ("usage error")
    assert not issubclass(liealg.InternalError, ValueError)
    monkeypatch.setattr(liealg, "is_regular_point", lambda L, xi: False)
    code = main(["commute", "--type", "sl", "--size", "2", "--xi", "e"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert "internal error: InternalError: principal nilpotent is not regular (bug)" in captured.err


def test_no_regular_point_found_exits_4(capsys, monkeypatch):
    # every seeded point rejected means the index is wrong: a bug, not a bad input
    monkeypatch.setattr(liealg, "is_regular_point", lambda L, xi: False)
    code = main(["regseq", "--type", "sl", "--size", "2", "--xi", "random-regular"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert "internal error: InternalError: no regular point found in 200 attempts" in captured.err


def test_different_seeds_differ(capsys):
    base = ["regseq", "--type", "sl", "--size", "3", "--xi", "random-regular"]
    _, a = run_cli(capsys, *base, "--seed", "1")
    _, b = run_cli(capsys, *base, "--seed", "2")
    assert a["xi"] != b["xi"]
    assert canonical_json(a) != canonical_json(b)


def test_regseq_sp4_random_regular_is_certified_by_the_section(capsys):
    code, payload = run_cli(
        capsys, "regseq", "--type", "sp", "--size", "4", "--xi", "random-regular",
        "--seed", "42", "--timeout-secs", "30",
    )
    assert code == 0
    assert payload["report"]["ideal_dimension"] == 4
    assert payload["report"]["stats"]["certificate"]["kind"] == "fp-section"


def test_timeout_bounds_the_whole_run(capsys, monkeypatch):
    real = cli.invariants_mod.invariant_generators

    def slow(L):
        time.sleep(0.4)
        return real(L)

    monkeypatch.setattr(cli.invariants_mod, "invariant_generators", slow)
    code, payload = run_cli(
        capsys, "regseq", "--type", "sl", "--size", "2", "--xi", "e", "--timeout-secs", "0.3"
    )
    assert code == 2
    assert payload["report"]["status"] == "inconclusive"
