"""Command-line surface for reproducible verification runs.

Subcommands: algebra, invariants, mf, commute, regseq, bicone, star,
conjecture.  Every run emits one JSON report (stdout or --output).  Each
subcommand accepts only the options it reads and build_parser holds the usage
rules, except one checked before any algebra is built: --partition sums to --size.

Exit codes: 0 verdict true / success, 1 verdict false, 2 inconclusive
(timeout), 3 usage or input error, 4 internal error (never a verdict).
--timeout-secs bounds the whole run: main turns it into one deadline before
anything is built, and each verdict gets only the time left.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import bicone as bicone_mod
from . import centralizer_lab as cl
from . import invariants as invariants_mod
from . import liealg, poisson, reports, shift
from .groebner import deadline_after, regular_sequence_verdict, time_left

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _build_algebra(args) -> liealg.LieAlgebraData:
    return liealg.build_classical(args.type, args.size)


def _resolve_xi(L, spec: str, seed: int):
    """Named shift points (via the principal triple) or explicit rationals.

    Explicit vectors are comma-separated dual coordinates.
    Returns (xi, description_dict).
    """
    if spec == "zero":
        return [Fraction(0)] * L.dim, {"kind": "zero"}
    if spec in ("e", "ef", "h"):
        t = liealg.principal_sl2(L)
        elem = {
            "e": t.e,
            "ef": [a + b for a, b in zip(t.e, t.f)],
            "h": t.h,
        }[spec]
        return liealg.dual_of(L, elem), {"kind": spec}
    if spec == "random-regular":
        xi, attempts = liealg.draw_regular_dual_point(L, seed)
        return xi, {"kind": "random-regular", "seed": seed, "attempts": attempts}
    try:
        xi = [Fraction(part) for part in spec.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot parse xi {spec!r}") from err
    if len(xi) != L.dim:
        raise ValueError(f"xi has {len(xi)} entries, algebra has dimension {L.dim}")
    return xi, {"kind": "explicit"}


def _emit(args, payload) -> None:
    text = reports.dump_report(payload, args.output)
    if not args.output:
        print(text)


def _verdict_exit(verdict) -> int:
    if verdict is True:
        return EXIT_TRUE
    if verdict is False:
        return EXIT_FALSE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_algebra(args) -> int:
    L = _build_algebra(args)
    idx = liealg.index_of(L)
    payload = {
        "command": "algebra",
        "algebra": liealg.algebra_to_json_dict(L),
        "index": idx.index,
        "index_mode": idx.mode,
        "b": idx.b,
    }
    _emit(args, payload)
    return EXIT_TRUE


def cmd_invariants(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    b = liealg.index_of(L).b
    # index_of has checked every generator's Hamiltonian field (InternalError otherwise)
    ok = sum(fam.degrees) == b
    payload = {
        "command": "invariants",
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "family": fam.to_json_dict(),
        "degree_sum": sum(fam.degrees),
        "b": b,
        "verdict": ok,
    }
    _emit(args, payload)
    return _verdict_exit(ok)


def cmd_mf(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    xi, xi_desc = _resolve_xi(L, args.xi, args.seed)
    family = shift.mf_generators(L, fam, xi)
    payload = {
        "command": "mf",
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "xi_spec": xi_desc,
        "family": family.to_json_dict(),
    }
    _emit(args, payload)
    return EXIT_TRUE


def cmd_commute(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    xi, xi_desc = _resolve_xi(L, args.xi, args.seed)
    family = shift.mf_generators(L, fam, xi)
    rep = poisson.commutativity_report(L, family)
    payload = {
        "command": "commute",
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "xi": reports.fractions_json(xi),
        "xi_spec": xi_desc,
        "report": rep.to_json_dict(),
        "verdict": rep.commutes,
    }
    _emit(args, payload)
    return _verdict_exit(rep.commutes)


def cmd_regseq(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    xi, xi_desc = _resolve_xi(L, args.xi, args.seed)
    family = shift.mf_generators(L, fam, xi)
    start = time.monotonic()
    rep = regular_sequence_verdict(
        family.polynomials(),
        L.dim,
        timeout_secs=time_left(args.deadline),
        zero_labels=family.zero_entries,
    )
    payload = {
        "command": "regseq",
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "xi": reports.fractions_json(xi),
        "xi_spec": xi_desc,
        "report": rep.to_json_dict(),
        "gb_seconds": time.monotonic() - start,
    }
    _emit(args, payload)
    return _verdict_exit(rep.verdict)


def cmd_bicone(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    start = time.monotonic()
    if args.fiber:
        t = liealg.principal_sl2(L)
        rep = bicone_mod.bicone_fiber_check(L, fam, t.e, timeout_secs=time_left(args.deadline))
        kind = "fiber"
    else:
        rep = bicone_mod.bicone_dimension_check(L, fam, timeout_secs=time_left(args.deadline))
        kind = "full"
    payload = {
        "command": "bicone",
        "variant": kind,
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "report": rep.to_json_dict(),
        "gb_seconds": time.monotonic() - start,
    }
    _emit(args, payload)
    return _verdict_exit(rep.verdict)


def _sized(part: tuple[int, ...], size: int) -> tuple[int, ...]:
    """A --partition of --size, checked before any algebra is built."""
    if sum(part) != size:
        raise ValueError(f"partition {part} does not sum to {size}")
    return part


def cmd_star(args) -> int:
    part = _sized(args.partition, args.size)
    L = _build_algebra(args)
    e = cl.nilpotent_from_partition(L, part)
    star = cl.condition_star(L, e)
    payload = {
        "command": "star",
        "algebra": {"type": args.type, "size": args.size, "dim": L.dim},
        "report": star.to_json_dict(),
    }
    _emit(args, payload)
    return _verdict_exit(star.verdict)


def cmd_conjecture(args) -> int:
    if args.all_partitions:
        partitions = cl.all_partitions(args.size)
    else:
        partitions = [_sized(args.partition, args.size)]
    L = _build_algebra(args)
    rows = []
    for part in partitions:
        e = cl.nilpotent_from_partition(L, part)
        start = time.monotonic()
        row = cl.conjecture_check(L, e, seed=args.seed, timeout_secs=time_left(args.deadline))
        rows.append({**row.to_json_dict(), "gb_seconds": time.monotonic() - start})
    verdicts = [row["report"]["verdict"] for row in rows]
    payload = {
        "command": "conjecture",
        "algebra": {"type": args.type, "size": args.size},
        "seed": args.seed,
        "rows": rows,
    }
    _emit(args, payload)
    if any(v is False for v in verdicts):
        return EXIT_FALSE
    if any(v is None for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _seconds(text: str) -> float:
    """A --timeout-secs value: a non-negative number (nan and negatives are
    usage errors, not an already-spent budget)."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, not {text!r}")
    return value


def _partition(text: str) -> tuple[int, ...]:
    """A --partition value: comma-separated integer parts, e.g. 2,1."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse partition {text!r}") from None


def _output(text: str) -> str:
    """An --output value the report can be written to: not a directory, in a
    directory that exists, and writable.  Nothing is written until the report."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not writable")
    return text


def _add_common(sub, types=("gl", "sl", "so", "sp"), seed=False, xi=False, gb=False):
    sub.add_argument("--type", required=True, choices=types)
    sub.add_argument("--size", required=True, type=int)
    sub.add_argument("--output", type=_output, default=None, help="write the JSON report here")
    if seed or xi:
        sub.add_argument("--seed", type=int, default=42)
    if xi:
        sub.add_argument(
            "--xi",
            default="random-regular",
            help="e | ef | h | zero | random-regular | comma-separated rationals",
        )
    if gb:
        sub.add_argument("--timeout-secs", type=_seconds, default=None)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argshift",
        description="Exact argument-shift verification runs with JSON reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("algebra", help="build and verify an algebra"))
    _add_common(subs.add_parser("invariants", help="invariant family and degree sums"))
    _add_common(subs.add_parser("mf", help="emit the shift generator family"), xi=True)
    _add_common(subs.add_parser("commute", help="pairwise Poisson brackets"), xi=True)
    _add_common(subs.add_parser("regseq", help="regular-sequence verdict"), xi=True, gb=True)
    bic = _add_common(subs.add_parser("bicone", help="bicone dimension / fiber checks"), gb=True)
    bic.add_argument("--fiber", action="store_true", help="check the fiber over the principal nilpotent")
    star = _add_common(subs.add_parser("star", help="slice degree condition"), types=("gl",))
    star.add_argument("--partition", required=True, type=_partition, help="Jordan type, e.g. 2,1")
    conj = _add_common(
        subs.add_parser("conjecture", help="centralizer regular-sequence experiment"),
        types=("gl",),
        seed=True,
        gb=True,
    )
    rows = conj.add_mutually_exclusive_group(required=True)
    rows.add_argument("--partition", type=_partition, help="Jordan type, e.g. 2,1")
    rows.add_argument("--all-partitions", action="store_true")
    return parser


COMMANDS = {
    "algebra": cmd_algebra,
    "invariants": cmd_invariants,
    "mf": cmd_mf,
    "commute": cmd_commute,
    "regseq": cmd_regseq,
    "bicone": cmd_bicone,
    "star": cmd_star,
    "conjecture": cmd_conjecture,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; map the latter to 3
        return EXIT_TRUE if exc.code == 0 else EXIT_USAGE
    args.deadline = deadline_after(getattr(args, "timeout_secs", None))
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as err:  # OSError: the --output write failed
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # a bug, not a verdict: keep it off exit 1 ("false")
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
