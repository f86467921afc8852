"""Command-line surface for reproducible verification runs.

Subcommands: algebra, invariants, mf, commute, regseq, bicone, star,
conjecture.  Every run emits one JSON report (stdout or --output).

Exit codes: 0 verdict true / success, 1 verdict false, 2 inconclusive
(timeout), 3 usage or input error, 4 internal error (never a verdict).
--timeout-secs bounds the whole run: main turns it into one deadline before
anything is built, and each verdict gets only the time left.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from fractions import Fraction

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


class UsageError(Exception):
    pass


def _build_algebra(args) -> liealg.LieAlgebraData:
    try:
        return liealg.build_classical(args.type, args.size)
    except liealg.LieAlgebraError as err:
        raise UsageError(str(err)) from err


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
        raise UsageError(f"cannot parse xi {spec!r}") from err
    if len(xi) != L.dim:
        raise UsageError(f"xi has {len(xi)} entries, algebra has dimension {L.dim}")
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
        "b": (L.dim + idx.index) // 2,
    }
    _emit(args, payload)
    return EXIT_TRUE


def cmd_invariants(args) -> int:
    L = _build_algebra(args)
    fam = invariants_mod.invariant_generators(L)
    idx = liealg.index_of(L)
    b = (L.dim + idx.index) // 2
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


def _parse_partition(text: str | None, size: int):
    if text is None:
        raise UsageError("need --partition")
    try:
        part = tuple(int(p) for p in text.split(","))
    except ValueError as err:
        raise UsageError(f"cannot parse partition {text!r}") from err
    if sum(part) != size:
        raise UsageError(f"partition {part} does not sum to {size}")
    return part


def _require_gl(args) -> None:
    """The slice pipeline's type check, made before any algebra is built."""
    if args.type != "gl":
        raise UsageError("the slice pipeline supports gl only")


def cmd_star(args) -> int:
    _require_gl(args)
    part = _parse_partition(args.partition, args.size)
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
    _require_gl(args)
    if not args.all_partitions and not args.partition:
        raise UsageError("need --partition or --all-partitions")
    partitions = (
        cl.all_partitions(args.size)
        if args.all_partitions
        else [_parse_partition(args.partition, args.size)]
    )
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


def _add_common(sub, xi: bool = False, gb: bool = False, partition: bool = False):
    sub.add_argument("--type", required=True, choices=["gl", "sl", "so", "sp"])
    sub.add_argument("--size", required=True, type=int)
    sub.add_argument("--output", default=None, help="write the JSON report here")
    sub.add_argument("--seed", type=int, default=42)
    if xi:
        sub.add_argument(
            "--xi",
            default="random-regular",
            help="e | ef | h | zero | random-regular | comma-separated rationals",
        )
    if gb:
        sub.add_argument("--timeout-secs", type=_seconds, default=None)
    if partition:
        sub.add_argument("--partition", default=None, help="Jordan type, e.g. 2,1")
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
    _add_common(subs.add_parser("star", help="slice degree condition"), partition=True)
    conj = _add_common(
        subs.add_parser("conjecture", help="centralizer regular-sequence experiment"),
        gb=True,
        partition=True,
    )
    conj.add_argument("--all-partitions", action="store_true")
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
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # a bug, not a verdict: keep it off exit 1 ("false")
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
