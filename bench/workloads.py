"""The three workloads: their set-up, their seeded verdict lists and checks.

A workload's set-up does everything the program computes once per algebra
and then keeps: build and validation, invariant generators, the index, the
principal triple and the seeded regular-point draws.  It returns a list of
Verdicts.  Each verdict makes the library calls of the matching CLI
subcommand from the point where its algebra and shift point are known, and
ends with reports.canonical_json of the report.  No disk cache is used, so
every pass repeats the same work.

The library is called through module attributes at call time, so that the
traced run sees every call.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from argshift import (bicone, centralizer_lab, groebner, invariants, liealg, linalg, poisson,
                      reports, shift)
from argshift.exactpoly import Poly

import checks

# a budget far above the slowest verdict (sp_4 at ef, about 7 s); a verdict
# that needs it is a failed operation, not a slow one
VERDICT_BUDGET_S = 30.0


@dataclass
class Verdict:
    """One timed operation: run() returns (report, canonical JSON text)."""

    name: str
    run: Callable[[], tuple[object, str]]
    check: Callable[[object], list[str]]


def spread(groups: list[list[Verdict]]) -> list[Verdict]:
    """Interleave the groups so that each one's members sit evenly over a pass.

    The machine's speed drifts over seconds; spacing the cheap verdicts
    between the expensive ones keeps their samples from all landing in one
    stretch of it.
    """
    keyed = [((k + 0.5) / len(g), gi, v) for gi, g in enumerate(groups) for k, v in enumerate(g)]
    return [v for _, _, v in sorted(keyed, key=lambda t: t[:2])]


def sub_seed(seed: int, label: str) -> int:
    """A seed for one input, fixed by the run seed and the input's label."""
    return random.Random(f"{seed}/{label}").randrange(1, 2**31)


def _xi_json(xi):
    return [f"{c.numerator}/{c.denominator}" for c in xi]


def _algebra_json(L):
    return {"type": L.meta["type"], "size": L.meta["size"], "dim": L.dim}


@dataclass
class Algebra:
    """Per-algebra set-up: what the CLI would recompute on every call."""

    L: liealg.LieAlgebraData
    fam: invariants.InvariantFamily
    triple: liealg.SL2Triple


def set_up_algebra(kind: str, size: int) -> Algebra:
    L = liealg.build_classical(kind, size)
    fam = invariants.invariant_generators(L)
    liealg.index_of(L)
    return Algebra(L, fam, liealg.principal_sl2(L))


def named_point(A: Algebra, name: str):
    """Dual coordinates of e, h, ef (via the principal triple) or zero."""
    L, t = A.L, A.triple
    if name == "zero":
        return [Fraction(0)] * L.dim
    elem = {"e": t.e, "h": t.h, "ef": [a + b for a, b in zip(t.e, t.f)]}[name]
    return liealg.dual_of(L, elem)


def diagonal_point(A: Algebra, diag):
    """Dual coordinates of a diagonal matrix of the defining representation."""
    m = len(diag)
    mat = [[Fraction(diag[a]) if a == b else Fraction(0) for b in range(m)] for a in range(m)]
    return liealg.dual_of(A.L, liealg.coords_of_matrix(A.L, mat))


# ---------------------------------------------------------------------------
# regseq-sweep
# ---------------------------------------------------------------------------

# non-regular semisimple points: a repeated eigenvalue (or a repeated zero)
# enlarges the centralizer, so the theorem's converse side must answer false
NON_REGULAR = {
    ("sl", 3): (1, 1, -2),
    ("gl", 3): (1, 1, 0),
    ("sp", 4): (1, 0, 0, -1),
    ("so", 5): (1, 0, 0, 0, -1),
}
REGSEQ_ALGEBRAS = [
    # (type, size, named points, seeded random-regular points)
    ("sl", 3, ["e", "h", "ef", "zero"], 3),
    ("gl", 3, ["e", "h", "ef", "zero"], 3),
    ("sp", 4, ["e", "h", "ef", "zero"], 0),
    ("so", 5, ["e", "h", "zero"], 0),
]


def regseq_verdict(A: Algebra, label: str, xi, xi_spec: dict) -> Verdict:
    L, fam = A.L, A.fam

    def run():
        family = shift.mf_generators(L, fam, xi)
        start = time.monotonic()
        rep = groebner.regular_sequence_verdict(
            family.polynomials(),
            L.dim,
            order=groebner.MonomialOrder(),
            timeout_secs=VERDICT_BUDGET_S,
            cache_dir=None,
            zero_labels=family.zero_entries,
        )
        payload = {
            "command": "regseq",
            "algebra": _algebra_json(L),
            "xi": _xi_json(xi),
            "xi_spec": xi_spec,
            "report": rep.to_json_dict(),
            "gb_seconds": time.monotonic() - start,
        }
        return rep, reports.canonical_json(payload)

    return Verdict(label, run, lambda rep: checks.check_regseq(L, xi, rep))


def setup_regseq(seed: int) -> list[Verdict]:
    groups = []
    for kind, size, names, n_random in REGSEQ_ALGEBRAS:
        A = set_up_algebra(kind, size)
        tag = f"{kind}{size}"
        out = []
        groups.append(out)
        for name in names:
            out.append(regseq_verdict(A, f"{tag} {name}", named_point(A, name), {"kind": name}))
        for r in range(n_random):
            s = sub_seed(seed, f"regseq {tag} rr{r}")
            xi, attempts = liealg.draw_regular_dual_point(A.L, s)
            spec = {"kind": "random-regular", "seed": s, "attempts": attempts}
            out.append(regseq_verdict(A, f"{tag} rr{r}", xi, spec))
        diag = NON_REGULAR[(kind, size)]
        out.append(regseq_verdict(A, f"{tag} diag{diag}", diagonal_point(A, diag),
                                  {"kind": "explicit"}))
    return spread(groups)


# ---------------------------------------------------------------------------
# commute-sweep
# ---------------------------------------------------------------------------

COMMUTE_INSTANCES = [
    ("gl", 4, ["e", "h"]),
    ("sl", 4, ["h"]),
    ("sp", 4, ["random-regular", "e"]),
    ("so", 5, ["random-regular", "e"]),
    ("sl", 3, ["random-regular"]),
    ("gl", 3, ["random-regular"]),
]


def _control_coordinate(L, xi) -> int:
    """The first coordinate x_k whose basis element moves xi (column k of B(xi)
    is nonzero), so that {D_xi p, x_k} = -sum_i B(xi)_ik d_i p is not zero."""
    B = checks.structure_matrix(L, xi)
    return next(k for k in range(L.dim) if any(row[k] for row in B))


def control_bracket(L, family, xi):
    """{f, x_k} from the program, for f the first shift of the top-degree
    invariant and x_k from _control_coordinate: the check's nonzero control."""
    top = max(i for i, _, _ in family.entries)
    f = next(p for i, j, p in family.entries if i == top and j == 1)
    k = _control_coordinate(L, xi)
    return f, k, poisson.poisson_bracket(L, f, Poly.variable(L.dim, k))


def commute_verdict(A: Algebra, label: str, xi, xi_spec: dict, check_seed: int) -> Verdict:
    L, fam = A.L, A.fam
    state = {}

    def run():
        family = shift.mf_generators(L, fam, xi)
        rep = poisson.commutativity_report(L, family)
        payload = {
            "command": "commute",
            "algebra": _algebra_json(L),
            "xi": _xi_json(xi),
            "xi_spec": xi_spec,
            "report": rep.to_json_dict(),
            "verdict": rep.commutes,
        }
        state["family"] = family
        return rep, reports.canonical_json(payload)

    def check(rep):
        family = state["family"]
        polys = family.polynomials()
        problems = checks.check_commute(L, polys, rep, check_seed)
        f, k, br = control_bracket(L, family, xi)
        return problems + checks.check_control_bracket(L, f, k, br, check_seed)

    return Verdict(label, run, check)


def setup_commute(seed: int) -> list[Verdict]:
    groups = []
    for kind, size, names in COMMUTE_INSTANCES:
        A = set_up_algebra(kind, size)
        tag = f"{kind}{size}"
        out = []
        groups.append(out)
        for name in names:
            if name == "random-regular":
                s = sub_seed(seed, f"commute {tag}")
                xi, attempts = liealg.draw_regular_dual_point(A.L, s)
                spec = {"kind": name, "seed": s, "attempts": attempts}
            else:
                xi, spec = named_point(A, name), {"kind": name}
            check_seed = sub_seed(seed, f"commute check {tag} {name}")
            out.append(commute_verdict(A, f"{tag} {name}", xi, spec, check_seed))
    return spread(groups)


# ---------------------------------------------------------------------------
# bicone-slice
# ---------------------------------------------------------------------------

CONJECTURE_ROWS = [
    (3, (3,)), (3, (2, 1)), (3, (1, 1, 1)),
    (4, (4,)), (4, (3, 1)), (4, (2, 2)), (4, (2, 1, 1)),
]
SMOOTHNESS_CONJUGATES = 13


def _dimension_verdict(name: str, L, call, check) -> Verdict:
    def run():
        start = time.monotonic()
        rep = call()
        payload = {
            "command": "bicone",
            "variant": name,
            "algebra": _algebra_json(L),
            "report": rep.to_json_dict(),
            "gb_seconds": time.monotonic() - start,
        }
        return rep, reports.canonical_json(payload)

    return Verdict(f"{L.meta['type']}{L.meta['size']} {name}", run, check)


def _matrix_element(L, entries):
    """Coordinates of sum c * E_ab given as {(a, b): c} (1-based)."""
    m = L.meta["size"]
    mat = [[Fraction(0)] * m for _ in range(m)]
    for (a, b), c in entries.items():
        mat[a - 1][b - 1] = Fraction(c)
    return liealg.coords_of_matrix(L, mat)


def _conjugate(L, g, g_inv, v):
    mat = liealg.matrix_of_coords(L, v)
    m = len(mat)
    prod = [[sum((g[a][i] * mat[i][j] * g_inv[j][b] for i in range(m) for j in range(m)),
                 Fraction(0)) for b in range(m)] for a in range(m)]
    return liealg.coords_of_matrix(L, prod)


def bicone_samples(L, seed: int):
    """Seeded sl_3 bicone pairs: conjugates of a regular pencil plus
    degenerate pairs whose pencils are not regular."""
    rng = random.Random(seed)
    x0 = _matrix_element(L, {(1, 2): 1, (2, 3): 1})
    y0 = _matrix_element(L, {(2, 1): 1, (3, 2): -1})
    samples = [(x0, y0)]
    while len(samples) < 1 + SMOOTHNESS_CONJUGATES:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if checks.exact_rank(g) < 3:
            continue
        g_inv = linalg.invert(g)
        samples.append((_conjugate(L, g, g_inv, x0), _conjugate(L, g, g_inv, y0)))
    zero = [Fraction(0)] * L.dim
    e12, e13, e23 = (_matrix_element(L, {ab: 1}) for ab in [(1, 2), (1, 3), (2, 3)])
    samples += [(x0, [2 * c for c in x0]), (x0, zero), (zero, zero), (x0, e13),
                (e12, e13), (e12, e23), (e13, e23)]
    return samples


def setup_bicone(seed: int) -> list[Verdict]:
    sl3 = set_up_algebra("sl", 3)
    gl3 = set_up_algebra("gl", 3)
    gl4 = liealg.build_classical("gl", 4)
    order = groebner.MonomialOrder()
    full = [
        _dimension_verdict(
            "full", sl3.L,
            lambda: bicone.bicone_dimension_check(sl3.L, sl3.fam, order=order,
                                                  timeout_secs=VERDICT_BUDGET_S, cache_dir=None),
            lambda rep: checks.check_bicone_full(sl3.L, rep)),
    ]
    fibers = [
        _dimension_verdict(
            "fiber", A.L,
            lambda A=A: bicone.bicone_fiber_check(A.L, A.fam, A.triple.e, order=order,
                                                  timeout_secs=VERDICT_BUDGET_S, cache_dir=None),
            lambda rep, A=A: checks.check_fiber(A.L, rep))
        for A in (sl3, gl3)
    ]

    samples = bicone_samples(sl3.L, sub_seed(seed, "bicone samples"))

    def smooth_run():
        rep = bicone.smoothness_crosscheck(sl3.L, sl3.fam, samples)
        payload = {"command": "bicone", "variant": "smoothness",
                   "algebra": _algebra_json(sl3.L), "report": rep.to_json_dict()}
        return rep, reports.canonical_json(payload)

    smooth = [Verdict("sl3 smoothness", smooth_run,
                      lambda rep: checks.check_smoothness(rep, len(samples)))]
    rows = {3: [], 4: []}
    for n, part in CONJECTURE_ROWS:
        L = gl3.L if n == 3 else gl4
        rows[n].append(conjecture_verdict(L, n, part, sub_seed(seed, f"conjecture {part}")))
    return spread([full, fibers, smooth, rows[3], rows[4]])


def conjecture_family(L, e, xi):
    """(dim g^e, the shift family at xi) that conjecture_check builds for e:
    the transported initial components, ordered as it orders them."""
    pipe = centralizer_lab._slice_pipeline(L, e)
    Lc = pipe.centralizer
    transported = [(sr, centralizer_lab.transport_to_centralizer(sr, pipe.chart, Lc))
                   for sr in pipe.restrictions]
    transported.sort(key=lambda t: (t[0].initial_degree, t[0].source_index))
    fam = invariants.InvariantFamily(algebra=Lc, generators=[q for _, q in transported],
                                     degrees=[sr.initial_degree for sr, _ in transported])
    return Lc.dim, shift.mf_generators(Lc, fam, xi).polynomials()


def conjecture_verdict(L, n: int, part, seed: int) -> Verdict:
    e = centralizer_lab.nilpotent_from_partition(L, part)

    def run():
        start = time.monotonic()
        row = centralizer_lab.conjecture_check(
            L, e, seed=seed, order=groebner.MonomialOrder(),
            timeout_secs=VERDICT_BUDGET_S, cache_dir=None)
        data = row.to_json_dict()
        data["gb_seconds"] = time.monotonic() - start
        return row, reports.canonical_json(data)

    def check(row):
        dim_c, polys = conjecture_family(L, e, row.xi)
        return checks.check_conjecture(row, part, n, checks.krull_dimension(polys, dim_c))

    return Verdict(f"gl{n} conjecture {part}", run, check)


WORKLOADS = {
    "regseq-sweep": setup_regseq,
    "commute-sweep": setup_commute,
    "bicone-slice": setup_bicone,
}
