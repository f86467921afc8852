"""The nilpotent bicone: pairs whose whole span is nilpotent.

The defining ideal lives in doubled variables (x-block then y-block) and is
generated by every bigraded component of every invariant generator -- one
more component per generator than the shift family uses.  This module builds
that ideal, decides membership, runs the dimension / fiber checks, and
implements the exact pencil-regularity certificate: a line misses the
singular locus exactly when the maximal minors of the invariant gradient
matrix, restricted to the line, have no common nonzero root, which is a gcd
computation for binary forms over Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial

from . import linalg
from .exactpoly import Poly
from .groebner import (
    DimensionReport,
    MonomialOrder,
    deadline_after,
    regular_sequence_verdict,
    time_left,
)
from .invariants import InvariantFamily
from .liealg import InternalError, LieAlgebraData, dual_of, index_of, is_regular_point
from .reports import fractions_json
from .shift import bigraded_components, mf_generators


@dataclass
class BiconeIdeal:
    algebra: LieAlgebraData
    generators: list[tuple[int, int, Poly]]  # (i, j) with j = 0..d_i, in 2n vars

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def polynomials(self) -> list[Poly]:
        return [p for _, _, p in self.generators]

    def vanishes_at(self, point) -> bool:
        """True iff every generator vanishes at the point of the doubled variables."""
        return all(p.evaluate(point) == 0 for _, _, p in self.generators)


def _pair_point(L: LieAlgebraData, x, y) -> list[Fraction]:
    """The point (dual of x, dual of y) of the doubled variables."""
    return dual_of(L, [Fraction(v) for v in x]) + dual_of(L, [Fraction(v) for v in y])


def counting_identity(L: LieAlgebraData, fam: InvariantFamily) -> dict:
    """Exact integer bookkeeping behind the bicone dimension formula.

    With n = 2b - ell and sum(d_i) = b we get sum(d_i + 1) = b + ell and
    2n - (b + ell) = 3(b - ell); all three equalities are checked.
    """
    n = L.dim
    ell = index_of(L).index
    b = (n + ell) // 2
    if 2 * b != n + ell:
        raise InternalError("dim + index is odd (structure matrix rank bug)")
    degree_sum = sum(fam.degrees)
    count = sum(d + 1 for d in fam.degrees)
    ok = degree_sum == b and count == b + ell and 2 * n - count == 3 * (b - ell)
    if not ok:
        raise InternalError("bicone counting identity fails: family is not a b-degree family")
    return {
        "dim": n,
        "index": ell,
        "b": b,
        "degree_sum": degree_sum,
        "generator_count": count,
        "three_b_minus_ell": 3 * (b - ell),
        "identity_ok": True,
    }


def bicone_generators(L: LieAlgebraData, fam: InvariantFamily) -> BiconeIdeal:
    """All bigraded components p_i^{(j)}, j = 0..d_i, in doubled variables."""
    gens = []
    for i, p in enumerate(fam.generators):
        for j, comp in enumerate(bigraded_components(p)):
            gens.append((i, j, comp))
    return BiconeIdeal(algebra=L, generators=gens)


def bicone_membership(L: LieAlgebraData, fam: InvariantFamily, x, y) -> bool:
    """True iff span(x, y) lies in the nilpotent cone (x, y elements of g)."""
    return bicone_generators(L, fam).vanishes_at(_pair_point(L, x, y))


def bicone_dimension_check(
    L: LieAlgebraData,
    fam: InvariantFamily,
    order: MonomialOrder | None = None,  # unread: bench/workloads.py passes it; remove with it
    timeout_secs: float | None = None,
    cache_dir: None = None,  # passed on; regular_sequence_verdict accepts only None
) -> DimensionReport:
    """Full bicone: verdict true iff its dimension is 3(b - ell) in 2n vars.

    timeout_secs bounds the whole call.
    """
    deadline = deadline_after(timeout_secs)
    identity = counting_identity(L, fam)
    ideal = bicone_generators(L, fam)
    report = regular_sequence_verdict(
        ideal.polynomials(),
        2 * L.dim,
        timeout_secs=time_left(deadline),
        cache_dir=cache_dir,
    )
    report.extra["counting_identity"] = identity
    return report


def bicone_fiber_check(
    L: LieAlgebraData,
    fam: InvariantFamily,
    e,
    order: MonomialOrder | None = None,  # unread: bench/workloads.py passes it; remove with it
    timeout_secs: float | None = None,
    cache_dir: None = None,  # passed on; regular_sequence_verdict accepts only None
) -> DimensionReport:
    """Fiber of the first projection over a regular nilpotent element e.

    Substitutes the x-block at xi = dual(e); verdict true iff the y-block
    ideal has dimension b - ell.  By Taylor expansion of p(y + t*xi), each
    generator p^(j)(xi, y), j >= 1, is exactly D^(d-j) p / (d-j)! of the
    shift family at xi (checked; InternalError otherwise) and p^(0) is the
    constant p(xi), zero iff e is nilpotent.  So the one verdict also gives
    the family's dimension: None when inconclusive or when the family has a
    zero member.  timeout_secs bounds the whole call.
    """
    deadline = deadline_after(timeout_secs)
    xi = dual_of(L, [Fraction(v) for v in e])
    if not is_regular_point(L, xi):
        raise ValueError("base point is not regular")
    n = L.dim
    images = [Poly.constant(n, v) for v in xi] + [Poly.variable(n, k) for k in range(n)]
    ideal = bicone_generators(L, fam)
    substituted = [(i, j, p.substitute(images)) for i, j, p in ideal.generators]
    if any(not p.is_zero() for _, j, p in substituted if j == 0):
        raise ValueError("base point is not nilpotent")
    mf = mf_generators(L, fam, xi)
    shifts = {(i, fam.degrees[i] - k): q * Fraction(1, factorial(k)) for i, k, q in mf.entries}
    bad = [(i, j) for i, j, p in substituted if j and p != shifts[i, j]]
    if bad:
        raise InternalError(f"fiber generators {bad} are not D^(d-j) p / (d-j)! (bug)")
    identity = counting_identity(L, fam)
    b, ell = identity["b"], identity["index"]
    nonzero = [p for _, _, p in substituted if not p.is_zero()]
    dropped = [(i, j) for i, j, p in substituted if p.is_zero()]
    gb_report = regular_sequence_verdict(
        nonzero, n, timeout_secs=time_left(deadline), cache_dir=cache_dir
    )
    fiber_dim = gb_report.ideal_dimension
    mf_dim = None if mf.degenerate else fiber_dim
    report = replace(
        gb_report,
        expected_dimension=b - ell,
        verdict=None if fiber_dim is None else (fiber_dim == b - ell),
        zero_generators=dropped,
    )
    report.extra["counting_identity"] = identity
    report.extra["shift_family_dimension"] = mf_dim
    report.extra["matches_shift_family"] = fiber_dim is not None and fiber_dim == mf_dim
    return report


# ---------------------------------------------------------------------------
# pencil regularity: the exact gcd certificate
# ---------------------------------------------------------------------------


def _poly_gcd_univariate(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate rational polynomials given as coefficient lists
    (index = degree)."""

    def trim(h):
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = trim(list(f)), trim(list(g))
    while g:
        # remainder of f mod g
        f = list(f)
        while len(f) >= len(g) and f:
            factor = f[-1] / g[-1]
            shift_by = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift_by + i] -= factor * c
            trim(f)
        f, g = g, f
    f = trim(f)
    if f:
        lead = f[-1]
        f = [c / lead for c in f]
    return f


def pencil_regularity(L: LieAlgebraData, fam: InvariantFamily, x, y) -> bool:
    """True iff span(x, y) is 2-dimensional and all its nonzero points are
    regular.

    Sampling cannot certify this (the bad locus on the projective line is
    finite), so the test is exact: restrict the gradients of the invariant
    generators to the line s*x + t*y, form all maximal minors as binary forms
    in (s, t), and check they have no common nonzero root.  By the
    differential regularity criterion, a common root is precisely a
    non-regular point on the line.
    """
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    if linalg.rank([x, y]) != 2:
        return False
    # x_k -> s*a_k + t*b_k; a minor's coefficient list is indexed by the t-degree
    line = [Poly.linear_form(st) for st in zip(dual_of(L, x), dual_of(L, y))]
    ell = len(fam.generators)
    n = L.dim
    rows = [[p.diff(k).substitute(line) for k in range(n)] for p in fam.generators]
    minors = []
    for cols in itertools.combinations(range(n), ell):
        det = linalg.poly_det([[rows[i][c] for c in cols] for i in range(ell)])
        if not det.is_zero():
            deg = det.total_degree()
            minors.append([det.coefficient((deg - j, j)) for j in range(deg + 1)])
    if not minors:
        return False
    # root at [0:1] (the point y): every minor's top coefficient vanishes
    if all(m[-1] == 0 for m in minors):
        return False
    gcd_poly = minors[0]
    for m in minors[1:]:
        gcd_poly = _poly_gcd_univariate(gcd_poly, m)
        if len(gcd_poly) == 1:
            return True
    return len(gcd_poly) == 1


@dataclass
class SmoothnessReport:
    sample_count: int
    disagreements: list[dict] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "all_agree": self.all_agree,
            "results": self.results,
        }


def smoothness_crosscheck(L: LieAlgebraData, fam: InvariantFamily, samples) -> SmoothnessReport:
    """On bicone points, the pencil certificate must match the full Jacobian.

    For each sample pair (x, y) in the bicone, compares pencil_regularity
    with "the differentials of all bicone generators at (x, y) are linearly
    independent"; any disagreement is listed (the theory says there are
    none).
    """
    ideal = bicone_generators(L, fam)
    full_count = ideal.generator_count
    gens = ideal.polynomials()
    results = []
    disagreements = []
    for x, y in samples:
        point = _pair_point(L, x, y)
        if not ideal.vanishes_at(point):
            raise ValueError("sample pair is not in the bicone")
        omega = pencil_regularity(L, fam, x, y)
        rank = linalg.jacobian_rank(gens, point)
        smooth = rank == full_count
        entry = {
            "x": fractions_json(map(Fraction, x)),
            "y": fractions_json(map(Fraction, y)),
            "pencil_regular": omega,
            "jacobian_rank": rank,
            "jacobian_full": smooth,
            "agree": omega == smooth,
        }
        results.append(entry)
        if omega != smooth:
            disagreements.append(entry)
    return SmoothnessReport(
        sample_count=len(results), disagreements=disagreements, results=results
    )
