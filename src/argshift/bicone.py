"""The nilpotent bicone: pairs whose whole span is nilpotent.

The defining ideal lives in doubled variables (x-block then y-block) and is
generated by every bigraded component of every invariant generator -- one
more component per generator than the shift family uses.  This module builds
that ideal and runs the full dimension check.  The fiber of the first
projection over a regular nilpotent e is read off the shift family at dual(e)
instead: by Taylor expansion its generators are the shifts up to factorials
(see bicone_fiber_check).  A single pair (x, y) is read through its line
s*x + t*y: it lies in the bicone when every invariant generator vanishes
identically on the line, and its pencil is regular when the maximal minors of
the invariant gradient matrix, restricted to the line, have no common nonzero
root -- a dimension question for binary forms that the Groebner engine
answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import linalg
from .exactpoly import Poly, pack_gradient, unpack
from .groebner import (
    DimensionReport,
    MonomialOrder,
    buchberger,
    deadline_after,
    ideal_dimension,
    regular_sequence_verdict,
    time_left,
)
from .invariants import InvariantFamily
from .liealg import InternalError, LieAlgebraData, dual_of, index_of, is_regular_point
from .reports import fractions_json
from .shift import bigraded_components, mf_generators


@dataclass
class BiconeIdeal:
    generators: list[tuple[int, int, Poly]]  # (i, j) with j = 0..d_i, in 2n vars

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def polynomials(self) -> list[Poly]:
        return [p for _, _, p in self.generators]


def _pair_point(L: LieAlgebraData, x, y) -> list[Fraction]:
    """The point (dual of x, dual of y) of the doubled variables."""
    return dual_of(L, [Fraction(v) for v in x]) + dual_of(L, [Fraction(v) for v in y])


def _line(L: LieAlgebraData, x, y) -> list[Poly]:
    """The dual coordinates of s*x + t*y, as linear forms in (s, t)."""
    xs = dual_of(L, [Fraction(v) for v in x])
    ys = dual_of(L, [Fraction(v) for v in y])
    return [Poly.linear_form(st) for st in zip(xs, ys)]


def counting_identity(L: LieAlgebraData, fam: InvariantFamily) -> dict:
    """Exact integer bookkeeping behind the bicone dimension formula.

    With n = 2b - ell and sum(d_i) = b we get sum(d_i + 1) = b + ell and
    2n - (b + ell) = 3(b - ell); all three equalities are checked.
    """
    n = L.dim
    idx = index_of(L)
    ell, b = idx.index, idx.b
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
    return BiconeIdeal(generators=gens)


def bicone_membership(L: LieAlgebraData, fam: InvariantFamily, x, y) -> bool:
    """True iff span(x, y) lies in the nilpotent cone (x, y elements of g).

    Every invariant generator must vanish identically on the line s*x + t*y.
    That is the bicone ideal's test: p(s*x + t*y) = sum_j s^(d-j) t^j
    p^(j)(x, y), so p vanishes on the line exactly when each of its bigraded
    components vanishes at (dual x, dual y).
    """
    line = _line(L, x, y)
    return all(p.substitute(line).is_zero() for p in fam.generators)


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

    At xi = dual(e), Taylor expansion of p(y + t*xi) gives the fiber
    generators p^(j)(xi, y) = D^(d-j) p(y) / (d-j)!, j = 1..d, read off the
    shift family at xi; p^(0) is the constant p(xi), zero iff e is nilpotent.
    No shift is zero at a regular xi: by Kostant's criterion the gradients of
    the p_i at xi are independent, so D^(d-1) p_i = (d-1)! <grad p_i(xi), y>
    is nonzero, and D^j p = 0 would force D^(j+1) p = 0.  A zero shift is
    therefore an InternalError.  With k = b generators in n = 2b - ell
    variables, the verdict's n - k is the fiber's b - ell, and the fiber's
    dimension is the shift family's (None when inconclusive).
    timeout_secs bounds the whole call.
    """
    deadline = deadline_after(timeout_secs)
    xi = dual_of(L, [Fraction(v) for v in e])
    if not is_regular_point(L, xi):
        raise ValueError("base point is not regular")
    if any(p.evaluate(xi) for p in fam.generators):
        raise ValueError("base point is not nilpotent")
    mf = mf_generators(L, fam, xi)
    if mf.degenerate:
        raise InternalError(f"shifts {mf.zero_entries} vanish at a regular point (bug)")
    identity = counting_identity(L, fam)
    # generator (i, j) is shift (i, d_i - j) / (d_i - j)!; listed in (i, j) order
    fiber = [q * Fraction(1, factorial(k))
             for _, k, q in sorted(mf.entries, key=lambda entry: (entry[0], -entry[1]))]
    report = regular_sequence_verdict(
        fiber, L.dim, timeout_secs=time_left(deadline), cache_dir=cache_dir
    )
    report.zero_generators = [(i, 0) for i in range(len(fam.generators))]
    report.extra["counting_identity"] = identity
    report.extra["shift_family_dimension"] = report.ideal_dimension
    report.extra["matches_shift_family"] = report.ideal_dimension is not None
    return report


# ---------------------------------------------------------------------------
# pencil regularity: the exact certificate on the line
# ---------------------------------------------------------------------------


def pencil_regularity(L: LieAlgebraData, fam: InvariantFamily, x, y) -> bool:
    """True iff span(x, y) is 2-dimensional and all its nonzero points are
    regular.

    Sampling cannot certify this (the bad locus on the projective line is
    finite), so the test is exact: restrict the gradients of the invariant
    generators to the line s*x + t*y and form all maximal minors, binary
    forms in (s, t).  By the differential regularity criterion a non-regular
    point on the line is a common nonzero root of the minors, that is, a line
    through the origin inside their zero set in the (s, t)-plane.  So the
    pencil is regular exactly when that zero set has dimension at most 0:
    the origin alone, or empty when some minor is a nonzero constant (the
    unit ideal, dimension -1).  All minors zero leave dimension 2.
    """
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    line = _line(L, x, y)  # first: dual_of rejects a vector of the wrong length
    if linalg.rank([x, y]) != 2:
        return False
    ell = len(fam.generators)
    n = L.dim
    rows = [[unpack(q, n).substitute(line) for q in pack_gradient(p)] for p in fam.generators]
    minors = [linalg.poly_det([[rows[i][c] for c in cols] for i in range(ell)])
              for cols in itertools.combinations(range(n), ell)]
    return ideal_dimension(buchberger(minors, arity=2)) <= 0


@dataclass
class SmoothnessReport:
    sample_count: int
    results: list[dict] = field(default_factory=list)

    @property
    def disagreements(self) -> list[dict]:
        """The entries whose pencil and Jacobian verdicts differ."""
        return [e for e in self.results if e["pencil_regular"] != e["jacobian_full"]]

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

    Each sample pair (x, y) must lie in the bicone (bicone_membership, else
    ValueError).  The check compares pencil_regularity, which works on the
    line s*x + t*y, with an independent route in the doubled variables: "the
    differentials of all bicone generators at (dual x, dual y) are linearly
    independent".  Any disagreement is listed (the theory says there are
    none).
    """
    ideal = bicone_generators(L, fam)
    full_count = ideal.generator_count
    jacobian_rank = linalg.jacobian_rank_at(ideal.polynomials())
    results = []
    for x, y in samples:
        if not bicone_membership(L, fam, x, y):
            raise ValueError("sample pair is not in the bicone")
        omega = pencil_regularity(L, fam, x, y)
        rank = jacobian_rank(_pair_point(L, x, y))
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
    return SmoothnessReport(sample_count=len(results), results=results)
