"""The nilpotent bicone: pairs whose whole span is nilpotent.

The defining ideal lives in doubled variables (x-block then y-block) and is
generated by every bigraded component of every invariant generator, one more
per generator than the shift family has; only the full dimension check
builds it.  The fiber of the first projection over a regular nilpotent e is
the shift family at dual(e) up to factorials, by Taylor expansion
(bicone_fiber_check).

A single pair (x, y) is read through its line s*x + t*y, with nothing
substituted: with X and Y the integer multiples of dual x and dual y, the
family's gradient matrix is evaluated exactly at the points X + k*Y
(_LineReader), and three readings come off those values.
* Membership: a generator of degree d vanishes on the line iff it does at
  k = 0..d (bicone_membership).
* The pencil: the maximal minors of the gradient matrix on the line, binary
  forms of degree D = sum(d_i - 1), have no common zero on P^1, which is one
  rank by the Sylvester/Macaulay criterion (pencil_regularity).
* The bicone's Jacobian at (X, Y): p(X + k*Y) = sum_j k^j p^(j)(X, Y), so
  differentiating in x and in y gives sum_j k^j grad p^(j)(X, Y) =
  (grad p(X + k*Y), k * grad p(X + k*Y)).  The Vandermonde matrix of
  k = 0..d is invertible, so these d + 1 rows span what p's d + 1 component
  rows span, and full rank is sum(d_i + 1) (smoothness_crosscheck).
The readings see x and y only through the form: on an algebra whose form is
degenerate, such as a centralizer g^e, they see only its image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
from .liealg import (
    InternalError, LieAlgebraData, dual_of, index_of, integer_dual_of, is_regular_point,
)
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


class _LineReader:
    """The family's gradient matrix at the integer points X + k*Y of a line,
    and the three readings off it.

    All rest on each generator being homogeneous of its listed positive
    degree, so a family whose generator is not is an InternalError.
    """

    def __init__(self, fam: InvariantFamily):
        if len(fam.degrees) != len(fam.generators):
            raise InternalError("the family lists one degree per generator (bug)")
        for i, (p, d) in enumerate(zip(fam.generators, fam.degrees)):
            if d < 1 or not p.is_homogeneous() or p.total_degree() != d:
                raise InternalError(f"invariant generator {i} is not homogeneous of degree {d} (bug)")
        self.degrees = fam.degrees
        self.top = sum(d - 1 for d in fam.degrees)  # the degree of every maximal minor
        self.size = max(2 * self.top, 1)  # the points the pencil reads
        self.count = max(self.size, max(fam.degrees, default=0) + 1)  # the points every reading reads
        self.gradient = linalg.jacobian_at(fam.generators)

    def readings(self, L: LieAlgebraData, x, y) -> list[tuple[list, list]]:
        """(P_k, the scaled gradient matrix at P_k) for P_k = X + k*Y, k < count,
        with X, Y positive integer multiples of dual x and dual y: scaling x
        and y by positive constants leaves span(x, y) and its lines as they are."""
        X, Y = (integer_dual_of(L, v) for v in (x, y))
        points = ([a + k * b for a, b in zip(X, Y)] for k in range(self.count))
        return [(P, self.gradient(P)) for P in points]

    def vanishes(self, readings) -> bool:
        """Whether every generator vanishes on the line, read at P_k, k = 0..d.

        For p homogeneous of degree d, p(X + t*Y) is a polynomial of degree
        at most d in t whose coefficients are p's bigraded components at
        (X, Y), so it is zero iff it vanishes at t = 0..d.  The value comes
        from the gradient row by Euler's identity d * p(P) = P . grad p(P).
        """
        return all(not sum(a * g for a, g in zip(P, G[i]))
                   for i, d in enumerate(self.degrees) for P, G in readings[:d + 1])

    def regular(self, readings) -> bool:
        """The pencil verdict from the readings at P_k, k < size: a basis of
        the span of the minors' value vectors (a minor at (1, k) is an integer
        determinant of a reading, up to one constant), each vector times k^a
        for a < max(top, 1), must have rank size (pencil_regularity).
        """
        readings = readings[:self.size]
        ell, n = len(self.degrees), len(readings[0][0])
        values = [[linalg.det([[G[i][c] for c in cols] for i in range(ell)]) for _, G in readings]
                  for cols in itertools.combinations(range(n), ell)]
        products = [[k ** a * v for k, v in enumerate(row)]
                    for _, row in linalg._eliminate(values, reduced=False)
                    for a in range(max(self.top, 1))]
        return len(linalg._eliminate(products, reduced=False)) == self.size

    def jacobian_rank(self, readings) -> int:
        """The bicone ideal's Jacobian rank at (X, Y): for each generator of
        degree d, the rows (G(k), k*G(k)) at P_k, k = 0..d (module docstring)."""
        return linalg.rank([G[i] + [k * g for g in G[i]] for i, d in enumerate(self.degrees)
                            for k, (_, G) in enumerate(readings[:d + 1])])


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

    Every invariant generator must vanish identically on the line s*x + t*y,
    the bicone ideal's test (_LineReader.vanishes).  On an algebra with a
    degenerate form (a centralizer g^e) it sees only the form's image of x, y.
    """
    reader = _LineReader(fam)
    return reader.vanishes(reader.readings(L, x, y))


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
    forms f_1..f_r in (s, t) of degree D = sum(d_i - 1).  By the differential
    regularity criterion a non-regular point on the line is a common zero of
    the minors on P^1.  For D >= 1 they have none iff the products
    s^(D-1-a) t^a f_i, a < D, span all 2D forms of degree 2D - 1: a common
    zero is a zero of every product, and not of every form; with none, the
    f_i's Q-span holds a coprime pair, whose Sylvester matrix has full rank.
    For D = 0 the minors are constants and some must be nonzero.  All minors
    zero fail both.  The rank is read from integer values at 2D points of
    the line (_LineReader.regular).  The minors, like bicone_membership,
    see only the form's image of x and y.
    """
    reader = _LineReader(fam)
    readings = reader.readings(L, x, y)  # first: it rejects a vector of the wrong length
    return _independent(x, y) and reader.regular(readings)


def _independent(x, y) -> bool:
    return linalg.rank([[Fraction(v) for v in x], [Fraction(v) for v in y]]) == 2


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
    ValueError).  Two criteria for a smooth point are compared on one
    evaluation of the gradients at X + k*Y: pencil_regularity, a rank of the
    minors' products along the line, and the Jacobian rank of all
    sum(d_i + 1) bigraded components, bihomogeneous and so read at (X, Y) by
    the module docstring's identity.  They stay independent: no common zero
    of the minors on P^1, against independent gradients stacked at
    k = 0..d_i; only the theorem that the smooth points are the regular
    pencils makes them agree, and any disagreement is listed.  Like the
    other readers it sees only the form's image of x and y.
    """
    reader = _LineReader(fam)
    full_count = sum(d + 1 for d in reader.degrees)
    results = []
    for x, y in samples:
        readings = reader.readings(L, x, y)
        if not reader.vanishes(readings):
            raise ValueError("sample pair is not in the bicone")
        omega = _independent(x, y) and reader.regular(readings)
        rank = reader.jacobian_rank(readings)
        smooth = rank == full_count
        results.append({
            "x": fractions_json(map(Fraction, x)),
            "y": fractions_json(map(Fraction, y)),
            "pencil_regular": omega,
            "jacobian_rank": rank,
            "jacobian_full": smooth,
            "agree": omega == smooth,
        })
    return SmoothnessReport(sample_count=len(results), results=results)
