"""Output checks made apart from the program.

Each check takes a verdict's report (and the inputs it needs) and returns a
list of problems; an empty list means the output is right.  The checks use
their own exact arithmetic: a Fraction rank, pointwise Poisson brackets
evaluated term by term from polynomial coefficients, and the dimension
formulas that follow from the type of the algebra, and, for the centralizer
rows, the Krull dimension of the row's shift family from sympy's Groebner
basis.  They only read the algebra's structure constants, and for those rows
the shift family the row was built from, which are the inputs both sides
share.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction


def type_rank(L) -> int:
    """Rank of the classical algebra from its type and size."""
    kind, size = L.meta["type"], L.meta["size"]
    return {"gl": size, "sl": size - 1, "so": size // 2, "sp": size // 2}[kind]


def b_of(L) -> int:
    """b(g) = (dim + rank) / 2, the number of generators of the shift family."""
    return (L.dim + type_rank(L)) // 2


def exact_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / p[c]
                m[r] = [a - f * b for a, b in zip(m[r], p)]
        rank += 1
    return rank


def structure_matrix(L, xi) -> list[list[Fraction]]:
    """B(xi)_ij = sum_k c_ij^k xi_k."""
    n = L.dim
    B = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), comps in L.structure.items():
        v = sum((c * xi[k] for k, c in comps.items()), Fraction(0))
        B[i][j] = v
        B[j][i] = -v
    return B


def is_regular(L, xi) -> bool:
    """xi is regular iff B(xi) has the generic rank dim - rank(g)."""
    return exact_rank(structure_matrix(L, xi)) == L.dim - type_rank(L)


def check_regseq(L, xi, report) -> list[str]:
    """The theorem: the shift family is a regular sequence iff xi is regular."""
    expected = is_regular(L, xi)
    if report.verdict is not expected:
        return [f"verdict {report.verdict} ({report.status}), expected {expected}"]
    if expected and report.ideal_dimension != L.dim - b_of(L):
        return [f"ideal dimension {report.ideal_dimension}, expected {L.dim - b_of(L)}"]
    return []


# ---------------------------------------------------------------------------
# pointwise Poisson brackets
# ---------------------------------------------------------------------------


def _value_and_gradient(poly, x) -> tuple[Fraction, list[Fraction]]:
    """p(x) and its gradient at x, term by term from the coefficients."""
    n = len(x)
    grad = [Fraction(0)] * n
    value = Fraction(0)
    for mono, coeff in poly.terms.items():
        powers = [x[k] ** e if e else 1 for k, e in enumerate(mono)]
        full = coeff
        for p in powers:
            full *= p
        value += full
        for k, e in enumerate(mono):
            if e:
                rest = coeff * e * x[k] ** (e - 1)
                for kk, p in enumerate(powers):
                    if kk != k:
                        rest *= p
                grad[k] += rest
    return value, grad


def bracket_at(L, grad_f, grad_g, x) -> Fraction:
    """{f, g}(x) = sum_{i<j} (f_i g_j - f_j g_i)(x) * sum_k c_ij^k x_k."""
    total = Fraction(0)
    for (i, j), comps in L.structure.items():
        w = grad_f[i] * grad_g[j] - grad_f[j] * grad_g[i]
        if w:
            total += w * sum((c * x[k] for k, c in comps.items()), Fraction(0))
    return total


def seeded_points(n: int, seed: int):
    """Successive seeded rational points of Q^n."""
    rng = random.Random(seed)
    while True:
        yield [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]


def seeded_point(n: int, seed: int) -> list[Fraction]:
    return next(seeded_points(n, seed))


def check_commute(L, polys, report, seed: int) -> list[str]:
    """Every pair of the family brackets to zero at a seeded point."""
    problems = []
    k = len(polys)
    if not report.commutes or report.pair_count != k * (k - 1) // 2:
        problems.append(f"report says commutes={report.commutes} over {report.pair_count} pairs")
    x = seeded_point(L.dim, seed)
    grads = [_value_and_gradient(p, x)[1] for p in polys]
    for a in range(k):
        for b in range(a + 1, k):
            v = bracket_at(L, grads[a], grads[b], x)
            if v != 0:
                problems.append(f"bracket of entries {a} and {b} is {v} at the check point")
    return problems


# seeded points tried for one that separates the control bracket from zero;
# a nonzero bracket of degree d vanishes at a point with probability at most
# d/19 (Schwartz-Zippel); in the sweep's checks, at 2 first points of 900
CONTROL_POINTS = 8


def check_control_bracket(L, poly, coord: int, bracket_poly, seed: int) -> list[str]:
    """{poly, x_coord} from the program is nonzero and matches the pointwise
    value at each seeded point up to the first where that value is nonzero."""
    problems = []
    if not bracket_poly.terms:
        problems.append("control bracket is zero")
    unit = [Fraction(int(i == coord)) for i in range(L.dim)]
    points = seeded_points(L.dim, seed)
    for _ in range(CONTROL_POINTS):
        x = next(points)
        expected = bracket_at(L, _value_and_gradient(poly, x)[1], unit, x)
        got = _value_and_gradient(bracket_poly, x)[0]
        if got != expected:
            problems.append(f"control bracket evaluates to {got}, pointwise value is {expected}")
        if expected != 0:
            return problems
    problems.append(f"no seeded point of {CONTROL_POINTS} separates the control bracket from zero")
    return problems


# ---------------------------------------------------------------------------
# bicone and centralizer rows
# ---------------------------------------------------------------------------


def check_bicone_full(L, report) -> list[str]:
    ell = type_rank(L)
    want = 3 * (b_of(L) - ell)
    if report.verdict is not True or report.ideal_dimension != want:
        return [f"bicone dimension {report.ideal_dimension} (verdict {report.verdict}), expected {want}"]
    return []


def check_fiber(L, report) -> list[str]:
    want = b_of(L) - type_rank(L)
    got = (report.verdict, report.ideal_dimension, report.extra.get("shift_family_dimension"),
           report.extra.get("matches_shift_family"))
    if got != (True, want, want, True):
        return [f"fiber (verdict, dim, shift family dim, match) = {got}, expected dimension {want}"]
    return []


def check_smoothness(report, sample_count: int) -> list[str]:
    problems = []
    if report.sample_count != sample_count:
        problems.append(f"{report.sample_count} samples reported, {sample_count} given")
    kinds = set()
    for entry in report.results:
        if entry["pencil_regular"] != entry["jacobian_full"]:
            problems.append(f"pencil and Jacobian disagree at {entry['x']}, {entry['y']}")
        kinds.add(entry["pencil_regular"])
    if report.disagreements or not report.all_agree:
        problems.append("report lists disagreements")
    if kinds != {True, False}:
        problems.append(f"samples show only pencil_regular in {sorted(kinds)}")
    return problems


def dual_partition(partition) -> list[int]:
    return [sum(1 for p in partition if p > i) for i in range(max(partition))]


def krull_dimension(polys, n: int) -> int:
    """Dimension of the ideal the polynomials generate in n variables.

    The reduced grevlex basis comes from sympy, an implementation apart from
    argshift's; the dimension is the size of the largest set of variables
    that contains the support of no leading monomial.  Sympy runs in a child
    process, so that the workload's peak memory stays argshift's own.
    """
    data = {"n": n, "polys": [[[list(m), f"{c.numerator}/{c.denominator}"]
                               for m, c in p.terms.items()] for p in polys]}
    done = subprocess.run([sys.executable, os.path.abspath(__file__)], input=json.dumps(data),
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout)


def _sympy_dimension(data) -> int:
    import sympy

    n = data["n"]
    gens = sympy.symbols(f"x0:{n}")
    exprs = []
    for terms in data["polys"]:
        expr = sympy.Integer(0)
        for mono, c in terms:
            term = sympy.Rational(c)
            for x, k in zip(gens, mono):
                term *= x**k
            expr += term
        exprs.append(expr)
    basis = sympy.groebner(exprs, *gens, order="grevlex")
    supports = [frozenset(i for i, k in enumerate(sympy.Poly(g, *gens).monoms(order="grevlex")[0]) if k)
                for g in basis.exprs]
    for size in range(n, -1, -1):
        for chosen in itertools.combinations(range(n), size):
            if not any(s <= set(chosen) for s in supports):
                return size
    return 0


def check_conjecture(row, partition, n: int, family_dimension: int) -> list[str]:
    """g^e of gl_n: dim = sum of squared dual parts, index n, degree sum b(g^e).

    The verdict must be true exactly when the row's shift family cuts out
    dimension dim g^e - b(g^e), as `family_dimension` (from krull_dimension)
    says.  Unlike the reductive case, a regular point of (g^e)* need not give
    a regular sequence: for gl_4 at (3, 1), xi = (0, 0, 0, 1/9, -10, 3) is
    regular and its family cuts out dimension 2, not 1.
    """
    dim_c = sum(p * p for p in dual_partition(partition))
    b_c = (dim_c + n) // 2
    star, rep = row.star, row.report
    got = (star.centralizer_dim, star.centralizer_index, star.degree_sum, star.verdict,
           rep.verdict, rep.ideal_dimension)
    want = (dim_c, n, b_c, True, family_dimension == dim_c - b_c, family_dimension)
    if got != want:
        return [f"row {tuple(partition)}: (dim, index, degree sum, star, verdict, ideal dim) = {got}, expected {want}"]
    return []


if __name__ == "__main__":
    # the child process of krull_dimension: JSON polynomials in, dimension out
    print(_sympy_dimension(json.load(sys.stdin)))
