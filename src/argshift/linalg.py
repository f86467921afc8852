"""Exact rational linear algebra, plus the determinant of a polynomial matrix
and the rank of a Jacobian at a point.

Matrices are lists of lists of Fraction.  Everything here is deterministic:
pivots are always the first usable row/column, so kernel bases and echelon
forms are reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .exactpoly import Poly, decode, pack_gradient

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros_vector(n: int) -> Vector:
    return [Fraction(0)] * n


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """m . v, skipping the zero entries of v and of each row."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero if row[j]), Fraction(0)) for row in m]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    """Exact rank: each row scaled to integers, then fraction-free elimination."""
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return _integer_rank(scaled)


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix: a pivot row clears its pivot column from the
    other rows by cross-multiplication, and each changed row is divided by the
    gcd of its entries to keep them small; a row that cancels is dropped."""
    rows = [row for row in rows if any(row)]
    found = 0
    while rows:
        pivot = rows.pop()
        c = next(j for j, a in enumerate(pivot) if a)
        a = pivot[c]
        kept = []
        for row in rows:
            b = row[c]
            if b:
                row = [a * u - b * v for u, v in zip(row, pivot)]
                g = gcd(*row)
                if not g:
                    continue
                row = [u // g for u in row]
            kept.append(row)
        rows = kept
        found += 1
    return found


def nullspace(rows: Matrix) -> list[Vector]:
    """Basis of {v : A v = 0}, one vector per free column, ordered by column;
    A must have at least one row.

    Each basis vector has 1 in its free column and the pivot columns solved
    from the RREF; this makes the basis reproducible.
    """
    n_cols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free:
        v = zeros_vector(n_cols)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(rows: Matrix) -> Matrix:
    n = len(rows)
    aug = [list(map(Fraction, rows[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def solve_many(rows: Matrix, rhs_columns: list[Vector]) -> list[Vector] | None:
    """Solve A x = b for several right-hand sides with one elimination.

    Returns one solution per column (free variables at 0), or None if any
    system is inconsistent.
    """
    if not rows:
        return None
    n_cols = len(rows[0])
    aug = [
        list(map(Fraction, row)) + [Fraction(col[i]) for col in rhs_columns]
        for i, row in enumerate(rows)
    ]
    red, pivots = rref(aug)
    if any(p >= n_cols for p in pivots):
        return None
    sols = []
    for t in range(len(rhs_columns)):
        x = zeros_vector(n_cols)
        for r, pc in enumerate(pivots):
            x[pc] = red[r][n_cols + t]
        sols.append(x)
    return sols


def poly_det(mat: list[list[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by cofactor expansion (tiny
    matrices only: the cost grows like size!)."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = Poly.zero(mat[0][0].arity)
    for j in range(size):
        if mat[0][j].is_zero():
            continue
        sub = [[row[k] for k in range(size) if k != j] for row in mat[1:]]
        term = mat[0][j] * poly_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def jacobian_rank(gens: list[Poly], point) -> int:
    """Exact rank of the matrix (d g_i / d x_j) evaluated at the point."""
    return jacobian_rank_at(gens)(point)


def jacobian_rank_at(gens: list[Poly]) -> Callable[[list], int]:
    """The exact Jacobian rank of gens as a function of the point, for a
    caller that evaluates one generator list at many points.

    The gradients are packed once.  Row i is scaled by den_i * D^top_i (den_i
    the denominator pack_gradient gives g_i, D the point's common denominator,
    top_i the highest degree of a term of its partials), which leaves the rank
    as it is and makes every entry the integer sum of c * D^(top_i - deg) *
    prod p_k^e_k over the terms c * x^e of degree deg, p = D * point.
    """
    rows = []
    for g in gens:
        terms = [(j, c, sum(mono), [(k, e) for k, e in enumerate(mono) if e])
                 for j, (_, monos, nums) in enumerate(pack_gradient(g))
                 for mono, c in zip((decode(m, g.arity) for m in monos), nums)]
        rows.append((g.arity, max((t[2] for t in terms), default=0), terms))

    def rank_at(point) -> int:
        point = [Fraction(v) for v in point]
        if point and any(arity != len(point) for arity, _, _ in rows):
            raise ValueError("point length does not match generator arity")
        den = lcm(*(v.denominator for v in point))
        p = [v.numerator * (den // v.denominator) for v in point]
        matrix = []
        for arity, top, terms in rows:
            row = [0] * arity
            for j, c, deg, factors in terms:
                for k, e in factors:
                    c *= p[k] ** e
                row[j] += c * den ** (top - deg)
            matrix.append(row)
        return _integer_rank(matrix)

    return rank_at
