"""Exact rational linear algebra, an integer determinant, and a Jacobian
evaluated at a point as an integer matrix, with its rank.

A matrix is a list of rows of Fraction (int entries are accepted too).  One
fraction-free elimination (_eliminate) answers every question: each row is
scaled to coprime integers, and a pivot row clears its column from another
row by cross-multiplication, the result divided by the gcd of its entries.
Rank counts the pivots; the reduced form is the unique RREF, so kernel bases
and inverses do not depend on the choice of pivots.
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


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row stays zero)."""
    g = gcd(*row)
    return [u // g for u in row] if g > 1 else row


def _clear(row: list[int], pivot: list[int], c: int) -> list[int]:
    """row with column c cleared by the pivot row: pivot[c] * row - row[c] * pivot,
    made primitive."""
    a, b = pivot[c], row[c]
    return _primitive([a * u - b * v for u, v in zip(row, pivot)])


def _integer_rows(rows: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(rows: list[list[int]], reduced: bool) -> list[tuple[int, list[int]]]:
    """Fraction-free elimination of integer rows, each first made primitive.

    Each pivot is the last remaining row, its pivot column its first nonzero
    entry, and it clears that column from the remaining rows (a row that
    cancels is dropped).  Returns (pivot column, pivot row) pairs sorted by
    column.  With reduced, each pivot also clears its column from the earlier
    pivot rows, so dividing every row by its pivot entry gives the RREF.
    """
    rest = [row for row in map(_primitive, rows) if any(row)]
    done: list[tuple[int, list[int]]] = []
    while rest:
        pivot = rest.pop()
        c = next(j for j, a in enumerate(pivot) if a)
        rest = [row for row in (_clear(row, pivot, c) if row[c] else row for row in rest) if any(row)]
        if reduced:
            done = [(d, _clear(row, pivot, c) if row[c] else row) for d, row in done]
        done.append((c, pivot))
    return sorted(done)


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    done = _eliminate(_integer_rows(rows), reduced=True)
    red = [[Fraction(u, row[c]) for u in row] for c, row in done]
    return red + [zeros_vector(len(rows[0])) for _ in rows[len(red):]], [c for c, _ in done]


def rank(rows: Matrix) -> int:
    """Exact rank: the number of pivots of the forward elimination."""
    return len(_eliminate(_integer_rows(rows), reduced=False))


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
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: after step k every entry is a (k + 1)-minor, so each division
    by the previous pivot is exact."""
    m = [list(row) for row in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        a = m[k][k]
        for row in m[k + 1:]:
            b = row[k]
            for j in range(k + 1, size):
                row[j] = (a * row[j] - b * m[k][j]) // prev
        prev = a
    return sign * m[-1][-1] if size else 1


def jacobian_rank(gens: list[Poly], point) -> int:
    """Exact rank of the matrix (d g_i / d x_j) evaluated at the point."""
    return jacobian_rank_at(gens)(point)


def jacobian_rank_at(gens: list[Poly]) -> Callable[[list], int]:
    """The exact Jacobian rank of gens as a function of the point, for a
    caller that evaluates one generator list at many points."""
    evaluate = jacobian_at(gens)
    return lambda point: len(_eliminate(evaluate(point), reduced=False))


def jacobian_at(gens: list[Poly]) -> Callable[[list], list[list[int]]]:
    """The Jacobian of gens at a point, row i scaled to integers, as a
    function of the point.

    The gradients are packed once.  Row i is scaled by den_i * D^top_i (den_i
    the denominator pack_gradient gives g_i, D the point's common denominator,
    top_i the highest degree of a term of its partials), which leaves the rank
    as it is and makes every entry the integer sum of c * D^(top_i - deg) *
    prod p_k^e_k over the terms c * x^e of degree deg, p = D * point.  At an
    integer point D = 1, so row i is den_i times the gradient of g_i there.
    """
    rows = []
    for g in gens:
        terms = [(j, c, sum(mono), [(k, e) for k, e in enumerate(mono) if e])
                 for j, (_, monos, nums) in enumerate(pack_gradient(g))
                 for mono, c in zip((decode(m, g.arity) for m in monos), nums)]
        rows.append((g.arity, max((t[2] for t in terms), default=0), terms))

    def at(point) -> list[list[int]]:
        point = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in point]
        if any(arity != len(point) for arity, _, _ in rows):
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
        return matrix

    return at
