"""Classical reductive Lie algebras and their centralizers as exact data.

An algebra is stored by structure constants over Q together with the trace
form of its defining representation.  Every algebra but gl_n's row-major
ambient is a subalgebra read from its ambient's structure constants by one
reader (_subalgebra): a classical algebra inside gl_n, a centralizer g^e
inside g.  Brackets, adjoint maps, centralizers, principal sl2-triples and
Kostant slices are all computed exactly.  The index is certified by two
bounds that meet at a seeded point: the rank of the structure matrix there,
and the rank of the invariants' gradients there.

Coordinate convention: S(g) uses coordinates x_0..x_{n-1} dual to the chosen
basis, so a point of the dual space is a plain coordinate vector and the
linear form (u | .) attached to an element u has coordinate vector form.u
(see dual_of).  Every classical basis is ordered by descending principal
weight (build_classical): positive root vectors by height, the diagonal,
then negative root vectors, so x_{n-1} is the coordinate of the lowest root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .exactpoly import InternalError, Poly
from .reports import fractions_json

Vector = list[Fraction]

# seed and count of index_of's sample and certificate points
INDEX_SEED = 20250810
INDEX_POINTS = 5
# seeded points draw_regular_dual_point tries; regular points are dense, so running out is a bug
REGULAR_POINT_ATTEMPTS = 200


class LieAlgebraError(ValueError):
    pass


@dataclass
class LieAlgebraData:
    """Structure-constant presentation of a Lie algebra with invariant form.

    structure maps (i, j) with i < j to the sparse bracket {k: c} meaning
    [b_i, b_j] = sum c * b_k; antisymmetry is implicit.  defining holds the
    basis matrices in the defining representation: for a subalgebra, its
    ambient's matrices of its basis vectors (see _subalgebra).  The form may
    be degenerate only for type "centralizer".
    """

    dim: int
    basis_labels: list[str]
    structure: dict[tuple[int, int], dict[int, Fraction]]
    form: list[list[Fraction]]
    meta: dict
    defining: list[list[list[Fraction]]]

    # per-algebra memos: "index", "form_inverse", "structure_rows" (B(x) packed, see
    # poisson), "central" (content snapshots of polynomials whose Hamiltonian field
    # poisson found zero), "invariants", "coords" (see coords_of_matrix),
    # "integer_form" (see integer_dual_of), "defining_entries" (see matrix_of_coords)
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.structure.get((i, j), {})
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def form_inverse(self) -> list[list[Fraction]]:
        inv = self._caches.get("form_inverse")
        if inv is None:
            inv = self._caches["form_inverse"] = linalg.invert(self.form)
        return inv


@dataclass
class SL2Triple:
    e: Vector
    h: Vector
    f: Vector


@dataclass
class SliceChart:
    """Affine chart of the slice e + g^f in the dual coordinates of g^e: the
    directions v_b are dual to g^e's basis z_a, (z_a | v_b) = [a == b], and
    (e | g^e) = 0, so e + sum u_b v_b pairs with z_a to give u_a.  A
    restriction to the slice is thus already a polynomial on the dual of g^e.
    """

    centralizer: LieAlgebraData  # g^e, as centralizer(L, e) builds it
    ge_basis: list[Vector]  # its basis vectors z_a inside L
    directions: list[Vector]  # the basis v_b of g^f dual to ge_basis
    matrix: list[list[Poly]]  # matrix of e + sum u_b v_b


@dataclass
class IndexReport:
    dim: int
    index: int
    certificate_points: list[Vector]
    mode: str  # "exact" (rank bound met by the invariants' gradients) or "sampled"

    @property
    def generic_rank(self) -> int:
        return self.dim - self.index

    @property
    def b(self) -> int:
        """b(g) = (dim + index) / 2, an integer: dim - index is the rank of the skew B(x)."""
        b, odd = divmod(self.dim + self.index, 2)
        if odd:
            raise InternalError("dim + index is odd (structure matrix rank bug)")
        return b


def bracket(L: LieAlgebraData, x: Vector, y: Vector) -> Vector:
    """[x, y] = sum x_i y_j [b_i, b_j] over the nonzero entries of x and y,
    read from the structure constants (no ad x is formed)."""
    if len(x) != L.dim or len(y) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    terms = _bracket_terms(L, _nonzero(x), _nonzero(y))
    return [terms.get(k, Fraction(0)) for k in range(L.dim)]


def _nonzero(v: Vector) -> list[tuple[int, Fraction]]:
    return [(i, x) for i, x in enumerate(v) if x]


def _bracket_terms(L: LieAlgebraData, xs, ys) -> dict[int, Fraction]:
    """[x, y] as {k: coefficient}, from the nonzero entries (i, x_i) of x and
    (j, y_j) of y; a coefficient may cancel to 0."""
    out: dict[int, Fraction] = {}
    for i, a in xs:
        for j, b in ys:
            for k, c in L.bracket_basis(i, j).items():
                out[k] = out.get(k, 0) + a * b * c
    return out


def adjoint_matrix(L: LieAlgebraData, x: Vector) -> list[list[Fraction]]:
    """Matrix of ad x; column j holds [x, b_j]."""
    if len(x) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    n = L.dim
    mat = [linalg.zeros_vector(n) for _ in range(n)]
    for (i, j), comps in L.structure.items():
        if x[i]:
            for k, c in comps.items():
                mat[k][j] += x[i] * c
        if x[j]:
            for k, c in comps.items():
                mat[k][i] -= x[j] * c
    return mat


def dual_of(L: LieAlgebraData, v: Vector) -> Vector:
    """Coordinates of the linear form (v | .) on the dual space: form . v."""
    if len(v) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    return linalg.mat_vec(L.form, v)


def integer_dual_of(L: LieAlgebraData, v: Vector) -> list[int]:
    """A positive integer multiple of dual_of(L, v): the form, cleared of its
    denominators (once per algebra), times v cleared of its own."""
    if len(v) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    form = L._caches.get("integer_form")
    if form is None:  # its rows, as (column, entry) pairs of the nonzero entries
        den = lcm(*(c.denominator for row in L.form for c in row))
        form = L._caches["integer_form"] = [
            [(j, c.numerator * (den // c.denominator)) for j, c in enumerate(row) if c]
            for row in L.form]
    (w,) = linalg._integer_rows([[Fraction(c) for c in v]])
    return [sum(c * w[j] for j, c in row) for row in form]


# ---------------------------------------------------------------------------
# construction of the classical algebras
# ---------------------------------------------------------------------------


def _mat_zero(m: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * m for _ in range(m)]


def _flatten(mat) -> Vector:
    return [x for row in mat for x in row]


def _unit(m: int, i: int) -> Vector:
    v = linalg.zeros_vector(m)
    v[i] = Fraction(1)
    return v


def _gl_ambient(n: int) -> LieAlgebraData:
    """gl_n on the row-major basis E_ab (coordinate a*n + b), from the rules
    [E_ab, E_cd] = [b == c] E_ad - [d == a] E_cb and tr(E_ab E_cd) =
    [b == c][a == d]; the ambient algebra of every classical one, not
    validated."""
    m = n * n
    pairs = [divmod(i, n) for i in range(m)]
    structure = {}
    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, m):
            c, d = pairs[j]
            comps = {}
            if b == c:
                comps[a * n + d] = Fraction(1)
            if d == a:  # c * n + b differs from a * n + d, as i != j
                comps[c * n + b] = Fraction(-1)
            if comps:
                structure[(i, j)] = comps
    return LieAlgebraData(dim=m, basis_labels=[f"E{a + 1}{b + 1}" for a, b in pairs],
                          structure=structure, form=[_unit(m, b * n + a) for a, b in pairs],
                          meta={"type": "gl", "size": n, "rank": n},
                          defining=[[_unit(n, b) if p == a else linalg.zeros_vector(n)
                                     for p in range(n)] for a, b in pairs])


def _subalgebra(A: LieAlgebraData, vectors: list[Vector], labels: list[str],
                meta: dict) -> LieAlgebraData:
    """The span of vectors inside A, read from A's structure constants.

    The column c_k of v_k is the first column where v_k is 1 and no later
    vector is nonzero; a vector without one is an InternalError.  Then a
    vector of the span has coordinate k equal to its entry at c_k once
    sum_{l<k} (coordinate l) v_l is subtracted, so one forward pass over the
    columns of [v_i, v_j] (formed over the nonzero entries of both) reads
    c_ij^k and subtracts c_ij^k v_k; what is left must be zero, else
    InternalError.  The form is (v_i | v_j) and the defining matrices are A's
    matrices of the v_k.
    """
    sparse = [_nonzero(v) for v in vectors]
    cols, later = [], set()
    for k in reversed(range(len(vectors))):
        c = next((c for c, x in sparse[k] if x == 1 and c not in later), None)
        if c is None:
            raise InternalError(f"vector {k} has no column of its own (bug)")
        cols.append(c)
        later.update(c for c, _ in sparse[k])
    cols.reverse()
    structure = {}
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            br = _bracket_terms(A, sparse[i], sparse[j])
            comps = {}
            for k, c in enumerate(cols):
                x = br.get(c)
                if x:
                    comps[k] = x
                    for a, y in sparse[k]:
                        br[a] = br.get(a, 0) - x * y
            if any(br.values()):
                raise InternalError("span is not closed under bracket (bug)")
            if comps:
                structure[(i, j)] = comps
    return LieAlgebraData(dim=len(vectors), basis_labels=labels, structure=structure,
                          form=_pairings(A, vectors, vectors), meta=meta,
                          defining=[matrix_of_coords(A, v) for v in vectors])


def _gl_basis(n: int) -> tuple[list[Vector], list[str]]:
    return ([_unit(n * n, i) for i in range(n * n)],
            [f"E{a}{b}" for a in range(1, n + 1) for b in range(1, n + 1)])


def _sl_basis(n: int) -> tuple[list[Vector], list[str]]:
    """Root vectors E_ab above the diagonal, H_i = E_ii - E_{i+1,i+1}, then
    root vectors below it, in gl_n's coordinates."""
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    lower = [(a, b) for b in range(n) for a in range(b + 1, n)]
    diagonal = []
    for i in range(n - 1):
        h = _unit(n * n, i * (n + 1))
        h[(i + 1) * (n + 1)] = Fraction(-1)
        diagonal.append(h)
    return ([_unit(n * n, a * n + b) for a, b in upper] + diagonal
            + [_unit(n * n, a * n + b) for a, b in lower],
            [f"E{a + 1}{b + 1}" for a, b in upper] + [f"H{i}" for i in range(1, n)]
            + [f"E{a + 1}{b + 1}" for a, b in lower])


def _gram_so(n: int):
    g = _mat_zero(n)
    for i in range(n):
        g[i][n - 1 - i] = Fraction(1)
    return g


def _gram_sp(n: int):
    g = _mat_zero(n)
    m = n // 2
    for i in range(n):
        g[i][n - 1 - i] = Fraction(1) if i < m else Fraction(-1)
    return g


def _matrix_condition_basis(n: int, gram) -> list[Vector]:
    """Basis of {x : x^T G + G x = 0} by exact elimination, pivot-ordered, in
    gl_n's coordinates (x[p][q] at p * n + q)."""
    rows = []
    for a in range(n):
        for b in range(n):
            # coefficient of x[p][q] in (x^T G + G x)[a][b] is
            # G[p][b]*[q == a] + G[a][p]*[q == b]
            row = [Fraction(0)] * (n * n)
            for p in range(n):
                row[p * n + a] += gram[p][b]
                row[p * n + b] += gram[a][p]
            rows.append(row)
    return linalg.nullspace(rows)


def _principal_weight_order(n: int, vectors: list[Vector]) -> list[int]:
    """Positions of vectors in gl_n's coordinates sorted by (-principal
    weight, position).

    A vector whose nonzero entries all sit at columns a * n + b with b - a = w
    is an ad h eigenvector of weight 2w for h = diag(n-1, n-3, ..., 1-n), the
    h of principal_sl2 for gl, sl, sp and odd so.  For even so the key is the
    grading by that same diagonal, which is not a principal h there.  A
    vector mixing two values of b - a is not a weight vector and raises
    InternalError.
    """
    weights = []
    for i, v in enumerate(vectors):
        found = {c % n - c // n for c, _ in _nonzero(v)}
        if len(found) != 1:
            raise InternalError(f"basis vector {i} is not a principal weight vector (bug)")
        weights.append(found.pop())
    return sorted(range(len(vectors)), key=lambda i: (-weights[i], i))


def build_classical(kind: str, size: int) -> LieAlgebraData:
    """Construct gl_n, sl_n, so_n or sp_n (split form, trace form) as the
    span of its basis inside gl_n (_subalgebra of _gl_ambient).

    The basis is ordered by descending principal weight: positive root
    vectors by height, then the diagonal, then negative root vectors (ties
    keep the construction order).  For even so, which has no principal
    triple here, the weight is the grading by diag(n-1, ..., 1-n).  Degrevlex on the dual coordinates then
    treats the negative root coordinates as the smallest variables, the order
    under which the exact engine's bicone and shift ideals stay small.
    All structure invariants (antisymmetry, Jacobi, form symmetry/invariance
    and nondegeneracy) are verified exactly; a failure aborts construction.
    """
    labels = None
    if kind == "gl":
        if size < 1:
            raise LieAlgebraError("gl size must be >= 1")
        vectors, labels = _gl_basis(size)
        meta = {"type": "gl", "size": size, "rank": size}
    elif kind == "sl":
        if size < 2:
            raise LieAlgebraError("sl size must be >= 2")
        vectors, labels = _sl_basis(size)
        meta = {"type": "sl", "size": size, "rank": size - 1}
    elif kind == "so":
        if size < 3:
            raise LieAlgebraError("so size must be >= 3")
        vectors = _matrix_condition_basis(size, _gram_so(size))
        meta = {"type": "so", "size": size, "rank": size // 2}
    elif kind == "sp":
        if size < 2 or size % 2:
            raise LieAlgebraError("sp size must be even and >= 2")
        vectors = _matrix_condition_basis(size, _gram_sp(size))
        meta = {"type": "sp", "size": size, "rank": size // 2}
    else:
        raise LieAlgebraError(f"unsupported type {kind!r}")
    order = _principal_weight_order(size, vectors)
    vectors = [vectors[i] for i in order]
    labels = [f"b{k}" for k in range(len(vectors))] if labels is None else [labels[i] for i in order]
    L = _subalgebra(_gl_ambient(size), vectors, labels, meta)
    validate(L)
    return L


def validate(L: LieAlgebraData) -> None:
    """Exact checks: Jacobi, form symmetry and invariance, nondegeneracy."""
    n = L.dim
    br = L.bracket_basis
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # sum over the cyclic terms of [[b_a, b_b], b_c] = sum_m c_ab^m [b_m, b_c]
                acc: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in br(a, b).items():
                        for p, cp in br(m, c).items():
                            acc[p] = acc.get(p, 0) + cm * cp
                if any(acc.values()):
                    raise LieAlgebraError(f"Jacobi identity fails on basis triple {(i, j, k)}")
    for i in range(n):
        for j in range(n):
            if L.form[i][j] != L.form[j][i]:
                raise LieAlgebraError("form is not symmetric")
    # the form being symmetric (checked above), invariance is t[j][k] = -t[k][j]
    # for t[j][k] = ([b_i, b_j] | b_k), summed over the nonzero c_ij^a and form[a][k]
    form_rows = [[(k, f) for k, f in enumerate(row) if f] for row in L.form]
    for i in range(n):
        t: dict[tuple[int, int], Fraction] = {}
        for j in range(n):
            for a, c in br(i, j).items():
                for k, f in form_rows[a]:
                    t[j, k] = t.get((j, k), 0) + c * f
        if any(v + t.get((k, j), 0) for (j, k), v in t.items()):
            raise LieAlgebraError("form is not invariant")
    if linalg.rank(L.form) != n:
        raise LieAlgebraError("form is degenerate")


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def centralizer(L: LieAlgebraData, e: Vector) -> tuple[LieAlgebraData, list[Vector]]:
    """The subalgebra ker(ad e): _subalgebra of L on the reduced row-echelon
    kernel basis z_k, ordered by pivot.  z_k is 1 at its free column and every
    other kernel vector is 0 there, so each z_k has a column.

    Returns (algebra, embedding) where embedding is the list of basis vectors
    of the centralizer inside L.  For e = 0 this is L itself with the
    identity embedding.
    """
    if len(e) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    if not any(e):
        return L, [_unit(L.dim, i) for i in range(L.dim)]
    kernel = linalg.nullspace(adjoint_matrix(L, e))
    meta = {"type": "centralizer", "parent_type": L.meta.get("type"),
            "parent_size": L.meta.get("size"), "rank": None}
    return _subalgebra(L, kernel, [f"z{i}" for i in range(len(kernel))], meta), kernel


def _pairings(L: LieAlgebraData, us: list[Vector], ws: list[Vector]) -> list[list[Fraction]]:
    """(u | w) = u^T form w for u in us (rows) and w in ws (columns), summed
    over the nonzero entries of u, the form and w only."""
    form_rows = [_nonzero(row) for row in L.form]
    by_column: dict[int, list[tuple[int, Fraction]]] = {}  # j: the (b, ws[b][j]) that are nonzero
    for b, w in enumerate(ws):
        for j, y in _nonzero(w):
            by_column.setdefault(j, []).append((b, y))
    out = []
    for u in us:
        d: dict[int, Fraction] = {}  # u^T form
        for i, x in _nonzero(u):
            for k, f in form_rows[i]:
                d[k] = d.get(k, 0) + x * f
        row = linalg.zeros_vector(len(ws))
        for j, dj in d.items():
            for b, y in by_column.get(j, ()):
                row[b] += dj * y
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# index and regularity
# ---------------------------------------------------------------------------


def structure_matrix_at(L: LieAlgebraData, xi: Vector) -> list[list[Fraction]]:
    n = L.dim
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), comps in L.structure.items():
        v = sum((c * xi[k] for k, c in comps.items()), Fraction(0))
        mat[i][j] = v
        mat[j][i] = -v
    return mat


def _seeded_points(n: int, seed: int, count: int):
    """count seeded points with entries uniform in {-10..10}/{1..10}."""
    rng = random.Random(seed)
    for _ in range(count):
        yield [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]


def index_of(L: LieAlgebraData, invariants: list[Poly] | None = None) -> IndexReport:
    """Index = dim - generic rank of the structure matrix B(x).

    rank B(pt) bounds the generic rank from below at any point.  Every
    invariant p has B(x) grad p = 0 (checked exactly here), so if the
    gradients of the invariants have rank l at pt, they are independent over
    Q(x) and the generic rank is at most dim - l.  The first seeded point
    where the two bounds meet proves the index: mode "exact".  Without such a
    point the index is dim minus the largest rank over the INDEX_POINTS
    points: mode "sampled".

    invariants default to the power traces (gl, sl, odd so, sp); a
    centralizer has none unless the caller passes a family on its dual, such
    as the slice restrictions of g's invariants.
    A call without invariants returns the memoized report; a call that
    brings invariants always checks and certifies with them, and its report
    replaces the memo unless that would trade an "exact" one for "sampled".
    """
    cached = L._caches.get("index")
    if cached is not None and invariants is None:
        return cached
    from .invariants import invariant_generators, verify_invariance  # it imports liealg

    if invariants is None:
        try:
            invariants = invariant_generators(L).generators
        except LieAlgebraError:  # centralizers and even so: no power-trace family
            invariants = []
    for p in invariants:
        if not verify_invariance(L, p):
            raise InternalError("an invariant passed to index_of is not Poisson-central (bug)")
    n = L.dim
    points = list(_seeded_points(n, INDEX_SEED, INDEX_POINTS))
    jacobian = linalg.jacobian_at(invariants)
    ranks = []
    for pt in points:
        r = linalg.rank(structure_matrix_at(L, pt))
        ranks.append(r)
        if n - r == linalg.rank(jacobian(pt)):
            report = IndexReport(n, n - r, [pt], "exact")
            break
    else:
        report = IndexReport(n, n - max(ranks), points, "sampled")
    if cached is None or report.mode == "exact":
        L._caches["index"] = report
    return report


def is_regular_point(L: LieAlgebraData, xi: Vector) -> bool:
    """True iff the stabilizer of the dual point xi has minimal dimension."""
    if len(xi) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    return linalg.rank(structure_matrix_at(L, xi)) == index_of(L).generic_rank


def draw_regular_dual_point(L: LieAlgebraData, seed: int) -> tuple[Vector, int]:
    """Seeded random regular point of the dual space.

    Entries are uniform in {-10..10}/{1..10}; regularity is re-checked
    exactly.  Returns (point, attempts).  Used by the CLI and the centralizer
    experiments so that both share one reproducible drawing procedure.
    """
    for attempt, xi in enumerate(_seeded_points(L.dim, seed, REGULAR_POINT_ATTEMPTS), start=1):
        if is_regular_point(L, xi):
            return xi, attempt
    raise InternalError(f"no regular point found in {REGULAR_POINT_ATTEMPTS} attempts (index bug?)")


# ---------------------------------------------------------------------------
# sl2-triples and Kostant slices
# ---------------------------------------------------------------------------


def jordan_blocks(mat) -> tuple[int, ...]:
    """Block sizes of a matrix read along its superdiagonal: each run of
    nonzero superdiagonal entries joins one block, every other entry is
    ignored."""
    blocks = [1]
    for i in range(len(mat) - 1):
        if mat[i][i + 1]:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return tuple(blocks)


def _superdiagonal_triple(L: LieAlgebraData, e) -> SL2Triple:
    """The sl2-triple through e, a defining-representation matrix whose only
    nonzero entries are +-1 on the superdiagonal, not verified.

    Per block of size p (see jordan_blocks): h = diag(p-1, p-3, ..., 1-p) and
    f_{i+1,i} = e_{i,i+1} * i(p-i), i = 1..p-1 (Kostant's principal triple of
    one Jordan block).  coords_of_matrix checks that e, h, f lie in L.
    """
    h, f = _mat_zero(len(e)), _mat_zero(len(e))
    offset = 0
    for part in jordan_blocks(e):
        for i in range(part):
            a = offset + i
            h[a][a] = Fraction(part - 1 - 2 * i)
            if i + 1 < part:
                f[a + 1][a] = e[a][a + 1] * (i + 1) * (part - 1 - i)
        offset += part
    return SL2Triple(*(coords_of_matrix(L, mat) for mat in (e, h, f)))


def jordan_triple(L: LieAlgebraData, partition) -> SL2Triple:
    """The blockwise triple of gl_n or sl_n through the Jordan nilpotent of
    the partition (parts summing to n, one all-ones block per part), not
    verified."""
    e = _mat_zero(L.meta["size"])
    offset = 0
    for part in partition:
        for i in range(offset, offset + part - 1):
            e[i][i + 1] = Fraction(1)
        offset += part
    return _superdiagonal_triple(L, e)


def coords_of_matrix(L: LieAlgebraData, mat) -> Vector:
    """Coordinates of a defining-representation matrix in the chosen basis.

    The defining matrices are independent, so dim of their entries (the
    pivots of one elimination) fix the coordinates through the inverse of
    that block, memoized per algebra; rebuilding the matrix checks that it
    lies in the algebra.  Fewer pivots than basis matrices raise
    InternalError.
    """
    solver = L._caches.get("coords")
    if solver is None:
        flat = [_flatten(m) for m in L.defining]
        pivots = linalg.rref(flat)[1]
        if len(pivots) < len(flat):
            raise InternalError("the defining matrices are dependent (bug)")
        block_inv = linalg.invert([[row[p] for row in flat] for p in pivots])
        solver = L._caches["coords"] = [[(p, c) for p, c in zip(pivots, row) if c]
                                        for row in block_inv]
    entries = {p: x for p, x in enumerate(_flatten(mat)) if x}
    v = [sum((c * entries[p] for p, c in row if p in entries), Fraction(0)) for row in solver]
    if matrix_of_coords(L, v) != mat:
        raise LieAlgebraError("matrix does not lie in the algebra")
    return v


def matrix_of_coords(L: LieAlgebraData, v: Vector):
    """Defining-representation matrix of an element given by coordinates,
    summed over the nonzero entries of v and of the basis matrices."""
    out = _mat_zero(len(L.defining[0]))
    for coef, entries in zip(v, _defining_entries(L)):
        if coef:
            coef = Fraction(coef)
            for a, b, x in entries:
                out[a][b] += coef * x
    return out


def _defining_entries(L: LieAlgebraData) -> list[list[tuple[int, int, Fraction]]]:
    """The nonzero entries (row, column, value) of each defining matrix,
    memoized per algebra."""
    entries = L._caches.get("defining_entries")
    if entries is None:
        entries = L._caches["defining_entries"] = [
            [(a, b, x) for a, row in enumerate(mat) for b, x in enumerate(row) if x]
            for mat in L.defining]
    return entries


def verify_sl2(L: LieAlgebraData, t: SL2Triple) -> None:
    if bracket(L, t.h, t.e) != [2 * x for x in t.e]:
        raise LieAlgebraError("[h,e] != 2e")
    if bracket(L, t.h, t.f) != [-2 * x for x in t.f]:
        raise LieAlgebraError("[h,f] != -2f")
    if bracket(L, t.e, t.f) != t.h:
        raise LieAlgebraError("[e,f] != h")


def principal_sl2(L: LieAlgebraData) -> SL2Triple:
    """Principal sl2-triple (e regular nilpotent), verified exactly.

    e is one Jordan block: +1 along the superdiagonal for gl and sl; for so
    (odd size) and sp, +1 on its first size // 2 entries and -1 after, so that
    e preserves the form (_gram_so, _gram_sp).
    """
    kind, n = L.meta.get("type"), L.meta.get("size")
    if kind not in ("gl", "sl", "so", "sp"):
        raise LieAlgebraError(f"no principal triple for type {kind!r}")
    if kind == "so" and n % 2 == 0:
        raise LieAlgebraError("principal triple for even so is not supported")
    plus = n - 1 if kind in ("gl", "sl") else n // 2
    e = _mat_zero(n)
    for i in range(n - 1):
        e[i][i + 1] = Fraction(1 if i < plus else -1)
    t = _superdiagonal_triple(L, e)
    verify_sl2(L, t)
    if not is_regular_point(L, dual_of(L, t.e)):
        raise InternalError("principal nilpotent is not regular (bug)")
    return t


def affine_matrix(L: LieAlgebraData, base: Vector, directions: list[Vector]) -> list[list[Poly]]:
    """Defining matrix of base + sum_b u_b directions[b]: each entry an affine
    polynomial in u_0..u_{m-1}, m = len(directions), its term map built
    directly from the nonzero entries of the defining matrices (linear terms
    by variable, then the constant)."""
    m = len(directions)
    units = [tuple(int(k == b) for k in range(m)) for b in range(m)]
    basis = _defining_entries(L)
    size = len(L.defining[0])
    terms: list[list[dict]] = [[{} for _ in range(size)] for _ in range(size)]
    for unit, v in [*zip(units, directions), ((0,) * m, base)]:
        for coef, entries in zip(v, basis):
            if coef:
                for a, b, x in entries:
                    t = terms[a][b]
                    t[unit] = t.get(unit, 0) + coef * x
    return [[Poly(m, t) for t in row] for row in terms]


def kostant_slice(L: LieAlgebraData, t: SL2Triple) -> SliceChart:
    """Chart of e + g^f attached to the triple t (verified here).

    g^e comes from centralizer(L, t.e), g^f from the kernel of ad f.  The
    pairing Gram matrix between them must be invertible (the slice is
    transversal); its inverse turns ker(ad f) into the basis dual to g^e's.
    The Gram matrix and the directions are formed over nonzero entries, and
    the chart's matrix by affine_matrix.  For the zero triple the slice is
    all of g and the chart's matrix is the generic dual matrix.
    """
    verify_sl2(L, t)
    Lc, ge_basis = centralizer(L, t.e)
    kernel = linalg.nullspace(adjoint_matrix(L, t.f))
    if len(kernel) != len(ge_basis):
        raise InternalError("dim g^f != dim g^e (bug)")
    try:
        gram_inv = linalg.invert(_pairings(L, ge_basis, kernel))
    except ValueError:
        raise LieAlgebraError("degenerate g^e x g^f pairing: form is not invariant") from None
    # v_b = sum_c kernel[c] * gram_inv[c][b], so (z_a | v_b) = (gram . gram_inv)[a][b]
    directions = [linalg.zeros_vector(L.dim) for _ in kernel]
    for row, w in zip(gram_inv, kernel):
        for v, g in zip(directions, row):
            if g:
                for j, x in _nonzero(w):
                    v[j] += g * x
    return SliceChart(Lc, ge_basis, directions, affine_matrix(L, t.e, directions))


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def algebra_to_json_dict(L: LieAlgebraData) -> dict:
    triplets = []
    for (i, j) in sorted(L.structure):
        for k in sorted(L.structure[(i, j)]):
            c = L.structure[(i, j)][k]
            triplets.append([i, j, k, c.numerator, c.denominator])
    return {
        "dim": L.dim,
        "labels": list(L.basis_labels),
        "structure": triplets,
        "form": [fractions_json(row) for row in L.form],
        "meta": dict(L.meta),
    }
