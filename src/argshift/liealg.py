"""Classical reductive Lie algebras and their centralizers as exact data.

An algebra is stored by structure constants over Q together with the trace
form of its defining representation.  Brackets, adjoint maps, centralizers,
principal sl2-triples and Kostant slices are all computed exactly.  The index
is certified by two bounds that meet at a seeded point: the rank of the
structure matrix there, and the rank of the invariants' gradients there.

Coordinate convention: S(g) uses coordinates x_0..x_{n-1} dual to the chosen
basis, so a point of the dual space is a plain coordinate vector and the
linear form (u | .) attached to an element u has coordinate vector form.u
(see dual_of).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

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
    basis matrices (see _from_matrices), for a centralizer the parent's
    matrices of its basis vectors.  The form may be degenerate only for type
    "centralizer".
    """

    dim: int
    basis_labels: list[str]
    structure: dict[tuple[int, int], dict[int, Fraction]]
    form: list[list[Fraction]]
    meta: dict = field(default_factory=dict)
    defining: list[list[list[Fraction]]] | None = None

    # per-algebra memos: "index", "form_inverse", "structure_rows" (B(x) packed, see
    # poisson), "invariants", "coords" (see coords_of_matrix)
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
    """Affine chart of the slice e + g^f: the g^e/g^f pairing data and the
    substitutions images (x = dual(e + sum t_k v_k), v_k the directions) and
    transport (t = Gram^-1 u, u the dual coordinates of g^e, as u = Gram . t).
    """

    directions: list[Vector]  # basis of g^f
    ge_basis: list[Vector]  # basis of g^e, rows of the pairing Gram matrix
    pairing_gram: list[list[Fraction]]  # gram[a][b] = (ge_basis[a] | directions[b])
    images: list[Poly]  # one per dual coordinate x_j, in t_0..t_{m-1}
    transport: list[Poly]  # one per slice coordinate t_b, in u_0..u_{m-1}


@dataclass
class IndexReport:
    dim: int
    generic_rank: int
    index: int
    certificate_points: list[Vector]
    mode: str  # "exact" (rank bound met by the invariants' gradients) or "sampled"


def bracket(L: LieAlgebraData, x: Vector, y: Vector) -> Vector:
    """[x, y] from the structure constants."""
    if len(x) != L.dim or len(y) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    out = linalg.zeros_vector(L.dim)
    for (i, j), comps in L.structure.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            for k, c in comps.items():
                out[k] += coef * c
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


# ---------------------------------------------------------------------------
# construction of the classical algebras
# ---------------------------------------------------------------------------


def _mat_zero(m: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * m for _ in range(m)]


def _E(m: int, a: int, b: int) -> list[list[Fraction]]:
    """Elementary matrix (1-based indices)."""
    out = _mat_zero(m)
    out[a - 1][b - 1] = Fraction(1)
    return out


def _mat_mul(a, b):
    """Matrix product that skips the zero entries of both factors."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for row, a_row in zip(out, a):
        for k, x in enumerate(a_row):
            if x:
                for j, y in b_rows[k]:
                    row[j] += x * y
    return out


def _mat_commutator(a, b):
    ab = _mat_mul(a, b)
    ba = _mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def _mat_trace_pairing(a, b) -> Fraction:
    """tr(ab), skipping the zero entries of both factors."""
    return sum((x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row)
                if x and b[j][i]), Fraction(0))


def _flatten(mat) -> Vector:
    return [x for row in mat for x in row]


def _from_matrices(
    mats: list[list[list[Fraction]]], labels: list[str], meta: dict
) -> LieAlgebraData:
    """The span of independent basis matrices: structure constants from one
    elimination that solves every commutator [b_i, b_j], i < j, in the
    flattened basis, and the trace form.  Raises LieAlgebraError if some
    commutator leaves the span."""
    n = len(mats)
    rows = [list(r) for r in zip(*(_flatten(m) for m in mats))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commutators = [_flatten(_mat_commutator(mats[i], mats[j])) for i, j in pairs]
    sols = linalg.solve_many(rows, commutators) if pairs else []
    if sols is None:
        raise LieAlgebraError("basis does not close under the bracket")
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pair, sol in zip(pairs, sols):
        comps = {k: c for k, c in enumerate(sol) if c != 0}
        if comps:
            structure[pair] = comps
    form = [[_mat_trace_pairing(mats[i], mats[j]) for j in range(n)] for i in range(n)]
    return LieAlgebraData(
        dim=n,
        basis_labels=labels,
        structure=structure,
        form=form,
        meta=meta,
        defining=mats,
    )


def _gl_basis(n: int):
    mats, labels = [], []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            mats.append(_E(n, a, b))
            labels.append(f"E{a}{b}")
    return mats, labels


def _sl_basis(n: int):
    mats, labels = [], []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            mats.append(_E(n, a, b))
            labels.append(f"E{a}{b}")
    for i in range(1, n):
        h = _E(n, i, i)
        h[i][i] = Fraction(-1)
        mats.append(h)
        labels.append(f"H{i}")
    for b in range(1, n + 1):
        for a in range(b + 1, n + 1):
            mats.append(_E(n, a, b))
            labels.append(f"E{a}{b}")
    return mats, labels


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


def _matrix_condition_basis(n: int, gram) -> list[list[list[Fraction]]]:
    """Basis of {x : x^T G + G x = 0} by exact elimination, pivot-ordered."""
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
    kernel = linalg.nullspace(rows, n * n)
    return [[[v[i * n + j] for j in range(n)] for i in range(n)] for v in kernel]


def build_classical(kind: str, size: int) -> LieAlgebraData:
    """Construct gl_n, sl_n, so_n or sp_n (split form, trace form).

    All structure invariants (antisymmetry, Jacobi, form symmetry/invariance
    and nondegeneracy) are verified exactly; a failure aborts construction.
    """
    if kind == "gl":
        if size < 1:
            raise LieAlgebraError("gl size must be >= 1")
        mats, labels = _gl_basis(size)
        meta = {"type": "gl", "size": size, "rank": size}
    elif kind == "sl":
        if size < 2:
            raise LieAlgebraError("sl size must be >= 2")
        mats, labels = _sl_basis(size)
        meta = {"type": "sl", "size": size, "rank": size - 1}
    elif kind == "so":
        if size < 3:
            raise LieAlgebraError("so size must be >= 3")
        mats = _matrix_condition_basis(size, _gram_so(size))
        labels = [f"b{i}" for i in range(len(mats))]
        meta = {"type": "so", "size": size, "rank": size // 2}
    elif kind == "sp":
        if size < 2 or size % 2:
            raise LieAlgebraError("sp size must be even and >= 2")
        mats = _matrix_condition_basis(size, _gram_sp(size))
        labels = [f"b{i}" for i in range(len(mats))]
        meta = {"type": "sp", "size": size, "rank": size // 2}
    else:
        raise LieAlgebraError(f"unsupported type {kind!r}")
    L = _from_matrices(mats, labels, meta)
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
    for i in range(n):
        # t[j][k] = ([b_i, b_j] | b_k)
        t = [[sum((c * L.form[a][k] for a, c in br(i, j).items()), Fraction(0)) for k in range(n)]
             for j in range(n)]
        if any(t[j][k] + t[k][j] for j in range(n) for k in range(j, n)):
            raise LieAlgebraError("form is not invariant")
    if linalg.rank(L.form) != n:
        raise LieAlgebraError("form is degenerate")


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def centralizer(L: LieAlgebraData, e: Vector) -> tuple[LieAlgebraData, list[Vector]]:
    """The subalgebra ker(ad e), built by _from_matrices from the defining
    matrices of its basis vectors: L's form is the trace form of its faithful
    defining representation, so the induced constants and form are L's.

    Returns (algebra, embedding) where embedding is the list of basis vectors
    of the centralizer inside L (reduced row-echelon kernel basis, ordered by
    pivot).  For e = 0 this is L itself with the identity embedding.
    """
    if len(e) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    if not any(e):
        return L, [[Fraction(int(i == j)) for j in range(L.dim)] for i in range(L.dim)]
    kernel = linalg.nullspace(adjoint_matrix(L, e))
    mats = [matrix_of_coords(L, v) for v in kernel]
    meta = {"type": "centralizer", "parent_type": L.meta.get("type"),
            "parent_size": L.meta.get("size"), "rank": None}
    try:
        return _from_matrices(mats, [f"z{i}" for i in range(len(mats))], meta), kernel
    except LieAlgebraError:
        raise InternalError("centralizer is not closed under bracket (bug)") from None


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
    centralizer has none unless the caller passes the transported family.
    An "exact" report is memoized for good, a "sampled" one is recomputed
    when a call brings invariants.
    """
    cached = L._caches.get("index")
    if cached is not None and (cached.mode == "exact" or invariants is None):
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
    ranks = []
    for pt in points:
        r = linalg.rank(structure_matrix_at(L, pt))
        ranks.append(r)
        if n - r == linalg.jacobian_rank(invariants, pt):
            report = IndexReport(n, r, n - r, [pt], "exact")
            break
    else:
        r = max(ranks)
        report = IndexReport(n, r, n - r, points, "sampled")
    L._caches["index"] = report
    return report


def is_regular_point(L: LieAlgebraData, xi: Vector) -> bool:
    """True iff the stabilizer of the dual point xi has minimal dimension."""
    if len(xi) != L.dim:
        raise LieAlgebraError("vector length mismatch")
    report = index_of(L)
    return linalg.rank(structure_matrix_at(L, xi)) == L.dim - report.index


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
    lies in the algebra.
    """
    if L.defining is None:
        raise LieAlgebraError("algebra lacks defining matrices")
    solver = L._caches.get("coords")
    if solver is None:
        flat = [_flatten(m) for m in L.defining]
        pivots = linalg.rref(flat)[1]
        block_inv = linalg.invert([[row[p] for row in flat] for p in pivots])
        solver = L._caches["coords"] = [[(p, c) for p, c in zip(pivots, row) if c]
                                        for row in block_inv]
    entries = _flatten(mat)
    v = [sum((c * entries[p] for p, c in row), Fraction(0)) for row in solver]
    if matrix_of_coords(L, v) != mat:
        raise LieAlgebraError("matrix does not lie in the algebra")
    return v


def matrix_of_coords(L: LieAlgebraData, v: Vector):
    """Defining-representation matrix of an element given by coordinates."""
    if L.defining is None:
        raise LieAlgebraError("algebra lacks defining matrices")
    m = len(L.defining[0])
    out = _mat_zero(m)
    for coef, bm in zip(v, L.defining):
        if coef:
            for a in range(m):
                for b in range(m):
                    out[a][b] += Fraction(coef) * bm[a][b]
    return out


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


def kostant_slice(L: LieAlgebraData, t: SL2Triple) -> SliceChart:
    """Chart of e + g^f attached to the triple t (verified here).

    The pairing Gram matrix between g^e and g^f must be invertible; this is
    the nondegeneracy that makes the slice transversal.  For the zero triple
    the slice is all of g: the directions are the standard basis and the
    Gram matrix is the form.
    """
    verify_sl2(L, t)
    directions = linalg.nullspace(adjoint_matrix(L, t.f))
    ge_basis = linalg.nullspace(adjoint_matrix(L, t.e))
    if len(directions) != len(ge_basis):
        raise InternalError("dim g^f != dim g^e (bug)")
    dual_dirs = [dual_of(L, v) for v in directions]
    gram = [[sum((a * b for a, b in zip(u, w) if a and b), Fraction(0)) for w in dual_dirs]
            for u in ge_basis]
    try:
        gram_inv = linalg.invert(gram)
    except ValueError:
        raise LieAlgebraError("degenerate g^e x g^f pairing: form is not invariant") from None
    base = dual_of(L, t.e)
    images = [Poly.linear_form(column) + x for column, x in zip(zip(*dual_dirs), base)]
    transport = [Poly.linear_form(row) for row in gram_inv]
    return SliceChart(directions, ge_basis, gram, images, transport)


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
