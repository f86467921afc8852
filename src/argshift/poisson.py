"""Lie-Poisson structure on the symmetric algebra, and commutativity reports.

The bracket of two coordinate functions is the linear form given by the
structure constants, {x_i, x_j} = B_ij(x); the bracket of arbitrary
polynomials extends it by the Leibniz rule:

    {f, g} = sum_i df/dx_i {x_i, g} = grad f . X_g,   X_g = B(x) grad g

X_g is the Hamiltonian field of g.  A commutativity report computes it once
per family member.  B(x) is antisymmetric, so {f, g} = -(grad g . X_f) too,
and each pair runs in the orientation with fewer term products (read from
the operands' lengths); a pair with a Casimir member (zero field) is zero
with no product.  The products run on packed operands (exactpoly.pack): the
rows of B(x) are packed once per algebra, and a report packs each member's
gradient and field once.  A polynomial whose field was found zero is
remembered by content in the algebra's "central" memo, so index_of's check
of an invariant spares a later report on its shift family that field.

Everything is exact, so "commutes" means the bracket is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .exactpoly import ZERO, Packed, Poly, pack, pack_gradient, packed_dot, unpack
from .liealg import LieAlgebraData


def _check_arity(L: LieAlgebraData, p: Poly) -> None:
    if p.arity != L.dim:
        raise ValueError("polynomial arity does not match the algebra dimension")


def _field(L: LieAlgebraData, grad: list[Packed]) -> list[Packed]:
    rows = L._caches.get("structure_rows")
    if rows is None:  # B(x) packed, B_ij = {x_i, x_j} = sum_k c_ij^k x_k
        n = L.dim
        rows = L._caches["structure_rows"] = [[ZERO] * n for _ in range(n)]
        for (i, j), comps in L.structure.items():
            p = pack(Poly.linear_form(comps.get(k, 0) for k in range(n)))
            rows[i][j], rows[j][i] = p, (p[0], p[1], [-c for c in p[2]])
    return [packed_dot(row, grad, L.dim) for row in rows]


def _gradient_and_field(L: LieAlgebraData, p: Poly) -> tuple[list[Packed], list[Packed]] | None:
    """p's packed gradient and Hamiltonian field X_p, or None when X_p is
    exactly zero (p is a Casimir).  A snapshot of p's content enters the
    algebra's "central" memo only once X_p has been computed here and found
    zero, so a remembered polynomial is neither differentiated nor
    multiplied again."""
    _check_arity(L, p)
    snapshot = (p.arity, frozenset(p.terms.items()))
    if snapshot in L._caches.get("central", ()):
        return None
    grad = pack_gradient(p)
    fld = _field(L, grad)
    if any(q[1] for q in fld):
        return grad, fld
    L._caches.setdefault("central", set()).add(snapshot)
    return None


def poisson_bracket(L: LieAlgebraData, f: Poly, g: Poly) -> Poly:
    """Exact Poisson bracket {f, g} in the coordinates of L."""
    _check_arity(L, f)
    _check_arity(L, g)
    return unpack(packed_dot(pack_gradient(f), _field(L, pack_gradient(g)), L.dim), L.dim)


@dataclass
class CommutativityReport:
    pair_count: int
    failures: list[tuple[str, str, Poly]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # counters, see commutativity_report

    @property
    def commutes(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "failure_count": len(self.failures),
            "failures": [
                {"left": a, "right": b, "bracket": str(p)} for a, b, p in self.failures
            ],
            "stats": self.stats,
        }


def commutativity_report(L: LieAlgebraData, family) -> CommutativityReport:
    """Bracket every unordered pair of a labeled family exactly.

    family is an MFGeneratorSet (or anything with .entries of (i, j, poly)).
    A pair (a, b) runs as grad f_a . X_b, or as -(grad f_b . X_a) when that
    takes fewer term products, so a failure reads the same either way.
    stats counts the Casimir members, the pairs they make zero and the pairs
    run swapped; none of the three depends on what the memo held.
    """
    n = L.dim
    entries = family.entries
    members = [_gradient_and_field(L, p) for _, _, p in entries]
    # each operand's term counts price both orientations of a pair without a product
    lengths = [m and [[len(q[1]) for q in v] for v in m] for m in members]
    failures = []
    zero_field = swapped = 0
    for a, ma in enumerate(members):
        for b in range(a + 1, len(members)):
            mb = members[b]
            if ma is None or mb is None:
                zero_field += 1
                continue
            (grad_a, field_a), (grad_b, field_b) = ma, mb
            (glen_a, flen_a), (glen_b, flen_b) = lengths[a], lengths[b]
            if sum(map(mul, glen_b, flen_a)) < sum(map(mul, glen_a, flen_b)):
                swapped += 1
                den, monos, nums = packed_dot(grad_b, field_a, n)
                nums = [-c for c in nums]
            else:
                den, monos, nums = packed_dot(grad_a, field_b, n)
            if monos:  # a nonzero bracket
                ia, ja, _ = entries[a]
                ib, jb, _ = entries[b]
                failures.append((entry_label(ia, ja), entry_label(ib, jb),
                                 unpack((den, monos, nums), n)))
    k = len(entries)
    stats = {"central_members": members.count(None), "pairs_zero_field": zero_field,
             "pairs_swapped": swapped}
    return CommutativityReport(pair_count=k * (k - 1) // 2, failures=failures, stats=stats)


def entry_label(i: int, j: int) -> str:
    """Display label for the j-th shift of the i-th generator (1-based)."""
    return f"D^{j}(p_{i + 1})"
