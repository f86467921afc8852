"""Lie-Poisson structure on the symmetric algebra, and commutativity reports.

The bracket of two coordinate functions is the linear form given by the
structure constants, {x_i, x_j} = B_ij(x); the bracket of arbitrary
polynomials extends it by the Leibniz rule:

    {f, g} = sum_i df/dx_i {x_i, g} = grad f . X_g,   X_g = B(x) grad g

X_g is the Hamiltonian field of g.  A commutativity report computes it once
per family member, so that every pair costs one dot product.  The products
run on packed operands (exactpoly.pack): the rows of B(x) are packed once
per algebra, and a report packs each member's gradient and field once.

Everything is exact, so "commutes" means the bracket is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def hamiltonian(L: LieAlgebraData, g: Poly) -> list[Poly]:
    """The Hamiltonian field X_g[i] = {x_i, g} = sum_j {x_i, x_j} dg/dx_j."""
    _check_arity(L, g)
    return [unpack(q, L.dim) for q in _field(L, pack_gradient(g))]


def poisson_bracket(L: LieAlgebraData, f: Poly, g: Poly) -> Poly:
    """Exact Poisson bracket {f, g} in the coordinates of L."""
    _check_arity(L, f)
    _check_arity(L, g)
    return unpack(packed_dot(pack_gradient(f), _field(L, pack_gradient(g)), L.dim), L.dim)


@dataclass
class CommutativityReport:
    pair_count: int
    failures: list[tuple[str, str, Poly]] = field(default_factory=list)

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
        }


def commutativity_report(L: LieAlgebraData, family) -> CommutativityReport:
    """Bracket every unordered pair of a labeled family exactly.

    family is an MFGeneratorSet (or anything with .entries of (i, j, poly)).
    Each member's gradient and Hamiltonian field are computed once.
    """
    entries = family.entries
    for _, _, p in entries:
        _check_arity(L, p)
    grads = [pack_gradient(p) for _, _, p in entries]
    fields = [_field(L, grad) for grad in grads]
    failures = []
    for a, (ia, ja, _) in enumerate(entries):
        for b in range(a + 1, len(entries)):
            br = packed_dot(grads[a], fields[b], L.dim)
            if br[1]:  # a nonzero bracket
                ib, jb, _ = entries[b]
                failures.append((entry_label(ia, ja), entry_label(ib, jb), unpack(br, L.dim)))
    n = len(entries)
    return CommutativityReport(pair_count=n * (n - 1) // 2, failures=failures)


def entry_label(i: int, j: int) -> str:
    """Display label for the j-th shift of the i-th generator (1-based)."""
    return f"D^{j}(p_{i + 1})"
