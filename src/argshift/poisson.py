"""Lie-Poisson structure on the symmetric algebra, and commutativity reports.

The bracket of two coordinate functions is the linear form given by the
structure constants; the bracket of arbitrary polynomials extends it by the
Leibniz rule:

    {f, g} = sum_{i<j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i) {x_i, x_j}

Everything is exact, so "commutes" means the bracket is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactpoly import Poly
from .liealg import LieAlgebraData, coordinate_brackets


def poisson_bracket(L: LieAlgebraData, f: Poly, g: Poly) -> Poly:
    """Exact Poisson bracket {f, g} in the coordinates of L."""
    if f.arity != L.dim or g.arity != L.dim:
        raise ValueError("polynomial arity does not match the algebra dimension")
    df = f.gradient()
    dg = g.gradient()
    out = Poly.zero(L.dim)
    for (i, j), lin in coordinate_brackets(L).items():
        term = df[i] * dg[j] - df[j] * dg[i]
        if term:
            out = out + term * lin
    return out


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
    """
    entries = family.entries
    failures = []
    count = 0
    for a in range(len(entries)):
        ia, ja, pa = entries[a]
        for b in range(a + 1, len(entries)):
            ib, jb, pb = entries[b]
            count += 1
            br = poisson_bracket(L, pa, pb)
            if not br.is_zero():
                failures.append((entry_label(ia, ja), entry_label(ib, jb), br))
    return CommutativityReport(pair_count=count, failures=failures)


def entry_label(i: int, j: int) -> str:
    """Display label for the j-th shift of the i-th generator (1-based)."""
    return f"D^{j}(p_{i + 1})"
