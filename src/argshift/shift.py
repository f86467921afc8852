"""The argument shift method: directional derivatives and bigraded splits.

Two independent routes to the same data:

* shift_derivative iterates the directional derivative D = sum xi_k d/dx_k,
  and D^j p is the j-th derivative of t -> p(x + t*xi) at t = 0.  Each step
  is one exactpoly.packed_dot of the constants xi against the packed gradient
  (exactpoly.pack_gradient), the product kernel the Poisson brackets run on,
  and mf_generators takes D^0 p .. D^(d-1) p from one pass of d - 1 steps;
* bigraded_components substitutes x_k -> x_k + y_k in doubled variables and
  splits by y-degree, recovering the coefficients of p(s*x + t*y).

The exact identity  shift_derivative(p, xi, j) == j! * components[j](x, xi)
ties them together and is asserted by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactpoly import Poly, pack_constant, pack_gradient, packed_dot, unpack
from .invariants import InvariantFamily
from .liealg import LieAlgebraData
from .poisson import entry_label
from .reports import fractions_json


def bigraded_components(p: Poly) -> list[Poly]:
    """Split p(x + y) in doubled variables by y-degree.

    Returns the list of components indexed j = 0..deg p, each bihomogeneous
    of bidegree (deg p - j, j) in 2n variables (x-block first).  Requires a
    nonzero homogeneous input.
    """
    if p.is_zero():
        raise ValueError("bigraded components of the zero polynomial are undefined")
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    n = p.arity
    d = p.total_degree()
    expanded = p.substitute([Poly.variable(2 * n, k) + Poly.variable(2 * n, n + k)
                             for k in range(n)])
    buckets: dict[int, dict] = {}
    for mono, coeff in expanded.terms.items():
        ydeg = sum(mono[n:])
        buckets.setdefault(ydeg, {})[mono] = coeff
    return [Poly(2 * n, buckets.get(j, {})) for j in range(d + 1)]


def shift_derivative(p: Poly, xi, j: int) -> Poly:
    """j-th derivative of t -> p(x + t*xi) at t = 0, as a polynomial in x."""
    xi = [Fraction(v) for v in xi]
    if len(xi) != p.arity:
        raise ValueError("shift point length does not match polynomial arity")
    if j < 0 or j > max(p.total_degree(), 0):
        raise ValueError(f"derivative order {j} out of range for degree {p.total_degree()}")
    return _shifts(p, xi, j + 1)[j]


def _shifts(p: Poly, xi: list[Fraction], count: int) -> list[Poly]:
    """D^0 p .. D^(count-1) p, D = sum xi_k d/dx_k: count - 1 packed dots."""
    n = p.arity
    consts = [pack_constant(v) for v in xi]
    out = [p]
    while len(out) < count:
        out.append(unpack(packed_dot(consts, pack_gradient(out[-1]), n), n))
    return out


@dataclass
class MFGeneratorSet:
    """Labeled shift family {D^j(p_i) : j = 0..d_i - 1} at a fixed point.

    Zero entries are kept and flagged: a degenerate family (singular or zero
    shift point) must still present all Sum(d_i) labeled slots so that the
    regular-sequence verdict can see it is degenerate.
    """

    algebra: LieAlgebraData
    xi: list[Fraction]
    entries: list[tuple[int, int, Poly]]
    degrees: list[int]
    expected_count: int
    zero_entries: list[tuple[int, int]] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return bool(self.zero_entries)

    def polynomials(self) -> list[Poly]:
        return [p for _, _, p in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "xi": fractions_json(self.xi),
            "expected_count": self.expected_count,
            "degenerate": self.degenerate,
            "entries": [
                {"label": entry_label(i, j), "i": i, "j": j, "poly": str(p)}
                for i, j, p in self.entries
            ],
        }


def mf_generators(L: LieAlgebraData, fam: InvariantFamily, xi) -> MFGeneratorSet:
    """All shifts D^j(p_i), j = 0..d_i-1, at the dual point xi."""
    xi = [Fraction(v) for v in xi]
    if len(xi) != L.dim:
        raise ValueError("xi length does not match the algebra dimension")
    entries = []
    zero_entries = []
    for i, (p, d) in enumerate(zip(fam.generators, fam.degrees)):
        for j, q in enumerate(_shifts(p, xi, d)):
            entries.append((i, j, q))
            if q.is_zero():
                zero_entries.append((i, j))
    return MFGeneratorSet(
        algebra=L,
        xi=xi,
        entries=entries,
        degrees=list(fam.degrees),
        expected_count=sum(fam.degrees),
        zero_entries=zero_entries,
    )

