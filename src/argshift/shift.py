"""The argument shift method: directional derivatives and bigraded splits.

Two independent routes to the same data:

* shift_derivative iterates the directional derivative sum xi_k d/dx_k, which
  is the j-th derivative of t -> p(x + t*xi) at t = 0;
* bigraded_components substitutes x_k -> x_k + y_k in doubled variables and
  splits by y-degree, recovering the coefficients of p(s*x + t*y).

The exact identity  shift_derivative(p, xi, j) == j! * components[j](x, xi)
ties them together and is asserted by the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactpoly import Poly
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
    images = []
    for k in range(n):
        ex = [0] * (2 * n)
        ey = [0] * (2 * n)
        ex[k] = 1
        ey[n + k] = 1
        images.append(Poly(2 * n, {tuple(ex): Fraction(1), tuple(ey): Fraction(1)}))
    expanded = p.substitute(images)
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
    q = p
    for _ in range(j):
        acc = Poly.zero(p.arity)
        for k, c in enumerate(xi):
            if c:
                acc = acc + c * q.diff(k)
        q = acc
    return q


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
        for j in range(d):
            q = shift_derivative(p, xi, j)
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


def shift_matches_bigraded(p: Poly, xi, j: int) -> bool:
    """Exact cross-identity between the two shift routes."""
    n = p.arity
    comp = bigraded_components(p)[j]
    # evaluate the y-block at xi, keep the x-block symbolic
    images = [Poly.variable(n, k) for k in range(n)] + [
        Poly.constant(n, v) for v in xi
    ]
    specialized = comp.substitute(images)
    return shift_derivative(p, xi, j) == math.factorial(j) * specialized
