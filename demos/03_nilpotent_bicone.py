"""The nilpotent bicone: dimension, fibers, and the smooth locus.

The bicone of g collects the pairs (x, y) whose whole span is nilpotent.
It is cut out by all bigraded components of the invariant generators and
has dimension 3(b - l); its fiber over a regular nilpotent recovers the
shift-family scheme.  The smooth points are exactly the pairs spanning a
plane of regular elements, which we certify exactly rather than by sampling:
the maximal minors of the invariant gradients, restricted to the line
s*x + t*y, must have no common zero on P^1 (one exact rank of their
products with the monomials of one degree less).
"""

from fractions import Fraction

from argshift import build_classical, invariant_generators, linalg, principal_sl2
from argshift.bicone import (
    bicone_dimension_check,
    bicone_fiber_check,
    bicone_generators,
    bicone_membership,
    pencil_regularity,
)
from argshift.liealg import dual_of

# --- sl_2: small enough to see everything -----------------------------------
L2 = build_classical("sl", 2)
f2 = invariant_generators(L2)
ideal2 = bicone_generators(L2, f2)
print("sl_2 bicone generators (x-block x0..x2, y-block x3..x5):")
for i, j, p in ideal2.generators:
    print(f"  component (i={i + 1}, j={j}): {p}")
rep2 = bicone_dimension_check(L2, f2)
print(f"dimension {rep2.ideal_dimension} = 3(b - l) = "
      f"{rep2.extra['counting_identity']['three_b_minus_ell']} -> verdict {rep2.verdict}")

# --- sl_3: fibers over the principal nilpotent ------------------------------
L3 = build_classical("sl", 3)
f3 = invariant_generators(L3)
t3 = principal_sl2(L3)
fiber = bicone_fiber_check(L3, f3, t3.e)
print(f"\nsl_3 fiber over principal e: dim {fiber.ideal_dimension} = b - l "
      f"-> verdict {fiber.verdict}; matches the shift family: "
      f"{fiber.extra['matches_shift_family']}")

# --- a fully regular nilpotent pencil in sl_3 --------------------------------
# x = E12 + E23 is regular nilpotent; y = E21 - E32 completes it to a plane
# all of whose nonzero members are regular nilpotent (rank drops only at 0).
lab = {name: k for k, name in enumerate(L3.basis_labels)}
x = [Fraction(0)] * 8
x[lab["E12"]] = x[lab["E23"]] = Fraction(1)
y = [Fraction(0)] * 8
y[lab["E21"]], y[lab["E32"]] = Fraction(1), Fraction(-1)

print(f"\npair (E12+E23, E21-E32): in bicone = {bicone_membership(L3, f3, x, y)}")
print(f"pencil fully regular (minors certificate) = {pencil_regularity(L3, f3, x, y)}")
gens3 = bicone_generators(L3, f3)
point = dual_of(L3, x) + dual_of(L3, y)
jacobian = linalg.jacobian_at(gens3.polynomials())
rank = linalg.rank(jacobian(point))
print(f"Jacobian rank of all {gens3.generator_count} bicone generators there: {rank} "
      f"(full rank = smooth point)")

# a control pair: the line through a proportional pair leaves the regular
# locus, and the Jacobian rank drops in agreement
x2 = [2 * c for c in x]
print(f"\ncontrol (x, 2x): pencil regular = {pencil_regularity(L3, f3, x, x2)}, "
      f"Jacobian rank = {linalg.rank(jacobian(dual_of(L3, x) + dual_of(L3, x2)))}")
