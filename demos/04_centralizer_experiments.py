"""Shift families over centralizers of nilpotent elements.

For a Jordan nilpotent e of gl_n: chart the slice e + g^f along the basis
of g^f dual to g^e's, so the slice coordinates are g^e's dual coordinates;
restrict each power trace tr(X^k) as the power trace of the chart's matrix,
keep the initial homogeneous component, and check the degree condition
sum(deg) = b(g^e).  When it holds, run the regular-sequence experiment over
the centralizer at a seeded random regular point.
"""

from argshift import build_classical
from argshift.centralizer_lab import (
    all_partitions,
    condition_star,
    conjecture_check,
    nilpotent_from_partition,
)

L = build_classical("gl", 3)
print("gl_3: slice degree condition and the regular-sequence experiment")
print(f"{'partition':>12} {'initial degs':>14} {'sum':>4} {'b':>3} "
      f"{'star':>6} {'dim':>4} {'verdict':>8}")
for part in all_partitions(3):
    e = nilpotent_from_partition(L, part)
    star = condition_star(L, e)
    row = conjecture_check(L, e, seed=42)
    print(f"{str(part):>12} {str(star.initial_degrees):>14} {star.degree_sum:>4} "
          f"{star.b_centralizer:>3} {str(star.verdict):>6} "
          f"{row.report.ideal_dimension:>4} {str(row.report.verdict):>8}")

# The degree condition quantifies over a choice of free generators.  At
# gl_4, partition (2,1,1), the power traces fall short of b = 7, but the
# characteristic-polynomial coefficients reach it; the pipeline falls back
# automatically and records which family it used.
L4 = build_classical("gl", 4)
e = nilpotent_from_partition(L4, (2, 1, 1))
star = condition_star(L4, e)
print(f"\ngl_4 partition (2,1,1): degrees {star.initial_degrees}, "
      f"sum {star.degree_sum} = b = {star.b_centralizer}, "
      f"family = {star.generator_family}")
row = conjecture_check(L4, e, seed=42, timeout_secs=300)
print(f"experiment: dim {row.report.ideal_dimension} "
      f"(expected {row.report.expected_dimension}) -> verdict {row.report.verdict}")
