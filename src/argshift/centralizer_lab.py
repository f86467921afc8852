"""Shift families on centralizers of nilpotent elements.

Pipeline: complete a Jordan-form nilpotent e of gl_n to an sl2-triple
(blockwise), restrict each invariant generator to the slice e + g^f, take the
initial homogeneous component, carry it over to the dual of the centralizer
g^e, and run the shift machinery over g^e.  liealg.kostant_slice builds the
chart once per nilpotent; restriction and transport are each one substitution
by a map the chart holds.
The degree bookkeeping (sum of initial degrees against b(g^e)) is the
stated precondition for the regular-sequence experiment, the transported
components certify the index of g^e, and the e = 0 case reproduces the
ambient-algebra verdict bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import Poly
from .groebner import (
    DimensionReport,
    MonomialOrder,
    deadline_after,
    regular_sequence_verdict,
    time_left,
)
from .invariants import InvariantFamily, invariant_generators, power_sums_to_elementary
from .liealg import (
    InternalError,
    LieAlgebraData,
    SL2Triple,
    SliceChart,
    centralizer,
    draw_regular_dual_point,
    index_of,
    jordan_blocks,
    jordan_triple,
    kostant_slice,
    matrix_of_coords,
)
from .reports import fractions_json
from .shift import mf_generators


@dataclass
class SliceRestriction:
    source_index: int
    restricted: Poly  # in slice coordinates t_0..t_{m-1}
    initial: Poly  # lowest homogeneous component, nonzero
    initial_degree: int


@dataclass
class StarReport:
    partition: tuple[int, ...]
    initial_degrees: list[int]
    degree_sum: int
    b_centralizer: int
    verdict: bool
    centralizer_dim: int
    centralizer_index: int
    generator_family: str = "power-traces"

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "initial_degrees": list(self.initial_degrees),
            "degree_sum": self.degree_sum,
            "b_centralizer": self.b_centralizer,
            "centralizer_dim": self.centralizer_dim,
            "centralizer_index": self.centralizer_index,
            "verdict": self.verdict,
            "generator_family": self.generator_family,
        }


# ---------------------------------------------------------------------------
# Jordan data
# ---------------------------------------------------------------------------


def _partition_triple(L: LieAlgebraData, partition) -> SL2Triple:
    """The blockwise triple through the Jordan nilpotent of a gl_n partition."""
    if L.meta.get("type") != "gl":
        raise ValueError("Jordan partitions are supported for gl only")
    n = L.meta["size"]
    partition = tuple(int(p) for p in partition)
    if sum(partition) != n or any(p < 1 for p in partition):
        raise ValueError(f"{partition} is not a partition of {n}")
    if list(partition) != sorted(partition, reverse=True):
        raise ValueError("partition parts must be non-increasing")
    return jordan_triple(L, partition)


def nilpotent_from_partition(L: LieAlgebraData, partition) -> list[Fraction]:
    """Block Jordan nilpotent for gl_n: one J_lambda block per part."""
    return _partition_triple(L, partition).e


# ---------------------------------------------------------------------------
# slice restrictions and transport
# ---------------------------------------------------------------------------


def restrict_to_slice(p: Poly, chart: SliceChart, source_index: int = -1) -> SliceRestriction:
    """Substitute x := dual(e + sum t_k v_k) (chart.images) and split off the
    initial part.

    The initial component is taken with respect to the standard total degree
    in the slice coordinates.
    """
    restricted = p.substitute(chart.images)
    if restricted.is_zero():
        raise InternalError("restriction of a nonzero invariant to the slice vanished (bug)")
    comps = restricted.homogeneous_components()
    degree = min(comps)
    return SliceRestriction(
        source_index=source_index,
        restricted=restricted,
        initial=comps[degree],
        initial_degree=degree,
    )


def transport_to_centralizer(
    sr: SliceRestriction, chart: SliceChart, Lc: LieAlgebraData
) -> Poly:
    """Re-express the initial component as a polynomial on the centralizer dual.

    The slice coordinate vector t and the dual coordinates u on g^e are
    related by u = Gram . t, so the transport substitutes t = Gram^{-1} u
    (chart.transport).  The result must be invariant over g^e; index_of
    verifies that when _slice_pipeline certifies the centralizer's index
    with it.
    """
    if Lc.dim != len(chart.directions):
        raise ValueError("centralizer dimension does not match the slice chart")
    return sr.initial.substitute(chart.transport)


# ---------------------------------------------------------------------------
# condition (*) and the regular-sequence experiment
# ---------------------------------------------------------------------------


@dataclass
class SlicePipeline:
    """Everything condition (*) computes, kept for reuse by the experiment."""

    partition: tuple[int, ...]
    chart: SliceChart
    centralizer: LieAlgebraData
    restrictions: list[SliceRestriction]
    transported: list[Poly]  # transport_to_centralizer of each restriction
    star: StarReport


def _slice_pipeline(L: LieAlgebraData, e) -> SlicePipeline:
    e = [Fraction(v) for v in e]
    partition = jordan_blocks(matrix_of_coords(L, e))
    triple = _partition_triple(L, partition)
    # the Jordan nilpotent of e's superdiagonal runs is strictly upper
    # triangular, so e equal to it is nilpotent: no invariant is evaluated
    if triple.e != e:
        raise ValueError(
            "element is not the Jordan nilpotent of its superdiagonal blocks; "
            "pass the block nilpotent from nilpotent_from_partition"
        )
    fam = invariant_generators(L)
    chart = kostant_slice(L, triple)
    Lc, _ = centralizer(L, e)
    # the sampled index fixes b(g^e) and the family; the chosen family certifies it below
    ind_c = index_of(Lc).index
    b_c, rem = divmod(Lc.dim + ind_c, 2)
    if rem:
        raise InternalError("dim + index of the centralizer is odd (bug)")
    # the degree condition quantifies over a choice of free generators; the
    # power traces can miss the bound where the char-poly coefficients reach
    # it (first seen at partition (2,1,1) of gl_4), so try both
    family_name = "power-traces"
    restrictions = [
        restrict_to_slice(p, chart, source_index=i) for i, p in enumerate(fam.generators)
    ]
    if sum(sr.initial_degree for sr in restrictions) != b_c:
        alt = power_sums_to_elementary(fam.generators)
        alt_restrictions = [
            restrict_to_slice(p, chart, source_index=i) for i, p in enumerate(alt)
        ]
        if sum(sr.initial_degree for sr in alt_restrictions) == b_c:
            family_name = "char-coefficients"
            restrictions = alt_restrictions
    transported = [transport_to_centralizer(sr, chart, Lc) for sr in restrictions]
    idx = index_of(Lc, transported)
    if idx.mode != "exact" or idx.index != ind_c:
        raise InternalError(
            f"transported {family_name} do not certify the centralizer index {ind_c} (bug)"
        )
    degrees = [sr.initial_degree for sr in restrictions]
    star = StarReport(
        partition=partition,
        initial_degrees=degrees,
        degree_sum=sum(degrees),
        b_centralizer=b_c,
        verdict=sum(degrees) == b_c,
        centralizer_dim=Lc.dim,
        centralizer_index=ind_c,
        generator_family=family_name,
    )
    return SlicePipeline(
        partition=partition,
        chart=chart,
        centralizer=Lc,
        restrictions=restrictions,
        transported=transported,
        star=star,
    )


def condition_star(L: LieAlgebraData, e) -> StarReport:
    """Degree bookkeeping on the slice: sum deg initial components vs b(g^e)."""
    return _slice_pipeline(L, e).star


@dataclass
class ConjectureRow:
    partition: tuple[int, ...]
    star: StarReport
    xi: list[Fraction]
    xi_attempts: int
    seed: int
    report: DimensionReport

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "star": self.star.to_json_dict(),
            "xi": fractions_json(self.xi),
            "xi_attempts": self.xi_attempts,
            "seed": self.seed,
            "report": self.report.to_json_dict(),
        }


def conjecture_check(
    L: LieAlgebraData,
    e,
    seed: int,
    order: MonomialOrder | None = None,  # unread: bench/workloads.py passes it; remove with it
    timeout_secs: float | None = None,
    cache_dir: None = None,  # passed on; regular_sequence_verdict accepts only None
) -> ConjectureRow:
    """Regular-sequence experiment for the shift family over a centralizer.

    Requires condition (*) to hold (it is the hypothesis of the statement
    under test).  Draws a seeded random regular point of the centralizer
    dual, builds the shift family from the transported initial components,
    and runs the dimension verdict with n = dim g^e and k = b(g^e).
    timeout_secs bounds the whole call.

    A false row is a verdict at that one seeded regular point, not a
    counterexample at generic points: a draw with zero coordinates can be a
    special regular point where the family is not a regular sequence (gl_4,
    partition (3, 1), seed 1966748487).
    """
    deadline = deadline_after(timeout_secs)
    pipe = _slice_pipeline(L, e)
    if not pipe.star.verdict:
        raise ValueError("condition (*) fails; the experiment hypothesis is not met")
    Lc = pipe.centralizer
    transported = sorted(
        zip(pipe.restrictions, pipe.transported),
        key=lambda t: (t[0].initial_degree, t[0].source_index),
    )
    fam_c = InvariantFamily(
        algebra=Lc,
        generators=[q for _, q in transported],
        degrees=[sr.initial_degree for sr, _ in transported],
    )
    xi, attempts = draw_regular_dual_point(Lc, seed)
    mf = mf_generators(Lc, fam_c, xi)
    report = regular_sequence_verdict(
        mf.polynomials(),
        Lc.dim,
        timeout_secs=time_left(deadline),
        cache_dir=cache_dir,
        zero_labels=mf.zero_entries,
    )
    return ConjectureRow(
        partition=pipe.partition,
        star=pipe.star,
        xi=xi,
        xi_attempts=attempts,
        seed=seed,
        report=report,
    )


def all_partitions(n: int):
    """Partitions of n in descending lexicographic order."""

    def gen(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))
