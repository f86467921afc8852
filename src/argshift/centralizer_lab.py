"""Shift families on centralizers of nilpotent elements.

Pipeline: complete a Jordan-form nilpotent e of gl_n (Jordan partitions
make it gl_n only) to an sl2-triple, restrict each power trace tr(X^k) to the
slice e + g^f, take the initial homogeneous component, and run the shift
machinery over g^e.  liealg.kostant_slice charts the slice in g^e's dual
coordinates, and X at dual(s) is the matrix of s, so the restrictions are
the power traces of the chart's matrix: one pass, no transport.  Where they
miss the degree condition (sum of initial degrees = b(g^e), the precondition
of the regular-sequence experiment), Newton's identities on them give the
char-poly coefficients on the slice.  ind g^e = rank g (Yakimova) fixes
b(g^e), so it chooses the one family that certifies ind(g^e); the e = 0 case
reproduces the ambient-algebra verdict bit for bit.
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
from .invariants import InvariantFamily, power_sums_to_elementary, power_traces
from .liealg import (
    InternalError,
    LieAlgebraData,
    SL2Triple,
    SliceChart,
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
    """A restriction to the slice, in g^e's dual coordinates u (SliceChart)."""

    source_index: int
    initial: Poly  # lowest homogeneous component in u_0..u_{m-1}, nonzero
    initial_degree: int
    restricted: Poly  # the whole restriction to the slice


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
# slice restrictions
# ---------------------------------------------------------------------------


def _split_initial(restricted: Poly, source_index: int) -> SliceRestriction:
    """The restriction beside its initial component, taken with respect to the
    standard total degree in the slice coordinates."""
    if restricted.is_zero():
        raise InternalError("restriction of a nonzero invariant to the slice vanished (bug)")
    comps = restricted.homogeneous_components()
    degree = min(comps)
    return SliceRestriction(
        source_index=source_index,
        initial=comps[degree],
        initial_degree=degree,
        restricted=restricted,
    )


def transport_to_centralizer(sr: SliceRestriction, chart: SliceChart, Lc: LieAlgebraData) -> Poly:
    """The initial component on the centralizer dual: itself, as the chart's
    coordinates are g^e's dual ones (SliceChart), once the dimensions agree."""
    if Lc.dim != len(chart.directions):
        raise ValueError("centralizer dimension does not match the slice chart")
    return sr.initial


# ---------------------------------------------------------------------------
# condition (*) and the regular-sequence experiment
# ---------------------------------------------------------------------------


@dataclass
class SlicePipeline:
    """Everything condition (*) computes, kept for reuse by the experiment:
    family holds the initial components ordered by (initial degree, source
    index), which certify ind(g^e) and which it shifts."""

    chart: SliceChart
    centralizer: LieAlgebraData
    restrictions: list[SliceRestriction]
    family: InvariantFamily
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
    chart = kostant_slice(L, triple)
    Lc = chart.centralizer
    # ind g^e = rank g (Yakimova, Funct. Anal. Appl. 40, 2006) fixes b(g^e)
    # before any certificate: it only chooses the family, index_of proves it
    rank = L.meta["rank"]
    b_c = (Lc.dim + rank) // 2
    family_name = "power-traces"
    # the restrictions of gl_n's invariants tr(X^k), k = 1..n
    restrictions = [_split_initial(q, i) for i, q in
                    enumerate(power_traces(chart.matrix, list(range(1, rank + 1))))]
    # the degree condition quantifies over a choice of free generators; the
    # power traces can miss the bound where the char-poly coefficients reach
    # it (first seen at partition (2,1,1) of gl_4)
    if sum(sr.initial_degree for sr in restrictions) != b_c:
        char = [_split_initial(q, i) for i, q in
                enumerate(power_sums_to_elementary([sr.restricted for sr in restrictions]))]
        if sum(sr.initial_degree for sr in char) == b_c:
            family_name, restrictions = "char-coefficients", char
    ordered = sorted(restrictions, key=lambda sr: (sr.initial_degree, sr.source_index))
    family = InvariantFamily(
        algebra=Lc,
        generators=[sr.initial for sr in ordered],
        degrees=[sr.initial_degree for sr in ordered],
    )
    idx = index_of(Lc, family.generators)
    if idx.mode != "exact" or idx.index != rank:
        raise InternalError(
            f"restricted {family_name} do not certify the centralizer index {rank} (bug)"
        )
    degrees = [sr.initial_degree for sr in restrictions]
    star = StarReport(
        partition=partition,
        initial_degrees=degrees,
        degree_sum=sum(degrees),
        b_centralizer=b_c,
        verdict=sum(degrees) == b_c,
        centralizer_dim=Lc.dim,
        centralizer_index=rank,
        generator_family=family_name,
    )
    return SlicePipeline(
        chart=chart,
        centralizer=Lc,
        restrictions=restrictions,
        family=family,
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
    dual, builds the shift family from the restrictions' initial components,
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
    xi, attempts = draw_regular_dual_point(Lc, seed)
    mf = mf_generators(Lc, pipe.family, xi)
    report = regular_sequence_verdict(
        mf.polynomials(),
        Lc.dim,
        timeout_secs=time_left(deadline),
        cache_dir=cache_dir,
        zero_labels=mf.zero_entries,
    )
    return ConjectureRow(
        partition=pipe.star.partition,
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
