"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The groebner layer the benchmark times must compute what an independent
implementation computes: its reduced bases are compared with sympy's.  Each
output check must reject a planted wrong output.  The tracer must record
nested spans and leave the library as it found it.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from argshift import groebner, liealg, poisson, shift  # noqa: E402
from argshift.exactpoly import Poly  # noqa: E402
from argshift.groebner import DimensionReport  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def algebras():
    return {spec: workloads.set_up_algebra(*spec) for spec in [("sl", 3), ("gl", 3), ("sp", 4)]}


# ---------------------------------------------------------------------------
# the groebner layer against sympy
# ---------------------------------------------------------------------------


def _monic_set(exprs, gens):
    """The polynomials made monic under grevlex, as a set of sympy expressions."""
    import sympy

    out = set()
    for e in exprs:
        p = sympy.Poly(e, *gens, domain="QQ")
        out.add(p.mul_ground(1 / p.LC(order="grevlex")).as_expr())
    return out


def _as_sympy(p: Poly, gens):
    import sympy

    expr = 0
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, mono):
            term *= g**e
        expr += term
    return expr


def _point(A, spec):
    if spec.startswith("rr"):
        return liealg.draw_regular_dual_point(A.L, int(spec[2:]))[0]
    if spec == "diag":
        return workloads.diagonal_point(A, workloads.NON_REGULAR[(A.L.meta["type"], A.L.meta["size"])])
    return workloads.named_point(A, spec)


@pytest.mark.parametrize("spec,point", [
    (("sl", 3), "rr3"), (("gl", 3), "rr5"), (("sl", 3), "diag"), (("sp", 4), "h"),
])
def test_reduced_basis_matches_sympy(algebras, spec, point):
    sympy = pytest.importorskip("sympy")
    A = algebras[spec]
    family = shift.mf_generators(A.L, A.fam, _point(A, point))
    gb = groebner.buchberger(family.polynomials())
    gens = sympy.symbols(f"x0:{A.L.dim}")
    ref = sympy.groebner([_as_sympy(p, gens) for p in family.polynomials()], *gens,
                         order="grevlex", domain="QQ")
    assert _monic_set([_as_sympy(p, gens) for p in gb.basis], gens) == _monic_set(ref.exprs, gens)


# ---------------------------------------------------------------------------
# every check accepts the right output and rejects a planted wrong one
# ---------------------------------------------------------------------------


def _report(verdict, dim, **extra):
    rep = DimensionReport(arity=0, generator_count=0, ideal_dimension=dim,
                          expected_dimension=dim, verdict=verdict)
    rep.extra.update(extra)
    return rep


def test_regseq_check(algebras):
    A = algebras[("sl", 3)]
    e = workloads.named_point(A, "e")
    diag = _point(A, "diag")
    assert checks.check_regseq(A.L, e, _report(True, 3)) == []
    assert checks.check_regseq(A.L, e, _report(False, 4))  # flipped verdict
    assert checks.check_regseq(A.L, e, _report(None, None))  # inconclusive
    assert checks.check_regseq(A.L, e, _report(True, 4))  # wrong dimension
    assert checks.check_regseq(A.L, diag, _report(False, 4)) == []
    assert checks.check_regseq(A.L, diag, _report(True, 3))  # flipped verdict


def test_regularity_uses_type_rank(algebras):
    A = algebras[("gl", 3)]
    assert checks.is_regular(A.L, workloads.named_point(A, "h"))
    assert not checks.is_regular(A.L, _point(A, "diag"))
    assert not checks.is_regular(A.L, [Fraction(0)] * A.L.dim)


def test_commute_check(algebras):
    A = algebras[("sl", 3)]
    L = A.L
    family = shift.mf_generators(L, A.fam, workloads.named_point(A, "e"))
    rep = poisson.commutativity_report(L, family)
    polys = family.polynomials()
    assert checks.check_commute(L, polys, rep, seed=7) == []
    planted = polys[:-1] + [Poly.variable(L.dim, 0)]  # x_0 is not a Casimir
    assert checks.check_commute(L, planted, rep, seed=7)  # nonzero bracket planted
    rep.failures.append(("a", "b", Poly.variable(L.dim, 0)))
    assert checks.check_commute(L, polys, rep, seed=7)  # flipped verdict


def test_control_bracket_check(algebras):
    A = algebras[("sl", 3)]
    L = A.L
    xi = workloads.named_point(A, "e")
    family = shift.mf_generators(L, A.fam, xi)
    f, k, br = workloads.control_bracket(L, family, xi)
    assert checks.check_control_bracket(L, f, k, br, seed=7) == []
    assert checks.check_control_bracket(L, f, k, Poly.zero(L.dim), seed=7)
    assert checks.check_control_bracket(L, f, k, br + Poly.variable(L.dim, 0), seed=7)


def test_control_bracket_check_tries_further_points():
    """gl_4 at h with this seed: the control bracket vanishes at the first
    seeded point, so the check goes on to the next one."""
    A = workloads.set_up_algebra("gl", 4)
    xi = workloads.named_point(A, "h")
    family = shift.mf_generators(A.L, A.fam, xi)
    f, k, br = workloads.control_bracket(A.L, family, xi)
    seed = workloads.sub_seed(1247166526, "commute check gl4 h")
    x = checks.seeded_point(A.L.dim, seed)
    unit = [Fraction(int(i == k)) for i in range(A.L.dim)]
    assert checks.bracket_at(A.L, checks._value_and_gradient(f, x)[1], unit, x) == 0
    assert checks.check_control_bracket(A.L, f, k, br, seed) == []
    assert checks.check_control_bracket(A.L, f, k, br + Poly.variable(A.L.dim, 0), seed)


def test_bicone_checks(algebras):
    L = algebras[("sl", 3)].L
    assert checks.check_bicone_full(L, _report(True, 9)) == []
    assert checks.check_bicone_full(L, _report(True, 10))
    assert checks.check_bicone_full(L, _report(False, 9))
    good = dict(shift_family_dimension=3, matches_shift_family=True)
    assert checks.check_fiber(L, _report(True, 3, **good)) == []
    assert checks.check_fiber(L, _report(True, 4, **good))
    assert checks.check_fiber(L, _report(False, 3, **good))
    assert checks.check_fiber(L, _report(True, 3, shift_family_dimension=4,
                                         matches_shift_family=False))


def test_smoothness_check():
    from argshift.bicone import SmoothnessReport

    def entry(pencil, jac):
        return {"x": [], "y": [], "pencil_regular": pencil, "jacobian_full": jac}

    good = SmoothnessReport(sample_count=2, results=[entry(True, True), entry(False, False)])
    assert checks.check_smoothness(good, 2) == []
    one_kind = SmoothnessReport(sample_count=2, results=[entry(True, True), entry(True, True)])
    assert checks.check_smoothness(one_kind, 2)
    planted = SmoothnessReport(sample_count=2, results=[entry(True, False), entry(False, False)])
    assert checks.check_smoothness(planted, 2)
    assert checks.check_smoothness(good, 3)


def test_conjecture_check(algebras):
    from argshift.centralizer_lab import conjecture_check, nilpotent_from_partition

    L = algebras[("gl", 3)].L
    e = nilpotent_from_partition(L, (2, 1))
    row = conjecture_check(L, e, seed=1)
    dim_c, polys = workloads.conjecture_family(L, e, row.xi)
    assert dim_c == 5 and checks.krull_dimension(polys, dim_c) == 1
    assert checks.check_conjecture(row, (2, 1), 3, 1) == []
    assert checks.check_conjecture(row, (2, 1), 3, 2)  # verdict true on a larger family dimension
    row.star.centralizer_dim += 1
    assert checks.check_conjecture(row, (2, 1), 3, 1)  # wrong dimension
    row.star.centralizer_dim -= 1
    row.report.verdict = False
    assert checks.check_conjecture(row, (2, 1), 3, 1)  # flipped verdict
    assert checks.dual_partition((2, 1, 1)) == [3, 1]


def test_conjecture_row_at_a_special_regular_point():
    """gl_4 at (3, 1): a regular point of (g^e)* whose family is not a regular
    sequence; the program's false verdict is right, and the check accepts it."""
    from argshift.centralizer_lab import conjecture_check, nilpotent_from_partition

    L = liealg.build_classical("gl", 4)
    e = nilpotent_from_partition(L, (3, 1))
    row = conjecture_check(L, e, seed=workloads.sub_seed(629639933, "conjecture (3, 1)"))
    assert row.xi[:3] == [0, 0, 0]
    dim_c, polys = workloads.conjecture_family(L, e, row.xi)
    assert checks.krull_dimension(polys, dim_c) == 2
    assert (row.report.verdict, row.report.ideal_dimension) == (False, 2)
    assert checks.check_conjecture(row, (3, 1), 4, 2) == []
    row.report.verdict = True
    assert checks.check_conjecture(row, (3, 1), 4, 2)  # flipped verdict


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


def test_tracer_spans_nest_and_restore(algebras):
    A = algebras[("sl", 3)]
    orig = groebner.regular_sequence_verdict, Poly.__mul__, liealg.index_of
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.phase_scope("pass"):
            v = workloads.regseq_verdict(A, "sl3 e", workloads.named_point(A, "e"), {"kind": "e"})
            rep, _ = v.run()
    assert rep.verdict is True
    assert (groebner.regular_sequence_verdict, Poly.__mul__, liealg.index_of) == orig
    names = [tracer.names[i] for i in tracer.name_of]
    basis = names.index("groebner.basis")
    assert names[tracer.parent[basis]] == "groebner.verdict"
    assert min(tracer.self_times()) >= 0
    times, counts = tracer.layer_totals()
    assert times["groebner.basis"] > 0
    assert counts["groebner.basis_size"] > 0 and counts["shift.family_terms"] > 0
    metrics = tracer.per_layer_metrics()
    assert [name for name, _ in spans.LAYER_METRICS] == list(metrics)
