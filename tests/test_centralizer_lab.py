from fractions import Fraction

import pytest

from argshift.centralizer_lab import (
    _slice_pipeline,
    _split_initial,
    all_partitions,
    condition_star,
    conjecture_check,
    nilpotent_from_partition,
    transport_to_centralizer,
)
from argshift import centralizer_lab, liealg, linalg
from argshift.exactpoly import Poly
from argshift.groebner import regular_sequence_verdict
from argshift.invariants import (
    generic_dual_matrix,
    invariant_generators,
    power_sums_to_elementary,
    power_traces,
    verify_invariance,
)
from argshift.liealg import (
    build_classical,
    centralizer,
    draw_regular_dual_point,
    index_of,
    jordan_blocks,
    jordan_triple,
    kostant_slice,
    matrix_of_coords,
    verify_sl2,
)
from argshift.shift import mf_generators

PARTITIONS3 = [(1, 1, 1), (2, 1), (3,)]
GL_PARTITIONS = [(n, part) for n in (2, 3, 4, 5) for part in all_partitions(n)]


def test_nilpotent_from_partition(algebras):
    L = algebras[("gl", 3)]
    lab = {x: i for i, x in enumerate(L.basis_labels)}
    assert not any(nilpotent_from_partition(L, (1, 1, 1)))
    e21 = nilpotent_from_partition(L, (2, 1))
    assert e21[lab["E12"]] == 1 and sum(map(abs, e21)) == 1
    e3 = nilpotent_from_partition(L, (3,))
    assert e3[lab["E12"]] == 1 and e3[lab["E23"]] == 1 and sum(map(abs, e3)) == 2


def test_nilpotent_from_partition_validates(algebras):
    L = algebras[("gl", 3)]
    with pytest.raises(ValueError):
        nilpotent_from_partition(L, (2, 2))
    with pytest.raises(ValueError):
        nilpotent_from_partition(L, (1, 2))


def test_jordan_blocks_round_trip(algebras):
    L = algebras[("gl", 3)]
    for part in PARTITIONS3:
        e = nilpotent_from_partition(L, part)
        assert jordan_blocks(matrix_of_coords(L, e)) == part
    for n in (4, 5):
        Ln = build_classical("gl", n)
        for part in all_partitions(n):
            e = nilpotent_from_partition(Ln, part)
            assert jordan_blocks(matrix_of_coords(Ln, e)) == part


def test_condition_star_rejects_identity(algebras):
    L = algebras[("gl", 3)]
    identity = [Fraction(0)] * 9
    for a in (1, 2, 3):
        identity[L.basis_labels.index(f"E{a}{a}")] = Fraction(1)
    with pytest.raises(ValueError):
        condition_star(L, identity)


def test_condition_star_rejects_increasing_blocks(algebras):
    L = algebras[("gl", 3)]
    e23 = [Fraction(0)] * 9
    e23[L.basis_labels.index("E23")] = Fraction(1)  # Jordan form with blocks (1, 2)
    with pytest.raises(ValueError, match="non-increasing"):
        condition_star(L, e23)


def test_blockwise_triples(algebras):
    L = algebras[("gl", 3)]
    for part in PARTITIONS3:
        t = jordan_triple(L, part)
        verify_sl2(L, t)
        assert t.e == nilpotent_from_partition(L, part)


def test_condition_star_requires_jordan_form(algebras):
    L = algebras[("gl", 3)]
    e13 = [Fraction(0)] * 9
    e13[L.basis_labels.index("E13")] = Fraction(1)  # type (2,1), wrong position
    with pytest.raises(ValueError):
        condition_star(L, e13)


def test_condition_star_rejects_non_nilpotent(algebras):
    L = algebras[("gl", 3)]
    d = [Fraction(0)] * 9
    d[L.basis_labels.index("E11")] = Fraction(1)
    with pytest.raises(ValueError):
        condition_star(L, d)


def test_restriction_for_zero_element_is_identity(algebras, families, slice_substitution):
    L = algebras[("gl", 3)]
    zero = [Fraction(0)] * L.dim
    chart = kostant_slice(L, jordan_triple(L, (1, 1, 1)))
    standard = [[Fraction(int(i == j)) for i in range(L.dim)] for j in range(L.dim)]
    assert chart.centralizer is L and chart.ge_basis == standard
    # the basis dual to the standard one is the columns of form^-1, so the
    # chart's matrix is the generic dual matrix
    assert chart.directions == [list(col) for col in zip(*L.form_inverse())]
    assert chart.matrix == generic_dual_matrix(L)
    fam = families[("gl", 3)]
    for p in fam.generators:
        # with e = 0 the substitution is x = form . form^-1 u = u
        assert slice_substitution(L, chart, zero, p) == p
    # and the pipeline's family is the power traces themselves
    pipe = _slice_pipeline(L, zero)
    assert pipe.family.generators == power_traces(chart.matrix, fam.degrees) == fam.generators


def test_sl2_casimir_restriction_is_linear(algebras, families, triples, slice_substitution):
    L = algebras[("sl", 2)]
    t = triples[("sl", 2)]
    chart = kostant_slice(L, t)
    casimir = families[("sl", 2)].generators[0]
    # g^e is spanned by e, and its dual direction v has (e | v) = 1, v^2 = 0:
    # tr((e + u v)^2) = 2u(e|v) = 2u is purely linear
    assert chart.ge_basis == [t.e]
    assert power_traces(chart.matrix, [2]) == [Poly.linear_form([2])]
    assert slice_substitution(L, chart, t.e, casimir) == Poly.linear_form([2])


@pytest.mark.parametrize("n, part", GL_PARTITIONS)
def test_power_traces_of_the_chart_matrix_are_the_restrictions(n, part, slice_substitution):
    # the power traces of the chart's matrix equal the power traces
    # restricted by substitution; the pipeline's restrictions and their
    # initial parts (power traces, or the char-poly coefficients by Newton's
    # identities in the ambient ring) equal the same reference
    L = build_classical("gl", n)
    e = nilpotent_from_partition(L, part)
    chart = kostant_slice(L, jordan_triple(L, part))
    fam = invariant_generators(L)
    reference = [slice_substitution(L, chart, e, p) for p in fam.generators]
    assert power_traces(chart.matrix, fam.degrees) == reference
    pipe = _slice_pipeline(L, e)
    if pipe.star.generator_family == "char-coefficients":
        reference = [slice_substitution(L, chart, e, q)
                     for q in power_sums_to_elementary(fam.generators)]
    assert [sr.restricted for sr in pipe.restrictions] == reference
    ordered = sorted(pipe.restrictions, key=lambda sr: (sr.initial_degree, sr.source_index))
    assert pipe.family.generators == [
        _split_initial(reference[sr.source_index], sr.source_index).initial for sr in ordered]


def test_condition_star_gl3(algebras):
    L = algebras[("gl", 3)]
    expected = {
        (1, 1, 1): ([1, 2, 3], 6),
        (2, 1): ([1, 1, 2], 4),
        (3,): ([1, 1, 1], 3),
    }
    for part, (degs, b) in expected.items():
        star = condition_star(L, nilpotent_from_partition(L, part))
        assert star.partition == part
        assert star.initial_degrees == degs
        assert star.degree_sum == b == star.b_centralizer
        assert star.verdict


def test_transport_is_invariant(algebras):
    L = algebras[("gl", 3)]
    pipe = _slice_pipeline(L, nilpotent_from_partition(L, (2, 1)))
    for sr in pipe.restrictions:
        q = transport_to_centralizer(sr, pipe.chart, pipe.centralizer)
        assert verify_invariance(pipe.centralizer, q)
        assert q.total_degree() == sr.initial_degree


def test_transport_identity_for_zero(algebras, families):
    L = algebras[("gl", 3)]
    pipe = _slice_pipeline(L, [Fraction(0)] * L.dim)
    assert pipe.centralizer is L
    for sr, p in zip(pipe.restrictions, families[("gl", 3)].generators):
        assert transport_to_centralizer(sr, pipe.chart, pipe.centralizer) == p
    with pytest.raises(ValueError, match="does not match the slice chart"):
        transport_to_centralizer(sr, pipe.chart, algebras[("gl", 2)])


def test_chart_maps_need_no_dual_or_inverse_after_kostant_slice(monkeypatch):
    # kostant_slice computes the duals and the Gram inverse once; the
    # restrictions are read from the chart's matrix alone.  These partitions
    # take the char-poly coefficients (test_gl4_2_1_1_needs_char_coefficients),
    # formed on the slice by Newton's identities
    pipes = []
    for n, part in [(4, (2, 1, 1)), (5, (3, 1, 1)), (5, (2, 1, 1, 1))]:
        L = build_classical("gl", n)
        pipes.append(_slice_pipeline(L, nilpotent_from_partition(L, part)))

    def refuse(*args):
        raise AssertionError("recomputed after kostant_slice")

    for module, name in [(liealg, "dual_of"), (linalg, "invert")]:
        monkeypatch.setattr(module, name, refuse)

    for pipe in pipes:
        assert pipe.star.generator_family == "char-coefficients"
        traces = power_traces(pipe.chart.matrix, list(range(1, len(pipe.restrictions) + 1)))
        char = power_sums_to_elementary(traces)
        assert [sr.restricted for sr in pipe.restrictions] == char
        # the pipeline's family lists the initial components by (initial degree, source index)
        ordered = sorted(pipe.restrictions, key=lambda sr: (sr.initial_degree, sr.source_index))
        assert [_split_initial(char[sr.source_index], 0).initial
                for sr in ordered] == pipe.family.generators
        assert [sr.initial_degree for sr in ordered] == pipe.family.degrees


def test_pipeline_restricts_once_and_certifies_once(monkeypatch):
    # gl_4 (2,1,1) falls back to the char-poly coefficients: ker(ad e) is
    # computed once, the power traces are restricted by one pass over the
    # chart's matrix with no substitution, Newton's identities run on the
    # restrictions, and only the chosen family is certified
    L = build_classical("gl", 4)
    e = nilpotent_from_partition(L, (2, 1, 1))
    ad_e = liealg.adjoint_matrix(L, e)
    substituted, traced, newton, certified, kernels = [], [], [], [], []
    real_substitute, real_traces = Poly.substitute, power_traces
    real_newton, real_index, real_nullspace = power_sums_to_elementary, index_of, linalg.nullspace

    def substitute(self, images):
        substituted.append(self.arity)
        return real_substitute(self, images)

    def traces(X, powers):
        traced.append(X[0][0].arity)
        return real_traces(X, powers)

    def elementary(polys):
        newton.append({p.arity for p in polys})
        return real_newton(polys)

    def index(*args):
        certified.append(args)
        return real_index(*args)

    def nullspace(rows):
        kernels.append(rows == ad_e)
        return real_nullspace(rows)

    monkeypatch.setattr(Poly, "substitute", substitute)
    monkeypatch.setattr(centralizer_lab, "power_traces", traces)
    monkeypatch.setattr(centralizer_lab, "power_sums_to_elementary", elementary)
    monkeypatch.setattr(centralizer_lab, "index_of", index)
    monkeypatch.setattr(liealg, "index_of", index)
    monkeypatch.setattr(linalg, "nullspace", nullspace)
    pipe = _slice_pipeline(L, e)
    m = pipe.centralizer.dim
    assert pipe.star.generator_family == "char-coefficients"
    assert substituted == []
    assert traced == [m]
    assert newton == [{m}]
    assert len(certified) == 1
    assert kernels.count(True) == 1


def test_conjecture_rows_gl3(algebras):
    L = algebras[("gl", 3)]
    expected_dims = {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
    for part in PARTITIONS3:
        row = conjecture_check(L, nilpotent_from_partition(L, part), seed=42)
        assert row.partition == part
        assert row.star.verdict
        assert row.report.verdict is True
        assert row.report.ideal_dimension == expected_dims[part]
        assert row.report.generator_count == row.star.b_centralizer


def test_conjecture_false_row_at_a_special_regular_point():
    # a false row is a verdict at the one seeded regular point it draws: this
    # draw has zero coordinates, and there the ideal has dimension 2, not 1
    L = build_classical("gl", 4)
    row = conjecture_check(L, nilpotent_from_partition(L, (3, 1)), seed=1966748487)
    assert row.xi == [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 9), Fraction(-10),
                      Fraction(3)]
    assert row.report.verdict is False
    assert row.report.ideal_dimension == 2
    assert row.report.to_json_dict()["stats"]["certificate"] == {"kind": "exact"}


def test_conjecture_zero_partition_reproduces_ambient_run(algebras):
    L = algebras[("gl", 3)]
    row = conjecture_check(L, nilpotent_from_partition(L, (1, 1, 1)), seed=42)
    fam = invariant_generators(L)
    xi, _ = draw_regular_dual_point(L, 42)
    mf = mf_generators(L, fam, xi)
    rep = regular_sequence_verdict(mf.polynomials(), 9)
    assert row.xi == xi
    assert row.report.to_json_dict() == rep.to_json_dict()


def test_conjecture_requires_star(algebras, monkeypatch):
    # force a failing hypothesis by corrupting the star verdict
    import argshift.centralizer_lab as cl

    L = algebras[("gl", 3)]
    e = nilpotent_from_partition(L, (2, 1))
    real = cl._slice_pipeline

    def broken(Lx, ex):
        pipe = real(Lx, ex)
        pipe.star.verdict = False
        return pipe

    monkeypatch.setattr(cl, "_slice_pipeline", broken)
    with pytest.raises(ValueError):
        conjecture_check(L, e, seed=1)


def test_all_partitions():
    assert all_partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert all_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_gl3_star_uses_power_traces(algebras):
    L = algebras[("gl", 3)]
    for part in PARTITIONS3:
        star = condition_star(L, nilpotent_from_partition(L, part))
        assert star.generator_family == "power-traces"


def test_gl4_2_1_1_needs_char_coefficients():
    # the power traces reach degree sum 6 < b = 7 here; the condition is
    # existential over generator choices and the char-poly coefficients meet it
    L = build_classical("gl", 4)
    star = condition_star(L, nilpotent_from_partition(L, (2, 1, 1)))
    assert star.verdict
    assert star.generator_family == "char-coefficients"
    assert star.degree_sum == star.b_centralizer == 7


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pipeline_certifies_every_centralizer_index(n):
    # the chosen transported family certifies ind(g^e) = n for every Jordan type
    L = build_classical("gl", n)
    for part in all_partitions(n):
        pipe = _slice_pipeline(L, nilpotent_from_partition(L, part))
        rep = index_of(pipe.centralizer)
        assert (rep.mode, rep.index) == ("exact", n)
        assert pipe.star.centralizer_index == n


def test_zero_element_certifies_with_the_transported_family(algebras, monkeypatch):
    # for e = 0 the centralizer is gl_3 itself, whose exact index is memoized;
    # the restricted family must still be checked, so a planted non-central
    # generator x1 * tr(X) is caught
    L = algebras[("gl", 3)]
    index_of(L)
    real = centralizer_lab.power_traces

    def planted(X, powers):
        first, *rest = real(X, powers)
        return [first * Poly.variable(first.arity, 1), *rest]

    monkeypatch.setattr(centralizer_lab, "power_traces", planted)
    with pytest.raises(liealg.InternalError, match="not Poisson-central"):
        condition_star(L, nilpotent_from_partition(L, (1, 1, 1)))
    assert index_of(L).mode == "exact"


def test_dependent_transported_family_leaves_index_sampled():
    # the initial components of gl_4's four power traces on the (2,1,1) slice
    # have Jacobian rank 3, one short of the index 4, so they certify nothing
    L = build_classical("gl", 4)
    chart = kostant_slice(L, jordan_triple(L, (2, 1, 1)))
    traces = [_split_initial(q, i).initial
              for i, q in enumerate(power_traces(chart.matrix, [1, 2, 3, 4]))]
    rep = index_of(chart.centralizer, traces)
    assert (rep.mode, rep.index) == ("sampled", 4)


def test_centralizer_dims_match_slice(algebras):
    L = algebras[("gl", 3)]
    for part in PARTITIONS3:
        Lc, _ = centralizer(L, nilpotent_from_partition(L, part))
        chart = kostant_slice(L, jordan_triple(L, part))
        assert len(chart.directions) == Lc.dim
