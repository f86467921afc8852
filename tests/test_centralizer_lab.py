from fractions import Fraction

import pytest

from argshift.centralizer_lab import (
    _slice_pipeline,
    all_partitions,
    condition_star,
    conjecture_check,
    nilpotent_from_partition,
    restrict_to_slice,
    transport_to_centralizer,
)
from argshift import centralizer_lab, liealg, linalg
from argshift.groebner import regular_sequence_verdict
from argshift.invariants import invariant_generators, power_sums_to_elementary, verify_invariance
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


def test_restriction_for_zero_element_is_identity(algebras, families):
    L = algebras[("gl", 3)]
    chart = kostant_slice(L, jordan_triple(L, (1, 1, 1)))
    standard = [[Fraction(int(i == j)) for i in range(L.dim)] for j in range(L.dim)]
    assert chart.directions == chart.ge_basis == standard
    assert chart.pairing_gram == L.form
    for p in families[("gl", 3)].generators:
        sr = restrict_to_slice(p, chart)
        # with e = 0 the substitution is x = form . t, a linear change only
        assert sr.initial_degree == p.total_degree()
        assert sr.restricted == sr.initial


def test_sl2_casimir_restriction_is_linear(algebras, families, triples):
    L = algebras[("sl", 2)]
    chart = kostant_slice(L, triples[("sl", 2)])
    sr = restrict_to_slice(families[("sl", 2)].generators[0], chart)
    assert sr.initial_degree == 1
    assert sr.restricted == sr.initial  # tr((e + t f)^2) = 2t(e|f): purely linear


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
    chart = kostant_slice(L, jordan_triple(L, (1, 1, 1)))
    Lc, _ = centralizer(L, [Fraction(0)] * 9)
    for p in families[("gl", 3)].generators:
        sr = restrict_to_slice(p, chart, source_index=0)
        assert transport_to_centralizer(sr, chart, Lc) == p


def test_chart_maps_need_no_dual_or_inverse_after_kostant_slice(monkeypatch):
    # kostant_slice computes the duals and the Gram inverse once; restriction
    # and transport only substitute the chart's maps
    L = build_classical("gl", 4)
    e = nilpotent_from_partition(L, (2, 1, 1))
    pipe = _slice_pipeline(L, e)
    fam = invariant_generators(L).generators

    def refuse(*args):
        raise AssertionError("recomputed after kostant_slice")

    for module, name in [(liealg, "dual_of"), (linalg, "invert")]:
        monkeypatch.setattr(module, name, refuse)

    def moved(family):
        return [transport_to_centralizer(restrict_to_slice(p, pipe.chart, i), pipe.chart,
                                         pipe.centralizer) for i, p in enumerate(family)]

    assert len(moved(fam)) == 4
    # (2,1,1) takes the char-poly coefficients (test_gl4_2_1_1_needs_char_coefficients)
    assert moved(power_sums_to_elementary(fam)) == pipe.transported


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


@pytest.mark.parametrize("n", [3, 4])
def test_pipeline_certifies_every_centralizer_index(n):
    # the chosen transported family certifies ind(g^e) = n for every Jordan type
    L = build_classical("gl", n)
    for part in all_partitions(n):
        pipe = _slice_pipeline(L, nilpotent_from_partition(L, part))
        rep = index_of(pipe.centralizer)
        assert (rep.mode, rep.index) == ("exact", n)
        assert pipe.star.centralizer_index == n


def test_dependent_transported_family_leaves_index_sampled():
    # the four power traces of gl_4 transported to the (2,1,1) centralizer
    # have Jacobian rank 3, one short of the index 4, so they certify nothing
    L = build_classical("gl", 4)
    part = (2, 1, 1)
    chart = kostant_slice(L, jordan_triple(L, part))
    Lc, _ = centralizer(L, nilpotent_from_partition(L, part))
    traces = [
        transport_to_centralizer(restrict_to_slice(p, chart), chart, Lc)
        for p in invariant_generators(L).generators
    ]
    rep = index_of(Lc, traces)
    assert (rep.mode, rep.index) == ("sampled", 4)


def test_centralizer_dims_match_slice(algebras):
    L = algebras[("gl", 3)]
    for part in PARTITIONS3:
        Lc, _ = centralizer(L, nilpotent_from_partition(L, part))
        chart = kostant_slice(L, jordan_triple(L, part))
        assert len(chart.directions) == Lc.dim
