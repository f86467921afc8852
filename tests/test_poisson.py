import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.centralizer_lab import nilpotent_from_partition
from argshift.exactpoly import Poly
from argshift.invariants import invariant_generators, verify_invariance
from argshift.liealg import (build_classical, centralizer, draw_regular_dual_point, dual_of, index_of,
                             principal_sl2)
from argshift.poisson import commutativity_report, entry_label, poisson_bracket
from argshift.reports import canonical_json
from argshift.shift import MFGeneratorSet, mf_generators


def rand_poly(rng, arity=3, max_deg=2, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(arity)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(arity, terms)


def test_coordinate_brackets_sl2(algebras):
    L = algebras[("sl", 2)]
    e, h, f = (Poly.variable(3, i) for i in range(3))
    assert poisson_bracket(L, e, f) == h
    assert poisson_bracket(L, h, e) == 2 * e
    assert poisson_bracket(L, h, f) == -2 * f


def test_bracket_of_poly_with_itself_vanishes(algebras):
    L = algebras[("sl", 2)]
    rng = random.Random(1)
    for _ in range(10):
        p = rand_poly(rng)
        assert poisson_bracket(L, p, p).is_zero()


def test_casimir_is_central(algebras, families):
    L = algebras[("sl", 2)]
    cas = families[("sl", 2)].generators[0]
    for k in range(3):
        assert poisson_bracket(L, cas, Poly.variable(3, k)).is_zero()


def test_antisymmetry_and_bilinearity(algebras):
    L = algebras[("sl", 3)]
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, arity=8)
        q = rand_poly(rng, arity=8)
        r = rand_poly(rng, arity=8)
        assert poisson_bracket(L, p, q) == -poisson_bracket(L, q, p)
        assert poisson_bracket(L, p + r, q) == poisson_bracket(L, p, q) + poisson_bracket(L, r, q)


def test_jacobi_identity(algebras):
    L = algebras[("sl", 2)]
    rng = random.Random(9)
    for _ in range(12):
        p, q, r = (rand_poly(rng) for _ in range(3))
        total = (
            poisson_bracket(L, p, poisson_bracket(L, q, r))
            + poisson_bracket(L, q, poisson_bracket(L, r, p))
            + poisson_bracket(L, r, poisson_bracket(L, p, q))
        )
        assert total.is_zero()


def test_leibniz(algebras):
    L = algebras[("sl", 2)]
    rng = random.Random(13)
    for _ in range(12):
        p, q, r = (rand_poly(rng) for _ in range(3))
        left = poisson_bracket(L, p, q * r)
        right = poisson_bracket(L, p, q) * r + q * poisson_bracket(L, p, r)
        assert left == right


def test_commutativity_sl2(algebras, families, triples):
    L = algebras[("sl", 2)]
    mf = mf_generators(L, families[("sl", 2)], dual_of(L, triples[("sl", 2)].e))
    rep = commutativity_report(L, mf)
    assert rep.pair_count == 1
    assert rep.commutes


def test_commutativity_sl3_regular(algebras, families):
    L = algebras[("sl", 3)]
    xi, _ = draw_regular_dual_point(L, 42)
    mf = mf_generators(L, families[("sl", 3)], xi)
    rep = commutativity_report(L, mf)
    assert rep.pair_count == 10
    assert rep.commutes


def test_commutativity_does_not_need_regularity(algebras, families):
    # a singular shift point still yields a commuting family
    L = algebras[("sl", 3)]
    e13 = [Fraction(0)] * 8
    e13[L.basis_labels.index("E13")] = Fraction(1)  # minimal nilpotent, not regular
    mf = mf_generators(L, families[("sl", 3)], dual_of(L, e13))
    assert commutativity_report(L, mf).commutes


def test_adversarial_family_fails(algebras):
    L = algebras[("sl", 2)]
    fake = MFGeneratorSet(
        xi=[Fraction(0)] * 3,
        entries=[(0, 0, Poly.variable(3, 0)), (1, 0, Poly.variable(3, 2))],
        expected_count=2,
    )
    rep = commutativity_report(L, fake)
    assert rep.pair_count == 1
    assert len(rep.failures) == 1
    left, right, br = rep.failures[0]
    assert (left, right) == (entry_label(0, 0), entry_label(1, 0))
    assert br == Poly.variable(3, 1)  # {x_e, x_f} = x_h


def test_adversarial_family_with_rational_coefficients_fails(algebras):
    L = algebras[("sl", 2)]
    fake = MFGeneratorSet(
        xi=[Fraction(0)] * 3,
        entries=[
            (0, 0, Fraction(1, 3) * Poly.variable(3, 0)),
            (1, 0, Fraction(2, 5) * Poly.variable(3, 2)),
        ],
        expected_count=2,
    )
    rep = commutativity_report(L, fake)
    left, right, br = rep.failures[0]
    assert (left, right) == (entry_label(0, 0), entry_label(1, 0))
    assert br.terms == {(0, 1, 0): Fraction(2, 15)}  # {x_e/3, 2x_f/5} = 2x_h/15
    assert rep.to_json_dict()["failures"] == [
        {"left": "D^0(p_1)", "right": "D^0(p_2)", "bracket": "2/15*x1"}
    ]


def test_report_json_shape(algebras, families, triples):
    L = algebras[("sl", 2)]
    mf = mf_generators(L, families[("sl", 2)], dual_of(L, triples[("sl", 2)].e))
    data = commutativity_report(L, mf).to_json_dict()
    # D^0(p_1) is the Casimir, so its one pair is zero without a product
    stats = {"central_members": 1, "pairs_zero_field": 1, "pairs_swapped": 0}
    assert data == {"pair_count": 1, "failure_count": 0, "failures": [], "stats": stats}
    assert canonical_json(data) == canonical_json({**data, "stats": {}})


# -- differential check against the textbook Leibniz sum ----------------------

DIFF_ALGEBRAS = ["sl2", "sl3", "gl3", "sp4", "so5", "gl3 centralizer (2,1)"]


@lru_cache(maxsize=None)
def diff_algebra(name):
    if name.startswith("gl3 centralizer"):
        gl3 = build_classical("gl", 3)
        return centralizer(gl3, nilpotent_from_partition(gl3, (2, 1)))[0]
    return build_classical(name[:-1], int(name[-1]))


def leibniz_reference(L, f, g):
    """sum_{i<j} (df_i dg_j - df_j dg_i) {x_i, x_j}, written out term by term
    from the structure constants (no polynomial products of the library)."""
    df, dg = f.gradient(), g.gradient()
    out = {}
    for (i, j), comps in L.structure.items():
        for a, b, sign in ((df[i], dg[j], 1), (df[j], dg[i], -1)):
            for ma, ca in a.terms.items():
                for mb, cb in b.terms.items():
                    for k, c in comps.items():
                        m = [x + y for x, y in zip(ma, mb)]
                        m[k] += 1
                        m = tuple(m)
                        out[m] = out.get(m, 0) + sign * ca * cb * c
    return Poly(L.dim, out)


def polys_of_degree_at_most_3(dim):
    """Nonconstant terms only, so that most drawn pairs have a nonzero bracket."""
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    mono = st.lists(st.integers(0, dim - 1), min_size=1, max_size=3).map(
        lambda vs: tuple(vs.count(k) for k in range(dim)))
    return st.dictionaries(mono, coeff, min_size=1, max_size=4).map(lambda t: Poly(dim, t))


@pytest.mark.parametrize("name", DIFF_ALGEBRAS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_bracket_matches_leibniz_sum(name, data):
    L = diff_algebra(name)
    f = data.draw(polys_of_degree_at_most_3(L.dim))
    g = data.draw(polys_of_degree_at_most_3(L.dim))
    assert poisson_bracket(L, f, g) == leibniz_reference(L, f, g)
    coords = [Poly.variable(L.dim, k) for k in range(L.dim)]
    assert verify_invariance(L, f) == all(leibniz_reference(L, f, x).is_zero() for x in coords)


@pytest.mark.parametrize("name", DIFF_ALGEBRAS)
def test_verify_invariance_rejects_non_invariant(name):
    L = diff_algebra(name)
    (i, j), _ = next(iter(L.structure.items()))  # {x_i, x_j} != 0, so x_i is not invariant
    x_i = Poly.variable(L.dim, i)
    assert not leibniz_reference(L, x_i, Poly.variable(L.dim, j)).is_zero()
    assert not verify_invariance(L, x_i)
    assert not verify_invariance(L, x_i * x_i + Poly.variable(L.dim, j))


# -- the heaviest commute instances of the benchmark ---------------------------


@pytest.mark.parametrize("kind, size, point, pairs", [("gl", 4, "e", 45), ("sl", 4, "h", 36)])
def test_commutativity_rank_3_families(kind, size, point, pairs):
    L = build_classical(kind, size)
    triple = principal_sl2(L)
    mf = mf_generators(L, invariant_generators(L), dual_of(L, getattr(triple, point)))
    rep = commutativity_report(L, mf)
    assert rep.pair_count == pairs
    assert rep.commutes


# -- oriented pairs and the "central" memo -------------------------------------


def _planted_family(L, mf):
    """mf with two members that fail to commute planted around it: f = p + x_i
    first (p the top invariant: a long gradient, but the short field of x_i)
    and g = x_j / 3 last, where {x_i, x_j} != 0.  The pair (f, g) is cheaper
    as -(grad g . X_f) than as grad f . X_g, so it runs swapped."""
    (i, j), _ = next(iter(L.structure.items()))
    top = max(t for t, _, _ in mf.entries)
    p = next(q for t, s, q in mf.entries if t == top and s == 0)
    f = p + Poly.variable(L.dim, i)
    g = Fraction(1, 3) * Poly.variable(L.dim, j)
    return [(top + 1, 0, f)] + list(mf.entries) + [(top + 2, 0, g)]


@pytest.mark.parametrize("spec", [("sl", 3), ("gl", 3), ("sp", 4)])
def test_failures_match_the_bracket_in_either_orientation(algebras, families, spec):
    L = algebras[spec]
    xi, _ = draw_regular_dual_point(L, 7)
    entries = _planted_family(L, mf_generators(L, families[spec], xi))
    pair = MFGeneratorSet(xi=xi, entries=[entries[0], entries[-1]], expected_count=2)
    planted = MFGeneratorSet(xi=xi, entries=entries, expected_count=len(entries))
    for fam in (pair, planted):
        rep = commutativity_report(L, fam)
        polys = {entry_label(i, j): q for i, j, q in fam.entries}
        assert rep.failures
        for left, right, br in rep.failures:
            expected = poisson_bracket(L, polys[left], polys[right])
            assert br == expected and str(br) == str(expected)
        assert rep.stats["pairs_swapped"] > 0
    assert len(rep.failures) < rep.pair_count  # the family's own pairs still commute


def test_a_failed_invariance_check_is_not_remembered():
    L = build_classical("sl", 3)
    assert not verify_invariance(L, Poly.variable(L.dim, 0))
    assert not L._caches.get("central")
    assert verify_invariance(L, invariant_generators(L).generators[0])
    assert len(L._caches["central"]) == 1


@pytest.mark.parametrize("point", ["e", "random-regular"])
def test_reports_do_not_depend_on_the_memo(algebras, point):
    for kind, size in algebras:
        probe = build_classical(kind, size)  # draw_regular_dual_point runs index_of
        if point == "e":
            xi = dual_of(probe, principal_sl2(probe).e)
        else:
            xi, _ = draw_regular_dual_point(probe, 11)
        fresh, indexed = build_classical(kind, size), build_classical(kind, size)
        index_of(indexed)
        assert "central" not in fresh._caches and indexed._caches["central"]
        reps = [commutativity_report(L, mf_generators(L, invariant_generators(L), xi))
                for L in (fresh, indexed)]
        assert reps[0].commutes
        assert reps[0].stats == reps[1].stats
        assert len({canonical_json(rep.to_json_dict()) for rep in reps}) == 1
