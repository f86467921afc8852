import itertools
import json
import math
import random
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift import bicone, cli, exactpoly, groebner, liealg, linalg
from argshift import centralizer_lab as cl
from argshift.exactpoly import Poly, parse_poly
from argshift.groebner import (
    DimensionReport,
    GBTimeout,
    InternalError,
    buchberger,
    ideal_dimension,
    input_digest,
    normal_form,
    regular_sequence_verdict,
)
from argshift.invariants import invariant_generators
from argshift.liealg import draw_regular_dual_point, dual_of
from argshift.linalg import jacobian_rank
from argshift.reports import canonical_json
from argshift.shift import mf_generators

GOLDEN = Path(__file__).parent / "golden"

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def sympy_dimension(gens, arity, order="grevlex"):
    """Independent oracle: sympy's Groebner engine (under the given order) +
    brute-force subsets."""
    import sympy

    xs = sympy.symbols(f"v0:{arity}")
    exprs = []
    for p in gens:
        e = sympy.Integer(0)
        for mono, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for k, ee in enumerate(mono):
                if ee:
                    term *= xs[k] ** ee
            e += term
        exprs.append(e)
    if not exprs:
        return arity
    gb = sympy.groebner(exprs, *xs, order=order)
    supports = []
    for p in gb.polys:
        exps = p.LM(order=order).exponents
        supp = frozenset(i for i, e in enumerate(exps) if e)
        if not supp:
            return -1
        supports.append(supp)
    best = -1
    for size in range(arity, -1, -1):
        for subset in itertools.combinations(range(arity), size):
            s = set(subset)
            if not any(supp <= s for supp in supports):
                return size
    return best


def sl2_family(algebras, families, triples):
    L = algebras[("sl", 2)]
    xi = dual_of(L, triples[("sl", 2)].e)
    return mf_generators(L, families[("sl", 2)], xi).polynomials()


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def test_normal_form_member_reduces_to_zero():
    gb = buchberger([x * x - y, y * y - x])
    f = (x * x - y) * (x + 3 * y) + (y * y - x) * y
    assert normal_form(f, gb.basis).is_zero()


def test_normal_form_untouched():
    assert normal_form(x, [y]) == x


def test_normal_form_rejects_a_basis_from_another_ring():
    with pytest.raises(ValueError, match="different rings"):
        normal_form(x * y, [Poly.variable(3, 0)])


def test_normal_form_multistep():
    assert normal_form(x * x + x * y, [x]).is_zero()


def test_normal_form_exact_through_rescaling():
    # the integer kernel rescales by the reducer's leading coefficient
    assert normal_form(x * x, [2 * x - y]) == Fraction(1, 4) * y * y
    # x^3 -> 1/3*xy by the first reducer, then 2/3*y^3 -> -2/15*xy by the second
    f = Fraction(1, 2) * x**3 + Fraction(2, 3) * y**3
    assert normal_form(f, [3 * x * x - 2 * y, 5 * y * y + x]) == Fraction(1, 5) * x * y
    g = Fraction(3, 7) * x * y + Fraction(-5, 2) * y
    assert normal_form(g, [Fraction(4, 9) * x * x]) == g
    assert normal_form(g, []) == g


def test_normal_form_of_zero():
    assert normal_form(Poly.zero(2), [2 * x - y]) == Poly.zero(2)
    assert normal_form(Poly.zero(2), []) == Poly.zero(2)


def test_normal_form_skips_zero_reducers():
    g = 2 * x * x - 3 * y
    f = x**3 + x * y + y * y
    assert normal_form(f, [Poly.zero(2), g]) == normal_form(f, [g])


def test_normal_form_shift_invariance(algebras, families, triples):
    # normal_form(f*g + h) == normal_form(h) whenever g is in the ideal
    gens = sl2_family(algebras, families, triples)
    gb = buchberger(gens)
    rng = random.Random(31)
    for _ in range(10):
        f = Poly(
            3,
            {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            },
        )
        h = Poly(
            3,
            {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            },
        )
        g = gens[rng.randrange(len(gens))]
        assert normal_form(f * g + h, gb.basis) == normal_form(h, gb.basis)


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------


def test_zero_generators_are_ignored():
    g = 2 * x * x - 3 * y
    assert buchberger([Poly.zero(2), g, Poly.zero(2)]).basis == buchberger([g]).basis


def _monomials(n, d):
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


@st.composite
def small_systems(draw):
    """2-4 polynomials in 2-4 variables, degree <= 3, small integer coefficients:
    homogeneous, or with terms of every degree up to the top one."""
    n = draw(st.integers(2, 4))
    homogeneous = draw(st.booleans())
    system = []
    for _ in range(draw(st.integers(2, 4))):
        top = draw(st.integers(1, 3))
        monos = [m for d in ([top] if homogeneous else range(top + 1)) for m in _monomials(n, d)]
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(monos), max_size=len(monos)))
        system.append(Poly(n, dict(zip(monos, coeffs))))
    return system


def _monic_term_sets(polys):
    return {frozenset(p.terms.items()) for p in polys}


def _sympy_basis(system):
    """sympy's reduced grevlex Groebner basis of the system over Q, monic."""
    import sympy

    xs = sympy.symbols(f"v0:{system[0].arity}")
    ref = sympy.groebner([_as_sympy(p, xs) for p in system], *xs, order="grevlex", domain="QQ")
    # monic() would divide by the lex leading coefficient
    return [_from_sympy(e / sympy.Poly(e, *xs, domain="QQ").LC(order="grevlex"), xs)
            for e in ref.exprs]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=small_systems(), data=st.data())
def test_reduced_basis_matches_sympy(system, data):
    # the generators enter one at a time, so their order must not matter either
    shuffled = data.draw(st.permutations(system))
    want = _sympy_basis(system)
    for gens in (system, shuffled):
        gb = buchberger(gens)
        assert _monic_term_sets(gb.basis) == _monic_term_sets(want)
        assert len(gb.basis) == len(want)


def _as_sympy(p, xs):
    import sympy

    return sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(xs, m)))
               for m, c in p.terms.items())


def _from_sympy(expr, xs):
    import sympy

    poly = sympy.Poly(expr, *xs, domain="QQ")
    return Poly(len(xs), {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def _shift_family(algebras, families, triples, spec, point):
    L = algebras[spec]
    if point == "h":
        xi = dual_of(L, triples[spec].h)
    else:
        xi = draw_regular_dual_point(L, point)[0]
    return mf_generators(L, families[spec], xi).polynomials()


# 8 and 9 variables: many packed fields, and a degree field on top
SHIFT_CASES = [(("sl", 3), "h"), (("gl", 3), 5), (("gl", 3), 7)]


@pytest.mark.parametrize("spec,point", SHIFT_CASES)
def test_shift_family_basis_and_normal_form_match_sympy(algebras, families, triples, spec, point):
    import sympy

    gens = _shift_family(algebras, families, triples, spec, point)
    n = gens[0].arity
    xs = sympy.symbols(f"v0:{n}")
    ref = sympy.groebner([_as_sympy(p, xs) for p in gens], *xs, order="grevlex", domain="QQ")
    want = []
    for e in ref.exprs:
        lc = sympy.Poly(e, *xs, domain="QQ").LC(order="grevlex")
        want.append(_from_sympy(e / lc, xs))
    gb = buchberger(gens)
    assert _monic_term_sets(gb.basis) == _monic_term_sets(want)
    assert len(gb.basis) == len(want)
    # the engine's decoded record leads are each basis element's degrevlex maximum
    assert gb.leads == [max(p.terms, key=exactpoly.degrevlex_key) for p in gb.basis]
    # normal forms of random polynomials of degree <= 3 are sympy's remainders
    # a str seed is the same in every process, unlike hash() of a str
    rng = random.Random(f"{spec} {point}")
    for _ in range(4):
        f = Poly(n, {
            tuple(rng.choice(_monomials(n, rng.randint(0, 3)))): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(5)
        })
        f = f + gens[rng.randrange(len(gens))] * Poly.variable(n, rng.randrange(n))
        got = normal_form(f, gb.basis)
        assert got == _from_sympy(ref.reduce(_as_sympy(f, xs))[1], xs)


def test_fp_leads_are_the_leading_monomials():
    gb = buchberger([x * x + 3 * x * y - y * y, x * y * y + y * y * y], mod=groebner.SECTION_PRIME)
    assert len(gb.basis) == 3
    assert gb.leads == [max(p.terms, key=exactpoly.degrevlex_key) for p in gb.basis]


def test_exponents_up_to_the_field_limit_round_trip():
    top = 2**31 - 1
    g = Poly(2, {(top, 0): Fraction(3), (0, top): Fraction(-6)})
    gb = buchberger([g])
    assert gb.basis == [Fraction(1, 3) * g]
    assert gb.leads == [(top, 0)]
    assert normal_form(Poly(2, {(top, 0): Fraction(1)}), gb.basis) == Poly(2, {(0, top): Fraction(2)})


def test_exponent_overflow_raises_internal_error(monkeypatch):
    # real width: one exponent of 2^31 does not fit a field
    big = Poly(2, {(2**31, 0): Fraction(1), (0, 2**31): Fraction(1)})
    with pytest.raises(InternalError):
        buchberger([big])
    monkeypatch.setattr(groebner, "EXPONENT_LIMIT", 8)  # exponents and degrees below 8
    u, v, w = (Poly.variable(3, i) for i in range(3))
    degree9 = [u**4 * v**3 * w**2 - w**9, u * v - w**2]
    with pytest.raises(InternalError):
        buchberger(degree9)
    with pytest.raises(InternalError):
        normal_form(degree9[0], [degree9[1]])
    with pytest.raises(InternalError):  # never a verdict
        regular_sequence_verdict([u**9 - v**9, w], 3)
    # degree 7 fits, but an S-pair lcm of degree 8 does not
    with pytest.raises(InternalError):
        buchberger([u**7 + v**7, u**6 * v + w**7])


def test_reduced_gb_is_fixed_point():
    first = buchberger([x * x - y, y * y - x])
    again = buchberger(first.basis)
    assert again.basis == first.basis


def test_sl2_family_leading_terms(algebras, families, triples):
    gens = sl2_family(algebras, families, triples)
    gb = buchberger(gens)
    # reduced basis of (casimir, linear shift): the linear form and h^2
    assert gb.basis == [Poly.variable(3, 0), Poly.variable(3, 1) ** 2]
    assert ideal_dimension(gb) == 1


def test_input_order_does_not_change_reduced_basis(algebras, families, triples):
    gens = sl2_family(algebras, families, triples)
    a = buchberger(gens)
    b = buchberger(list(reversed(gens)))
    assert a.basis == b.basis
    # the input digest tracks the generator sequence
    assert input_digest(gens, 3) != input_digest(list(reversed(gens)), 3)


def test_every_generator_reduces_to_zero_against_own_gb(algebras, families, triples):
    for gens in ([x * x - y, y * y - x], sl2_family(algebras, families, triples)):
        gb = buchberger(gens)
        for g in gens:
            assert normal_form(g, gb.basis).is_zero()


def test_deterministic_repeat(algebras, families, triples):
    gens = sl2_family(algebras, families, triples)
    a = buchberger(gens)
    b = buchberger(gens)
    assert a.basis == b.basis


def test_engine_counters_repeat_and_stay_out_of_digests(algebras, families, triples, monkeypatch):
    gens = _shift_family(algebras, families, triples, ("gl", 3), 5)
    a, b = buchberger(gens), buchberger(gens)
    assert a.stats == b.stats
    assert set(a.stats) == {"pairs_formed", "pairs_koszul", "pairs_rewritten", "zero_reductions",
                            "reduction_steps", "basis_before_minimal", "max_degree",
                            "coeff_bits_max"}
    skipped = a.stats["pairs_koszul"] + a.stats["pairs_rewritten"] + a.stats["zero_reductions"]
    assert 0 < skipped <= a.stats["pairs_formed"]
    assert a.stats["basis_before_minimal"] >= len(a.basis)
    assert a.stats["reduction_steps"] > 0
    section = regular_sequence_verdict(gens, 9)
    assert section.stats == regular_sequence_verdict(gens, 9).stats
    assert section.stats["certificate"]["kind"] == "fp-section"
    monkeypatch.setattr(groebner, "SECTION_MAX_BEZOUT", 0)  # the exact engine decides
    rep = regular_sequence_verdict(gens, 9)
    assert rep.stats == {**a.stats, "certificate": {"kind": "exact"}}
    data = rep.to_json_dict()
    assert data["stats"] == rep.stats
    assert canonical_json(data) == canonical_json({**data, "stats": {}})
    assert canonical_json(data) == canonical_json(section.to_json_dict())


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def test_tiny_golden_dimensions():
    data = json.loads((GOLDEN / "tiny_dimensions.json").read_text())
    for case in data["cases"]:
        arity = case["arity"]
        gens = [parse_poly(t, arity) for t in case["gens"]]
        gb = buchberger(gens, arity=arity)
        if not gens:
            assert gb.basis == []
        assert ideal_dimension(gb) == case["dimension"], case
        assert sympy_dimension(gens, arity) == case["dimension"], case


def test_dimension_of_point_ideal():
    z3 = [Poly.variable(3, i) for i in range(3)]
    assert ideal_dimension(buchberger(z3)) == 0


def test_dimension_order_independent(algebras, families, triples):
    # dim R/I = dim R/in(I) under every order: the degrevlex engine's dimension
    # is the one read off sympy's lex basis
    instances = [
        (sl2_family(algebras, families, triples), "sl2 shift family"),
        (families[("sl", 2)].generators, "sl2 cone"),
        (families[("sl", 3)].generators, "sl3 cone"),
        (families[("gl", 3)].generators, "gl3 cone"),
        (bicone.bicone_generators(algebras[("sl", 2)], families[("sl", 2)]).polynomials(), "sl2 bicone"),
    ]
    for gens, label in instances:
        n = gens[0].arity
        assert ideal_dimension(buchberger(gens)) == sympy_dimension(gens, n, order="lex"), label


def test_dimension_monotone_under_more_generators():
    rng = random.Random(77)
    vars3 = [Poly.variable(3, i) for i in range(3)]
    for _ in range(10):
        gens = []
        last_dim = 3
        for _ in range(3):
            p = Poly(
                3,
                {
                    tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3))
                    for _ in range(2)
                },
            )
            if p.is_zero():
                p = vars3[rng.randrange(3)]
            gens.append(p)
            d = ideal_dimension(buchberger(gens))
            assert d <= last_dim
            last_dim = d


def test_dimension_cross_checked_with_sympy(algebras, families, triples):
    cases = [
        (sl2_family(algebras, families, triples), 3, 1),
        (families[("sl", 2)].generators, 3, 2),
        (bicone.bicone_generators(algebras[("sl", 2)], families[("sl", 2)]).polynomials(), 6, 3),
    ]
    for gens, arity, expected in cases:
        assert ideal_dimension(buchberger(gens)) == expected
        assert sympy_dimension(gens, arity) == expected


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_regseq_sl2(algebras, families, triples):
    rep = regular_sequence_verdict(sl2_family(algebras, families, triples), 3)
    assert (rep.ideal_dimension, rep.expected_dimension, rep.verdict) == (1, 1, True)
    assert rep.status == "ok"


def test_regseq_redundant_generator_is_refused():
    # x and x*y are homogeneous but V(x, xy) = V(x) has dimension 1, not 0
    rep = regular_sequence_verdict([x, x * y], 2)
    assert rep.ideal_dimension == 1
    assert rep.expected_dimension == 0
    assert rep.verdict is False


def test_regseq_nilpotent_cone_gl3(families):
    rep = regular_sequence_verdict(families[("gl", 3)].generators, 9)
    assert rep.ideal_dimension == 6
    assert rep.verdict is True


def test_krull_bound_violation_is_internal_error(monkeypatch):
    assert liealg.InternalError is exactpoly.InternalError is InternalError
    # the leads' Hilbert numerator (1 - t)^2 says dimension 0 in two variables
    monkeypatch.setattr(groebner, "_hilbert_numerator", lambda leads, n: [1, -2, 1])
    monkeypatch.setattr(groebner, "SECTION_MAX_BEZOUT", 0)  # the exact engine decides
    with pytest.raises(InternalError, match="Krull bound"):
        regular_sequence_verdict([x], 2)


def test_regseq_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        regular_sequence_verdict([x + Poly.constant(2, 1)], 2)


def test_regseq_rejects_too_many_generators():
    with pytest.raises(ValueError):
        regular_sequence_verdict([x, y, x + y], 2)


def test_regseq_zero_generator_short_circuits():
    rep = regular_sequence_verdict([x, Poly.zero(2)], 2, zero_labels=[(0, 1)])
    assert rep.verdict is False
    assert rep.status == "degenerate"
    assert rep.zero_generators == [(0, 1)]
    assert rep.ideal_dimension is None


def test_timeout_is_inconclusive(algebras, families):
    # the sp_4 bicone (8 generators in 20 variables) is still inconclusive at 20 s
    gens = bicone.bicone_generators(algebras[("sp", 4)], families[("sp", 4)]).polynomials()
    with pytest.raises(GBTimeout):
        buchberger(gens, timeout_secs=0.01)
    rep = regular_sequence_verdict(gens, 20, timeout_secs=0.01)
    assert rep.verdict is None
    assert rep.status == "inconclusive"
    assert rep.ideal_dimension is None


def test_timeout_bounds_coefficient_growth(algebras, families):
    # the sp_4 bicone (8 generators in 20 variables) runs past 60 s; the budget reads
    # the clock on every reduction step, so 3 s of it end the run well within 10 s
    gens = bicone.bicone_generators(algebras[("sp", 4)], families[("sp", 4)]).polynomials()
    start = time.monotonic()
    with pytest.raises(GBTimeout):
        buchberger(gens, timeout_secs=3)
    assert time.monotonic() - start < 10


def test_basis_with_coefficient_growth_matches_sympy():
    # this system's coefficients grow over the run: its basis must still be sympy's
    gens = [parse_poly(t, 3) for t in [
        "-5/3*x1^2*x2^2 + 1/2*x1*x2^2 + 5/2*x0",
        "-3/2*x0^2*x1^2 + 2*x1^2*x2 - 2/3*x0*x2 + x1*x2",
        "-5/3*x0^2*x1^2*x2 + 2*x0^2*x1^2 - 3*x1^2*x2^2 - 2/3*x0",
    ]]
    gb = buchberger(gens, timeout_secs=60)
    assert _monic_term_sets(gb.basis) == _monic_term_sets(_sympy_basis(gens))


def test_cache_dir_other_than_none_is_rejected():
    with pytest.raises(ValueError):
        regular_sequence_verdict([x, y], 2, cache_dir="x")


# ---------------------------------------------------------------------------
# jacobian rank
# ---------------------------------------------------------------------------


def test_jacobian_rank_sl2_family(algebras, families, triples):
    gens = sl2_family(algebras, families, triples)
    assert jacobian_rank(gens, [1, 0, 0]) == 2


def test_jacobian_rank_at_origin_vanishes():
    assert jacobian_rank([x * x, x * y + y * y], [0, 0]) == 0


def test_jacobian_rank_with_linear_form():
    assert jacobian_rank([x + 2 * y], [5, Fraction(1, 3)]) >= 1


def test_jacobian_rank_rejects_an_empty_point():
    with pytest.raises(ValueError, match="point length"):
        jacobian_rank([x + 2 * y], [])
    with pytest.raises(ValueError, match="point length"):
        jacobian_rank([x * y], [])
    assert jacobian_rank([Poly.constant(0, 3)], []) == 0  # arity 0 matches an empty point


def _sympy_rank(rows):
    """Independent oracle: sympy's exact rank."""
    import sympy

    return sympy.Matrix(rows).rank()


def _fractions(column):
    return [Fraction(int(q.p), int(q.q)) for q in column]


def _seeded_matrices(seed, count):
    """Wide, tall and square rational matrices of rank at most 3: few
    distinct rows and many zeros, so that dependent and zero rows are common."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        base = [[Fraction(rng.choice([0, 0, 0, rng.randint(-4, 4)]), rng.randint(1, 5))
                 for _ in range(n)] for _ in range(rng.randint(1, 3))]
        yield [[sum((rng.randint(-2, 2) * b[j] for b in base), Fraction(0)) for j in range(n)]
               for _ in range(m)]


def test_rank_matches_rref():
    for rows in _seeded_matrices(11, 200):
        assert linalg.rank(rows) == _sympy_rank(rows)
    assert linalg.rank([[0, 3], [0, 6]]) == 1  # int entries too


def test_elimination_matches_sympy():
    import sympy

    rng = random.Random(14)
    dense = ([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(k)]
             for k in (rng.randint(1, 6) for _ in range(60)))  # square, almost all invertible
    shapes, inverted = set(), 0
    for rows in itertools.chain(_seeded_matrices(13, 300), dense):
        m, n = len(rows), len(rows[0])
        M = sympy.Matrix(rows)
        red, pivots = linalg.rref(rows)
        want_red, want_pivots = M.rref()
        assert pivots == list(want_pivots)
        assert red == [_fractions(want_red.row(i)) for i in range(m)]
        assert linalg.rank(rows) == len(pivots) == M.rank()
        assert linalg.nullspace(rows) == [_fractions(v) for v in M.nullspace()]
        if m == n and M.rank() == n:
            inverse = M.inv()
            assert linalg.invert(rows) == [_fractions(inverse.row(i)) for i in range(n)]
            inverted += 1
        elif m == n:
            with pytest.raises(ValueError, match="singular"):
                linalg.invert(rows)
        shapes.add((m < n, m > n, M.rank() < min(m, n), not all(any(r) for r in rows)))
    # wide, tall, square; rank deficient; with a zero row
    assert {s[:2] for s in shapes} == {(True, False), (False, True), (False, False)}
    assert any(s[2] for s in shapes) and any(s[3] for s in shapes) and inverted > 50


def test_det_matches_sympy():
    # seeded integer matrices up to 6 x 6; small entries with many zeros, so
    # that the Bareiss pivot is often zero (a row swap) and many are singular
    import sympy

    rng = random.Random(15)
    kinds = set()
    assert linalg.det([]) == 1
    for _ in range(400):
        k = rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 7]) for _ in range(k)] for _ in range(k)]
        want = sympy.Matrix(rows).det()
        assert linalg.det(rows) == want
        kinds.add((want == 0, rows[0][0] == 0 and want != 0))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_jacobian_rank_of_inhomogeneous_generators_matches_fraction_evaluation():
    # (x0 - pt0)^2 (x1 + 1) has gradient 0 at pt alone, so there the third row
    # depends on the first two
    rng = random.Random(12)
    n = 3
    for _ in range(40):
        f, g = (Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)})
                for _ in range(2))
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n)]
        x0, x1 = Poly.variable(n, 0), Poly.variable(n, 1)
        gens = [f, g, f + 2 * g + (x0 - pt[0]) * (x0 - pt[0]) * (x1 + 1)]
        want = _sympy_rank([[p.diff(j).evaluate(pt) for j in range(n)] for p in gens])
        assert want < 3
        assert jacobian_rank(gens, pt) == want


# ---------------------------------------------------------------------------
# the F_p section certificate
# ---------------------------------------------------------------------------


def _section_and_exact(gens, n):
    """The verdict as selected, and the verdict with the exact engine forced."""
    section = regular_sequence_verdict(gens, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "SECTION_MAX_BEZOUT", 0)
        exact = regular_sequence_verdict(gens, n)
    return section, exact


@pytest.fixture(scope="module")
def so5():
    L = liealg.build_classical("so", 5)
    return L, invariant_generators(L), liealg.principal_sl2(L)


def _point(L, triple, point):
    """Dual coordinates of e, h, ef of the principal triple, or a seeded random regular point."""
    if isinstance(point, int):
        return draw_regular_dual_point(L, point)[0]
    elem = {"e": triple.e, "h": triple.h, "ef": [a + b for a, b in zip(triple.e, triple.f)]}[point]
    return dual_of(L, elem)


SECTION_CASES = [
    *((("sl", 3), p) for p in ("e", "h", "ef", 3, 11)),
    *((("gl", 3), p) for p in ("e", "h", "ef", 3, 11)),
    (("sp", 4), "e"), (("sp", 4), "h"), (("so", 5), "e"), (("so", 5), "h"),
]


@pytest.mark.parametrize("spec,point", SECTION_CASES)
def test_section_report_is_the_exact_report(algebras, families, triples, so5, spec, point):
    L, fam, triple = so5 if spec == ("so", 5) else (algebras[spec], families[spec], triples[spec])
    gens = mf_generators(L, fam, _point(L, triple, point)).polynomials()
    section, exact = _section_and_exact(gens, L.dim)
    assert section.stats["certificate"] == {
        "kind": "fp-section", "prime": 2**31 - 1, "seed": groebner.SECTION_SEED,
        "bezout": prod(p.total_degree() for p in gens),
    }
    assert exact.stats["certificate"] == {"kind": "exact"}
    assert section.verdict is True
    assert canonical_json(section.to_json_dict()) == canonical_json(exact.to_json_dict())
    # F5's theorem: on a regular sequence no S-polynomial reduces to zero
    assert section.stats["zero_reductions"] == exact.stats["zero_reductions"] == 0


@pytest.mark.parametrize("partition", [(3,), (2, 1), (1, 1, 1)])
def test_section_conjecture_rows_are_the_exact_rows(algebras, partition):
    L = algebras[("gl", 3)]
    e = cl.nilpotent_from_partition(L, partition)
    row = cl.conjecture_check(L, e, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "SECTION_MAX_BEZOUT", 0)
        exact = cl.conjecture_check(L, e, seed=5)
    assert row.report.stats["certificate"]["kind"] == "fp-section"
    assert exact.report.stats["certificate"] == {"kind": "exact"}
    assert canonical_json(row.to_json_dict()) == canonical_json(exact.to_json_dict())


# non-regular semisimple points (a repeated eigenvalue or a repeated zero) of the
# defining representation
NON_REGULAR_DIAGONALS = {
    ("sl", 3): (1, 1, -2),
    ("gl", 3): (1, 1, 0),
    ("sp", 4): (1, 0, 0, -1),
    ("so", 5): (1, 0, 0, 0, -1),
}


def _matrix_point(L, entries):
    """Dual coordinates of the matrix with the given {(row, column): value} entries."""
    m = L.meta["size"]
    mat = [[Fraction(entries.get((a, b), 0)) for b in range(m)] for a in range(m)]
    return dual_of(L, liealg.coords_of_matrix(L, mat))


@pytest.mark.parametrize("spec", list(NON_REGULAR_DIAGONALS))
def test_non_regular_points_fall_through_to_the_exact_engine(
    algebras, families, so5, spec, monkeypatch
):
    L, fam = so5[:2] if spec == ("so", 5) else (algebras[spec], families[spec])
    xi = _matrix_point(L, {(a, a): v for a, v in enumerate(NON_REGULAR_DIAGONALS[spec])})
    gens = mf_generators(L, fam, xi).polynomials()
    assert all(not p.is_zero() for p in gens)
    assert prod(p.total_degree() for p in gens) <= groebner.SECTION_MAX_BEZOUT
    runs = []
    real = groebner.buchberger

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(groebner, "buchberger", recorded)
    rep = regular_sequence_verdict(gens, L.dim)
    assert rep.status == "ok" and rep.verdict is False
    assert rep.ideal_dimension > rep.expected_dimension
    assert rep.stats["certificate"] == {"kind": "exact"}
    section, exact = runs
    assert rep.input_hash == input_digest(gens, L.dim)
    assert section.stats["zero_reductions"] == 1  # it stops at the first
    assert exact.stats["zero_reductions"] >= 1


def _construction_order(L, gens):
    """gens with their variables renamed to the order the basis is built in,
    before build_classical sorts it by principal weight."""
    build = {"gl": liealg._gl_basis, "sl": liealg._sl_basis}[L.meta["type"]]
    labels = build(L.meta["size"])[1]
    target = [labels.index(label) for label in L.basis_labels]

    def rename(p):
        monos = {}
        for mono, c in p:
            old = [0] * L.dim
            for i, e in enumerate(mono):
                old[target[i]] = e
            monos[tuple(old)] = c
        return Poly(L.dim, monos)

    return [rename(p) for p in gens]


@pytest.mark.parametrize("spec", [("sl", 3), ("gl", 3)])
@pytest.mark.parametrize("point", ["e", "h", "ef", "zero", "non-regular"])
def test_weight_order_changes_no_verdict(algebras, families, triples, spec, point):
    L, t = algebras[spec], triples[spec]
    if point == "non-regular":
        xi = _matrix_point(L, {(a, a): v for a, v in enumerate(NON_REGULAR_DIAGONALS[spec])})
    elif point == "zero":
        xi = [Fraction(0)] * L.dim
    else:
        xi = dual_of(L, {"e": t.e, "h": t.h, "ef": [a + b for a, b in zip(t.e, t.f)]}[point])
    family = mf_generators(L, families[spec], xi)
    gens = family.polynomials()
    reports = [regular_sequence_verdict(g, L.dim, zero_labels=family.zero_entries)
               for g in (gens, _construction_order(L, gens))]
    assert reports[0].status == reports[1].status
    assert reports[0].verdict == reports[1].verdict
    assert reports[0].ideal_dimension == reports[1].ideal_dimension
    assert reports[0].verdict is (point not in ("zero", "non-regular"))


def test_minimal_nilpotent_is_decided_before_the_section(algebras, families):
    # the top shift of the cubic invariant vanishes at E13, so no engine runs
    L = algebras[("sl", 3)]
    family = mf_generators(L, families[("sl", 3)], _matrix_point(L, {(0, 2): 1}))
    rep = regular_sequence_verdict(family.polynomials(), L.dim, zero_labels=family.zero_entries)
    assert rep.status == "degenerate" and rep.verdict is False
    assert rep.zero_generators == [(1, 2)]
    assert rep.stats == {"certificate": {"kind": "degenerate"}}


@st.composite
def positive_degree_systems(draw):
    """k homogeneous polynomials of degree 1-3 in n variables, 2 <= k <= n <= 5."""
    n = draw(st.integers(2, 5))
    system = []
    for _ in range(draw(st.integers(2, n))):
        monos = draw(st.lists(st.sampled_from(_monomials(n, draw(st.integers(1, 3)))),
                              min_size=1, max_size=5, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(monos), max_size=len(monos)))
        system.append(Poly(n, dict(zip(monos, coeffs))))
    return system


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=positive_degree_systems())
def test_section_certificate_is_sound(system):
    # only this direction is claimed: a seeded section of a regular sequence may,
    # on a thin set of inputs, fail to be zero-dimensional and leave the verdict
    # to the exact engine
    n, k = system[0].arity, len(system)
    degrees = [p.total_degree() for p in system]
    if groebner._section_certificate(system, n, degrees, None) is not None:
        assert ideal_dimension(buchberger(system)) == n - k


def test_bicone_above_the_bezout_cap_uses_the_exact_engine(algebras, families):
    L, fam = algebras[("sl", 3)], families[("sl", 3)]
    gens = bicone.bicone_generators(L, fam).polynomials()
    assert prod(p.total_degree() for p in gens) == 648 > groebner.SECTION_MAX_BEZOUT
    rep = bicone.bicone_dimension_check(L, fam)
    assert rep.verdict is True and rep.ideal_dimension == 9
    assert rep.stats["certificate"] == {"kind": "exact"}
    assert rep.stats["zero_reductions"] == 0


def test_zero_reduction_in_a_true_exact_verdict_is_internal_error(monkeypatch):
    real = groebner.buchberger

    def one_more_zero_reduction(*args, **kwargs):
        gb = real(*args, **kwargs)
        gb.stats["zero_reductions"] += 1
        return gb

    monkeypatch.setattr(groebner, "buchberger", one_more_zero_reduction)
    monkeypatch.setattr(groebner, "SECTION_MAX_BEZOUT", 0)  # the exact engine decides
    assert regular_sequence_verdict([x, x * y], 2).verdict is False  # false: no check
    with pytest.raises(InternalError, match="F5's theorem"):
        regular_sequence_verdict([x * x, y * y], 2)


def test_inconclusive_report_keeps_partial_counters(algebras, families):
    L, fam = algebras[("sp", 4)], families[("sp", 4)]  # inconclusive at 20 s
    rep = bicone.bicone_dimension_check(L, fam, timeout_secs=0.05)
    assert rep.status == "inconclusive" and rep.verdict is None
    assert set(rep.stats) == {"pairs_formed", "reduction_steps", "basis_size", "certificate"}
    assert rep.stats["reduction_steps"] > 0
    assert rep.stats["certificate"] == {"kind": "exact"}
    # the canonical report is the one without counters
    assert canonical_json(rep.to_json_dict()) == (
        '{"arity":20,"counting_identity":{"b":6,"degree_sum":6,"dim":10,"generator_count":8,'
        '"identity_ok":true,"index":2,"three_b_minus_ell":12},"expected_dimension":12,'
        '"generator_count":8,"ideal_dimension":null,"input_hash":null,'
        '"order":{"kind":"degrevlex","permutation":null},"status":"inconclusive",'
        '"verdict":null,"zero_generators":[]}'
    )


def test_section_timeout_names_the_section(algebras, families, triples):
    gens = _shift_family(algebras, families, triples, ("gl", 3), 5)
    rep = regular_sequence_verdict(gens, 9, timeout_secs=0)
    assert rep.status == "inconclusive" and rep.verdict is None
    assert rep.stats["certificate"]["kind"] == "fp-section"
    bare = DimensionReport(9, len(gens), None, 9 - len(gens), None, status="inconclusive")
    assert canonical_json(rep.to_json_dict()) == canonical_json(bare.to_json_dict())


def test_section_budget_covers_building_the_section(algebras, families, triples, monkeypatch):
    L = algebras[("sl", 3)]
    gens = mf_generators(L, families[("sl", 3)], dual_of(L, triples[("sl", 3)].e)).polynomials()
    substitute = Poly.substitute

    def slow_substitute(self, images):
        time.sleep(0.5)
        return substitute(self, images)

    monkeypatch.setattr(Poly, "substitute", slow_substitute)
    rep = regular_sequence_verdict(gens, 8, timeout_secs=0.3)
    assert rep.status == "inconclusive" and rep.verdict is None
    assert rep.stats["certificate"]["kind"] == "fp-section"


def _planting(monkeypatch, lead_of):
    """buchberger with one more lead, lead_of(gb, mod), in each result it
    returns for which lead_of gives one."""
    real = groebner.buchberger

    def planted(*args, **kwargs):
        gb = real(*args, **kwargs)
        extra = lead_of(gb, kwargs.get("mod", 0))
        if extra is not None:
            gb.leads.append(extra)
        return gb

    monkeypatch.setattr(groebner, "buchberger", planted)


def test_planted_lead_in_a_true_section_is_internal_error(
    algebras, families, triples, monkeypatch, capsys
):
    L = algebras[("sl", 3)]
    gens = mf_generators(L, families[("sl", 3)], dual_of(L, triples[("sl", 3)].e)).polynomials()

    def standard_quadric(gb, mod):  # over F_p only: a degree-2 monomial outside the leads' ideal
        if not mod:
            return None
        return next(m for m in _monomials(gb.arity, 2)
                    if not any(all(a <= b for a, b in zip(lm, m)) for lm in gb.leads))

    _planting(monkeypatch, standard_quadric)
    with pytest.raises(InternalError, match="F_p section has Hilbert numerator"):
        regular_sequence_verdict(gens, 8)
    assert cli.main(["regseq", "--type", "sl", "--size", "3", "--xi", "e"]) == cli.EXIT_INTERNAL
    assert "prod(1 - t^d) over the degrees [2, 1, 3, 2, 1]" in capsys.readouterr().err


def test_planted_lead_in_a_true_exact_verdict_is_internal_error(monkeypatch):
    u, v, w = (Poly.variable(3, i) for i in range(3))
    monkeypatch.setattr(groebner, "SECTION_MAX_BEZOUT", 0)  # the exact engine decides
    gb = buchberger([u**2, v**2])
    assert gb.hilbert_numerator == [1, 0, -2, 0, 1]
    _planting(monkeypatch, lambda gb, mod: (1, 1, 1))
    planted = groebner.buchberger([u**2, v**2])
    # the dimension stays 1: only the product check sees the planted lead x*y*z
    assert ideal_dimension(planted) == 1 and planted.hilbert_numerator == [1, 0, -2, -1, 3, -1]
    with pytest.raises(InternalError, match="Hilbert numerator"):
        regular_sequence_verdict([u**2, v**2], 3)
    assert regular_sequence_verdict([u**2, u * v], 3).verdict is False  # false: no check


@st.composite
def monomial_ideals(draw):
    """Up to 6 leads in 1-4 variables, each of degree at most 4 (the constant too)."""
    n = draw(st.integers(1, 4))
    monos = [m for d in range(5) for m in _monomials(n, d)]
    return n, draw(st.lists(st.sampled_from(monos), max_size=6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ideal=monomial_ideals())
def test_hilbert_numerator_counts_standard_monomials(ideal):
    n, leads = ideal
    gb = groebner.GroebnerBasis(arity=n, leads=leads)
    top = 9
    # N(t)/(1 - t)^n, expanded: the coefficient of t^d in 1/(1 - t)^n is C(d + n - 1, n - 1)
    N = gb.hilbert_numerator
    series = [sum(c * math.comb(d - i + n - 1, n - 1) for i, c in enumerate(N) if i <= d)
              for d in range(top)]
    standard = [sum(1 for m in _monomials(n, d)
                    if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads))
                for d in range(top)]
    assert series == standard
    # the largest set of variables that holds the support of no lead; none for the unit ideal
    free = [len(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)
            if not any(all(i in s for i, e in enumerate(lm) if e) for lm in leads)]
    assert ideal_dimension(gb) == max(free, default=-1)


@pytest.mark.parametrize("bezout_cap", [groebner.SECTION_MAX_BEZOUT, 0])
def test_verdicts_read_no_reduced_basis(algebras, families, triples, monkeypatch, bezout_cap):
    def refuse(*args):
        raise AssertionError("a verdict built a reduced basis")

    monkeypatch.setattr(groebner, "_reduce_and_normalize", refuse)
    monkeypatch.setattr(groebner, "SECTION_MAX_BEZOUT", bezout_cap)
    L = algebras[("sl", 3)]
    gens = mf_generators(L, families[("sl", 3)], dual_of(L, triples[("sl", 3)].e)).polynomials()
    rep = regular_sequence_verdict(gens, 8)
    assert rep.verdict is True
    assert rep.stats["certificate"]["kind"] == ("fp-section" if bezout_cap else "exact")
    assert regular_sequence_verdict([x, x * y], 2).verdict is False
    t = triples[("sl", 3)]
    assert bicone.pencil_regularity(L, families[("sl", 3)], t.e, t.f)
