import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift import bicone
from argshift.exactpoly import Poly, parse_poly
from argshift.groebner import (
    GBTimeout,
    MonomialOrder,
    buchberger,
    ideal_dimension,
    jacobian_rank,
    normal_form,
    regular_sequence_verdict,
)
from argshift.liealg import dual_of
from argshift.shift import mf_generators

GOLDEN = Path(__file__).parent / "golden"

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def sympy_dimension(gens, arity):
    """Independent oracle: sympy's Groebner engine + brute-force subsets."""
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
    gb = sympy.groebner(exprs, *xs, order="grevlex")
    supports = []
    for p in gb.polys:
        exps = p.LM(order="grevlex").exponents
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
    assert normal_form(f, gb.basis, gb.order).is_zero()


def test_normal_form_untouched():
    assert normal_form(x, [y]) == x


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
        assert normal_form(f * g + h, gb.basis, gb.order) == normal_form(h, gb.basis, gb.order)


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------


def test_lex_example_contains_y4_minus_y():
    gb = buchberger([x * x - y, y * y - x], MonomialOrder("lex"))
    target = y**4 - y
    assert any(p == target for p in gb.basis)
    assert ideal_dimension(gb) == 0


def test_zero_generators_are_ignored():
    g = 2 * x * x - 3 * y
    assert buchberger([Poly.zero(2), g, Poly.zero(2)]).basis == buchberger([g]).basis


def _monomials(n, d):
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


@st.composite
def homogeneous_systems(draw):
    """2-4 homogeneous polynomials in 2-4 variables, degree <= 3, small integer coefficients."""
    n = draw(st.integers(2, 4))
    system = []
    for _ in range(draw(st.integers(2, 4))):
        monos = draw(st.lists(st.sampled_from(_monomials(n, draw(st.integers(1, 3)))),
                              min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(monos), max_size=len(monos)))
        system.append(Poly(n, dict(zip(monos, coeffs))))
    return system


def _monic_term_sets(polys):
    return {frozenset(p.terms.items()) for p in polys}


@pytest.mark.parametrize("kind,sympy_order", [("degrevlex", "grevlex"), ("lex", "lex")])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=homogeneous_systems())
def test_reduced_basis_matches_sympy(kind, sympy_order, system):
    import sympy

    n = system[0].arity
    xs = sympy.symbols(f"v0:{n}")
    exprs = [sum(int(c) * sympy.Mul(*(v**e for v, e in zip(xs, m))) for m, c in p.terms.items())
             for p in system]
    ref = sympy.groebner(exprs, *xs, order=sympy_order, domain="QQ")
    want = []
    for e in ref.exprs:
        poly = sympy.Poly(e, *xs, domain="QQ")
        lc = poly.LC(order=sympy_order)  # monic() would divide by the lex leading coefficient
        want.append(Poly(n, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})
                    * Fraction(int(lc.q), int(lc.p)))
    gb = buchberger(system, MonomialOrder(kind))
    assert _monic_term_sets(gb.basis) == _monic_term_sets(want)
    assert len(gb.basis) == len(want)


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
    assert a.input_hash != b.input_hash  # the input digest tracks the generator sequence


def test_every_generator_reduces_to_zero_against_own_gb(algebras, families, triples):
    for gens in ([x * x - y, y * y - x], sl2_family(algebras, families, triples)):
        gb = buchberger(gens)
        for g in gens:
            assert normal_form(g, gb.basis, gb.order).is_zero()


def test_deterministic_repeat(algebras, families, triples):
    gens = sl2_family(algebras, families, triples)
    a = buchberger(gens)
    b = buchberger(gens)
    assert a.basis == b.basis
    assert a.input_hash == b.input_hash


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
    instances = [
        (sl2_family(algebras, families, triples), "sl2 shift family"),
        (families[("sl", 2)].generators, "sl2 cone"),
        (families[("sl", 3)].generators, "sl3 cone"),
        (families[("gl", 3)].generators, "gl3 cone"),
        (bicone.bicone_generators(algebras[("sl", 2)], families[("sl", 2)]).polynomials(), "sl2 bicone"),
    ]
    for gens, label in instances:
        d1 = ideal_dimension(buchberger(gens, MonomialOrder("degrevlex")))
        d2 = ideal_dimension(buchberger(gens, MonomialOrder("lex")))
        assert d1 == d2, label


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
    gens = bicone.bicone_generators(algebras[("sl", 3)], families[("sl", 3)]).polynomials()
    with pytest.raises(GBTimeout):
        buchberger(gens, timeout_secs=0.01)
    rep = regular_sequence_verdict(gens, 16, timeout_secs=0.01)
    assert rep.verdict is None
    assert rep.status == "inconclusive"
    assert rep.ideal_dimension is None


# under lex this system's coefficients grow so fast that a few reduction steps
# take seconds, so the budget must read the clock on every step
COEFFICIENT_GROWTH_SYSTEM = [
    "-5/3*x1^2*x2^2 + 1/2*x1*x2^2 + 5/2*x0",
    "-3/2*x0^2*x1^2 + 2*x1^2*x2 - 2/3*x0*x2 + x1*x2",
    "-5/3*x0^2*x1^2*x2 + 2*x0^2*x1^2 - 3*x1^2*x2^2 - 2/3*x0",
]


def test_timeout_bounds_coefficient_growth():
    gens = [parse_poly(t, 3) for t in COEFFICIENT_GROWTH_SYSTEM]
    start = time.monotonic()
    with pytest.raises(GBTimeout):
        buchberger(gens, order=MonomialOrder("lex"), timeout_secs=3)
    assert time.monotonic() - start < 10


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
