from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactpoly import Poly, format_poly, parse_poly


def P(arity, terms):
    return Poly(arity, {m: Fraction(c) for m, c in terms.items()})


x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def test_add_cancellation():
    assert (x + y) + (x - y) == 2 * x


def test_add_identity():
    f = P(2, {(1, 2): Fraction(3, 2), (0, 0): 5})
    assert f + Poly.zero(2) == f


def test_add_zero_result_has_empty_terms():
    f = x * x
    assert (f + (-f)).terms == {}


def test_mul_difference_of_squares():
    assert (x + y) * (x - y) == x * x - y * y


def test_mul_identity():
    f = P(2, {(2, 1): 7, (0, 1): Fraction(-1, 3)})
    assert f * Poly.constant(2, 1) == f


def test_mul_square():
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_mul_degree_additive():
    f = x * x + y
    g = x - 3 * y
    assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_diff_basic():
    f = x * x * y
    assert f.diff(0) == 2 * x * y
    assert f.diff(1) == x * x
    assert Poly.constant(2, 9).diff(0).is_zero()


def test_diff_index_out_of_range():
    with pytest.raises(IndexError):
        x.diff(2)


def test_eval():
    f = x * x + y
    assert f.evaluate([2, 3]) == 7
    assert (x * y).evaluate([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)


def test_eval_homogeneous_at_origin():
    f = x * x + 4 * x * y
    assert f.evaluate([0, 0]) == 0


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        x.evaluate([1])


def test_substitute_shift():
    # x^2 with x -> x + t*y in a 3-variable ring (x, y, t)
    f = Poly.variable(1, 0) ** 2
    xx = Poly.variable(3, 0)
    yy = Poly.variable(3, 1)
    tt = Poly.variable(3, 2)
    image = xx + tt * yy
    assert f.substitute([image]) == xx**2 + 2 * tt * xx * yy + tt**2 * yy**2


def test_substitute_identity():
    f = P(2, {(2, 1): 1, (1, 0): Fraction(-2, 5)})
    assert f.substitute([x, y]) == f


def test_substitute_swap_symmetric():
    f = x * y
    assert f.substitute([y, x]) == f


def test_substitute_cancelling_terms_leave_no_zeros():
    t = Poly.variable(1, 0)
    assert (x - y).substitute([t, t]).terms == {}
    assert (x * x - x * y + 2 * y).substitute([t, t]).terms == {(1,): Fraction(2)}


def test_substitute_arity_mismatch():
    with pytest.raises(ValueError):
        (x * y).substitute([x])


def test_homogeneous_components():
    f = x * x + x + Poly.constant(2, 1)
    comps = f.homogeneous_components()
    assert set(comps) == {0, 1, 2}
    assert comps[0] == Poly.constant(2, 1)
    assert comps[1] == x
    assert comps[2] == x * x
    assert sum(comps.values(), Poly.zero(2)) == f


def test_homogeneous_components_of_homogeneous():
    f = x * y + y * y
    assert f.homogeneous_components() == {2: f}


def test_homogeneous_components_of_zero():
    assert Poly.zero(2).homogeneous_components() == {}


def test_canonical_text():
    f = Poly(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-1)})
    assert format_poly(f) == "3/2*x0^2*x2 - x1"
    assert format_poly(Poly.zero(3)) == "0"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(monos, coeffs, max_size=4).map(lambda d: Poly(3, d))
points = st.lists(coeffs, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys, polys, points)
def test_eval_is_ring_homomorphism(f, g, pt):
    assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


@settings(max_examples=40, deadline=None)
@given(polys, st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=3, max_size=3), points)
def test_substitute_then_eval_composes(f, rows, pt):
    images = [
        Poly(3, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in rows
    ]
    composed = f.substitute(images)
    mapped = [img.evaluate(pt) for img in images]
    assert composed.evaluate(pt) == f.evaluate(mapped)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_diff_is_leibniz(f, g):
    for k in range(3):
        assert (f * g).diff(k) == f.diff(k) * g + f * g.diff(k)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_text_round_trip(f):
    assert parse_poly(format_poly(f), 3) == f


@settings(max_examples=60, deadline=None)
@given(polys)
def test_components_reassemble(f):
    comps = f.homogeneous_components()
    assert all(c.is_homogeneous() and not c.is_zero() for c in comps.values())
    assert sum(comps.values(), Poly.zero(3)) == f
