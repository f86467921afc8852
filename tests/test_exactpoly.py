import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argshift.exactpoly import (
    InternalError, Poly, dot, format_poly, pack, pack_gradient, packed_dot, parse_poly, unpack,
)


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
def test_pack_gradient_is_the_gradient(f):
    assert [unpack(q, 3) for q in pack_gradient(f)] == f.gradient()


def _degrevlex_key(mono):
    """Graded reverse lexicographic order (x0 > x1 > ...): the larger key is the
    larger monomial; total degree first, then the reversed, negated exponents."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


@st.composite
def term_maps(draw):
    """Distinct monomials in 1-5 variables, exponents up to 4."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return n, draw(st.lists(exps, max_size=12, unique=True))


@settings(max_examples=60, deadline=None)
@given(term_maps())
def test_sorted_terms_is_descending_degrevlex(case):
    n, monos = case
    f = Poly(n, {m: Fraction(i + 1) for i, m in enumerate(monos)})
    assert [m for m, _ in f.sorted_terms()] == sorted(monos, key=_degrevlex_key, reverse=True)


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


# ---------------------------------------------------------------------------
# the product kernel
# ---------------------------------------------------------------------------


def _naive_dot(fs, gs):
    """sum f * g over the pairs, term by term in Fraction arithmetic."""
    out = {}
    for f, g in zip(fs, gs):
        for ma, ca in f.terms.items():
            for mb, cb in g.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


@st.composite
def dot_operands(draw):
    arity = draw(st.integers(0, 3))
    mono = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    poly = st.dictionaries(mono, coeff, max_size=5).map(lambda d: Poly(arity, d))
    # zero operands come from empty dictionaries; the i-th pair's f is scaled by
    # 1/(i+2), so the pairs' denominators differ
    pairs = [(f * Fraction(1, i + 2), g)
             for i, (f, g) in enumerate(draw(st.lists(st.tuples(poly, poly), max_size=4)))]
    if pairs and draw(st.booleans()):  # a pair cancelling another one
        f, g = draw(st.sampled_from(pairs))
        pairs.append((f, -g))
    return arity, [f for f, _ in pairs], [g for _, g in pairs]


@settings(max_examples=150, deadline=None)
@given(dot_operands())
def test_dot_matches_the_naive_fraction_sum(operands):
    arity, fs, gs = operands
    got = dot(fs, gs, arity)
    assert got.arity == arity
    assert got.terms == _naive_dot(fs, gs)
    assert all(type(c) is Fraction for c in got.terms.values())
    packed = packed_dot([pack(f) for f in fs], [pack(g) for g in gs], arity)
    assert unpack(packed, arity) == got


def test_dot_cancels_to_the_zero_polynomial():
    f = P(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 7)})
    g = P(2, {(1, 1): Fraction(5, 4)})
    assert dot([f, f], [g, -g], 2).terms == {}
    assert dot([], [], 2).terms == {}
    assert packed_dot([pack(f)], [pack(-g)], 2)[1] == packed_dot([pack(-f)], [pack(g)], 2)[1]


def test_dot_rejects_sequences_of_different_lengths():
    with pytest.raises(ValueError):
        dot([x, y], [x], 2)
    with pytest.raises(ValueError):
        packed_dot([pack(x)], [pack(x), pack(y)], 2)


def test_exponent_limit_of_the_packed_fields():
    over = Poly(1, {(2**31,): Fraction(1)})
    t = Poly.variable(1, 0)
    for other in (t, Poly.constant(1, 1), Poly.zero(1)):
        with pytest.raises(InternalError):
            over * other
        with pytest.raises(InternalError):
            other * over
    top = Poly(2, {(2**31 - 1, 0): Fraction(3, 2)})
    assert (top * top).terms == {(2**32 - 2, 0): Fraction(9, 4)}
    with pytest.raises(InternalError):  # a packed result is an operand again, so it must fit
        packed_dot([pack(top)], [pack(top)], 2)


def test_dot_does_no_fraction_arithmetic_per_term(monkeypatch):
    rng = random.Random(11)
    f, g = (
        Poly(4, {tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(-9, 9) or 1,
                                                                         rng.randint(2, 9))
                 for _ in range(20)})
        for _ in range(2)
    )
    expected = _naive_dot([f], [g])
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        method = getattr(Fraction, name)

        def counted(self, other, _method=method, _name=name):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    got = dot([f], [g], 4)
    monkeypatch.undo()
    assert calls == []
    assert got.terms == expected
