import math
import random
from fractions import Fraction

import pytest

from argshift.exactpoly import Poly
from argshift.invariants import invariant_generators
from argshift.liealg import build_classical, draw_regular_dual_point, dual_of, principal_sl2
from argshift.shift import bigraded_components, mf_generators, shift_derivative


def test_bigraded_square():
    # x^2 in one variable: (sx + ty)^2 = x^2 s^2 + 2xy st + y^2 t^2
    p = Poly.variable(1, 0) ** 2
    comps = bigraded_components(p)
    xx = Poly.variable(2, 0)
    yy = Poly.variable(2, 1)
    assert comps == [xx * xx, 2 * xx * yy, yy * yy]


def test_bigraded_linear():
    p = 3 * Poly.variable(2, 0) - Poly.variable(2, 1)
    comps = bigraded_components(p)
    assert comps[0] == 3 * Poly.variable(4, 0) - Poly.variable(4, 1)
    assert comps[1] == 3 * Poly.variable(4, 2) - Poly.variable(4, 3)


def test_bigraded_boundary_components(families):
    # first component is p(x), last is p(y)
    for fam in families.values():
        n = fam.algebra.dim
        for p in fam.generators:
            comps = bigraded_components(p)
            assert len(comps) == p.total_degree() + 1
            x_images = [Poly.variable(n, k) for k in range(n)] + [Poly.zero(n)] * n
            y_images = [Poly.zero(n)] * n + [Poly.variable(n, k) for k in range(n)]
            assert comps[0].substitute(x_images) == p
            assert comps[-1].substitute(y_images) == p
            for j, comp in enumerate(comps):
                # bihomogeneous of bidegree (d - j, j)
                for mono in comp.terms:
                    assert sum(mono[:n]) == p.total_degree() - j
                    assert sum(mono[n:]) == j


def test_bigraded_casimir_polarization(families):
    fam = families[("sl", 2)]
    comp1 = bigraded_components(fam.generators[0])[1]
    expected = Poly(
        6,
        {
            (0, 1, 0, 0, 1, 0): Fraction(1),  # x_h y_h
            (1, 0, 0, 0, 0, 1): Fraction(2),  # 2 x_e y_f
            (0, 0, 1, 1, 0, 0): Fraction(2),  # 2 x_f y_e
        },
    )
    assert comp1 == expected


def test_bigraded_rejects_inhomogeneous():
    p = Poly.variable(2, 0) + Poly.constant(2, 1)
    with pytest.raises(ValueError):
        bigraded_components(p)


def test_shift_derivative_order_zero(families):
    fam = families[("gl", 3)]
    xi = [Fraction(1)] * 9
    for p in fam.generators:
        assert shift_derivative(p, xi, 0) == p


def test_shift_derivative_sl2_at_e(algebras, families, triples):
    L = algebras[("sl", 2)]
    p = families[("sl", 2)].generators[0]
    xi = dual_of(L, triples[("sl", 2)].e)
    assert shift_derivative(p, xi, 1) == 2 * Poly.variable(3, 0)


def test_top_derivative_is_constant(algebras, families, triples):
    L = algebras[("sl", 2)]
    p = families[("sl", 2)].generators[0]
    t = triples[("sl", 2)]
    xi = dual_of(L, [a + b for a, b in zip(t.e, t.f)])  # e + f, not nilpotent
    d = p.total_degree()
    top = shift_derivative(p, xi, d)
    assert top.total_degree() <= 0
    assert top.evaluate([0, 0, 0]) == math.factorial(d) * p.evaluate(xi)
    assert p.evaluate(xi) != 0


def test_shift_derivative_out_of_range(families):
    p = families[("sl", 2)].generators[0]
    with pytest.raises(ValueError):
        shift_derivative(p, [1, 1, 1], 3)


def _naive_shift(p, xi, j):
    """D^j p by Poly.diff and Fraction scalars, term by term."""
    for _ in range(j):
        acc = Poly.zero(p.arity)
        for k, c in enumerate(xi):
            acc = acc + Fraction(c) * p.diff(k)
        p = acc
    return p


def test_shift_derivative_does_no_fraction_arithmetic_per_term(monkeypatch):
    rng = random.Random(29)
    p = Poly(4, {tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(-9, 9) or 1,
                                                                     rng.randint(2, 9))
                 for _ in range(20)})
    xi = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4)]
    expected = _naive_shift(p, xi, 2)
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        method = getattr(Fraction, name)

        def counted(self, other, _method=method, _name=name):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    got = shift_derivative(p, xi, 2)
    monkeypatch.undo()
    assert len(p) == 20 and not got.is_zero()
    assert calls == []
    assert got == expected


@pytest.mark.parametrize("spec", [("gl", 3), ("sp", 4), ("so", 5)])
def test_mf_entries_are_the_shift_derivatives(spec, algebras):
    # mf_generators takes D^0 p .. D^(d-1) p in one pass per generator
    L = algebras[spec] if spec in algebras else build_classical(*spec)
    fam = invariant_generators(L)
    for xi in (dual_of(L, principal_sl2(L).e), draw_regular_dual_point(L, 31)[0]):
        mf = mf_generators(L, fam, xi)
        assert [(i, j) for i, j, _ in mf.entries] == [
            (i, j) for i, d in enumerate(fam.degrees) for j in range(d)]
        for i, j, q in mf.entries:
            p = fam.generators[i]
            assert q == shift_derivative(p, xi, j) == _naive_shift(p, xi, j)


def test_mf_family_sl2(algebras, families, triples):
    L = algebras[("sl", 2)]
    xi = dual_of(L, triples[("sl", 2)].e)
    mf = mf_generators(L, families[("sl", 2)], xi)
    assert mf.expected_count == 2
    assert [(i, j) for i, j, _ in mf.entries] == [(0, 0), (0, 1)]
    assert mf.entries[0][2] == families[("sl", 2)].generators[0]
    assert mf.entries[1][2] == 2 * Poly.variable(3, 0)
    assert not mf.degenerate


def test_mf_family_counts(algebras, families, triples):
    for spec, expected in [(("sl", 2), 2), (("sl", 3), 5), (("gl", 3), 6)]:
        L = algebras[spec]
        xi = dual_of(L, triples[spec].e)
        mf = mf_generators(L, families[spec], xi)
        assert len(mf.entries) == expected == mf.expected_count
        assert not mf.degenerate
        for i, j, p in mf.entries:
            # degree bookkeeping: deg D^j(p_i) = d_i - j for nonzero entries
            assert p.total_degree() == families[spec].degrees[i] - j
            assert p.is_homogeneous()


def test_mf_family_at_zero_is_degenerate(algebras, families):
    for spec, fam in families.items():
        L = algebras[spec]
        mf = mf_generators(L, fam, [Fraction(0)] * L.dim)
        assert mf.degenerate
        assert mf.zero_entries == [(i, j) for i, j, _ in mf.entries if j >= 1]
        for i, j, p in mf.entries:
            assert p.is_zero() == (j >= 1)


@pytest.mark.parametrize("spec", [("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)])
def test_cross_identity_all_generators(spec, algebras, families, triples, shift_matches_bigraded):
    # shift_derivative(p, xi, j) == j! * p_component_j(x, xi) exactly
    L = algebras[spec]
    fam = families[spec]
    points = [dual_of(L, triples[spec].e), draw_regular_dual_point(L, 17)[0]]
    for xi in points:
        for p, d in zip(fam.generators, fam.degrees):
            for j in range(d + 1):
                assert shift_matches_bigraded(p, xi, j)


def test_first_shift_is_a_derivation(families):
    fam = families[("sl", 2)]
    rng = random.Random(23)
    xi = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
    for _ in range(15):
        p = Poly(
            3,
            {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(3)
            },
        )
        q = Poly(
            3,
            {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(3)
            },
        )
        if p.is_zero() or q.is_zero():
            continue
        left = shift_derivative(p * q, xi, 1)
        right = shift_derivative(p, xi, 1) * q + p * shift_derivative(q, xi, 1)
        assert left == right
