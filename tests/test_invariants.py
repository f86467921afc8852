import random
from fractions import Fraction

import pytest

from argshift import invariants
from argshift.exactpoly import Poly
from argshift.invariants import (
    invariant_generators,
    power_sums_to_elementary,
    verify_invariance,
)
from argshift.liealg import build_classical, dual_of, index_of, is_regular_point
from argshift.linalg import jacobian_rank


def test_sl2_casimir_value(algebras, families):
    # tr of the square of the dual-point matrix [[h/2, f], [e, -h/2]]
    fam = families[("sl", 2)]
    expected = Poly(3, {(0, 2, 0): Fraction(1, 2), (1, 0, 1): Fraction(2)})
    assert fam.generators == [expected]
    assert fam.degrees == [2]


def test_degrees_and_sums(algebras, families):
    expected = {
        ("gl", 2): [1, 2],
        ("gl", 3): [1, 2, 3],
        ("sl", 2): [2],
        ("sl", 3): [2, 3],
        ("so", 3): [2],
        ("sp", 4): [2, 4],
    }
    for spec, fam in families.items():
        assert fam.degrees == expected[spec]
        L = algebras[spec]
        b = (L.dim + index_of(L).index) // 2
        assert sum(fam.degrees) == b
        assert len(fam.generators) == L.meta["rank"]
        assert fam.degrees == sorted(fam.degrees)
        for p, d in zip(fam.generators, fam.degrees):
            assert p.is_homogeneous() and p.total_degree() == d


def test_every_generator_is_invariant(algebras, families):
    for spec, fam in families.items():
        L = algebras[spec]
        for p in fam.generators:
            assert verify_invariance(L, p)


def test_family_is_built_once_per_algebra(monkeypatch):
    calls = []
    build = invariants._power_traces
    monkeypatch.setattr(invariants, "_power_traces", lambda *a: calls.append(1) or build(*a))
    L = build_classical("sp", 4)
    index_of(L)
    fam = invariant_generators(L)
    assert invariant_generators(L) is fam
    assert len(calls) == 1
    assert invariant_generators(build_classical("sp", 4)) is not fam  # the memo is per algebra
    assert len(calls) == 2


def test_non_invariants_detected(algebras):
    L = algebras[("sl", 2)]
    assert not verify_invariance(L, Poly.variable(3, 0))
    assert verify_invariance(L, Poly.constant(3, 7))


def test_so_even_unsupported():
    L = build_classical("so", 4)
    with pytest.raises(Exception):
        invariant_generators(L)


def independent_gradients(fam, z):
    """Kostant's differential criterion: z is regular iff the gradients of
    the invariant generators are independent at z."""
    return jacobian_rank(fam.generators, z) == len(fam.generators)


def test_certificate_examples(algebras, families):
    L = algebras[("sl", 2)]
    fam = families[("sl", 2)]
    e = [Fraction(1), Fraction(0), Fraction(0)]
    assert independent_gradients(fam, dual_of(L, e))
    assert not independent_gradients(fam, [Fraction(0)] * 3)

    g3 = algebras[("gl", 3)]
    fam3 = families[("gl", 3)]
    diag = [Fraction(0)] * 9
    for a, val in zip((1, 2, 3), (1, 2, 3)):
        diag[g3.basis_labels.index(f"E{a}{a}")] = Fraction(val)
    assert independent_gradients(fam3, dual_of(g3, diag))


@pytest.mark.parametrize("spec", [("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3)])
def test_certificate_agrees_with_structure_rank(spec, algebras, families):
    # the differential criterion and the stabilizer-dimension criterion must
    # agree pointwise; 100 seeded points per algebra
    L = algebras[spec]
    fam = families[spec]
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(100):
        z = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(L.dim)]
        assert independent_gradients(fam, z) == is_regular_point(L, z)


def test_algebraic_independence_at_seeded_point(algebras, families):
    rng = random.Random(99)
    for spec, fam in families.items():
        L = algebras[spec]
        for _ in range(20):
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(L.dim)]
            if jacobian_rank(fam.generators, z) == len(fam.generators):
                break
        else:
            pytest.fail(f"gradients never independent for {spec}")


def test_newton_conversion_gives_invariants(algebras, families):
    # elementary symmetric functions of the eigenvalues are the
    # characteristic-polynomial coefficients; they must be invariant too
    for spec in [("gl", 2), ("gl", 3)]:
        L = algebras[spec]
        fam = families[spec]
        elementary = power_sums_to_elementary(fam.generators)
        assert len(elementary) == len(fam.generators)
        for k, e_k in enumerate(elementary, start=1):
            assert e_k.is_homogeneous() and e_k.total_degree() == k
            assert verify_invariance(L, e_k)


def test_newton_numeric_check():
    # p_1 = a+b, p_2 = a^2+b^2  ->  e_1 = a+b, e_2 = ab
    a = Poly.variable(2, 0)
    b = Poly.variable(2, 1)
    e1, e2 = power_sums_to_elementary([a + b, a * a + b * b])
    assert e1 == a + b
    assert e2 == a * b
