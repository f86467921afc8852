import random
from fractions import Fraction

import pytest

from argshift import bicone, liealg, linalg
from argshift.bicone import (
    bicone_dimension_check,
    bicone_fiber_check,
    bicone_generators,
    bicone_membership,
    counting_identity,
    pencil_regularity,
    smoothness_crosscheck,
)
from argshift.groebner import DimensionReport
from argshift.invariants import invariant_generators
from argshift.liealg import InternalError, LieAlgebraError, coords_of_matrix, matrix_of_coords


def elem(L, label, value=1):
    v = [Fraction(0)] * L.dim
    v[L.basis_labels.index(label)] = Fraction(value)
    return v


def combine(*pairs):
    out = None
    for coeff, vec in pairs:
        if out is None:
            out = [Fraction(coeff) * c for c in vec]
        else:
            out = [o + Fraction(coeff) * c for o, c in zip(out, vec)]
    return out


def conjugate(L, g, v):
    """g . v . g^{-1} back in basis coordinates."""
    mat = matrix_of_coords(L, v)
    ginv = linalg.invert(g)
    prod = [
        [
            sum((g[a][i] * mat[i][j] * ginv[j][b] for i in range(3) for j in range(3)), Fraction(0))
            for b in range(3)
        ]
        for a in range(3)
    ]
    return coords_of_matrix(L, prod)


def random_invertible(rng, n=3):
    while True:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            linalg.invert(g)
            return g
        except ValueError:
            continue


OMEGA_X = "E12+E23"  # regular nilpotent
OMEGA_Y = "E21-E32"  # the companion making a fully regular nilpotent pencil


def omega_pair(L):
    x = combine((1, elem(L, "E12")), (1, elem(L, "E23")))
    y = combine((1, elem(L, "E21")), (-1, elem(L, "E32")))
    return x, y


# ---------------------------------------------------------------------------
# generators and counts
# ---------------------------------------------------------------------------


def test_generator_counts(algebras, families):
    for spec, expected in [(("sl", 2), 3), (("sl", 3), 7), (("gl", 3), 9)]:
        ideal = bicone_generators(algebras[spec], families[spec])
        assert ideal.generator_count == expected
        n = algebras[spec].dim
        for i, j, p in ideal.generators:
            d = families[spec].degrees[i]
            for mono in p.terms:
                assert sum(mono[:n]) == d - j and sum(mono[n:]) == j


def test_counting_identity(algebras, families):
    for spec in [("sl", 2), ("sl", 3), ("gl", 3), ("gl", 2), ("so", 3), ("sp", 4)]:
        info = counting_identity(algebras[spec], families[spec])
        assert info["identity_ok"]
        assert info["generator_count"] == info["b"] + info["index"]
        assert 2 * info["dim"] - info["generator_count"] == info["three_b_minus_ell"]


def test_odd_dim_plus_index_is_internal_error(algebras, families, monkeypatch):
    from argshift import centralizer_lab as cl
    from argshift.liealg import IndexReport, InternalError

    def odd_index(L, invariants=None):
        ind = 1 - L.dim % 2  # dim + index odd
        return IndexReport(L.dim, L.dim - ind, ind, [], "exact")

    monkeypatch.setattr(bicone, "index_of", odd_index)
    monkeypatch.setattr(cl, "index_of", odd_index)
    with pytest.raises(InternalError):
        counting_identity(algebras[("sl", 3)], families[("sl", 3)])
    L = algebras[("gl", 3)]
    with pytest.raises(InternalError):
        cl.condition_star(L, cl.nilpotent_from_partition(L, (2, 1)))


def test_gl3_arithmetic_precheck(algebras, families):
    info = counting_identity(algebras[("gl", 3)], families[("gl", 3)])
    assert (info["dim"], info["generator_count"], info["three_b_minus_ell"]) == (9, 9, 9)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_upper_triangulars(algebras, families):
    L = algebras[("sl", 3)]
    fam = families[("sl", 3)]
    assert bicone_membership(L, fam, elem(L, "E12"), elem(L, "E13"))
    assert bicone_membership(
        L, fam, combine((1, elem(L, "E12")), (1, elem(L, "E23"))), elem(L, "E23")
    )


def test_membership_semisimple_sum_fails(algebras, families, triples):
    from argshift.liealg import dual_of

    L = algebras[("sl", 2)]
    t = triples[("sl", 2)]
    fam = families[("sl", 2)]
    assert not bicone_membership(L, fam, t.e, t.f)
    # witness: the quadratic invariant does not vanish at e + f
    ef = dual_of(L, [a + b for a, b in zip(t.e, t.f)])
    assert fam.generators[0].evaluate(ef) != 0


def test_membership_origin(algebras, families):
    L = algebras[("sl", 3)]
    zero = [Fraction(0)] * 8
    assert bicone_membership(L, families[("sl", 3)], zero, zero)


def test_membership_span_invariance(algebras, families):
    L = algebras[("sl", 3)]
    fam = families[("sl", 3)]
    rng = random.Random(4)
    x, y = omega_pair(L)
    for _ in range(8):
        a = Fraction(rng.randint(-4, 4))
        b = Fraction(rng.randint(1, 5))
        mix = combine((a, x), (b, y))
        assert bicone_membership(L, fam, x, y)
        assert bicone_membership(L, fam, y, x)
        assert bicone_membership(L, fam, x, mix)


# ---------------------------------------------------------------------------
# dimension and fibers
# ---------------------------------------------------------------------------


def test_sl2_bicone_dimension(algebras, families):
    rep = bicone_dimension_check(algebras[("sl", 2)], families[("sl", 2)])
    assert rep.ideal_dimension == 3
    assert rep.verdict is True
    assert rep.extra["counting_identity"]["three_b_minus_ell"] == 3


def test_fiber_dimensions(algebras, families, triples):
    so5 = liealg.build_classical("so", 5)
    cases = [(algebras[spec], families[spec], triples[spec].e, dim)
             for spec, dim in [(("sl", 2), 1), (("sl", 3), 3), (("gl", 3), 3), (("sp", 4), 4)]]
    cases.append((so5, invariant_generators(so5), liealg.principal_sl2(so5).e, 4))
    for L, fam, e, dim in cases:
        rep = bicone_fiber_check(L, fam, e)
        assert rep.ideal_dimension == dim
        assert rep.expected_dimension == dim
        assert rep.verdict is True
        assert rep.extra["shift_family_dimension"] == dim
        assert rep.extra["matches_shift_family"]
        # exactly the j = 0 components vanish at a nilpotent base point
        assert rep.zero_generators == [(i, 0) for i in range(len(fam.degrees))]


def test_fiber_check_runs_one_verdict(algebras, families, triples, monkeypatch):
    real = bicone.regular_sequence_verdict
    budgets = []

    def counted(gens, n, **kwargs):
        budgets.append(kwargs["timeout_secs"])
        return real(gens, n, **kwargs)

    monkeypatch.setattr(bicone, "regular_sequence_verdict", counted)
    spec = ("sl", 3)
    rep = bicone_fiber_check(algebras[spec], families[spec], triples[spec].e, timeout_secs=5.0)
    assert rep.verdict is True and rep.extra["matches_shift_family"]
    assert len(budgets) == 1 and budgets[0] <= 5.0


def test_fiber_check_rejects_a_generator_off_the_shift_family(algebras, families, triples,
                                                                monkeypatch):
    # the fiber generator (i, j) must be exactly D^(d-j) p_i / (d-j)!; plant a factor 2
    real = bicone.mf_generators

    def doubled(L, fam, xi):
        mf = real(L, fam, xi)
        i, j, p = mf.entries[-1]
        mf.entries[-1] = (i, j, 2 * p)
        return mf

    monkeypatch.setattr(bicone, "mf_generators", doubled)
    spec = ("sl", 3)
    with pytest.raises(InternalError, match=r"fiber generators \[\(1, 1\)\]"):
        bicone_fiber_check(algebras[spec], families[spec], triples[spec].e)


def test_fiber_check_skips_shift_verdict_after_timeout(algebras, families, triples, monkeypatch):
    calls = []

    def timed_out(gens, n, **kwargs):
        calls.append(kwargs["timeout_secs"])
        k = len(gens)
        return DimensionReport(n, k, None, n - k, None, status="inconclusive")

    monkeypatch.setattr(bicone, "regular_sequence_verdict", timed_out)
    spec = ("sl", 3)
    rep = bicone_fiber_check(algebras[spec], families[spec], triples[spec].e, timeout_secs=5.0)
    assert len(calls) == 1
    assert rep.status == "inconclusive" and rep.verdict is None
    assert rep.extra["shift_family_dimension"] is None
    assert rep.extra["matches_shift_family"] is False


def test_fiber_rejects_bad_base(algebras, families, triples):
    L = algebras[("sl", 3)]
    fam = families[("sl", 3)]
    with pytest.raises(ValueError):
        bicone_fiber_check(L, fam, elem(L, "E13"))  # nilpotent but not regular
    t = triples[("sl", 3)]
    semisimple = combine((1, t.e), (1, t.f))
    with pytest.raises(ValueError):
        bicone_fiber_check(L, fam, semisimple)  # regular but not nilpotent


def test_membership_and_fiber_reject_wrong_length(algebras, families):
    L = algebras[("sl", 2)]
    fam = families[("sl", 2)]
    with pytest.raises(LieAlgebraError, match="vector length mismatch"):
        bicone_membership(L, fam, [1], [1])
    with pytest.raises(LieAlgebraError, match="vector length mismatch"):
        bicone_fiber_check(L, fam, [1])


# ---------------------------------------------------------------------------
# pencil regularity
# ---------------------------------------------------------------------------


def test_pencil_sl2_ef(algebras, families, triples):
    t = triples[("sl", 2)]
    assert pencil_regularity(algebras[("sl", 2)], families[("sl", 2)], t.e, t.f)


def test_pencil_proportional_fails(algebras, families, triples):
    t = triples[("sl", 3)]
    e2 = [2 * c for c in t.e]
    assert not pencil_regularity(algebras[("sl", 3)], families[("sl", 3)], t.e, e2)


def test_pencil_sl3_principal_pair(algebras, families, triples):
    t = triples[("sl", 3)]
    assert pencil_regularity(algebras[("sl", 3)], families[("sl", 3)], t.e, t.f)


def test_pencil_with_minimal_nilpotent_fails(algebras, families):
    # the line through E12+E23 and E13 leaves the regular locus at E13
    L = algebras[("sl", 3)]
    x = combine((1, elem(L, "E12")), (1, elem(L, "E23")))
    assert not pencil_regularity(L, families[("sl", 3)], x, elem(L, "E13"))


def test_pencil_omega_pair(algebras, families):
    L = algebras[("sl", 3)]
    x, y = omega_pair(L)
    assert pencil_regularity(L, families[("sl", 3)], x, y)


# ---------------------------------------------------------------------------
# smoothness crosscheck
# ---------------------------------------------------------------------------


def sl3_samples(L, count_conjugates=12, seed=2024):
    rng = random.Random(seed)
    x0, y0 = omega_pair(L)
    samples = [(x0, y0)]
    for _ in range(count_conjugates):
        g = random_invertible(rng)
        samples.append((conjugate(L, g, x0), conjugate(L, g, y0)))
    # degenerate members of the bicone: proportional pairs, zero pairs,
    # non-regular pencils of strictly upper triangular matrices
    e = combine((1, elem(L, "E12")), (1, elem(L, "E23")))
    samples.append((e, [2 * c for c in e]))
    samples.append((e, [Fraction(0)] * 8))
    samples.append(([Fraction(0)] * 8, [Fraction(0)] * 8))
    samples.append((e, elem(L, "E13")))
    samples.append((elem(L, "E12"), elem(L, "E13")))
    samples.append((elem(L, "E12"), elem(L, "E23")))
    samples.append((elem(L, "E13"), elem(L, "E23")))
    return samples


def test_smoothness_crosscheck_sl3(algebras, families):
    L = algebras[("sl", 3)]
    samples = sl3_samples(L)
    assert len(samples) >= 20
    rep = smoothness_crosscheck(L, families[("sl", 3)], samples)
    assert rep.all_agree
    # the construction guarantees both kinds occur
    assert any(r["pencil_regular"] for r in rep.results)
    assert any(not r["pencil_regular"] for r in rep.results)


def test_smoothness_crosscheck_sl2(algebras, families, triples):
    # every 2-plane meets the sl2 cone outside the nilpotent locus, so all
    # bicone points have proportional components and both certificates agree
    # on "not smooth"
    L = algebras[("sl", 2)]
    t = triples[("sl", 2)]
    rng = random.Random(7)
    samples = [(t.e, [Fraction(0)] * 3), ([Fraction(0)] * 3, [Fraction(0)] * 3)]
    while len(samples) < 20:
        g = random_invertible(rng, 2)
        x = conjugate2(L, g, t.e)
        lam = Fraction(rng.randint(-5, 5))
        samples.append((x, [lam * c for c in x]))
    rep = smoothness_crosscheck(L, families[("sl", 2)], samples)
    assert rep.sample_count >= 20
    assert rep.all_agree
    assert all(not r["pencil_regular"] for r in rep.results)


def conjugate2(L, g, v):
    mat = matrix_of_coords(L, v)
    ginv = linalg.invert(g)
    prod = [
        [
            sum((g[a][i] * mat[i][j] * ginv[j][b] for i in range(2) for j in range(2)), Fraction(0))
            for b in range(2)
        ]
        for a in range(2)
    ]
    return coords_of_matrix(L, prod)


def test_smoothness_rejects_nonmembers(algebras, families, triples):
    L = algebras[("sl", 2)]
    t = triples[("sl", 2)]
    with pytest.raises(ValueError):
        smoothness_crosscheck(L, families[("sl", 2)], [(t.e, t.f)])
