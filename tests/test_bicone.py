import functools
import importlib
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from argshift import bicone, groebner, liealg, linalg
from argshift.bicone import (
    bicone_dimension_check,
    bicone_fiber_check,
    bicone_generators,
    bicone_membership,
    counting_identity,
    pencil_regularity,
    smoothness_crosscheck,
)
from argshift.centralizer_lab import _slice_pipeline, nilpotent_from_partition
from argshift.exactpoly import Poly
from argshift.groebner import DimensionReport
from argshift.invariants import InvariantFamily, invariant_generators
from argshift.liealg import InternalError, LieAlgebraError, coords_of_matrix, matrix_of_coords
from argshift.shift import bigraded_components, shift_derivative


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
        return IndexReport(L.dim, ind, [], "exact")

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


def strictly_upper(L, v):
    """The strictly upper triangular part of v's matrix: a nilpotent element
    of the Borel's nilradical for the split realizations."""
    mat = matrix_of_coords(L, v)
    return coords_of_matrix(L, [[c if j > i else Fraction(0) for j, c in enumerate(row)]
                                for i, row in enumerate(mat)])


def test_membership_matches_the_bicone_ideal(algebras, families, triples):
    # the line route against the 2n-variable ideal (every bigraded component
    # vanishes at (dual x, dual y)) on principal pairs, seeded random pairs
    # (almost never in the bicone) and seeded nilradical pairs (always in it)
    so5 = liealg.build_classical("so", 5)
    cases = [(algebras[spec], families[spec], triples[spec])
             for spec in [("sl", 2), ("sl", 3), ("gl", 3), ("sp", 4)]]
    cases.append((so5, invariant_generators(so5), liealg.principal_sl2(so5)))
    kinds = set()
    for k, (L, fam, t) in enumerate(cases):
        rng = random.Random(100 + k)
        zero = [Fraction(0)] * L.dim
        pairs = [(t.e, t.f), (t.e, t.h), (t.e, [2 * c for c in t.e]), (t.e, zero), (t.h, t.f)]
        for _ in range(12):
            x, y = ([Fraction(rng.randint(-2, 2)) for _ in range(L.dim)] for _ in range(2))
            pairs += [(x, y), (strictly_upper(L, x), strictly_upper(L, y))]
        if L is algebras[("sl", 3)]:
            pairs += sl3_samples(L)
        ideal = bicone_generators(L, fam).polynomials()
        for x, y in pairs:
            point = liealg.dual_of(L, x) + liealg.dual_of(L, y)
            want = all(p.evaluate(point) == 0 for p in ideal)
            assert bicone_membership(L, fam, x, y) == want, (L.dim, x, y)
            kinds.add(want)
    assert kinds == {True, False}


def test_membership_does_not_build_the_bicone(algebras, families, monkeypatch):
    # nor does the smoothness cross-check on the benchmark's sl_3 pairs: it
    # reads the Jacobian rank off the line readings, so the one Jacobian it
    # builds is the reader's, of the family in n variables
    def refused(p):
        raise AssertionError("a line reader built a bicone generator")

    monkeypatch.setattr(bicone, "bigraded_components", refused)
    L, fam = algebras[("sl", 3)], families[("sl", 3)]
    assert bicone_membership(L, fam, *omega_pair(L))
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    real, arities = linalg.jacobian_at, []

    def counted(gens):
        arities.append({g.arity for g in gens})
        return real(gens)

    monkeypatch.setattr(linalg, "jacobian_at", counted)
    for seed in (1, 24001):
        arities.clear()
        samples = workloads.bicone_samples(L, seed)
        report = smoothness_crosscheck(L, fam, samples)
        assert report.sample_count == len(samples) and report.all_agree
        assert arities == [{L.dim}]


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


@pytest.fixture(scope="module")
def principal_fibers(algebras, families, triples):
    """(L, family, principal e, fiber dimension b - ell) for the fiber checks."""
    so5 = liealg.build_classical("so", 5)
    cases = [(algebras[spec], families[spec], triples[spec].e, dim)
             for spec, dim in [(("sl", 2), 1), (("sl", 3), 3), (("gl", 3), 3), (("sp", 4), 4)]]
    return cases + [(so5, invariant_generators(so5), liealg.principal_sl2(so5).e, 4)]


def test_fiber_dimensions(principal_fibers):
    for L, fam, e, dim in principal_fibers:
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


def test_fiber_generators_are_the_scaled_shifts(principal_fibers):
    # Taylor expansion of p(y + t*xi): p^(j)(xi, y) == D^(d-j) p(y) / (d-j)!
    for L, fam, e, _ in principal_fibers:
        n = L.dim
        xi = liealg.dual_of(L, e)
        images = [Poly.constant(n, v) for v in xi] + [Poly.variable(n, k) for k in range(n)]
        for p, d in zip(fam.generators, fam.degrees):
            for j, comp in enumerate(bigraded_components(p)):
                shift = shift_derivative(p, xi, d - j) * Fraction(1, factorial(d - j))
                assert comp.substitute(images) == shift, (L.dim, d, j)


def test_fiber_check_does_not_build_the_bicone(algebras, families, triples, monkeypatch):
    def refused(p):
        raise AssertionError("the fiber check built a bicone generator")

    monkeypatch.setattr(bicone, "bigraded_components", refused)
    spec = ("sl", 3)
    rep = bicone_fiber_check(algebras[spec], families[spec], triples[spec].e)
    assert rep.ideal_dimension == 3 and rep.verdict is True


def test_fiber_check_rejects_a_zero_shift(algebras, families, triples, monkeypatch):
    # at a regular point no shift vanishes; plant a zero one
    real = bicone.mf_generators

    def zeroed(L, fam, xi):
        mf = real(L, fam, xi)
        i, j, p = mf.entries[-1]
        mf.entries[-1] = (i, j, Poly.zero(p.arity))
        mf.zero_entries = [(i, j)]
        return mf

    monkeypatch.setattr(bicone, "mf_generators", zeroed)
    spec = ("sl", 3)
    with pytest.raises(InternalError, match=r"shifts \[\(1, 2\)\] vanish at a regular point"):
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
    with pytest.raises(LieAlgebraError, match="vector length mismatch"):
        pencil_regularity(L, fam, [1], [1])
    L3 = algebras[("sl", 3)]
    for x, y in [([1, 0, 0], [2, 0, 0]), ([1] * 8, [1] * 7)]:
        with pytest.raises(LieAlgebraError, match="vector length mismatch"):
            pencil_regularity(L3, families[("sl", 3)], x, y)


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


def spy_line_reader(monkeypatch):
    """Make the Groebner engine raise, and record each determinant and each
    elimination (rows in, pivots out) the line reader makes."""
    log = {"dets": [], "eliminations": []}
    real_det, real_eliminate = linalg.det, linalg._eliminate

    def engine(*args, **kwargs):
        raise AssertionError("the line reader reached the Groebner engine")

    def det(rows):
        log["dets"].append(real_det(rows))
        return log["dets"][-1]

    def eliminate(rows, reduced):
        done = real_eliminate(rows, reduced)
        log["eliminations"].append((len(rows), len(done)))
        return done

    monkeypatch.setattr(groebner, "_basis", engine)
    monkeypatch.setattr(linalg, "det", det)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    return log


def test_pencil_on_an_abelian_centralizer(algebras, monkeypatch):
    # g^e for gl_3's principal e is abelian and its transported family is
    # linear, so D = 0: the one maximal minor is a constant, read at one point,
    # and it is nonzero, so the pencil is regular
    L = algebras[("gl", 3)]
    pipe = _slice_pipeline(L, nilpotent_from_partition(L, (3,)))
    Lc = pipe.centralizer
    fam = pipe.family
    assert fam.degrees == [p.total_degree() for p in fam.generators] == [1, 1, 1]
    assert Lc.dim == 3
    log = spy_line_reader(monkeypatch)
    basis = [[Fraction(int(i == k)) for i in range(Lc.dim)] for k in range(Lc.dim)]
    for x, y in itertools.combinations(basis, 2):
        log["dets"].clear()
        log["eliminations"].clear()
        assert pencil_regularity(Lc, fam, x, y)
        [minor] = log["dets"]
        assert minor != 0
        # x, y independent; one value vector with one entry; one product of rank 1
        assert log["eliminations"] == [(2, 2), (1, 1), (1, 1)]


def test_pencil_with_every_minor_zero(algebras, families, monkeypatch):
    # the line through E12 and E13 lies in the minimal nilpotent orbit's
    # closure: every maximal minor vanishes at all 2D = 6 points, so no value
    # vector survives and no product is formed
    L = algebras[("sl", 3)]
    fam = families[("sl", 3)]
    x, y = elem(L, "E12"), elem(L, "E13")
    assert bicone_membership(L, fam, x, y)
    log = spy_line_reader(monkeypatch)
    assert not pencil_regularity(L, fam, x, y)
    assert len(log["dets"]) == 28 * 6 and not any(log["dets"])
    assert log["eliminations"] == [(2, 2), (28, 0), (0, 0)]
    report = smoothness_crosscheck(L, fam, [(x, y), omega_pair(L)])
    assert [e["pencil_regular"] for e in report.results] == [False, True]
    assert report.all_agree


def test_line_readers_reject_a_generator_off_its_degree(algebras, families):
    # the readings at X + k*Y decide only for a generator homogeneous of its
    # listed degree: x0 * q + x0 is not homogeneous, x0 * c has degree 4, not 3
    L = algebras[("sl", 3)]
    fam = families[("sl", 3)]
    quadric, cubic = fam.generators
    x0 = Poly.variable(L.dim, 0)
    planted = [
        ([quadric, x0 * quadric + x0], [2, 3], "generator 1 is not homogeneous of degree 3"),
        ([quadric, x0 * cubic], [2, 3], "generator 1 is not homogeneous of degree 3"),
        ([quadric, cubic], [2, 2], "generator 1 is not homogeneous of degree 2"),
        ([quadric, cubic], [2], "one degree per generator"),
    ]
    x, y = omega_pair(L)
    for gens, degrees, message in planted:
        bad = InvariantFamily(algebra=L, generators=gens, degrees=degrees)
        for check in (bicone_membership, pencil_regularity):
            with pytest.raises(InternalError, match=message):
                check(L, bad, x, y)
        with pytest.raises(InternalError, match=message):
            smoothness_crosscheck(L, bad, [(x, y)])


def _sympy_line_verdicts(L, fam, x, y):
    """(membership, pencil regularity) by sympy alone: each generator and the
    gradient's maximal minors (Leibniz sums) restricted to s*x + t*y as
    polynomials in Q[s, t]; regular means x, y independent, some minor
    nonzero and the minors' gcd constant."""
    import sympy

    n, ell = L.dim, len(fam.generators)
    zs = sympy.symbols(f"z0:{n}")
    s, t = sympy.symbols("s t")
    line = {z: s * a + t * b for z, a, b in zip(zs, liealg.dual_of(L, x), liealg.dual_of(L, y))}

    def on_line(expr):
        return sympy.Poly(expr.xreplace(line), s, t)

    gens = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(z ** e for z, e in zip(zs, mono)))
                        for mono, c in p.terms.items()))
            for p in fam.generators]
    member = all(on_line(g).is_zero for g in gens)
    grad = [[on_line(sympy.diff(g, z)) for z in zs] for g in gens]
    minors = []
    for cols in itertools.combinations(range(n), ell):
        minor = sympy.Poly(0, s, t)
        for perm in itertools.permutations(range(ell)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            minor += sign * functools.reduce(lambda f, g: f * g,
                                             (grad[i][cols[perm[i]]] for i in range(ell)))
        if not minor.is_zero:
            minors.append(minor)
    regular = (sympy.Matrix([x, y]).rank() == 2 and bool(minors)
               and functools.reduce(sympy.Poly.gcd, minors).total_degree() == 0)
    return member, regular


def _substitution_membership(L, fam, x, y):
    """The earlier route: every generator substituted by the line's linear forms."""
    line = [Poly.linear_form(st) for st in zip(liealg.dual_of(L, x), liealg.dual_of(L, y))]
    return all(p.substitute(line).is_zero() for p in fam.generators)


def _line_cases(algebras, families, workloads):
    """(L, family, pairs): the benchmark's sl_3 pairs for seeds 1 and 24001,
    seeded strictly upper triangular pairs of gl_3 and sp_4 (members whose
    pencils meet the nilradical's non-regular hyperplanes, so never regular),
    gl_3's regular pencil through E12+E23 and E21-E32, seeded random pairs
    of each algebra (almost never members), the sl_2 non-member
    (E12, E21 - E12), whose quadric vanishes at t = 0 and 1 but not at 2, and
    the transported families of gl_3's (3,) and (2, 1) centralizers (degrees
    1, 1, 1 and 1, 1, 2, so D = 0 and 1) on their basis pairs, a
    proportional pair and seeded random pairs.  The flag asks for the pencil
    verdict on every pair, not only on members."""
    sl3 = algebras[("sl", 3)]
    cases = [(sl3, families[("sl", 3)], workloads.bicone_samples(sl3, seed)) for seed in (1, 24001)]
    for k, spec in enumerate([("gl", 3), ("sp", 4)]):
        L, rng = algebras[spec], random.Random(300 + k)
        upper = []
        for _ in range(10):
            x, y = ([Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(L.dim)] for _ in range(2))
            upper.append((strictly_upper(L, x), strictly_upper(L, y)))
        cases.append((L, families[spec], upper))
    cases.append((algebras[("gl", 3)], families[("gl", 3)], [omega_pair(algebras[("gl", 3)])]))
    for spec in [("sl", 3), ("gl", 3), ("sp", 4)]:
        L, rng = algebras[spec], random.Random(400 + L.dim)
        pairs = [tuple([Fraction(rng.randint(-2, 2)) for _ in range(L.dim)] for _ in range(2))
                 for _ in range(4)]
        cases.append((L, families[spec], pairs))
    sl2 = algebras[("sl", 2)]
    cases.append((sl2, families[("sl", 2)],
                  [(elem(sl2, "E12"), combine((1, elem(sl2, "E21")), (-1, elem(sl2, "E12"))))]))
    cases = [(L, fam, pairs, False) for L, fam, pairs in cases]
    gl3 = algebras[("gl", 3)]
    for partition in [(3,), (2, 1)]:
        pipe = _slice_pipeline(gl3, nilpotent_from_partition(gl3, partition))
        Lc, rng = pipe.centralizer, random.Random(500 + len(partition))
        basis = [[Fraction(int(i == k)) for i in range(Lc.dim)] for k in range(Lc.dim)]
        pairs = list(itertools.combinations(basis, 2)) + [(basis[0], [2 * c for c in basis[0]])]
        pairs += [tuple([Fraction(rng.randint(-2, 2)) for _ in range(Lc.dim)] for _ in range(2))
                  for _ in range(6)]
        cases.append((Lc, pipe.family, pairs, True))
    return cases


def test_line_readings_match_sympy(algebras, families, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    seen = set()
    for L, fam, pairs, every in _line_cases(algebras, families, workloads):
        for x, y in pairs:
            member, regular = _sympy_line_verdicts(L, fam, x, y)
            assert bicone_membership(L, fam, x, y) == member
            assert _substitution_membership(L, fam, x, y) == member
            if member or every:
                assert pencil_regularity(L, fam, x, y) == regular, (L.dim, x, y)
            seen.add((L.dim, member, (member or every) and regular))
    # members with regular and non-regular pencils, and non-members; regular
    # and non-regular pencils of non-members on the (3,) centralizer (dim 3),
    # non-regular ones on the (2, 1) centralizer (dim 5), whose restricted
    # trace form has rank 2, so that every dual vector lies where the
    # quadric's gradient vanishes
    assert {(8, True, True), (8, True, False), (9, True, True), (9, True, False),
            (10, True, False), (8, False, False), (9, False, False), (10, False, False),
            (3, False, True), (3, False, False), (5, False, False)} <= seen


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


@pytest.mark.parametrize("seed", [1, 24001])
def test_jacobian_rank_matches_fraction_evaluation(algebras, families, monkeypatch, seed):
    # three sides of one rank: sympy's rank of the bicone generators' partials
    # evaluated one by one at (dual x, dual y); linalg's integer Jacobian of
    # those 2n-variable generators at (X, Y), X and Y positive integer
    # multiples of dual x and dual y, which the bihomogeneous generators rank
    # the same; and the line reader's rows (G(k), k*G(k)) at X + k*Y.  The
    # sl_3 pairs are the benchmark's bicone samples, whose ranks are also the
    # smoothness report's.  The reader's identity holds for any pair, so pairs
    # outside the bicone check it at the reader on sl_2, gl_3, sp_4 and so_5:
    # (h, 2h) and (h, 0) for the principal h, whose ranks fall short, and
    # seeded random pairs, whose ranks are full
    import sympy

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    L, fam = algebras[("sl", 3)], families[("sl", 3)]
    samples = importlib.import_module("workloads").bicone_samples(L, seed)
    reported = [e["jacobian_rank"] for e in smoothness_crosscheck(L, fam, samples).results]
    cases = [("sl3", L, fam, samples, reported)]
    so5 = liealg.build_classical("so", 5)
    others = [(f"{t}{n}", algebras[(t, n)], families[(t, n)])
              for t, n in [("sl", 2), ("gl", 3), ("sp", 4)]]
    for k, (name, M, fam) in enumerate(others + [("so5", so5, invariant_generators(so5))]):
        rng, h = random.Random(seed + k), liealg.principal_sl2(M).h
        pairs = [(h, [2 * c for c in h]), (h, [Fraction(0)] * M.dim)]
        pairs += [tuple([Fraction(rng.randint(-2, 2)) for _ in range(M.dim)] for _ in range(2))
                  for _ in range(3)]
        assert not any(bicone_membership(M, fam, x, y) for x, y in pairs)
        cases.append((name, M, fam, pairs, None))
    seen = set()
    for name, M, fam, pairs, reported in cases:
        gens = bicone_generators(M, fam).polynomials()
        jacobian, reader = linalg.jacobian_at(gens), bicone._LineReader(fam)
        for k, (x, y) in enumerate(pairs):
            pt = liealg.dual_of(M, x) + liealg.dual_of(M, y)
            want = sympy.Matrix([[g.diff(j).evaluate(pt) for j in range(len(pt))] for g in gens]).rank()
            X, Y = (liealg.integer_dual_of(M, v) for v in (x, y))
            assert linalg.rank(jacobian(pt)) == want
            assert linalg.rank(jacobian(X + Y)) == want
            assert reader.jacobian_rank(reader.readings(M, x, y)) == want, (name, x, y)
            assert reported is None or reported[k] == want
            seen.add((name, want == len(gens)))
    # full and deficient ranks on every algebra, the sl_3 bicone samples included
    assert seen == {(name, full) for name, *_ in cases for full in (True, False)}


def test_smoothness_report_lists_its_disagreements():
    def entry(pencil, jac):
        return {"x": [], "y": [], "pencil_regular": pencil, "jacobian_full": jac}

    agreeing = [entry(True, True), entry(False, False)]
    rep = bicone.SmoothnessReport(sample_count=4, results=[*agreeing, entry(True, False),
                                                           entry(False, True)])
    assert rep.disagreements == [entry(True, False), entry(False, True)]
    assert not rep.all_agree
    rep = bicone.SmoothnessReport(sample_count=2, results=agreeing)
    assert rep.disagreements == [] and rep.all_agree


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
